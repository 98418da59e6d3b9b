(** The Glimpse-style two-level content index — HAC's default CBA mechanism.

    Documents (files) are assigned dense integer identifiers and grouped into
    fixed-size {e blocks}.  The inverted index maps each (stemmed) word to a
    bitmap of blocks, not of documents: that is Glimpse's space/precision
    trade-off.  A word lookup expands candidate blocks to their live
    documents; callers needing exact answers verify candidates against the
    actual contents ({!Search}).  With [block_size = 1] the index degenerates
    to a precise document-level inverted index.

    Block updates are lazy, like Glimpse's: removing or rewriting a document
    does not erase its old words from block bitmaps (that would need
    per-block reference counts); stale bits only cost verification work and
    disappear on {!rebuild}.

    The CAS postings ({!Cas}, the default query path) are exact instead.
    Each indexed document keeps its key set (vocabulary-log ids of its
    words, attribute-log ids of its attribute pairs); an update posts only
    the keys the document gained and unposts the keys it lost, a removal
    unposts all of them, and a rename across partition labels moves them.
    The one inexact case is a document a fast mount adopted
    ({!adopt_document}): its postings live in cold segments, which go stale
    once it changes.  {!stale_ratio} weighs exactly what a {!rebuild} would
    reclaim on the active query path. *)

type t
(** One index instance. *)

type doc_id = int
(** Dense document identifier, stable for the life of the path. *)

val create : ?block_size:int -> ?stem:bool -> ?transducer:Transducer.t -> unit -> t
(** A fresh empty index.  [block_size] is the number of document slots per
    block (default 8); [stem] applies {!Stemmer.stem} to indexed and queried
    words (default [true]); [transducer] extracts attribute/value pairs from
    every document (default: none), making [attr:value] query terms answer
    from content metadata. *)

val block_size : t -> int
(** The block size chosen at creation. *)

val stemming : t -> bool
(** Whether stemming is on. *)

val transducer : t -> Transducer.t option
(** The attribute transducer installed at creation, if any. *)

val add_document : t -> path:string -> content:string -> doc_id
(** Index a new document.  If the path is already present this behaves like
    {!update_document}. *)

val update_document : t -> path:string -> content:string -> doc_id
(** Reindex the contents of an existing path (same identifier); adds the
    document when missing. *)

val update_document_keys :
  t -> path:string -> content:string -> doc_id * (string, unit) Hashtbl.t
(** {!update_document}, also returning the document's key set: every
    distinct token of the content, keyed as the index keys it (lowercased,
    stemmed when stemming is on).  The table is fresh and owned by the
    caller. *)

val remove_path : t -> string -> unit
(** Forget the document at the path; its identifier is never reused.  No-op
    when absent. *)

val adopt_document : t -> id:doc_id -> path:string -> unit
(** Register a live document at a {e given} identifier with no content — the
    fast-mount path, where postings live in cold on-disk segments keyed by
    that id (and are inexact once the document changes).  Raises
    [Invalid_argument] on a negative id; advances the id allocator past
    [id]. *)

val next_doc_id : t -> doc_id
(** The next identifier {!add_document} would assign (= the id-space size,
    dead slots included). *)

val reserve_doc_ids : t -> int -> unit
(** Ensure future identifiers start at or above [n] — dead documents' ids
    still appear in cold segments, and a fresh id must never alias one. *)

val iter_live : t -> (doc_id -> string -> unit) -> unit
(** Every live document with its path, ascending by id. *)

val iter_cas_terms : t -> (string -> Hac_bitset.Fileset.t -> unit) -> unit
(** Every CAS term key with its posting set (see {!Cas.iter_terms}) — what
    a postings-segment dump persists. *)

val set_cold :
  t ->
  lookup:(string -> Hac_bitset.Fileset.t) ->
  cost:(string -> int) ->
  words:(unit -> string list) ->
  unit
(** Install a cold-postings provider: term lookups over on-disk segments not
    loaded into memory, keyed by the {!Cas} flat term encodings.  Its sets
    are unioned into every candidate answer (masked by the live universe and
    trimmed by verification — an over-broad provider costs work, never
    correctness), its costs added to {!term_cost}/{!attr_cost}, and its
    [words] swept once by each cached vocabulary expansion (so [words]
    must already list every word the provider can answer for; later
    additions must also be resident).  Drops cached expansions. *)

val clear_cold : t -> unit
(** Remove the cold provider ({!rebuild} also does); drops cached
    expansions. *)

val has_cold : t -> bool

val rename_path : t -> old_path:string -> new_path:string -> unit
(** Move a document to a new path, keeping its identifier; its CAS postings
    follow it to the new path's partition.  A document indexed at
    [new_path] is removed (clobbered).  No-op when [old_path] is not
    indexed. *)

val doc_count : t -> int
(** Number of live documents. *)

val universe : t -> Hac_bitset.Fileset.t
(** Set of all live document identifiers. *)

val doc_path : t -> doc_id -> string option
(** Path of a live document. *)

val doc_of_path : t -> string -> doc_id option
(** Identifier of an indexed path. *)

val candidate_docs :
  ?within:Hac_bitset.Fileset.t -> ?under:string -> t -> string -> Hac_bitset.Fileset.t
(** Live documents that may contain the word (after stemming) — a superset
    of the true answer, to be verified by the caller.  With the CAS path on
    (default, see {!set_use_cas}) candidates come from the doc-granular
    partitioned postings; [?under] (a normalized absolute directory)
    restricts generation to the partitions whose path label can hold
    documents under that scope, which is sound whenever the caller
    intersects the final result with a subtree scope below [under].
    [?within] intersects the answer with the given set.  With CAS off the
    Glimpse block path is used, [?under] is ignored, and [?within] restricts
    without expanding posting blocks. *)

val candidate_docs_approx :
  ?within:Hac_bitset.Fileset.t -> t -> word:string -> errors:int -> Hac_bitset.Fileset.t
(** Live documents that may contain a word within the given edit distance of
    [word] (after stemming) — Glimpse's approximate-query expansion, a
    superset of the true answer.  The matched vocabulary comes from the
    cached {!approx_expansion}, so repeated lookups agrep only the words
    indexed since the previous one; candidates are the matched words'
    doc-granular CAS postings (Glimpse block postings with CAS off) plus
    the cold provider's postings for matched cold words.  [?within]
    intersects the answer with the given set. *)

(** {1 Vocabulary expansions}

    The resident vocabulary is kept in first-posting order (the vocabulary
    log).  An expansion is the set of vocabulary keys an approximate term or
    a required regex literal selects; it is cached per pattern and extended
    on each request by sweeping only the log tail appended since its last
    sweep, plus the cold provider's [words] once per installed provider.
    {!rebuild}, {!set_cold} and {!clear_cold} drop every cached expansion.
    Requests are safe from worker domains while the index is not mutated;
    a returned expansion is immutable. *)

type expansion

val approx_expansion : t -> word:string -> errors:int -> expansion
(** The keys within [errors] edits of [word]'s key ({!Agrep.word_matches}),
    swept up to the current vocabulary. *)

val literal_expansion : t -> string -> expansion
(** The keys containing the literal as a substring, plus every key of
    {!Tokenizer.max_word_len} characters (possibly truncated tokens) — the
    regex narrowing set of an unstemmed index. *)

val expansion_words : expansion -> string list
(** Matched keys, resident and cold, sorted and de-duplicated. *)

val expansion_matches : t -> expansion -> string -> bool
(** Whether a key satisfies the expansion's test.  Swept keys are decided
    by membership alone; other keys (not indexed yet, cold-only) run the
    test itself.  Always equal to running the test. *)

val approx_words_tested : t -> int
(** Vocabulary keys agrepped by approximate expansions over the index's
    lifetime — the work the expansion cache bounds by new vocabulary. *)

val doc_ids_under : t -> string -> Hac_bitset.Fileset.t
(** Live documents at or below a (normalized, absolute) directory path —
    maintained incrementally per document, so subtree scopes cost a lookup
    rather than a scan over every document.  [doc_ids_under t "/"] equals
    {!universe}. *)

val attr_docs :
  ?within:Hac_bitset.Fileset.t ->
  ?under:string ->
  t ->
  string ->
  string ->
  Hac_bitset.Fileset.t
(** Live documents carrying the attribute/value pair (extracted by the
    transducer at indexing time).  Empty when no transducer is installed.
    Same superset/verification contract and [?within]/[?under] semantics as
    {!candidate_docs}; attribute lookups are exact on the value. *)

val term_cost : ?under:string -> t -> string -> int
(** Estimate of [candidate_docs t w]'s cardinality.  With CAS on this is
    measured from the compressed partitions the lookup would actually touch
    (scoped by [?under]); with CAS off it is the Glimpse posting-block upper
    bound (populated blocks × block size, clamped to the live document
    count).  Never materializes a candidate set — cheap enough to consult
    once per query term on every resync, which is what {!Planner.optimize}
    needs to rank conjuncts by real selectivity.  Safe to call from worker
    domains. *)

val attr_cost : ?under:string -> t -> string -> string -> int
(** {!term_cost} for an attribute/value pair. *)

val set_use_cas : t -> bool -> unit
(** Toggle the CAS query path (default on).  Off, term lookups fall back to
    Glimpse block expansion — the ablation baseline; indexing maintains both
    structures either way (CAS exact, blocks lazy), so the knob can be
    flipped at any time. *)

val use_cas : t -> bool
(** Current state of the CAS query-path knob. *)

val cas_stats : t -> Cas.stats
(** Memory accounting and container histogram of the CAS postings (forces
    partition snapshots — a stats-time cost). *)

val attributes : t -> (string * string) list
(** All indexed attribute/value pairs, sorted. *)

val vocabulary : t -> string list
(** All indexed (stemmed) words, sorted. *)

val vocabulary_size : t -> int
(** Number of distinct indexed words. *)

val rebuild : t -> (doc_id -> string option) -> unit
(** Drop all postings, the vocabulary and attribute logs, cached expansions
    and the cold provider, and reindex every live document from the reader
    (a document it cannot read is dropped) — reclaims stale block bits and
    replaces stale cold postings with resident ones. *)

val index_bytes : t -> int
(** Estimated byte size of the index structures (vocabulary + block bitmaps
    + document table): the paper's Table 3 space column. *)

val stale_ratio : t -> float
(** Staleness of the active query path since the last {!rebuild}, relative
    to live documents — the signal for automatic compaction.  With CAS on
    it counts only inexact documents: adopted documents ({!adopt_document})
    updated or removed since, whose cold postings went stale.  With CAS off
    it counts every lazy block operation (removal or in-place update), as
    Glimpse's index does.  Block bitmaps keep their lazy count while CAS is
    on, so switching CAS off reports the staleness they accumulated. *)
