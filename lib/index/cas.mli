(** Combined content-and-structure index: per-term postings partitioned by a
    path-prefix label, so a path-scoped term lookup unions only the
    partitions whose label can contain documents under the scope.

    Postings are exact, unlike the Glimpse block index: the owner posts
    only the keys a document gains, unposts the keys it loses (all of them
    when it is removed), and re-posts a document under its new label when a
    rename moves it across partitions.  Every answer is then exactly the
    live documents carrying the term (within the covered partitions).
    Mutation is main-domain-only between settle passes; lookups and costs
    are safe from worker domains. *)

type t

val create : unit -> t

val reset : t -> unit
(** Drop all postings and labels (used by index rebuild). *)

val label_of_path : string -> string
(** The partition label of a document path: the depth-<=2 prefix of its
    directory ("/a/b/c/f.txt" -> "/a/b", "/f.txt" -> "/"). *)

val note_doc : t -> int -> path:string -> unit
(** Record (or refresh) the document's label and mark it alive.  Postings
    are filed under the label current when they are posted: a caller
    changing a posted document's label unposts its keys before and re-posts
    them after. *)

val note_remove : t -> int -> unit
(** Mark the document dead.  The caller unposts its keys. *)

val alive : t -> Hac_bitset.Fileset.t
(** Snapshot of the live-document set (cached between mutations). *)

val post_word : t -> int -> string -> unit
(** [post_word t id w] adds the (stemmed) word posting under the document's
    current label.  The caller posts each of a document's keys once. *)

val post_attr : t -> int -> string -> string -> unit
(** Attribute/value posting, same contract as {!post_word}. *)

val unpost_word : t -> int -> string -> unit
(** Remove the document's posting of the word from its current label's
    partition (no-op when absent).  An emptied partition stays allocated
    for the term's next posting; lookups, {!iter_terms} and {!stats} treat
    it as absent. *)

val unpost_attr : t -> int -> string -> string -> unit
(** {!unpost_word} for an attribute/value pair. *)

val word_key : string -> string
val attr_key : string -> string -> string
(** The flat encodings of a (stemmed) word / lowercased attribute pair as a
    single term key (["w:…"] / ["a:…"]) — the key space {!iter_terms}
    enumerates and on-disk postings segments are addressed by. *)

val iter_terms : t -> (string -> Hac_bitset.Fileset.t -> unit) -> unit
(** Every term key with its (non-empty) posting set, all partitions
    unioned.  Forces partition snapshots — a dump-time cost, like
    {!stats}. *)

val word_candidates : ?under:string -> t -> string -> Hac_bitset.Fileset.t
(** Live documents whose indexed key set contains the word.  With [?under]
    (a normalized absolute directory) only the partitions whose label can
    hold documents under that scope are unioned — a superset of (word docs ∩
    docs under scope) that the caller intersects with the scope. *)

val attr_candidates : ?under:string -> t -> string -> string -> Hac_bitset.Fileset.t

val word_cost : ?under:string -> t -> string -> int
(** Measured candidate-cardinality estimate: sum of the covered partitions'
    sizes, no set materialization.  Reflects the actual posting sizes of the
    compressed representation, per scope. *)

val attr_cost : ?under:string -> t -> string -> string -> int

type stats = {
  labels : int;
  terms : int;
  partitions : int;
  postings : int;  (** (document, term) postings *)
  bytes : int;  (** compressed snapshot payload bytes *)
  raw_bytes : int;  (** posting-vector backing store bytes *)
  uncompressed_bytes : int;  (** one whole-universe bitmap per term *)
  arrays : int;
  bitmaps : int;
  run_containers : int;
}

val stats : ?universe:int -> t -> stats
(** Container histogram and memory accounting over all partitions.  Forces
    every partition snapshot — an explicit stats-time cost.  [universe] (the
    document-id space size) prices the uncompressed one-bitmap-per-term
    alternative for the compression-ratio report. *)
