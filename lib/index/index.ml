module Bitset = Hac_bitset.Bitset
module Fileset = Hac_bitset.Fileset
module SSet = Set.Make (String)

type doc_id = int

(* Key sets: a document's distinct log ids, sorted and stored as LEB128
   varints of the gaps between consecutive ids — about a byte per key
   instead of a word, since every live document keeps one. *)
module Keys = struct
  let encode buf (ids : int array) =
    Buffer.clear buf;
    let prev = ref 0 in
    Array.iter
      (fun id ->
        let d = ref (id - !prev) in
        prev := id;
        while !d >= 0x80 do
          Buffer.add_char buf (Char.unsafe_chr (!d land 0x7f lor 0x80));
          d := !d lsr 7
        done;
        Buffer.add_char buf (Char.unsafe_chr !d))
      ids;
    Buffer.contents buf

  (* A decoding position: [id] is the current key, [max_int] past the end. *)
  type cursor = { s : string; mutable pos : int; mutable id : int }

  let advance c =
    if c.pos >= String.length c.s then c.id <- max_int
    else begin
      let d = ref 0 and shift = ref 0 and more = ref true in
      while !more do
        let b = Char.code (String.unsafe_get c.s c.pos) in
        c.pos <- c.pos + 1;
        d := !d lor ((b land 0x7f) lsl !shift);
        shift := !shift + 7;
        more := b >= 0x80
      done;
      c.id <- c.id + !d
    end

  let cursor s =
    let c = { s; pos = 0; id = 0 } in
    advance c;
    c

  let iter f s =
    let c = cursor s in
    while c.id <> max_int do
      f c.id;
      advance c
    done

  (* [lost] on keys only in [old_keys], [gained] on keys only in
     [new_keys]; kept keys are left alone. *)
  let diff old_keys new_keys ~lost ~gained =
    let o = cursor old_keys and n = cursor new_keys in
    while o.id <> max_int || n.id <> max_int do
      if o.id < n.id then begin
        lost o.id;
        advance o
      end
      else if n.id < o.id then begin
        gained n.id;
        advance n
      end
      else begin
        advance o;
        advance n
      end
    done
end

(* Each indexed document keeps its posted key sets — its words (ids into
   [vlog]) and its attribute pairs (ids into [alog]) — so an update can
   post exactly the keys it gained and unpost exactly the keys it lost.
   [adopted] marks a document a fast mount adopted and that has not
   changed since: its postings live only in cold segments (its key sets
   are empty), and they go stale the first time it changes. *)
type doc = {
  mutable path : string;
  mutable alive : bool;
  mutable wkeys : string;
  mutable akeys : string;
  mutable adopted : bool;
}

let dead_doc () = { path = ""; alive = false; wkeys = ""; akeys = ""; adopted = false }

let live_doc path = { path; alive = true; wkeys = ""; akeys = ""; adopted = false }

(* A cold-postings provider: term lookups over on-disk postings segments a
   fast mount did not load into memory.  Keys are the {!Cas} flat term
   encodings.  Every set it returns is unioned in as extra candidates —
   masked by the live universe and trimmed by verification, so a stale or
   over-broad provider can cost work but never correctness. *)
type cold = {
  lookup : string -> Fileset.t;
  cost : string -> int;
  words : unit -> string list;  (* stemmed words with cold postings *)
}

(* A resident word's block bitmap and its position in the vocabulary log. *)
type posting = { blocks : Bitset.t; seq : int }

(* An attribute pair's block bitmap and its position in the attribute log. *)
type attr_posting = { ablocks : Bitset.t; aseq : int }

(* Vocabulary expansions: the keys an approximate term (pattern, errors) or a
   required regex literal selects.  An expansion is immutable once published;
   extending it to newer vocabulary publishes a fresh one. *)
type xkey = Approx of string * int | Literal of string

type expansion = {
  x_test : string -> bool;
  x_resident : SSet.t; (* matched keys among the log prefix swept *)
  x_scanned : int; (* length of the vocabulary-log prefix swept *)
  x_cold : SSet.t option; (* matched cold words; [None] until swept *)
}

type xentry = { xe_lock : Mutex.t; mutable xe_exp : expansion }

type t = {
  block_size : int;
  stem : bool;
  transducer : Transducer.t option;
  mutable docs : doc array; (* slot = doc_id; grows, never shrinks *)
  mutable next_id : int;
  by_path : (string, doc_id) Hashtbl.t;
  postings : (string, posting) Hashtbl.t; (* word -> block bitmap *)
  mutable vlog : string array; (* resident words in first-posting order *)
  mutable vlog_len : int;
  xlock : Mutex.t; (* guards [xcache]; each entry extends under its own lock *)
  xcache : (xkey, xentry) Hashtbl.t;
  approx_tested : int Atomic.t; (* vocabulary keys agrepped by expansion *)
  attr_postings : (string * string, attr_posting) Hashtbl.t; (* (attr, value) -> block bitmap *)
  mutable alog : (string * string) array; (* attribute pairs in first-posting order *)
  mutable alog_len : int;
  mutable scratch : int array; (* key ids of the document being indexed *)
  kbuf : Buffer.t; (* key-set encoding buffer *)
  mutable lazy_ops : int; (* removals + in-place updates since the last rebuild *)
  mutable cold_stale : int; (* adopted documents updated or removed since *)
  by_dir : (string, Fileset.Builder.t) Hashtbl.t; (* ancestor dir -> live docs beneath it *)
  cas : Cas.t; (* content-and-structure postings, doc-granular *)
  mutable use_cas : bool; (* query-path knob: CAS vs block expansion *)
  mutable cold : cold option; (* on-disk postings behind the resident ones *)
}

let create ?(block_size = 8) ?(stem = true) ?transducer () =
  if block_size < 1 then invalid_arg "Index.create: block_size < 1";
  {
    block_size;
    stem;
    transducer;
    docs = Array.make 64 (dead_doc ());
    next_id = 0;
    by_path = Hashtbl.create 256;
    postings = Hashtbl.create 4096;
    vlog = Array.make 256 "";
    vlog_len = 0;
    xlock = Mutex.create ();
    xcache = Hashtbl.create 16;
    approx_tested = Atomic.make 0;
    attr_postings = Hashtbl.create 64;
    alog = [||];
    alog_len = 0;
    scratch = Array.make 256 0;
    kbuf = Buffer.create 256;
    lazy_ops = 0;
    cold_stale = 0;
    by_dir = Hashtbl.create 256;
    cas = Cas.create ();
    use_cas = true;
    cold = None;
  }

let set_use_cas t flag = t.use_cas <- flag

let use_cas t = t.use_cas

(* Expansions depend on the vocabulary log and the cold provider's words;
   whatever resets either drops them.  Main-domain-only, between passes. *)
let drop_expansions t =
  Mutex.lock t.xlock;
  Hashtbl.reset t.xcache;
  Mutex.unlock t.xlock

let set_cold t ~lookup ~cost ~words =
  t.cold <- Some { lookup; cost; words };
  drop_expansions t

let clear_cold t =
  t.cold <- None;
  drop_expansions t

let has_cold t = t.cold <> None

let block_size t = t.block_size

let stemming t = t.stem

let transducer t = t.transducer

let key t w = if t.stem then Stemmer.stem w else w

let block_of t id = id / t.block_size

let ensure_docs t id =
  let n = Array.length t.docs in
  if id >= n then begin
    let docs = Array.make (max (id + 1) (2 * n)) (dead_doc ()) in
    Array.blit t.docs 0 docs 0 n;
    t.docs <- docs
  end

let log_word t w =
  let n = Array.length t.vlog in
  if t.vlog_len = n then begin
    let a = Array.make (2 * n) "" in
    Array.blit t.vlog 0 a 0 n;
    t.vlog <- a
  end;
  t.vlog.(t.vlog_len) <- w;
  t.vlog_len <- t.vlog_len + 1

(* Block postings are lazy (Glimpse): a key is posted to the document's
   block whenever it is indexed and never cleared before {!rebuild}.  Both
   return the key's log id. *)
let post_key t block k =
  match Hashtbl.find_opt t.postings k with
  | Some p ->
      Bitset.add p.blocks block;
      p.seq
  | None ->
      let bm = Bitset.create ~capacity:(block + 1) () in
      Bitset.add bm block;
      let seq = t.vlog_len in
      Hashtbl.replace t.postings k { blocks = bm; seq };
      log_word t k;
      seq

let post_attr t block k =
  match Hashtbl.find_opt t.attr_postings k with
  | Some p ->
      Bitset.add p.ablocks block;
      p.aseq
  | None ->
      let bm = Bitset.create ~capacity:(block + 1) () in
      Bitset.add bm block;
      let aseq = t.alog_len in
      Hashtbl.replace t.attr_postings k { ablocks = bm; aseq };
      if aseq = Array.length t.alog then begin
        let a = Array.make (max 16 (2 * aseq)) ("", "") in
        Array.blit t.alog 0 a 0 aseq;
        t.alog <- a
      end;
      t.alog.(aseq) <- k;
      t.alog_len <- aseq + 1;
      aseq

let push_scratch t n id =
  if n = Array.length t.scratch then begin
    let a = Array.make (2 * n) 0 in
    Array.blit t.scratch 0 a 0 n;
    t.scratch <- a
  end;
  t.scratch.(n) <- id

(* The first [n] scratch ids as an encoded key set. *)
let scratch_keys t n =
  if n = 0 then ""
  else begin
    let a = Array.sub t.scratch 0 n in
    Array.sort Int.compare a;
    let m = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!m - 1) then begin
        a.(!m) <- a.(i);
        incr m
      end
    done;
    Keys.encode t.kbuf (if !m = n then a else Array.sub a 0 !m)
  end

let unpost_word t id wid = Cas.unpost_word t.cas id t.vlog.(wid)

let post_word t id wid = Cas.post_word t.cas id t.vlog.(wid)

let unpost_attr t id aid =
  let k, v = t.alog.(aid) in
  Cas.unpost_attr t.cas id k v

let post_attr_cas t id aid =
  let k, v = t.alog.(aid) in
  Cas.post_attr t.cas id k v

(* Every CAS posting of the document, gone — before a removal, or before a
   rename moves it to another partition. *)
let unpost_all t id d =
  Keys.iter (unpost_word t id) d.wkeys;
  Keys.iter (unpost_attr t id) d.akeys

(* Every ancestor directory of "/a/b/c.txt": "/", "/a", "/a/b".  Paths are
   normalized absolute by the callers' convention. *)
let ancestors path =
  let rec go acc i =
    match String.index_from_opt path i '/' with
    | Some j when j = 0 -> go ("/" :: acc) 1
    | Some j -> go (String.sub path 0 j :: acc) (j + 1)
    | None -> acc
  in
  go [] 0

let dir_enroll t path id =
  List.iter
    (fun dir ->
      match Hashtbl.find_opt t.by_dir dir with
      | Some b -> Fileset.Builder.add b id
      | None ->
          let b = Fileset.Builder.create () in
          Fileset.Builder.add b id;
          Hashtbl.replace t.by_dir dir b)
    (ancestors path)

let dir_withdraw t path id =
  List.iter
    (fun dir ->
      match Hashtbl.find_opt t.by_dir dir with
      | Some b -> Fileset.Builder.remove b id
      | None -> ())
    (ancestors path)

(* Each token is keyed (stemmed) once, and each distinct key is posted to
   the document's block once, in first-occurrence order, so the vocabulary
   log comes out exactly as posting every token would leave it.  The CAS
   postings then move by the difference between the document's old and new
   key sets: gained keys are posted, lost keys unposted, kept keys left
   alone — so they stay exact without a rebuild.  The document's key table
   falls out for free. *)
let index_content t id content =
  let d = t.docs.(id) in
  let block = block_of t id in
  Cas.note_doc t.cas id ~path:d.path;
  let keys = Hashtbl.create 64 in
  let n = ref 0 in
  Tokenizer.iter_words content (fun w ->
      let k = key t w in
      if not (Hashtbl.mem keys k) then begin
        Hashtbl.replace keys k ();
        push_scratch t !n (post_key t block k);
        incr n
      end);
  let words = scratch_keys t !n in
  Keys.diff d.wkeys words ~lost:(unpost_word t id) ~gained:(post_word t id);
  d.wkeys <- words;
  (match t.transducer with
  | None -> ()
  | Some td ->
      let n = ref 0 in
      List.iter
        (fun (k, v) ->
          push_scratch t !n
            (post_attr t block (String.lowercase_ascii k, String.lowercase_ascii v));
          incr n)
        (td.Transducer.extract ~path:d.path ~content);
      let attrs = scratch_keys t !n in
      Keys.diff d.akeys attrs ~lost:(unpost_attr t id) ~gained:(post_attr_cas t id);
      d.akeys <- attrs);
  keys

(* An adopted document's cold postings go stale the first time it changes;
   counting it once is what {!stale_ratio} weighs in CAS mode. *)
let note_cold_stale t d =
  if d.adopted then begin
    d.adopted <- false;
    t.cold_stale <- t.cold_stale + 1
  end

let update_document_keys t ~path ~content =
  match Hashtbl.find_opt t.by_path path with
  | Some id ->
      (* Block bits of lost words stay set until [rebuild] (Glimpse). *)
      t.lazy_ops <- t.lazy_ops + 1;
      note_cold_stale t t.docs.(id);
      (id, index_content t id content)
  | None ->
      let id = t.next_id in
      t.next_id <- t.next_id + 1;
      ensure_docs t id;
      t.docs.(id) <- live_doc path;
      Hashtbl.replace t.by_path path id;
      dir_enroll t path id;
      (id, index_content t id content)

let update_document t ~path ~content = fst (update_document_keys t ~path ~content)

let add_document = update_document

(* Fast-mount adoption: register a document at a {e given} identifier with
   no content — its postings live in cold segments keyed by that id, so the
   id must survive the remount exactly.  Content arrives later only if the
   file changes (a normal {!update_document} through the dirty path). *)
let adopt_document t ~id ~path =
  if id < 0 then invalid_arg "Index.adopt_document: negative id";
  ensure_docs t id;
  t.docs.(id) <- { (live_doc path) with adopted = true };
  Hashtbl.replace t.by_path path id;
  dir_enroll t path id;
  Cas.note_doc t.cas id ~path;
  if id >= t.next_id then t.next_id <- id + 1

let next_doc_id t = t.next_id

(* Dead documents' ids still appear in cold segments; allocating past the
   previous life's frontier keeps a fresh id from aliasing a dead one's
   postings. *)
let reserve_doc_ids t n = if n > t.next_id then t.next_id <- n

let iter_live t f =
  for id = 0 to t.next_id - 1 do
    if t.docs.(id).alive then f id t.docs.(id).path
  done

let iter_cas_terms t f = Cas.iter_terms t.cas f

(* Drop a live document: every CAS posting goes with it; its block bits
   stay until [rebuild] (Glimpse). *)
let kill t id =
  let d = t.docs.(id) in
  unpost_all t id d;
  d.wkeys <- "";
  d.akeys <- "";
  note_cold_stale t d;
  d.alive <- false;
  t.lazy_ops <- t.lazy_ops + 1;
  dir_withdraw t d.path id;
  Cas.note_remove t.cas id

let remove_path t path =
  match Hashtbl.find_opt t.by_path path with
  | None -> ()
  | Some id ->
      kill t id;
      Hashtbl.remove t.by_path path

let rename_path t ~old_path ~new_path =
  match Hashtbl.find_opt t.by_path old_path with
  | None -> ()
  | Some id ->
      Hashtbl.remove t.by_path old_path;
      dir_withdraw t old_path id;
      (* A pre-existing doc at the destination is overwritten, as the file
         it described just got replaced. *)
      (match Hashtbl.find_opt t.by_path new_path with
      | Some clobbered -> kill t clobbered
      | None -> ());
      Hashtbl.replace t.by_path new_path id;
      dir_enroll t new_path id;
      let d = t.docs.(id) in
      (* Crossing partition labels moves the postings along. *)
      if Cas.label_of_path old_path <> Cas.label_of_path new_path then begin
        unpost_all t id d;
        Cas.note_doc t.cas id ~path:new_path;
        Keys.iter (post_word t id) d.wkeys;
        Keys.iter (post_attr_cas t id) d.akeys
      end;
      d.path <- new_path

let doc_count t = Hashtbl.length t.by_path

(* The CAS alive set mirrors the docs array exactly (both are maintained by
   the same mutation paths), and its snapshot is cached between mutations. *)
let universe t = Cas.alive t.cas

let doc_path t id =
  if id < 0 || id >= t.next_id then None
  else
    let d = t.docs.(id) in
    if d.alive then Some d.path else None

let doc_of_path t path = Hashtbl.find_opt t.by_path path

(* Blocks iterate in increasing order and block ranges are disjoint, so the
   candidate ids stream out strictly increasing — straight into containers,
   no intermediate bitmap (the old code built a Bitset and copied it). *)
let expand_blocks t blocks =
  Fileset.of_increasing_iter (fun f ->
      Bitset.iter
        (fun block ->
          let lo = block * t.block_size in
          let hi = min (((block + 1) * t.block_size) - 1) (t.next_id - 1) in
          for id = lo to hi do
            if t.docs.(id).alive then f id
          done)
        blocks)

(* Delta-restricted expansion: when the caller only cares about a known
   (small) candidate set, test each of its members against the block bitmap
   instead of expanding every posting block — O(|within|) rather than
   O(populated blocks × block_size). *)
let within_blocks t blocks wset =
  Fileset.filter
    (fun id ->
      id >= 0 && id < t.next_id && t.docs.(id).alive && Bitset.mem blocks (block_of t id))
    wset

let expand ?within t blocks =
  match within with
  | None -> expand_blocks t blocks
  | Some wset -> within_blocks t blocks wset

(* CAS query path: doc-granular partitioned postings, resolved per scope.
   [?under] restricts candidate generation to the partitions whose label can
   contain documents under the given directory — sound because every answer
   is a verified superset, and the caller intersects the final result with
   the scope set anyway.  With [use_cas] off (the ablation/differential
   baseline) terms fall back to Glimpse block expansion and [?under] is
   ignored. *)
(* Cold candidates for one encoded term key: the provider's set masked by
   the live universe (dead documents' segment postings must not leak). *)
let cold_docs t key =
  match t.cold with
  | None -> Fileset.empty
  | Some c ->
      let s = c.lookup key in
      if Fileset.cardinal s = 0 then s else Fileset.inter s (universe t)

let cold_cost t key = match t.cold with None -> 0 | Some c -> c.cost key

let candidate_docs ?within ?under t w =
  let w = key t w in
  let base =
    if t.use_cas then Cas.word_candidates ?under t.cas w
    else
      match Hashtbl.find_opt t.postings w with
      | None -> Fileset.empty
      | Some p -> expand ?within t p.blocks
  in
  let c =
    if t.cold = None then base else Fileset.union base (cold_docs t (Cas.word_key w))
  in
  match within with None -> c | Some wset -> Fileset.inter c wset

(* -- vocabulary expansion ----------------------------------------------------

   An expansion sweeps each resident key once: extending it agreps only the
   vocabulary-log tail appended since the last sweep, plus the cold
   provider's words once per installed provider.  Evaluations run on pool
   domains, so the sweep happens under the entry's lock and publishes a
   fresh immutable expansion; the index itself is frozen during a pass. *)

let test_of = function
  | Approx (pattern, errors) -> Agrep.word_matches ~pattern ~errors
  | Literal run ->
      (* Tokens of [max_word_len] may be truncated: always candidates. *)
      fun w ->
        String.length w = Tokenizer.max_word_len || Agrep.find_exact ~pattern:run w <> None

let sweep t x =
  let tested = ref 0 in
  let test w =
    incr tested;
    x.x_test w
  in
  let resident = ref x.x_resident in
  for i = x.x_scanned to t.vlog_len - 1 do
    let w = t.vlog.(i) in
    if test w then resident := SSet.add w !resident
  done;
  let cold =
    match (x.x_cold, t.cold) with
    | None, Some c ->
        let add acc w = if test w then SSet.add w acc else acc in
        Some (List.fold_left add SSet.empty (c.words ()))
    | cold, _ -> cold
  in
  (!tested, { x with x_resident = !resident; x_scanned = t.vlog_len; x_cold = cold })

(* Entries live until the next {!drop_expansions}: one per distinct pattern
   the queries use, each holding only the keys it matched. *)
let expansion t xk =
  Mutex.lock t.xlock;
  let e =
    match Hashtbl.find_opt t.xcache xk with
    | Some e -> e
    | None ->
        let x = { x_test = test_of xk; x_resident = SSet.empty; x_scanned = 0; x_cold = None } in
        let e = { xe_lock = Mutex.create (); xe_exp = x } in
        Hashtbl.replace t.xcache xk e;
        e
  in
  Mutex.unlock t.xlock;
  Mutex.lock e.xe_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock e.xe_lock)
    (fun () ->
      let x = e.xe_exp in
      if x.x_scanned = t.vlog_len && (x.x_cold <> None || t.cold = None) then x
      else begin
        let tested, x = sweep t x in
        (match xk with
        | Approx _ -> ignore (Atomic.fetch_and_add t.approx_tested tested)
        | Literal _ -> ());
        e.xe_exp <- x;
        x
      end)

let approx_expansion t ~word ~errors = expansion t (Approx (key t word, errors))

let literal_expansion t run = expansion t (Literal run)

let expansion_words x =
  match x.x_cold with
  | None -> SSet.elements x.x_resident
  | Some c -> SSet.elements (SSet.union x.x_resident c)

(* Exact per-key verdict without the edit-distance DP for swept keys: a
   matched key is a hit; a key resident in the swept log prefix that did
   not match is a miss; anything else (content not indexed yet, cold-only
   words) runs the test. *)
let expansion_matches t x w =
  SSet.mem w x.x_resident
  || (match x.x_cold with Some c -> SSet.mem w c | None -> false)
  ||
  match Hashtbl.find_opt t.postings w with
  | Some p when p.seq < x.x_scanned -> false
  | _ -> x.x_test w

let approx_words_tested t = Atomic.get t.approx_tested

let candidate_docs_approx ?within t ~word ~errors =
  let x = approx_expansion t ~word ~errors in
  let clip s = match within with None -> s | Some wset -> Fileset.inter s wset in
  let resident =
    if t.use_cas then
      SSet.fold
        (fun w acc -> Fileset.union acc (clip (Cas.word_candidates t.cas w)))
        x.x_resident Fileset.empty
    else begin
      let blocks = Bitset.create () in
      SSet.iter
        (fun w ->
          match Hashtbl.find_opt t.postings w with
          | Some p -> Bitset.union_into blocks p.blocks
          | None -> ())
        x.x_resident;
      expand ?within t blocks
    end
  in
  match x.x_cold with
  | None -> resident
  | Some cold ->
      (* Adopted documents' vocabulary lives only in segment directories;
         its near-matches must be candidates too or approximate queries
         would go blind to everything a fast mount did not reindex. *)
      SSet.fold
        (fun w acc -> Fileset.union acc (clip (cold_docs t (Cas.word_key w))))
        cold resident

let vocabulary t =
  let resident = Hashtbl.fold (fun w _ acc -> w :: acc) t.postings [] in
  let all =
    match t.cold with None -> resident | Some cold -> cold.words () @ resident
  in
  List.sort_uniq compare all

let vocabulary_size t =
  match t.cold with
  | None -> Hashtbl.length t.postings
  | Some _ -> List.length (vocabulary t)

(* Snapshot of the by_dir builder: cached between mutations, so repeated
   scope computations over a settled tree cost a hashtable lookup. *)
let doc_ids_under t dir =
  match Hashtbl.find_opt t.by_dir dir with
  | Some b -> Fileset.Builder.snapshot b
  | None -> Fileset.empty

let attr_docs ?within ?under t key value =
  let key = String.lowercase_ascii key and value = String.lowercase_ascii value in
  let base =
    if t.use_cas then Cas.attr_candidates ?under t.cas key value
    else
      match Hashtbl.find_opt t.attr_postings (key, value) with
      | None -> Fileset.empty
      | Some p -> expand ?within t p.ablocks
  in
  let c =
    if t.cold = None then base
    else Fileset.union base (cold_docs t (Cas.attr_key key value))
  in
  match within with None -> c | Some wset -> Fileset.inter c wset

(* Candidate-cardinality upper bound from posting-block population alone —
   no block expansion, so safe to call once per query term per resync. *)
let blocks_cost t = function
  | None -> 0
  | Some blocks ->
      let pop = Bitset.cardinal blocks in
      if pop > max_int / t.block_size then doc_count t
      else min (pop * t.block_size) (doc_count t)

(* With CAS on, term costs are measured partition cardinalities of the real
   compressed representation (scoped by [?under]); otherwise the Glimpse
   block upper bound.  Called from worker domains during parallel passes —
   must not touch metrics or other main-domain-only state. *)
let term_cost ?under t w =
  let w = key t w in
  let resident =
    if t.use_cas then Cas.word_cost ?under t.cas w
    else blocks_cost t (Option.map (fun p -> p.blocks) (Hashtbl.find_opt t.postings w))
  in
  resident + cold_cost t (Cas.word_key w)

let attr_cost ?under t key value =
  let key = String.lowercase_ascii key and value = String.lowercase_ascii value in
  let resident =
    if t.use_cas then Cas.attr_cost ?under t.cas key value
    else
      blocks_cost t
        (Option.map (fun p -> p.ablocks) (Hashtbl.find_opt t.attr_postings (key, value)))
  in
  resident + cold_cost t (Cas.attr_key key value)

let attributes t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.attr_postings [] |> List.sort compare

let rebuild t reader =
  t.lazy_ops <- 0;
  t.cold_stale <- 0;
  (* The rebuild reads every live document, so afterwards the resident
     postings cover everything the cold segments did (for live documents);
     dropping the provider here is what ultimately retires segment files. *)
  t.cold <- None;
  Hashtbl.reset t.postings;
  t.vlog <- Array.make 256 "";
  t.vlog_len <- 0;
  drop_expansions t;
  Hashtbl.reset t.attr_postings;
  t.alog_len <- 0;
  Cas.reset t.cas;
  for id = 0 to t.next_id - 1 do
    let d = t.docs.(id) in
    if d.alive then begin
      d.wkeys <- "";
      d.akeys <- "";
      d.adopted <- false;
      match reader id with
      | Some content -> ignore (index_content t id content)
      | None ->
          (* The document vanished from under us; treat as removed. *)
          Hashtbl.remove t.by_path d.path;
          dir_withdraw t d.path id;
          d.alive <- false
    end
  done

let cas_stats t = Cas.stats ~universe:t.next_id t.cas

let index_bytes t =
  let word = Sys.int_size / 8 + 1 in
  let postings_bytes =
    Hashtbl.fold
      (fun w p acc -> acc + String.length w + (3 * word) + Bitset.byte_size p.blocks)
      t.postings 0
    + Hashtbl.fold
        (fun (a, v) p acc ->
          acc + String.length a + String.length v + (3 * word) + Bitset.byte_size p.ablocks)
        t.attr_postings 0
  in
  let dir_bytes =
    Hashtbl.fold
      (fun dir b acc ->
        acc + String.length dir + (2 * word)
        + Fileset.byte_size (Fileset.Builder.snapshot b))
      t.by_dir 0
  in
  let docs_bytes =
    let acc = ref 0 in
    for id = 0 to t.next_id - 1 do
      acc := !acc + (2 * word) + String.length t.docs.(id).path
    done;
    !acc
  in
  let log_bytes = Array.length t.vlog * word in
  postings_bytes + log_bytes + dir_bytes + docs_bytes + (cas_stats t).Cas.bytes

let stale_ratio t =
  let stale = if t.use_cas then t.cold_stale else t.lazy_ops in
  let live = doc_count t in
  if live + stale = 0 then 0.0 else float_of_int stale /. float_of_int (live + stale)
