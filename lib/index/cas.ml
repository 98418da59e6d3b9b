(* Combined content-and-structure index.

   Per-term postings are partitioned along a path dimension: every document
   carries a {e label} — the depth-<=2 prefix of its directory — and each
   term keeps one posting list per label.  A path-scoped term lookup
   ({/path} AND term) unions only the partitions whose label can contain
   documents under the scope, so scoped candidate generation touches the
   relevant slice of the posting list instead of expanding everything and
   filtering against a subtree set afterwards.

   Postings are exact: the owner ({!Index}) keeps each document's key set
   and posts only the keys a document gains, unposts the keys it loses
   (all of them on removal), and moves a document's postings to its new
   partition when a rename changes its label.  So a partition holds
   exactly the live documents of that label carrying the term, and no
   periodic compaction is needed.

   Concurrency: all mutation happens on the main domain between settle
   passes.  During passes, worker domains only read — the lone mutable reads
   are cached snapshot fills, which go through [t.lock]. *)

module Fileset = Hac_bitset.Fileset

(* Growable posting vector: the distinct doc ids of one partition, kept
   sorted.  Ids mostly arrive increasing (a rebuild, new documents), which
   appends; an update to an older document inserts in place.  Neither
   insertion nor removal allocates unless the vector grows, and a snapshot
   never sorts. *)
type vec = { mutable v : int array; mutable len : int; mutable snap : Fileset.t option }

let vec_create () = { v = Array.make 8 0; len = 0; snap = None }

(* Index of the first element >= id. *)
let vec_search p id =
  let lo = ref 0 and hi = ref p.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if p.v.(mid) < id then lo := mid + 1 else hi := mid
  done;
  !lo

let vec_push p id =
  let i = if p.len = 0 || p.v.(p.len - 1) < id then p.len else vec_search p id in
  if i = p.len || p.v.(i) <> id then begin
    if p.len = Array.length p.v then begin
      let v = Array.make (2 * p.len) 0 in
      Array.blit p.v 0 v 0 p.len;
      p.v <- v
    end;
    Array.blit p.v i p.v (i + 1) (p.len - i);
    p.v.(i) <- id;
    p.len <- p.len + 1;
    p.snap <- None
  end

(* Remove one id (a no-op when absent). *)
let vec_remove p id =
  let i = vec_search p id in
  if i < p.len && p.v.(i) = id then begin
    Array.blit p.v (i + 1) p.v i (p.len - i - 1);
    p.len <- p.len - 1;
    p.snap <- None
  end

let vec_snapshot p =
  match p.snap with
  | Some s -> s
  | None ->
      let s =
        Fileset.of_increasing_iter (fun f ->
            for i = 0 to p.len - 1 do
              f p.v.(i)
            done)
      in
      p.snap <- Some s;
      s

let vec_card p = p.len

type entry = {
  parts : (int, vec) Hashtbl.t; (* label id -> postings *)
  mutable all : Fileset.t option; (* cached union of all partitions *)
}

type t = {
  labels : (string, int) Hashtbl.t;
  mutable label_names : string array;
  mutable label_count : int;
  mutable doc_label : int array; (* doc id -> label id, -1 when unknown *)
  terms : (string, entry) Hashtbl.t;
  alive : Fileset.Builder.t;
  lock : Mutex.t;
}

let create () =
  {
    labels = Hashtbl.create 64;
    label_names = Array.make 16 "";
    label_count = 0;
    doc_label = Array.make 64 (-1);
    terms = Hashtbl.create 4096;
    alive = Fileset.Builder.create ();
    lock = Mutex.create ();
  }

let reset t =
  Hashtbl.reset t.labels;
  t.label_count <- 0;
  Array.fill t.doc_label 0 (Array.length t.doc_label) (-1);
  Hashtbl.reset t.terms;
  Fileset.Builder.clear t.alive

(* -- labels ---------------------------------------------------------------- *)

let label_depth = 2

(* Depth-<=2 prefix of the document's directory: "/a/b/c/f.txt" -> "/a/b",
   "/a/f.txt" -> "/a", "/f.txt" -> "/". *)
let label_of_path path =
  let n = String.length path in
  (* The label is the directory part truncated at the [label_depth]-th slash;
     the last component is the file name and never part of the label. *)
  let dir_end =
    match String.rindex_opt path '/' with Some 0 -> 1 | Some i -> i | None -> n
  in
  let cut = ref dir_end in
  let slashes = ref 0 in
  (try
     for i = 1 to dir_end - 1 do
       if path.[i] = '/' then begin
         incr slashes;
         if !slashes = label_depth then begin
           cut := i;
           raise Exit
         end
       end
     done
   with Exit -> ());
  String.sub path 0 (max 1 !cut)

let label_id t name =
  match Hashtbl.find_opt t.labels name with
  | Some id -> id
  | None ->
      let id = t.label_count in
      if id >= Array.length t.label_names then begin
        let names = Array.make (2 * Array.length t.label_names) "" in
        Array.blit t.label_names 0 names 0 id;
        t.label_names <- names
      end;
      t.label_names.(id) <- name;
      t.label_count <- id + 1;
      Hashtbl.replace t.labels name id;
      id

let ensure_doc t id =
  let n = Array.length t.doc_label in
  if id >= n then begin
    let a = Array.make (max (id + 1) (2 * n)) (-1) in
    Array.blit t.doc_label 0 a 0 n;
    t.doc_label <- a
  end

(* Record (or refresh) a document's label.  Postings go to the partition of
   the label current when they are posted, so a caller changing a posted
   document's label unposts its keys first and re-posts them after. *)
let note_doc t id ~path =
  ensure_doc t id;
  t.doc_label.(id) <- label_id t (label_of_path path);
  Fileset.Builder.add t.alive id

let note_remove t id =
  if id >= 0 && id < Array.length t.doc_label then Fileset.Builder.remove t.alive id

let alive t = Fileset.Builder.snapshot t.alive

(* -- posting --------------------------------------------------------------- *)

let word_key w = "w:" ^ w

let attr_key k v = "a:" ^ k ^ "\x00" ^ v

let doc_lid t id =
  let lid = if id < Array.length t.doc_label then t.doc_label.(id) else -1 in
  if lid < 0 then label_id t "/" else lid

let post t key id =
  let e =
    match Hashtbl.find_opt t.terms key with
    | Some e -> e
    | None ->
        let e = { parts = Hashtbl.create 1; all = None } in
        Hashtbl.replace t.terms key e;
        e
  in
  let lid = doc_lid t id in
  let p =
    match Hashtbl.find_opt e.parts lid with
    | Some p -> p
    | None ->
        let p = vec_create () in
        Hashtbl.replace e.parts lid p;
        p
  in
  vec_push p id;
  e.all <- None

let post_word t id w = post t (word_key w) id

let post_attr t id k v = post t (attr_key k v) id

(* An emptied partition stays in place, ready for the term's next
   posting: updates keep trading a document's rare words, and re-creating
   their entries each time would only churn the heap.  The vocabulary
   bounds the tables either way. *)
let unpost t key id =
  match Hashtbl.find_opt t.terms key with
  | None -> ()
  | Some e -> (
      match Hashtbl.find_opt e.parts (doc_lid t id) with
      | None -> ()
      | Some p ->
          vec_remove p id;
          e.all <- None)

let unpost_word t id w = unpost t (word_key w) id

let unpost_attr t id k v = unpost t (attr_key k v) id

(* -- scoped lookup ----------------------------------------------------------

   Which labels can hold documents under scope [P]?  A document under [P]
   has a directory extending [P], so its label (the depth-<=2 prefix of that
   directory) is determined by [P]'s own depth:

   - depth(P) >= 2: the label is exactly the depth-2 prefix of [P];
   - depth(P) = 1: any label equal to [P] or starting with [P ^ "/"];
   - P = "/": any label (callers should pass [?under:None] instead). *)

let path_depth p =
  if p = "/" then 0
  else begin
    let d = ref 0 in
    String.iter (fun c -> if c = '/' then incr d) p;
    !d
  end

let covered_labels t under =
  match path_depth under with
  | 0 -> None (* all labels *)
  | d when d >= label_depth -> (
      let lbl = label_of_path (under ^ "/x") in
      match Hashtbl.find_opt t.labels lbl with Some id -> Some [ id ] | None -> Some [])
  | _ ->
      let prefix = under ^ "/" in
      let ids =
        Hashtbl.fold
          (fun name id acc ->
            if name = under || String.starts_with ~prefix name then id :: acc else acc)
          t.labels []
      in
      Some ids

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let union_all e =
  match e.all with
  | Some s -> s
  | None ->
      let s =
        Hashtbl.fold (fun _ p acc -> Fileset.union (vec_snapshot p) acc) e.parts
          Fileset.empty
      in
      e.all <- Some s;
      s

let candidates ?under t key =
  match Hashtbl.find_opt t.terms key with
  | None -> Fileset.empty
  | Some e ->
      locked t (fun () ->
          match under with
          | None -> union_all e
          | Some under -> (
              match covered_labels t under with
              | None -> union_all e
              | Some lids ->
                  List.fold_left
                    (fun acc lid ->
                      match Hashtbl.find_opt e.parts lid with
                      | Some p -> Fileset.union (vec_snapshot p) acc
                      | None -> acc)
                    Fileset.empty lids))

let word_candidates ?under t w = candidates ?under t (word_key w)

let attr_candidates ?under t k v = candidates ?under t (attr_key k v)

(* -- measured costs ----------------------------------------------------------

   Candidate-cardinality estimate from partition sizes alone: the sum of the
   covered partitions' cardinalities, no set materialization.  Unlike the block estimate this reflects the documents
   the term actually touches, per scope. *)

let cost ?under t key =
  match Hashtbl.find_opt t.terms key with
  | None -> 0
  | Some e ->
      locked t (fun () ->
          let sum_all () = Hashtbl.fold (fun _ p acc -> acc + vec_card p) e.parts 0 in
          match under with
          | None -> sum_all ()
          | Some under -> (
              match covered_labels t under with
              | None -> sum_all ()
              | Some lids ->
                  List.fold_left
                    (fun acc lid ->
                      match Hashtbl.find_opt e.parts lid with
                      | Some p -> acc + vec_card p
                      | None -> acc)
                    0 lids))

let word_cost ?under t w = cost ?under t (word_key w)

let attr_cost ?under t k v = cost ?under t (attr_key k v)

(* Every term's posting set (all partitions unioned) — what a segment dump
   persists.  Forces snapshots, like stats. *)
let iter_terms t f =
  locked t (fun () ->
      Hashtbl.iter
        (fun key e ->
          let s = union_all e in
          if not (Fileset.is_empty s) then f key s)
        t.terms)

(* -- accounting -------------------------------------------------------------- *)

type stats = {
  labels : int;
  terms : int;
  partitions : int;
  postings : int;
  bytes : int; (* compressed snapshot payload *)
  raw_bytes : int; (* posting-vector backing store *)
  uncompressed_bytes : int; (* one whole-universe bitmap per term *)
  arrays : int;
  bitmaps : int;
  run_containers : int;
}

(* Forces every partition snapshot — an explicit stats-time cost, not paid on
   the indexing or query path. *)
let stats ?(universe = 0) t =
  locked t (fun () ->
      let terms = ref 0 and partitions = ref 0 and postings = ref 0 and raw = ref 0 in
      let arrays = ref 0 and bitmaps = ref 0 and runs = ref 0 and bytes = ref 0 in
      (* Emptied partitions (and terms left with none) hold backing store
         but no postings. *)
      Hashtbl.iter
        (fun _ e ->
          let live = !partitions in
          Hashtbl.iter
            (fun _ p ->
              raw := !raw + (Array.length p.v * 8);
              if p.len > 0 then begin
                incr partitions;
                let st = Fileset.container_stats (vec_snapshot p) in
                postings := !postings + p.len;
                arrays := !arrays + st.arrays;
                bitmaps := !bitmaps + st.bitmaps;
                runs := !runs + st.run_containers;
                bytes := !bytes + st.bytes
              end)
            e.parts;
          if !partitions > live then incr terms)
        t.terms;
      let per_term_bitmap = (universe + 7) / 8 in
      {
        labels = t.label_count;
        terms = !terms;
        partitions = !partitions;
        postings = !postings;
        bytes = !bytes;
        raw_bytes = !raw;
        uncompressed_bytes = !terms * per_term_bitmap;
        arrays = !arrays;
        bitmaps = !bitmaps;
        run_containers = !runs;
      })
