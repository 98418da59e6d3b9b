(* Workload inputs: a corpus tree on a file system with a simulated
   device attached, planted marker words for controlled selectivity,
   semantic-directory queries of mixed shapes, and the documents later
   writes carry.

   The corpus is one fixed data set, the same for every run; the run's
   seed draws the device and every op stream over it (which files are
   written, with what, which directories are read).  With a corpus drawn
   from the seed as well, the sizes of the largest semantic directories
   changed from seed to seed, and settle_fanout's read p99 spread over
   five seeds was a fifth of its median rather than a tenth. *)

module Fs = Hac_vfs.Fs
module Hac = Hac_core.Hac
module Link = Hac_core.Link
module Corpus = Hac_workload.Corpus
module Prng = Hac_workload.Prng
module Store = Hac_fault.Store

type t = {
  fs : Fs.t;
  dev : Store.t option;
  corpus : Corpus.t;
  files : string array;  (** Corpus files, in path order. *)
  bytes : int;  (** Corpus payload bytes. *)
}

(* Marker words planted in about [1/200], [1/12] and [1/2] of the files:
   the few / intermediate / many selectivity classes. *)
let markers n = [ ("mkfew", max 1 (n / 200)); ("mkmid", n / 12); ("mklot", n / 2) ]

let corpus_seed = 1

let make ?(device = true) ~seed ~root spec =
  let fs = Fs.create () in
  let dev =
    if device then begin
      let d = Store.create ~seed () in
      Fs.attach_disk fs d;
      Some d
    end
    else None
  in
  let corpus = Corpus.make ~seed:corpus_seed () in
  let files = Corpus.build_tree corpus fs ~root spec in
  let n = List.length files in
  List.iter (fun (word, count) -> ignore (Corpus.plant fs ~paths:files ~word ~count)) (markers n);
  let bytes = List.fold_left (fun acc p -> acc + Fs.file_size fs p) 0 files in
  { fs; dev; corpus; files = Array.of_list files; bytes }

(* [n] semantic directories whose queries cycle through eight shapes —
   single word, AND, OR, AND NOT, phrase, approximate word, marker word
   and a directory reference — at varying selectivity.  One directory in
   eight sits one level down, so its scope is a subtree.  The
   directory references chain: each refers to the previous one, the first
   to directory 0, so [n >= 16] gives a dependency chain at least three
   deep.  Returned in creation (dependency) order. *)
let queries ~corpus ~root n =
  let w r = Corpus.vocab_word corpus r in
  (* Vocabulary ranks, not draws: a rank has about the same frequency
     whatever the seed, so every seed gets the same selectivity mix.
     Approximate terms are one edit away from a marker word, not from a
     vocabulary word, whose neighbours depend on the seed's vocabulary. *)
  let many k = w (40 + (k * 7 mod 80)) in
  let mid k = w (200 + (k * 37 mod 400)) in
  let few k = w (1000 + (k * 131 mod 2000)) in
  let sel i = match i / 8 mod 3 with 0 -> many i | 1 -> mid i | _ -> few i in
  let chain = ref None in
  List.init n (fun i ->
      let dir =
        if i mod 8 = 3 then Printf.sprintf "%s/dir%d/q%02d" root (1 + (i / 8 mod 3)) i
        else Printf.sprintf "%s/q%02d" root i
      in
      let q =
        match i mod 8 with
        | 0 -> sel i
        | 1 -> Printf.sprintf "%s AND %s" (many i) (w (5 + (i mod 30)))
        | 2 -> Printf.sprintf "%s OR %s" (sel i) (few (i + 1))
        | 3 -> Printf.sprintf "%s AND NOT %s" (sel i) (many (i + 1))
        | 4 -> if i / 8 mod 2 = 0 then "\"line mkmid\"" else "\"line mkfew\""
        | 5 -> "~" ^ List.nth [ "mkfaw"; "mkmud"; "mklat" ] (i / 8 mod 3)
        | 6 -> List.nth [ "mkfew"; "mkmid"; "mklot" ] (i / 8 mod 3)
        | _ ->
            let prev = match !chain with Some p -> p | None -> Printf.sprintf "%s/q00" root in
            if i / 8 mod 2 = 0 then Printf.sprintf "{%s} OR %s" prev (few i)
            else Printf.sprintf "{%s} AND NOT %s" prev (mid i)
      in
      if i mod 8 = 7 then chain := Some dir;
      (dir, q))

(* A document of about [words] Zipf-ranked vocabulary words; one in eight
   also carries a marker line, so marker queries see churn. *)
let document corpus g ~words =
  let b = Buffer.create (words * 8) in
  for i = 1 to words do
    Buffer.add_string b (Corpus.vocab_word corpus (Prng.zipf g ~n:4000 ~skew:1.05));
    Buffer.add_char b (if i mod 10 = 0 then '\n' else ' ')
  done;
  if Prng.int g 8 = 0 then
    Printf.bprintf b "marker line %s here\n" (List.nth [ "mkfew"; "mkmid"; "mklot" ] (Prng.int g 3));
  Buffer.contents b

(* Link sets of semantic directories as comparable values: per directory
   the sorted target keys with their class.  Names are left out: two
   correct instances may disambiguate clashing basenames differently. *)
let link_sets hac dirs =
  List.map
    (fun d ->
      ( d,
        List.sort compare
          (List.map
             (fun (l : Link.t) -> (Link.target_key l.target, Link.cls_name l.cls))
             (Hac.links hac d)) ))
    dirs

(* Differences between two link-set lists, one line per directory. *)
let diff_link_sets ~expected ~got =
  List.filter_map
    (fun (d, e) ->
      let g = Option.value ~default:[] (List.assoc_opt d got) in
      if e = g then None
      else
        Some
          (Printf.sprintf "%s: expected %d links, got %d (first difference: %s)" d
             (List.length e) (List.length g)
             (match List.find_opt (fun x -> not (List.mem x g)) e with
             | Some (k, _) -> "missing " ^ k
             | None -> (
                 match List.find_opt (fun x -> not (List.mem x e)) g with
                 | Some (k, _) -> "extra " ^ k
                 | None -> "class"))))
    expected

(* [sets] with the first link of the first non-empty directory removed:
   the corrupted result the checks' self-tests must catch. *)
let drop_one_link sets =
  let dropped = ref false in
  List.map
    (fun (d, l) ->
      match l with
      | _ :: tl when not !dropped ->
          dropped := true;
          (d, tl)
      | _ -> (d, l))
    sets

(* Compare [(expected, got)] link-set pairs; then, as a self-test, the
   comparison must fire on the first pair with one link dropped. *)
let check_link_sets ~name points =
  let failures =
    List.concat_map
      (fun (expected, got) ->
        List.map (fun s -> name ^ " oracle: " ^ s) (diff_link_sets ~expected ~got))
      points
  in
  match points with
  | (expected, got) :: _ when diff_link_sets ~expected ~got:(drop_one_link got) = [] ->
      failures @ [ "self-test: " ^ name ^ " oracle check missed a dropped link" ]
  | _ -> failures
