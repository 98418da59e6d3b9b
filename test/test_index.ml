(* Tests for the Glimpse-style block index and the verification search
   layer. *)

module Index = Hac_index.Index
module Search = Hac_index.Search
module Fileset = Hac_bitset.Fileset

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_list = Alcotest.(check (list int))

let docs =
  [
    ("/a.txt", "the quick brown fox jumps");
    ("/b.txt", "the lazy dog sleeps");
    ("/c.txt", "quick quick slow");
    ("/d.txt", "unrelated words entirely");
  ]

let make_index ?(block_size = 1) ?(stem = false) () =
  let idx = Index.create ~block_size ~stem () in
  List.iter (fun (path, content) -> ignore (Index.add_document idx ~path ~content)) docs;
  idx

let reader_of docs path = List.assoc_opt path docs

let ids idx paths =
  List.filter_map (fun p -> Index.doc_of_path idx p) paths |> List.sort compare

(* -- document table ------------------------------------------------------------ *)

let test_doc_table () =
  let idx = make_index () in
  check_int "count" 4 (Index.doc_count idx);
  check_int "universe" 4 (Fileset.cardinal (Index.universe idx));
  Alcotest.(check (option string)) "path" (Some "/a.txt") (Index.doc_path idx 0);
  Alcotest.(check (option int)) "id" (Some 0) (Index.doc_of_path idx "/a.txt");
  Alcotest.(check (option int)) "unknown" None (Index.doc_of_path idx "/nope")

let test_remove () =
  let idx = make_index () in
  Index.remove_path idx "/b.txt";
  check_int "count" 3 (Index.doc_count idx);
  Alcotest.(check (option string)) "dead doc" None (Index.doc_path idx 1);
  check_bool "universe excludes dead" false (Fileset.mem (Index.universe idx) 1);
  Index.remove_path idx "/b.txt" (* idempotent *);
  (* Exact CAS postings leave nothing to compact; the lazy block bitmaps
     do, and report it once the block path is active. *)
  check_bool "no staleness with CAS" true (Index.stale_ratio idx = 0.0);
  Index.set_use_cas idx false;
  check_bool "block staleness" true (Index.stale_ratio idx > 0.0)

let test_rename () =
  let idx = make_index () in
  Index.rename_path idx ~old_path:"/a.txt" ~new_path:"/z.txt";
  Alcotest.(check (option int)) "new path same id" (Some 0) (Index.doc_of_path idx "/z.txt");
  Alcotest.(check (option int)) "old gone" None (Index.doc_of_path idx "/a.txt");
  Alcotest.(check (option string)) "doc_path updated" (Some "/z.txt") (Index.doc_path idx 0)

let test_rename_clobbers () =
  let idx = make_index () in
  Index.rename_path idx ~old_path:"/a.txt" ~new_path:"/b.txt";
  Alcotest.(check (option int)) "destination now a's id" (Some 0) (Index.doc_of_path idx "/b.txt");
  check_int "one fewer live doc" 3 (Index.doc_count idx)

let test_update_same_id () =
  let idx = make_index () in
  let id = Index.update_document idx ~path:"/a.txt" ~content:"totally different words" in
  check_int "same id" 0 id;
  check_bool "new word found" true (Fileset.mem (Index.candidate_docs idx "totally") 0)

(* -- candidates ------------------------------------------------------------------ *)

let test_candidates_block1 () =
  let idx = make_index ~block_size:1 () in
  check_list "quick in a and c" (ids idx [ "/a.txt"; "/c.txt" ])
    (Fileset.elements (Index.candidate_docs idx "quick"));
  check_list "the in a and b" (ids idx [ "/a.txt"; "/b.txt" ])
    (Fileset.elements (Index.candidate_docs idx "the"));
  check_list "absent" [] (Fileset.elements (Index.candidate_docs idx "zebra"))

let test_candidates_coarse_blocks () =
  (* The CAS path answers doc-granular candidates even with coarse blocks... *)
  let idx = make_index ~block_size:4 () in
  check_list "cas precise" (ids idx [ "/a.txt"; "/c.txt" ])
    (Fileset.elements (Index.candidate_docs idx "quick"));
  (* ...while the Glimpse fallback returns the whole live block — the
     classic space/precision trade-off... *)
  Index.set_use_cas idx false;
  check_int "coarse superset" 4 (Fileset.cardinal (Index.candidate_docs idx "quick"));
  (* ...and verification restores precision on either path. *)
  let verified = Search.search_word idx (reader_of docs) "quick" in
  check_list "verified" (ids idx [ "/a.txt"; "/c.txt" ]) (Fileset.elements verified);
  Index.set_use_cas idx true;
  let verified_cas = Search.search_word idx (reader_of docs) "quick" in
  check_list "verified via cas" (ids idx [ "/a.txt"; "/c.txt" ])
    (Fileset.elements verified_cas)

let test_candidates_exclude_dead () =
  let idx = make_index ~block_size:4 () in
  Index.remove_path idx "/a.txt";
  check_bool "dead not candidate" false (Fileset.mem (Index.candidate_docs idx "quick") 0)

let test_stemming_index () =
  let idx = Index.create ~block_size:1 ~stem:true () in
  ignore (Index.add_document idx ~path:"/s.txt" ~content:"many queries were matched");
  check_bool "query finds queries" true
    (not (Fileset.is_empty (Index.candidate_docs idx "query")));
  check_bool "match finds matched" true
    (not (Fileset.is_empty (Index.candidate_docs idx "match")))

let test_candidates_approx () =
  let idx = make_index () in
  let c = Index.candidate_docs_approx idx ~word:"quack" ~errors:1 in
  (* quack ~1~ quick. *)
  check_bool "near word found" true (Fileset.mem c 0);
  check_list "exact approx at 0"
    (Fileset.elements (Index.candidate_docs idx "quick"))
    (Fileset.elements (Index.candidate_docs_approx idx ~word:"quick" ~errors:0))

let test_vocabulary_and_bytes () =
  let idx = make_index () in
  check_bool "vocab populated" true (Index.vocabulary_size idx > 5);
  check_bool "bytes positive" true (Index.index_bytes idx > 0);
  check_bool "vocab sorted" true
    (let v = Index.vocabulary idx in
     v = List.sort compare v)

let test_rebuild_reclaims () =
  let idx = make_index ~block_size:1 () in
  Index.remove_path idx "/a.txt";
  (* Stale bits: "fox" still has a.txt's block. *)
  Index.rebuild idx (fun id ->
      Option.bind (Index.doc_path idx id) (reader_of docs));
  check_list "fox gone after rebuild" [] (Fileset.elements (Index.candidate_docs idx "fox"));
  check_int "live docs kept" 3 (Index.doc_count idx)

(* -- per-directory index -------------------------------------------------------------- *)

let test_doc_ids_under () =
  let idx = Index.create () in
  let add p = ignore (Index.add_document idx ~path:p ~content:"words here") in
  List.iter add [ "/a/one.txt"; "/a/sub/two.txt"; "/b/three.txt" ];
  let under d = List.filter_map (Index.doc_path idx) (Fileset.elements (Index.doc_ids_under idx d)) in
  check_bool "root equals universe" true
    (Fileset.equal (Index.doc_ids_under idx "/") (Index.universe idx));
  Alcotest.(check (list string)) "under /a" [ "/a/one.txt"; "/a/sub/two.txt" ]
    (List.sort compare (under "/a"));
  Alcotest.(check (list string)) "under /a/sub" [ "/a/sub/two.txt" ] (under "/a/sub");
  Alcotest.(check (list string)) "unknown dir" [] (under "/zzz");
  (* Removal and rename maintain the table. *)
  Index.remove_path idx "/a/one.txt";
  Alcotest.(check (list string)) "after remove" [ "/a/sub/two.txt" ]
    (List.sort compare (under "/a"));
  Index.rename_path idx ~old_path:"/a/sub/two.txt" ~new_path:"/b/two.txt";
  Alcotest.(check (list string)) "moved out" [] (under "/a");
  Alcotest.(check (list string)) "moved in" [ "/b/three.txt"; "/b/two.txt" ]
    (List.sort compare (under "/b"))

(* The incremental table must always agree with a direct scan. *)
let prop_doc_ids_under_matches_scan =
  let dirs = [| "/x"; "/x/a"; "/x/b"; "/y" |] in
  let gen_ops =
    QCheck.Gen.(
      list_size (int_range 1 30)
        (oneof
           [
             map2 (fun d i -> `Add (Printf.sprintf "%s/f%d.txt" dirs.(d) i)) (int_bound 3) (int_bound 9);
             map2 (fun d i -> `Remove (Printf.sprintf "%s/f%d.txt" dirs.(d) i)) (int_bound 3) (int_bound 9);
             map2
               (fun (d1, i1) (d2, i2) ->
                 `Rename
                   ( Printf.sprintf "%s/f%d.txt" dirs.(d1) i1,
                     Printf.sprintf "%s/f%d.txt" dirs.(d2) i2 ))
               (pair (int_bound 3) (int_bound 9))
               (pair (int_bound 3) (int_bound 9));
           ]))
  in
  QCheck.Test.make ~name:"doc_ids_under agrees with a path scan" ~count:300
    (QCheck.make gen_ops ~print:(fun ops -> string_of_int (List.length ops)))
    (fun ops ->
      let idx = Index.create () in
      List.iter
        (function
          | `Add p -> ignore (Index.add_document idx ~path:p ~content:"w")
          | `Remove p -> Index.remove_path idx p
          | `Rename (a, b) -> Index.rename_path idx ~old_path:a ~new_path:b)
        ops;
      List.for_all
        (fun dir ->
          let scan =
            Fileset.filter
              (fun id ->
                match Index.doc_path idx id with
                | Some p -> Hac_vfs.Vpath.is_prefix ~prefix:dir p
                | None -> false)
              (Index.universe idx)
          in
          Fileset.equal scan (Index.doc_ids_under idx dir))
        (Array.to_list dirs))

(* -- search verification ------------------------------------------------------------ *)

let test_search_word () =
  let idx = make_index () in
  let r = reader_of docs in
  check_list "word" (ids idx [ "/b.txt" ]) (Fileset.elements (Search.search_word idx r "lazy"));
  check_list "case folded" (ids idx [ "/b.txt" ])
    (Fileset.elements (Search.search_word idx r "LAZY"));
  check_list "missing" [] (Fileset.elements (Search.search_word idx r "zebra"))

let test_search_phrase () =
  let idx = make_index () in
  let r = reader_of docs in
  check_list "phrase present" (ids idx [ "/a.txt" ])
    (Fileset.elements (Search.search_phrase idx r [ "quick"; "brown" ]));
  check_list "words present but not adjacent" []
    (Fileset.elements (Search.search_phrase idx r [ "brown"; "quick" ]));
  check_list "single word phrase" (ids idx [ "/b.txt" ])
    (Fileset.elements (Search.search_phrase idx r [ "lazy" ]));
  check_list "empty phrase" [] (Fileset.elements (Search.search_phrase idx r []))

let test_search_approx () =
  let idx = make_index () in
  let r = reader_of docs in
  let got = Search.search_approx idx r ~word:"quik" ~errors:1 in
  check_list "quik~1 = quick docs" (ids idx [ "/a.txt"; "/c.txt" ]) (Fileset.elements got)

let test_search_substring () =
  let idx = make_index () in
  let r = reader_of docs in
  check_list "raw substring" (ids idx [ "/a.txt" ])
    (Fileset.elements (Search.search_substring idx r "own fox"))

let test_matching_lines () =
  let idx = Index.create ~stem:false () in
  let content = "alpha one\nbeta two\nalpha three\n" in
  ignore (Index.add_document idx ~path:"/m.txt" ~content);
  let r p = if p = "/m.txt" then Some content else None in
  Alcotest.(check (list (pair int string)))
    "alpha lines"
    [ (1, "alpha one"); (3, "alpha three") ]
    (Search.matching_lines idx r ~path:"/m.txt" ~query_words:[ "alpha" ])

let test_reader_failure_filters () =
  let idx = make_index () in
  let no_reader _ = None in
  check_list "unreadable docs drop out" []
    (Fileset.elements (Search.search_word idx no_reader "quick"))

(* -- properties ----------------------------------------------------------------------- *)

(* Verified search must be invariant under block size: block granularity is
   a performance knob, not a semantics knob. *)
let prop_block_size_invariant =
  let doc_gen =
    QCheck.Gen.(
      list_size (int_range 1 8)
        (map
           (fun ws -> String.concat " " ws)
           (list_size (int_range 1 12)
              (map
                 (fun cs -> String.concat "" (List.map (String.make 1) cs))
                 (list_size (int_range 2 5) (char_range 'a' 'c'))))))
  in
  QCheck.Test.make ~name:"verified search invariant under block size" ~count:100
    (QCheck.make doc_gen ~print:(fun ds -> String.concat " | " ds))
    (fun contents ->
      let paths = List.mapi (fun i c -> (Printf.sprintf "/d%d" i, c)) contents in
      let build bs =
        let idx = Index.create ~block_size:bs ~stem:false () in
        List.iter (fun (p, c) -> ignore (Index.add_document idx ~path:p ~content:c)) paths;
        idx
      in
      let i1 = build 1 and i3 = build 3 in
      let r = reader_of paths in
      List.for_all
        (fun w ->
          Fileset.equal (Search.search_word i1 r w) (Search.search_word i3 r w))
        [ "aa"; "ab"; "ba"; "cc"; "abc" ])

(* -- incremental vocabulary expansion ---------------------------------------------

   Approximate terms and regex literals expand through a cached sweep of the
   vocabulary log.  A model run drives an index through random add, update,
   remove, rebuild, fast-mount adoption behind a cold provider, and cold
   clears, interleaved with queries, so words regularly first appear after a
   pattern was cached.  Every query is checked against a brute-force scan of
   the model's contents, under stemming on/off and CAS on/off. *)

let x_words =
  [| "green"; "gren"; "grain"; "greene"; "red"; "reed"; "read"; "blue"; "blues"; "glue";
     "cyan"; "cyans"; "running"; "runner"; "runs"; "queries"; "query"; "xylophonist" |]

let x_patterns = [| "gren"; "red"; "blu"; "cyan"; "run"; "query" |]

let x_regexes = [| "gre+n"; "re.d"; "cyan"; "run+"; "quer"; "blue|glue"; "^gr" |]

let x_paths = Array.init 6 (Printf.sprintf "/d%d/f.txt")

type xop =
  | X_add of int * int list (* path slot, word slots: add or update *)
  | X_remove of int
  | X_rebuild
  | X_mount of int * int list (* adopt a new path behind a fresh cold provider *)
  | X_clear_cold
  | X_query of int * int (* pattern slot, errors *)
  | X_regex of int

let pp_xop = function
  | X_add (p, ws) -> Printf.sprintf "Add(%d,[%s])" p (String.concat "," (List.map string_of_int ws))
  | X_remove p -> Printf.sprintf "Remove(%d)" p
  | X_rebuild -> "Rebuild"
  | X_mount (p, ws) ->
      Printf.sprintf "Mount(%d,[%s])" p (String.concat "," (List.map string_of_int ws))
  | X_clear_cold -> "ClearCold"
  | X_query (q, e) -> Printf.sprintf "Query(%d,%d)" q e
  | X_regex r -> Printf.sprintf "Regex(%d)" r

let gen_xop =
  let slot n = QCheck.Gen.int_bound (n - 1) in
  let words = QCheck.Gen.(list_size (int_range 1 4) (slot (Array.length x_words))) in
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun p ws -> X_add (p, ws)) (slot (Array.length x_paths)) words);
        (2, map (fun p -> X_remove p) (slot (Array.length x_paths)));
        (1, return X_rebuild);
        (2, map2 (fun p ws -> X_mount (p, ws)) (slot (Array.length x_paths)) words);
        (1, return X_clear_cold);
        (5, map2 (fun q e -> X_query (q, e)) (slot (Array.length x_patterns)) (int_bound 2));
        (2, map (fun r -> X_regex r) (slot (Array.length x_regexes)));
      ])

(* The model: live contents by path, and the adopted documents whose words
   only the cold provider knows. *)
type xmodel = {
  idx : Index.t;
  contents : (string, string) Hashtbl.t;
  cold : (int, string) Hashtbl.t; (* adopted doc id -> content *)
}

let xkey idx w = if Index.stemming idx then Hac_index.Stemmer.stem w else w

(* A cold provider answering from a snapshot of the adopted documents, keyed
   like the on-disk segments ({!Hac_index.Cas.word_key}). *)
let install_cold m =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun id content ->
      Hac_index.Tokenizer.iter_words content (fun w ->
          let k = xkey m.idx w in
          let s = Option.value ~default:Fileset.empty (Hashtbl.find_opt tbl k) in
          Hashtbl.replace tbl k (Fileset.add s id)))
    m.cold;
  let lookup key =
    Hashtbl.fold
      (fun w ids acc -> if Hac_index.Cas.word_key w = key then ids else acc)
      tbl Fileset.empty
  in
  Index.set_cold m.idx ~lookup
    ~cost:(fun key -> Fileset.cardinal (lookup key))
    ~words:(fun () -> Hashtbl.fold (fun w _ acc -> w :: acc) tbl [])

let x_content ws = String.concat " " (List.map (fun i -> x_words.(i)) ws)

let x_reader m path = Hashtbl.find_opt m.contents path

let x_truth m pred =
  Hashtbl.fold
    (fun path content acc ->
      if pred content then Fileset.add acc (Option.get (Index.doc_of_path m.idx path)) else acc)
    m.contents Fileset.empty

let x_check_approx m word errors =
  let pattern = xkey m.idx word in
  let want =
    x_truth m (fun content ->
        Hac_index.Tokenizer.exists_word content (fun x ->
            Hac_index.Agrep.word_matches ~pattern ~errors (xkey m.idx x)))
  in
  let r = x_reader m in
  Fileset.subset want (Index.candidate_docs_approx m.idx ~word ~errors)
  && Fileset.equal want (Search.search_approx m.idx r ~word ~errors)
  && Fileset.equal want
       (Search.search_approx ~cache:(Search.doc_cache ()) m.idx r ~word ~errors)

let x_check_regex m pattern =
  let re = Hac_index.Regex.compile pattern in
  let want = x_truth m (Hac_index.Regex.matches re) in
  let r = x_reader m in
  Fileset.equal want (Search.search_regex m.idx r pattern)
  && Fileset.equal want (Search.search_regex ~cache:(Search.doc_cache ()) m.idx r pattern)

let x_apply m = function
  | X_add (p, ws) ->
      let path = x_paths.(p) and content = x_content ws in
      let id = Index.update_document m.idx ~path ~content in
      Hashtbl.replace m.contents path content;
      Hashtbl.remove m.cold id;
      true
  | X_remove p ->
      (match Index.doc_of_path m.idx x_paths.(p) with
      | Some id -> Hashtbl.remove m.cold id
      | None -> ());
      Index.remove_path m.idx x_paths.(p);
      Hashtbl.remove m.contents x_paths.(p);
      true
  | X_rebuild ->
      Index.rebuild m.idx (fun id -> Option.bind (Index.doc_path m.idx id) (x_reader m));
      Hashtbl.reset m.cold;
      true
  | X_mount (p, ws) ->
      let path = x_paths.(p) in
      (if Index.doc_of_path m.idx path = None then begin
         let id = Index.next_doc_id m.idx in
         Index.adopt_document m.idx ~id ~path;
         Hashtbl.replace m.contents path (x_content ws);
         Hashtbl.replace m.cold id (x_content ws)
       end);
      if Hashtbl.length m.cold > 0 then install_cold m;
      true
  | X_clear_cold ->
      (* Reindex the adopted documents first, as their dirty path would:
         clearing the provider must not hide them. *)
      Hashtbl.iter
        (fun id content ->
          let path = Option.get (Index.doc_path m.idx id) in
          ignore (Index.update_document m.idx ~path ~content))
        m.cold;
      Hashtbl.reset m.cold;
      Index.clear_cold m.idx;
      true
  | X_query (q, e) -> x_check_approx m x_patterns.(q) e
  | X_regex r -> x_check_regex m x_regexes.(r)

(* Run the ops under one configuration; [Some op] names the first query
   whose answer differed from brute force (the final sweep re-checks every
   pattern and regex against the end state). *)
let x_run ~stem ~cas ops =
  let idx = Index.create ~block_size:2 ~stem () in
  Index.set_use_cas idx cas;
  let m = { idx; contents = Hashtbl.create 8; cold = Hashtbl.create 8 } in
  let final =
    List.concat
      [
        List.concat_map (fun q -> List.init 3 (fun e -> X_query (q, e)))
          (List.init (Array.length x_patterns) Fun.id);
        List.init (Array.length x_regexes) (fun r -> X_regex r);
      ]
  in
  List.find_opt (fun op -> not (x_apply m op)) (ops @ final)

let x_configs = [ (false, false); (false, true); (true, false); (true, true) ]

let x_failure ops =
  List.find_map
    (fun (stem, cas) ->
      Option.map
        (fun op -> Printf.sprintf "stem=%b cas=%b: %s differs" stem cas (pp_xop op))
        (x_run ~stem ~cas ops))
    x_configs

let prop_expansion_model =
  QCheck.Test.make ~name:"incremental expansion equals brute force" ~count:150
    (QCheck.make
       QCheck.Gen.(list_size (int_range 4 40) gen_xop)
       ~print:(fun ops -> String.concat "; " (List.map pp_xop ops)))
    (fun ops ->
      match x_failure ops with None -> true | Some msg -> QCheck.Test.fail_report msg)

(* The same model run under pinned seeds, as plain test cases. *)
let x_seeded seed () =
  let rand = Random.State.make [| seed |] in
  let ops = QCheck.Gen.generate1 ~rand QCheck.Gen.(list_size (int_range 60 120) gen_xop) in
  Alcotest.(check (option string)) (Printf.sprintf "seed %d" seed) None (x_failure ops)

(* The scripted life of one cached pattern: words that first appear after it
   was cached, a fast mount, a cold clear and a rebuild, with the sweep
   counter showing that each key is agrepped once per expansion. *)
let test_expansion_lifecycle () =
  let idx = Index.create ~block_size:1 ~stem:false () in
  let m = { idx; contents = Hashtbl.create 8; cold = Hashtbl.create 8 } in
  let step op = check_bool (pp_xop op) true (x_apply m op) in
  let tested () = Index.approx_words_tested idx in
  let gren = X_query (0, 1) in
  step (X_add (0, [ 4 ])) (* red *);
  step gren;
  check_list "no near word yet" []
    (Fileset.elements (Index.candidate_docs_approx idx ~word:"gren" ~errors:1));
  let t0 = tested () in
  step gren;
  check_int "repeat sweeps nothing" t0 (tested ());
  step (X_add (1, [ 0; 7 ])) (* green blue: two new words *);
  let t1 = tested () in
  ignore (Index.candidate_docs_approx idx ~word:"gren" ~errors:1);
  check_int "new words swept once" (t1 + 2) (tested ());
  check_list "new word found" (ids idx [ x_paths.(1) ])
    (Fileset.elements (Search.search_approx idx (x_reader m) ~word:"gren" ~errors:1));
  (* A held expansion stays exact for words indexed after it was taken. *)
  let x = Index.approx_expansion idx ~word:"gren" ~errors:1 in
  step (X_add (3, [ 1; 8 ])) (* gren blues *);
  check_bool "later near word matches" true (Index.expansion_matches idx x "gren");
  check_bool "later far word misses" false (Index.expansion_matches idx x "blues");
  check_bool "swept far word misses" false (Index.expansion_matches idx x "blue");
  step (X_mount (2, [ 2 ])) (* grain, cold only *);
  check_bool "cold doc found at 2 errors" true
    (Fileset.mem (Search.search_approx idx (x_reader m) ~word:"gren" ~errors:2)
       (Option.get (Index.doc_of_path idx x_paths.(2))));
  step (X_query (0, 2));
  step gren;
  step X_clear_cold;
  step gren;
  step X_rebuild;
  step gren;
  step (X_regex 0)

(* -- exact CAS postings ------------------------------------------------------------

   A model run drives an index through random add, update, remove and
   rename sequences (renames across partition labels and clobbering ones
   included), never rebuilding.  After every step each term's CAS postings
   must equal a brute-force scan of the current contents — unscoped and
   under every label-aligned scope — for words and for attribute pairs
   (a transducer tags every word, repeats included), with no posting held
   twice.  The block path keeps only its superset contract. *)

let p_paths = [| "/a/x/f0.txt"; "/a/y/f1.txt"; "/b/f2.txt"; "/f3.txt"; "/b/z/deep/f4.txt"; "/a/x/f5.txt" |]

let p_words = [| "red"; "green"; "blue"; "cyan"; "gold"; "teal" |]

let p_scopes = [ "/a"; "/a/x"; "/a/y"; "/b"; "/b/z" ]

type pop = P_put of int * int list | P_remove of int | P_rename of int * int

let pp_pop = function
  | P_put (p, ws) -> Printf.sprintf "Put(%d,[%s])" p (String.concat "," (List.map string_of_int ws))
  | P_remove p -> Printf.sprintf "Remove(%d)" p
  | P_rename (a, b) -> Printf.sprintf "Rename(%d,%d)" a b

let gen_pop =
  let slot n = QCheck.Gen.int_bound (n - 1) in
  let np = Array.length p_paths in
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun p ws -> P_put (p, ws)) (slot np)
              (list_size (int_range 0 6) (slot (Array.length p_words))));
        (2, map (fun p -> P_remove p) (slot np));
        (3, map2 (fun a b -> P_rename (a, b)) (slot np) (slot np));
      ])

let tag_words =
  {
    Hac_index.Transducer.td_name = "tag";
    extract = (fun ~path:_ ~content -> List.map (fun w -> ("tag", w)) (Hac_index.Tokenizer.words content));
  }

(* [Some msg] when the index disagrees with the model [contents]. *)
let p_check idx contents =
  let truth w =
    Hashtbl.fold
      (fun path content acc ->
        if List.mem w (Hac_index.Tokenizer.words content) then
          Fileset.add acc (Option.get (Index.doc_of_path idx path))
        else acc)
      contents Fileset.empty
  in
  let postings = ref 0 in
  Hashtbl.iter
    (fun _ content ->
      postings := !postings + (2 * List.length (List.sort_uniq compare (Hac_index.Tokenizer.words content))))
    contents;
  let fail = ref None in
  let expect what want got =
    if !fail = None && not (Fileset.equal want got) then
      fail :=
        Some
          (Printf.sprintf "%s: want [%s] got [%s]" what
             (String.concat "," (List.map string_of_int (Fileset.elements want)))
             (String.concat "," (List.map string_of_int (Fileset.elements got))))
  in
  Array.iter
    (fun w ->
      let want = truth w in
      expect ("word " ^ w) want (Index.candidate_docs idx w);
      expect ("attr " ^ w) want (Index.attr_docs idx "tag" w);
      List.iter
        (fun under ->
          let scoped = Fileset.inter want (Index.doc_ids_under idx under) in
          expect (Printf.sprintf "word %s under %s" w under) scoped
            (Index.candidate_docs ~under idx w);
          expect (Printf.sprintf "attr %s under %s" w under) scoped
            (Index.attr_docs ~under idx "tag" w))
        p_scopes;
      Index.set_use_cas idx false;
      if !fail = None && not (Fileset.subset want (Index.candidate_docs idx w)) then
        fail := Some ("block path lost a document for " ^ w);
      Index.set_use_cas idx true)
    p_words;
  let st = Index.cas_stats idx in
  if !fail = None && st.Hac_index.Cas.postings <> !postings then
    fail := Some (Printf.sprintf "%d postings held, %d distinct" st.Hac_index.Cas.postings !postings);
  if !fail = None && Index.stale_ratio idx <> 0.0 then fail := Some "stale without adoption";
  !fail

let p_failure ops =
  let idx = Index.create ~block_size:2 ~stem:false ~transducer:tag_words () in
  let contents = Hashtbl.create 8 in
  let step op =
    (match op with
    | P_put (p, ws) ->
        let content = String.concat " " (List.map (fun i -> p_words.(i)) ws) in
        ignore (Index.update_document idx ~path:p_paths.(p) ~content);
        Hashtbl.replace contents p_paths.(p) content
    | P_remove p ->
        Index.remove_path idx p_paths.(p);
        Hashtbl.remove contents p_paths.(p)
    | P_rename (a, b) -> (
        match Hashtbl.find_opt contents p_paths.(a) with
        | Some content when a <> b ->
            Index.rename_path idx ~old_path:p_paths.(a) ~new_path:p_paths.(b);
            Hashtbl.remove contents p_paths.(a);
            Hashtbl.replace contents p_paths.(b) content
        | Some _ | None -> ()));
    Option.map (fun msg -> pp_pop op ^ ": " ^ msg) (p_check idx contents)
  in
  List.find_map step ops

let prop_cas_postings_exact =
  QCheck.Test.make ~name:"CAS postings equal a brute-force scan" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 4 50) gen_pop)
       ~print:(fun ops -> String.concat "; " (List.map pp_pop ops)))
    (fun ops -> match p_failure ops with None -> true | Some msg -> QCheck.Test.fail_report msg)

let () =
  Alcotest.run "index"
    [
      ( "documents",
        [
          Alcotest.test_case "doc table" `Quick test_doc_table;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "rename clobbers" `Quick test_rename_clobbers;
          Alcotest.test_case "update keeps id" `Quick test_update_same_id;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "block_size=1 precise" `Quick test_candidates_block1;
          Alcotest.test_case "coarse blocks + verification" `Quick test_candidates_coarse_blocks;
          Alcotest.test_case "dead docs excluded" `Quick test_candidates_exclude_dead;
          Alcotest.test_case "stemming" `Quick test_stemming_index;
          Alcotest.test_case "approximate" `Quick test_candidates_approx;
          Alcotest.test_case "vocabulary and bytes" `Quick test_vocabulary_and_bytes;
          Alcotest.test_case "rebuild reclaims stale bits" `Quick test_rebuild_reclaims;
        ] );
      ( "directories",
        [ Alcotest.test_case "doc_ids_under" `Quick test_doc_ids_under ] );
      ( "search",
        [
          Alcotest.test_case "word" `Quick test_search_word;
          Alcotest.test_case "phrase" `Quick test_search_phrase;
          Alcotest.test_case "approx" `Quick test_search_approx;
          Alcotest.test_case "approx expansion lifecycle" `Quick test_expansion_lifecycle;
          Alcotest.test_case "substring" `Quick test_search_substring;
          Alcotest.test_case "matching lines" `Quick test_matching_lines;
          Alcotest.test_case "unreadable filtered" `Quick test_reader_failure_filters;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_block_size_invariant;
            prop_doc_ids_under_matches_scan;
            prop_expansion_model;
            prop_cas_postings_exact;
          ] );
      ( "expansion seeds",
        List.map
          (fun seed ->
            Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (x_seeded seed))
          [ 1; 2; 3 ] );
    ]
