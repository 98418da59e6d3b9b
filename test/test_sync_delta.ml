(* Differential property tests for incremental scope maintenance: settling
   with the dirty-delta path (Hac.reindex -> Sync.sync_delta) must land on
   exactly the fixpoint the full oracle (Hac.reindex_full -> Sync.sync_all)
   reaches, over arbitrary interleavings of content and structural
   mutations.  Plus unit tests for the result cache's invalidation rules. *)

module Hac = Hac_core.Hac
module Link = Hac_core.Link
module Rescache = Hac_core.Rescache
module Fs = Hac_vfs.Fs
module Namespace = Hac_remote.Namespace
module Fault = Hac_fault.Fault

let files = [| "/d0/a.txt"; "/d0/b.txt"; "/d1/c.txt"; "/d1/d.txt"; "/d2/e.txt" |]

(* Names no file starts at: a move to one is a move to a fresh name (a
   clobber once something moved there), and moves out of one bring the
   file back.  They sit in different subtrees, so moves cross scopes. *)
let spares = [| "/d1/m0.txt"; "/d0/m1.txt"; "/d2/m2.txt" |]
let slots = Array.append files spares
let words = [| "red"; "green"; "blue"; "cyan" |]

(* [/d1/s3] sits under a plain directory: its parent scope is the [/d1]
   subtree, so a move into or out of [/d1] changes what it may contain. *)
let sem_dirs = [| "/s0"; "/s1"; "/s2"; "/d1/s3" |]
(* The approximate queries cover expansion staleness across settles: the
   vocabulary grows between passes while their expansions stay cached. *)
let queries =
  [| "red"; "green OR blue"; "blue AND NOT cyan"; "red OR cyan"; "~gren"; "~2~cyn AND NOT red" |]

type op =
  | Write of int * int (* file slot, word slot *)
  | Delete of int
  | Move of int * int (* slots, moves that clobber included *)
  | Smkdir of int * int (* dir slot, query slot *)
  | Schquery of int * int
  | RemoveLink of int * int (* dir slot, rank among transient links *)
  | AddPerm of int * int (* dir slot, file slot *)
  | Unprohibit of int * int

let pp_op = function
  | Write (f, w) -> Printf.sprintf "Write(%d,%d)" f w
  | Delete f -> Printf.sprintf "Delete(%d)" f
  | Move (a, b) -> Printf.sprintf "Move(%d,%d)" a b
  | Smkdir (d, q) -> Printf.sprintf "Smkdir(%d,%d)" d q
  | Schquery (d, q) -> Printf.sprintf "Schquery(%d,%d)" d q
  | RemoveLink (d, r) -> Printf.sprintf "RemoveLink(%d,%d)" d r
  | AddPerm (d, f) -> Printf.sprintf "AddPerm(%d,%d)" d f
  | Unprohibit (d, f) -> Printf.sprintf "Unprohibit(%d,%d)" d f

let gen_op =
  let dir = QCheck.Gen.int_bound (Array.length sem_dirs - 1) in
  let slot = QCheck.Gen.int_bound (Array.length slots - 1) in
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun f w -> Write (f, w)) (int_bound 4) (int_bound 3));
        (2, map (fun f -> Delete f) (int_bound 4));
        (2, map2 (fun a b -> Move (a, b)) (int_bound 4) (int_bound 4));
        (3, map2 (fun a b -> Move (a, b)) slot slot);
        (2, map2 (fun d q -> Smkdir (d, q)) dir (int_bound (Array.length queries - 1)));
        (1, map2 (fun d q -> Schquery (d, q)) dir (int_bound (Array.length queries - 1)));
        (1, map2 (fun d r -> RemoveLink (d, r)) dir (int_bound 3));
        (1, map2 (fun d f -> AddPerm (d, f)) dir (int_bound 4));
        (1, map2 (fun d f -> Unprohibit (d, f)) dir (int_bound 4));
      ])

let arb_ops =
  QCheck.make
    QCheck.Gen.(list_size (int_range 4 40) gen_op)
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))

(* Ops carry only pre-drawn data (slots and ranks), so applying the same op
   to two instances in the same state performs the same mutation on both. *)
let apply t op =
  let ignore_errors f = try f () with Hac_vfs.Errno.Error _ | Hac.Hac_error _ -> () in
  match op with
  | Write (f, w) ->
      ignore_errors (fun () ->
          Hac.write_file t files.(f) (Printf.sprintf "some %s text\n" words.(w)))
  | Delete f -> ignore_errors (fun () -> Hac.unlink t files.(f))
  | Move (a, b) -> ignore_errors (fun () -> Hac.rename t ~src:slots.(a) ~dst:slots.(b))
  | Smkdir (d, q) -> ignore_errors (fun () -> Hac.smkdir t sem_dirs.(d) queries.(q))
  | Schquery (d, q) -> ignore_errors (fun () -> Hac.schquery t sem_dirs.(d) queries.(q))
  | RemoveLink (d, r) ->
      ignore_errors (fun () ->
          let transients =
            Hac.links t sem_dirs.(d)
            |> List.filter (fun l -> l.Link.cls = Link.Transient)
            |> List.map (fun l -> l.Link.name)
            |> List.sort compare
          in
          match List.nth_opt transients (r mod max 1 (List.length transients)) with
          | Some name -> Hac.remove_link t ~dir:sem_dirs.(d) ~name
          | None -> ())
  | AddPerm (d, f) ->
      ignore_errors (fun () ->
          ignore (Hac.add_permanent t ~dir:sem_dirs.(d) ~target:files.(f)))
  | Unprohibit (d, f) ->
      ignore_errors (fun () -> Hac.unprohibit t ~dir:sem_dirs.(d) ~target:files.(f))

(* The externally observable semantic state: for every semantic directory,
   its links (name, canonical target, class), its prohibited targets, and
   the symbolic links physically present in it (name and [readlink] value,
   read from the VFS) — so a stale or missing symlink left by link patching
   diverges even when HAC's own link table looks right. *)
let observe t =
  let fs = Hac.fs t in
  Hac.semantic_dirs t
  |> List.map (fun dir ->
         let links =
           Hac.links t dir
           |> List.map (fun l ->
                  Printf.sprintf "%s>%s%s" l.Link.name
                    (Link.target_key l.Link.target)
                    (if l.Link.cls = Link.Permanent then "!" else ""))
           |> List.sort compare
         in
         let proh = List.sort compare (Hac.prohibited t dir) in
         let physical =
           Fs.readdir fs dir
           |> List.filter_map (fun name ->
                  let p = Hac_vfs.Vpath.join dir name in
                  if Fs.is_symlink fs p then Some (name ^ ">" ^ Fs.readlink fs p) else None)
           |> List.sort compare
         in
         Printf.sprintf "%s: [%s] proh[%s] fs[%s]" dir (String.concat "," links)
           (String.concat "," proh) (String.concat "," physical))
  |> String.concat "\n"

let fresh () =
  let t = Hac.create ~stem:false () in
  List.iter (Hac.mkdir_p t) [ "/d0"; "/d1"; "/d2" ];
  t

(* Split the op list into small batches; settle both twins after each batch
   (A incrementally, B fully) and require identical observable state. *)
let rec batches = function
  | [] -> []
  | ops ->
      let rec take n = function
        | x :: rest when n > 0 ->
            let h, t = take (n - 1) rest in
            (x :: h, t)
        | rest -> ([], rest)
      in
      let batch, rest = take 3 ops in
      batch :: batches rest

let twin_run ?(check = fun ~batch:_ _ _ -> ()) ops =
  let a = fresh () and b = fresh () in
  List.iteri
    (fun i batch ->
      List.iter
        (fun op ->
          apply a op;
          apply b op)
        batch;
      ignore (Hac.reindex a ());
      ignore (Hac.reindex_full b ());
      check ~batch:i a b)
    (batches ops);
  (a, b)

let prop_delta_equals_full =
  QCheck.Test.make ~name:"delta settle equals the sync_all oracle" ~count:60 arb_ops
    (fun ops ->
      let a, b =
        twin_run ops ~check:(fun ~batch a b ->
            if observe a <> observe b then
              QCheck.Test.fail_reportf "divergence at batch %d:\ndelta:\n%s\nfull:\n%s"
                batch (observe a) (observe b))
      in
      (* And the delta twin's state is a true fixpoint of the full engine. *)
      let before = observe a in
      Hac.sync_all a;
      ignore b;
      if observe a <> before then
        QCheck.Test.fail_reportf "delta state was not a sync_all fixpoint:\n%s\nvs\n%s"
          before (observe a)
      else true)

(* The same differential run under three pinned seeds, as plain test cases:
   a regression in the delta path fails fast and reproducibly even if the
   QCheck draw happens to wander elsewhere. *)
let seeded_run seed () =
  let rand = Random.State.make [| seed |] in
  let ops = QCheck.Gen.generate1 ~rand QCheck.Gen.(list_size (int_range 30 60) gen_op) in
  let a, _ =
    twin_run ops ~check:(fun ~batch a b ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d batch %d" seed batch)
          (observe b) (observe a))
  in
  let before = observe a in
  Hac.sync_all a;
  Alcotest.(check string) "no-op sync_all is a fixpoint" before (observe a)

(* -- cache invalidation ------------------------------------------------------- *)

let link_names t dir =
  Hac.links t dir |> List.map (fun l -> l.Link.name) |> List.sort compare

let test_rename_invalidates () =
  let t = fresh () in
  Hac.write_file t "/d0/a.txt" "plain red text";
  Hac.smkdir t "/s" "red";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "linked" [ "a.txt" ] (link_names t "/s");
  (* The content is unchanged, yet every cached result and link naming the
     old path is now wrong: the settle's delta carries the renamed
     document and retargets its link, without a full-sync fallback. *)
  let fallbacks () =
    Hac_obs.Metrics.count (Hac.instr t).Hac_core.Instr.sync_fallback
  in
  let before = fallbacks () in
  Hac.rename t ~src:"/d0/a.txt" ~dst:"/d0/z.txt";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "retargeted" [ "z.txt" ] (link_names t "/s");
  Alcotest.(check int) "no fallback" before (fallbacks ());
  (* Clobbering an indexed file still takes the full pass. *)
  Hac.write_file t "/d0/b.txt" "red again";
  ignore (Hac.reindex t ());
  Hac.rename t ~src:"/d0/z.txt" ~dst:"/d0/b.txt";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "clobber retargeted" [ "b.txt" ] (link_names t "/s");
  Alcotest.(check int) "clobber falls back" (before + 1) (fallbacks ())

let test_remove_invalidates () =
  let t = fresh () in
  Hac.write_file t "/d0/a.txt" "red";
  Hac.write_file t "/d0/b.txt" "red";
  Hac.smkdir t "/s" "red";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "both linked" [ "a.txt"; "b.txt" ] (link_names t "/s");
  Hac.unlink t "/d0/a.txt";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "dropped" [ "b.txt" ] (link_names t "/s")

let test_prohibition_invalidates () =
  let t = fresh () in
  Hac.write_file t "/d0/a.txt" "red";
  Hac.smkdir t "/s" "red";
  ignore (Hac.reindex t ());
  (* rm inside the semantic dir prohibits the target; the cached result
     still contains it, so the next settle must not serve the cache. *)
  Hac.remove_link t ~dir:"/s" ~name:"a.txt";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "prohibited stays out" [] (link_names t "/s");
  Hac.unprohibit t ~dir:"/s" ~target:"/d0/a.txt";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "unprohibit restores" [ "a.txt" ] (link_names t "/s")

let test_cache_hits_on_steady_state () =
  let t = fresh () in
  Hac.write_file t "/d0/a.txt" "red";
  Hac.write_file t "/d1/c.txt" "blue";
  Hac.smkdir t "/s0" "red";
  Hac.smkdir t "/s1" "blue";
  ignore (Hac.reindex_full t ());
  (* One converging resync: directories synced before the settle's last
     generation bump re-store their entries at the final generation. *)
  Hac.sync_all t;
  Hac.reset_result_cache_stats t;
  Hac.sync_all t;
  Hac.sync_all t;
  let rc = Hac.result_cache_stats t in
  Alcotest.(check int) "no misses on no-op resyncs" 0 rc.Rescache.misses;
  Alcotest.(check bool) "hits recorded" true (rc.Rescache.hits >= 4);
  (* A content change bumps the generation: the stale entry must miss. *)
  Hac.write_file t "/d0/a.txt" "now blue";
  ignore (Hac.reindex t ());
  Alcotest.(check (list string)) "s0 emptied" [] (link_names t "/s0");
  Alcotest.(check (list string)) "s1 gained" [ "a.txt"; "c.txt" ] (link_names t "/s1")

let test_namespace_stale_transition () =
  (* Graceful degradation must be unaffected by the cache: an outage serves
     stale remote entries, recovery drops them — across settles that hit
     the local-result cache in between. *)
  let t = fresh () in
  Hac.write_file t "/d0/a.txt" "sorting notes";
  Hac.smkdir t "/docs" "sorting";
  let ns =
    Namespace.static ~ns_id:"lib"
      [ ("paper.ps", "dlib://lib/paper.ps", "A survey of sorting networks.\n") ]
  in
  let clock = Hac.clock t in
  let inj = Fault.create ~seed:7 ~clock () in
  Hac.smount t "/docs" (Namespace.with_policy ~clock (Namespace.with_faults inj ns));
  ignore (Hac.reindex_full t ());
  Alcotest.(check (list string))
    "healthy: local + remote" [ "a.txt"; "paper.ps" ] (link_names t "/docs");
  Fault.set_plans inj [ Fault.Outage ];
  Hac.ssync t "/docs";
  Hac.ssync t "/docs";
  Alcotest.(check (list string))
    "outage: stale remote kept" [ "a.txt"; "paper.ps" ] (link_names t "/docs");
  Alcotest.(check bool)
    "marked stale" true
    (List.length (Hac.stale_remotes t "/docs") = 1);
  Fault.clear inj;
  Hac_fault.Clock.advance clock 60.0;
  Hac.ssync t "/docs";
  Alcotest.(check bool) "recovery drops stale markers" true
    (Hac.stale_remotes t "/docs" = []);
  Alcotest.(check (list string))
    "recovered entries" [ "a.txt"; "paper.ps" ] (link_names t "/docs")

let () =
  Alcotest.run "sync_delta"
    [
      ( "differential",
        QCheck_alcotest.to_alcotest prop_delta_equals_full
        :: List.map
             (fun seed ->
               Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (seeded_run seed))
             [ 1; 42; 1999 ] );
      ( "cache invalidation",
        [
          Alcotest.test_case "rename retargets" `Quick test_rename_invalidates;
          Alcotest.test_case "remove drops" `Quick test_remove_invalidates;
          Alcotest.test_case "prohibit/unprohibit" `Quick test_prohibition_invalidates;
          Alcotest.test_case "steady state hits" `Quick test_cache_hits_on_steady_state;
          Alcotest.test_case "namespace outage" `Quick test_namespace_stale_transition;
        ] );
    ]
