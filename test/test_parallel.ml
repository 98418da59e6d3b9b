(* The settle engine's correctness claim is width independence: settling
   with a domain pool of any width must land on exactly the state a width-1
   settle reaches — same links, same prohibitions, same persisted metadata
   — over arbitrary interleavings of content and structural mutations.
   Differential twin runs check that claim at widths 1, 2 and 4 against the
   default width 1 (the level scheduling is identical at every width; only
   where the evaluations run differs).  Unit tests pin down the pool itself
   and the per-pass cache invalidation story. *)

module Hac = Hac_core.Hac
module Link = Hac_core.Link
module Fs = Hac_vfs.Fs
module Pool = Hac_par.Pool

let files = [| "/d0/a.txt"; "/d0/b.txt"; "/d1/c.txt"; "/d1/d.txt"; "/d2/e.txt" |]
let words = [| "red"; "green"; "blue"; "cyan" |]
let sem_dirs = [| "/s0"; "/s1"; "/s2" |]

(* Dirref queries give the dependency DAG real depth, so parallel runs
   schedule more than one level. *)
let queries =
  [| "red"; "green OR blue"; "blue AND NOT cyan"; "{/s0} AND green"; "red OR {/s1}" |]

type op =
  | Write of int * int
  | Delete of int
  | Move of int * int
  | Smkdir of int * int
  | Schquery of int * int
  | RemoveLink of int * int
  | AddPerm of int * int

let pp_op = function
  | Write (f, w) -> Printf.sprintf "Write(%d,%d)" f w
  | Delete f -> Printf.sprintf "Delete(%d)" f
  | Move (a, b) -> Printf.sprintf "Move(%d,%d)" a b
  | Smkdir (d, q) -> Printf.sprintf "Smkdir(%d,%d)" d q
  | Schquery (d, q) -> Printf.sprintf "Schquery(%d,%d)" d q
  | RemoveLink (d, r) -> Printf.sprintf "RemoveLink(%d,%d)" d r
  | AddPerm (d, f) -> Printf.sprintf "AddPerm(%d,%d)" d f

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun f w -> Write (f, w)) (int_bound 4) (int_bound 3));
        (2, map (fun f -> Delete f) (int_bound 4));
        (2, map2 (fun a b -> Move (a, b)) (int_bound 4) (int_bound 4));
        (3, map2 (fun d q -> Smkdir (d, q)) (int_bound 2) (int_bound 4));
        (2, map2 (fun d q -> Schquery (d, q)) (int_bound 2) (int_bound 4));
        (1, map2 (fun d r -> RemoveLink (d, r)) (int_bound 2) (int_bound 3));
        (1, map2 (fun d f -> AddPerm (d, f)) (int_bound 2) (int_bound 4));
      ])

let arb_ops =
  QCheck.make
    QCheck.Gen.(list_size (int_range 4 40) gen_op)
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))

(* Ops carry only pre-drawn data, so the same op applied to two instances in
   the same state performs the same mutation on both. *)
let apply t op =
  let ignore_errors f = try f () with Hac_vfs.Errno.Error _ | Hac.Hac_error _ -> () in
  match op with
  | Write (f, w) ->
      ignore_errors (fun () ->
          Hac.write_file t files.(f) (Printf.sprintf "some %s text\n" words.(w)))
  | Delete f -> ignore_errors (fun () -> Hac.unlink t files.(f))
  | Move (a, b) -> ignore_errors (fun () -> Hac.rename t ~src:files.(a) ~dst:files.(b))
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

(* The externally observable semantic state: for every semantic directory,
   its links (name, canonical target, class) and its prohibited targets. *)
let observe t =
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
         Printf.sprintf "%s: [%s] proh[%s]" dir (String.concat "," links)
           (String.concat "," proh))
  |> String.concat "\n"

(* The persisted metadata area, byte for byte: the parallel engine claims
   not just equal in-memory results but identical /.hac contents (per-dir
   structures and the directory journal). *)
let persisted t =
  let fs = Hac.fs t in
  match Fs.readdir fs "/.hac" with
  | exception Hac_vfs.Errno.Error _ -> ""
  | names ->
      List.sort compare names
      |> List.map (fun n ->
             let p = "/.hac/" ^ n in
             if Fs.is_file fs p then Printf.sprintf "%s:%s" n (Fs.read_file fs p) else n)
      |> String.concat "\n"

let fresh () =
  let t = Hac.create ~stem:false () in
  List.iter (Hac.mkdir_p t) [ "/d0"; "/d1"; "/d2" ];
  t

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

(* Twin run: A settles with a [domains]-wide pool, B at the default width 1;
   the observable state and the persisted metadata must agree after every
   settle. *)
let twin_run ~domains ~fail ops =
  let a = fresh () and b = fresh () in
  List.iteri
    (fun i batch ->
      List.iter
        (fun op ->
          apply a op;
          apply b op)
        batch;
      Hac.settle ~domains a;
      Hac.settle b;
      if observe a <> observe b then
        fail
          (Printf.sprintf "observable divergence (domains=%d, batch %d):\n%s\nvs\n%s"
             domains i (observe a) (observe b));
      if persisted a <> persisted b then
        fail
          (Printf.sprintf "persisted divergence (domains=%d, batch %d):\n%s\nvs\n%s"
             domains i (persisted a) (persisted b)))
    (batches ops);
  (a, b)

let widths = [ 1; 2; 4 ]

let prop_parallel_equals_sequential =
  QCheck.Test.make ~name:"parallel settle equals the sequential engine" ~count:40 arb_ops
    (fun ops ->
      List.iter
        (fun domains ->
          ignore
            (twin_run ~domains ops ~fail:(fun msg -> QCheck.Test.fail_report msg)))
        widths;
      true)

(* The same differential run under pinned seeds, as plain test cases: a
   regression fails fast and reproducibly even if the QCheck draw happens to
   wander elsewhere. *)
let seeded_run seed () =
  let rand = Random.State.make [| seed |] in
  let ops = QCheck.Gen.generate1 ~rand QCheck.Gen.(list_size (int_range 30 60) gen_op) in
  List.iter
    (fun domains ->
      let a, _ = twin_run ~domains ops ~fail:Alcotest.fail in
      (* The multi-domain result is a true fixpoint of a width-1 pass. *)
      let before = observe a in
      Hac.sync_all a;
      Alcotest.(check string)
        (Printf.sprintf "seed %d domains %d: sequential fixpoint" seed domains)
        before (observe a))
    widths

(* -- the domain pool --------------------------------------------------------- *)

let test_pool_map_order () =
  Pool.with_pool ~domains:4 (fun p ->
      let xs = Array.init 100 Fun.id in
      let ys = Pool.map p (fun x -> (2 * x) + 1) xs in
      Alcotest.(check (array int)) "order kept" (Array.map (fun x -> (2 * x) + 1) xs) ys)

(* map_timed returns results in input order with one non-negative CPU
   duration per element, at width 1 (inline) and width 3 alike. *)
let test_pool_map_timed () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let xs = Array.init 50 Fun.id in
          let ys, ts = Pool.map_timed p (fun x -> x * x) xs in
          let label s = Printf.sprintf "%s (width %d)" s domains in
          Alcotest.(check (array int)) (label "order kept") (Array.map (fun x -> x * x) xs) ys;
          Alcotest.(check int) (label "one time per element") 50 (Array.length ts);
          Alcotest.(check bool) (label "times non-negative") true
            (Array.for_all (fun t -> t >= 0.0) ts);
          let ys0, ts0 = Pool.map_timed p (fun x -> x) [||] in
          Alcotest.(check int) (label "empty results") 0 (Array.length ys0);
          Alcotest.(check int) (label "empty times") 0 (Array.length ts0)))
    [ 1; 3 ]

let test_pool_size_one_inline () =
  let p = Pool.create () in
  Alcotest.(check int) "size" 1 (Pool.size p);
  let self = Domain.self () in
  Pool.run p (fun slot ->
      Alcotest.(check int) "slot" 0 slot;
      Alcotest.(check bool) "same domain" true (Domain.self () = self));
  Pool.shutdown p

let test_pool_exception () =
  Pool.with_pool ~domains:3 (fun p ->
      match Pool.map p (fun x -> if x = 7 then failwith "boom" else x) (Array.init 16 Fun.id) with
      | _ -> Alcotest.fail "expected the worker exception to re-raise"
      | exception Pool.Task { index; exn = Failure m; _ } ->
          Alcotest.(check string) "propagated" "boom" m;
          Alcotest.(check int) "failing element attributed" 7 index
      | exception e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e));
  (* Width 1 attributes identically — the error surface must not depend on
     the domain budget. *)
  Pool.with_pool ~domains:1 (fun p ->
      match Pool.map p (fun x -> if x = 5 then failwith "boom" else x) (Array.init 16 Fun.id) with
      | _ -> Alcotest.fail "expected the inline exception to re-raise"
      | exception Pool.Task { index; exn = Failure m; _ } ->
          Alcotest.(check string) "propagated inline" "boom" m;
          Alcotest.(check int) "inline element attributed" 5 index);
  (* The pool survives a failing region and runs the next one. *)
  Pool.with_pool ~domains:3 (fun p ->
      (try ignore (Pool.map p (fun _ -> failwith "first") [| 1; 2; 3 |])
       with Pool.Task _ -> ());
      let ys = Pool.map p (fun x -> x * x) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "next region fine" [| 1; 4; 9 |] ys)

let test_pool_reuse () =
  Pool.with_pool ~domains:2 (fun p ->
      for i = 1 to 5 do
        let ys = Pool.map p (fun x -> x + i) (Array.init 10 Fun.id) in
        Alcotest.(check int) "sum" (45 + (10 * i)) (Array.fold_left ( + ) 0 ys)
      done)

(* -- per-pass cache invalidation ---------------------------------------------

   The caches live exactly one settle pass, so a content change between
   passes must be visible to the next one — nothing may serve yesterday's
   tokens or term results. *)

let link_names t dir =
  Hac.links t dir |> List.map (fun l -> l.Link.name) |> List.sort compare

let test_caches_see_reindex () =
  let t = fresh () in
  Hac.write_file t "/d0/a.txt" "plain red text";
  Hac.write_file t "/d0/b.txt" "plain blue text";
  Hac.smkdir t "/s0" "red";
  Hac.smkdir t "/s1" "red";
  Hac.settle ~domains:2 t;
  Alcotest.(check (list string)) "a in s0" [ "a.txt" ] (link_names t "/s0");
  Alcotest.(check (list string)) "a in s1" [ "a.txt" ] (link_names t "/s1");
  (* Flip the contents: the next pass's doc cache must tokenize the new
     bytes, and its term memo must re-expand "red" from the fresh index. *)
  Hac.write_file t "/d0/a.txt" "plain blue text";
  Hac.write_file t "/d0/b.txt" "plain red text";
  Hac.settle ~domains:2 t;
  Alcotest.(check (list string)) "b in s0" [ "b.txt" ] (link_names t "/s0");
  Alcotest.(check (list string)) "b in s1" [ "b.txt" ] (link_names t "/s1")

let test_sibling_dirs_share_pass () =
  (* Many sibling directories with the same query within one pass: the memo
     serves one evaluation to all of them, and they must all agree. *)
  let t = fresh () in
  Hac.write_file t "/d0/a.txt" "red one";
  Hac.write_file t "/d1/c.txt" "red two";
  for j = 0 to 5 do
    Hac.smkdir t (Printf.sprintf "/m%d" j) "red"
  done;
  Hac.settle ~domains:4 t;
  let expect = link_names t "/m0" in
  Alcotest.(check bool) "result is non-trivial" true (expect <> []);
  for j = 1 to 5 do
    Alcotest.(check (list string))
      (Printf.sprintf "/m%d agrees" j)
      expect
      (link_names t (Printf.sprintf "/m%d" j))
  done;
  Hac.unlink t "/d0/a.txt";
  Hac.settle ~domains:4 t;
  let expect = link_names t "/m0" in
  for j = 1 to 5 do
    Alcotest.(check (list string))
      (Printf.sprintf "/m%d agrees after delete" j)
      expect
      (link_names t (Printf.sprintf "/m%d" j))
  done

let test_ablation_knob_equivalent () =
  let t1 = fresh () and t2 = fresh () in
  Hac.set_pass_caches t2 false;
  Alcotest.(check bool) "knob reads back" false (Hac.pass_caches_enabled t2);
  List.iter
    (fun t ->
      Hac.write_file t "/d0/a.txt" "red green";
      Hac.write_file t "/d1/c.txt" "green blue";
      Hac.smkdir t "/s0" "green OR red";
      Hac.smkdir t "/s1" "green AND blue";
      Hac.settle t)
    [ t1; t2 ];
  Alcotest.(check string) "cached and uncached engines agree" (observe t1) (observe t2)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map keeps order" `Quick test_pool_map_order;
          Alcotest.test_case "map_timed keeps order and times" `Quick test_pool_map_timed;
          Alcotest.test_case "size-1 runs inline" `Quick test_pool_size_one_inline;
          Alcotest.test_case "exceptions re-raise" `Quick test_pool_exception;
          Alcotest.test_case "pool is reusable" `Quick test_pool_reuse;
        ] );
      ( "differential",
        [
          Alcotest.test_case "seed 7" `Quick (seeded_run 7);
          Alcotest.test_case "seed 1234" `Quick (seeded_run 1234);
          Alcotest.test_case "seed 202599" `Quick (seeded_run 202599);
          QCheck_alcotest.to_alcotest prop_parallel_equals_sequential;
        ] );
      ( "caches",
        [
          Alcotest.test_case "reindex invalidates" `Quick test_caches_see_reindex;
          Alcotest.test_case "siblings share a pass" `Quick test_sibling_dirs_share_pass;
          Alcotest.test_case "ablation knob equivalent" `Quick test_ablation_knob_equivalent;
        ] );
    ]
