(* Tests for the dependency DAG: cycle refusal, topological ordering and
   affected-set computation. *)

module Depgraph = Hac_depgraph.Depgraph

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_list = Alcotest.(check (list int))

let ok = function Ok () -> () | Error _ -> Alcotest.fail "unexpected cycle"

let err = function Ok () -> Alcotest.fail "expected a cycle" | Error _ -> ()

(* Build a diamond: 3 and 2 depend on 1; 4 depends on 2 and 3. *)
let diamond () =
  let g = Depgraph.create () in
  ok (Depgraph.set_deps g 2 [ 1 ]);
  ok (Depgraph.set_deps g 3 [ 1 ]);
  ok (Depgraph.set_deps g 4 [ 2; 3 ]);
  g

let test_nodes () =
  let g = Depgraph.create () in
  Depgraph.add_node g 5;
  check_bool "mem" true (Depgraph.mem g 5);
  check_bool "not mem" false (Depgraph.mem g 6);
  Depgraph.add_node g 5 (* idempotent *);
  check_int "count" 1 (Depgraph.node_count g);
  Depgraph.remove_node g 5;
  check_bool "removed" false (Depgraph.mem g 5)

let test_deps_and_dependents () =
  let g = diamond () in
  check_list "deps of 4" [ 2; 3 ] (Depgraph.deps g 4);
  check_list "dependents of 1" [ 2; 3 ] (Depgraph.dependents g 1);
  check_list "dependents of 2" [ 4 ] (Depgraph.dependents g 2);
  check_int "edges" 4 (Depgraph.edge_count g)

let test_replace_deps () =
  let g = diamond () in
  ok (Depgraph.set_deps g 4 [ 1 ]);
  check_list "new deps" [ 1 ] (Depgraph.deps g 4);
  check_list "2 lost its dependent" [] (Depgraph.dependents g 2)

let test_self_cycle () =
  let g = Depgraph.create () in
  err (Depgraph.set_deps g 1 [ 1 ])

let test_two_cycle () =
  let g = Depgraph.create () in
  ok (Depgraph.set_deps g 1 [ 2 ]);
  err (Depgraph.set_deps g 2 [ 1 ]);
  (* The failed attempt must not leave partial edges. *)
  check_list "2 unchanged" [] (Depgraph.deps g 2);
  check_list "1 unchanged" [ 2 ] (Depgraph.deps g 1)

let test_long_cycle () =
  let g = Depgraph.create () in
  ok (Depgraph.set_deps g 2 [ 1 ]);
  ok (Depgraph.set_deps g 3 [ 2 ]);
  ok (Depgraph.set_deps g 4 [ 3 ]);
  err (Depgraph.set_deps g 1 [ 4 ])

let test_partial_rollback () =
  (* One good edge plus one cycling edge: whole call must roll back. *)
  let g = Depgraph.create () in
  ok (Depgraph.set_deps g 1 [ 9 ]);
  ok (Depgraph.set_deps g 2 [ 1 ]);
  err (Depgraph.set_deps g 1 [ 5; 2 ]);
  check_list "rollback to old deps" [ 9 ] (Depgraph.deps g 1)

let test_would_cycle_pure () =
  let g = diamond () in
  check_bool "cycle detected" true (Depgraph.would_cycle g 1 [ 4 ]);
  check_list "graph unchanged" [] (Depgraph.deps g 1);
  check_bool "no cycle" false (Depgraph.would_cycle g 1 []);
  check_list "still unchanged" [] (Depgraph.deps g 1);
  check_list "4 keeps deps" [ 2; 3 ] (Depgraph.deps g 4)

let test_affected_order () =
  let g = diamond () in
  (* Everything depending on 1, sorted; its levels put dependencies before
     dependents. *)
  check_list "three affected" [ 2; 3; 4 ] (Depgraph.affected g 1);
  Alcotest.(check (list (list int)))
    "schedule from 1" [ [ 1 ]; [ 2; 3 ]; [ 4 ] ]
    (Depgraph.levels_of g (1 :: Depgraph.affected g 1));
  check_list "leaf affects nothing" [] (Depgraph.affected g 4)

let test_levels_order () =
  let g = diamond () in
  let order = List.concat (Depgraph.levels g) in
  check_int "all nodes" 4 (List.length order);
  let pos x = Option.get (List.find_index (( = ) x) order) in
  check_bool "1 first" true (pos 1 < pos 2 && pos 1 < pos 3);
  check_bool "4 last" true (pos 4 > pos 2 && pos 4 > pos 3)

let test_remove_node_detaches () =
  let g = diamond () in
  Depgraph.remove_node g 2;
  check_list "4's deps lose 2" [ 3 ] (Depgraph.deps g 4);
  check_list "1's dependents lose 2" [ 3 ] (Depgraph.dependents g 1)

let test_unknown_dep_registered () =
  let g = Depgraph.create () in
  ok (Depgraph.set_deps g 1 [ 42 ]);
  check_bool "implicit node" true (Depgraph.mem g 42)

(* -- properties: random DAG construction stays acyclic and topo-consistent --- *)

let gen_edge_attempts =
  QCheck.Gen.(list_size (int_range 0 60) (pair (int_bound 12) (list_size (int_range 0 4) (int_bound 12))))

let arb_attempts =
  QCheck.make gen_edge_attempts ~print:(fun l ->
      String.concat "; "
        (List.map
           (fun (n, ds) ->
             Printf.sprintf "%d<-[%s]" n (String.concat "," (List.map string_of_int ds)))
           l))

let build_graph attempts =
  let g = Depgraph.create () in
  List.iter (fun (n, ds) -> ignore (Depgraph.set_deps g n ds)) attempts;
  g

let prop_topo_respects_edges =
  QCheck.Test.make ~name:"concatenated levels place deps before dependents" ~count:300
    arb_attempts (fun attempts ->
      let g = build_graph attempts in
      let order = List.concat (Depgraph.levels g) in
      let pos = Hashtbl.create 16 in
      List.iteri (fun i n -> Hashtbl.replace pos n i) order;
      List.length order = Depgraph.node_count g
      && List.for_all
           (fun n ->
             List.for_all
               (fun d -> Hashtbl.find pos d < Hashtbl.find pos n)
               (Depgraph.deps g n))
           order)

let prop_affected_closed =
  QCheck.Test.make ~name:"affected is transitively closed" ~count:300
    (QCheck.pair arb_attempts (QCheck.int_bound 12))
    (fun (attempts, start) ->
      let g = build_graph attempts in
      QCheck.assume (Depgraph.mem g start);
      let aff = Depgraph.affected g start in
      (* Every direct dependent of anything affected (or of start) is affected. *)
      List.for_all
        (fun n -> List.for_all (fun d -> List.mem d aff) (Depgraph.dependents g n))
        (start :: aff))

(* -- antichain levels (the parallel settle schedule) ---------------------- *)

let test_levels_diamond () =
  let g = diamond () in
  check_list "level 0" [ 1 ] (List.nth (Depgraph.levels g) 0);
  check_list "level 1" [ 2; 3 ] (List.nth (Depgraph.levels g) 1);
  check_list "level 2" [ 4 ] (List.nth (Depgraph.levels g) 2);
  check_int "levels" 3 (List.length (Depgraph.levels g))

let test_levels_of_subset () =
  let g = diamond () in
  (* Restricted to {2; 3; 4}: 2 and 3 lose their only (external) dependency
     and become the first wave. *)
  Alcotest.(check (list (list int)))
    "subset levels"
    [ [ 2; 3 ]; [ 4 ] ]
    (Depgraph.levels_of g [ 4; 3; 2 ]);
  Alcotest.(check (list (list int))) "empty set" [] (Depgraph.levels_of g [])

(* Every property the level engine relies on, over random DAGs: the levels
   partition the node set, concatenation is a valid topological order, and
   no node's dependency shares (or follows) its level. *)
let levels_properties g =
  let levels = Depgraph.levels g in
  let flat = List.concat levels in
  let partition =
    List.length (List.sort_uniq compare flat) = List.length flat
    && List.length flat = Depgraph.node_count g
    && List.for_all (Depgraph.mem g) flat
  in
  let level_of = Hashtbl.create 16 in
  List.iteri (fun i level -> List.iter (fun n -> Hashtbl.replace level_of n i) level) levels;
  let deps_strictly_earlier =
    List.for_all
      (fun n ->
        List.for_all
          (fun d -> Hashtbl.find level_of d < Hashtbl.find level_of n)
          (Depgraph.deps g n))
      flat
  in
  partition && deps_strictly_earlier

let test_levels_hand_built () =
  let g = Depgraph.create () in
  (* A chain hanging off one side of a wide fan. *)
  ok (Depgraph.set_deps g 10 [ 1 ]);
  ok (Depgraph.set_deps g 11 [ 1 ]);
  ok (Depgraph.set_deps g 12 [ 1 ]);
  ok (Depgraph.set_deps g 20 [ 10 ]);
  ok (Depgraph.set_deps g 30 [ 20; 11 ]);
  check_bool "properties hold" true (levels_properties g);
  check_list "widest wave" [ 10; 11; 12 ] (List.nth (Depgraph.levels g) 1)

let prop_levels_sound =
  QCheck.Test.make ~name:"levels partition the nodes into antichain waves" ~count:300
    arb_attempts (fun attempts -> levels_properties (build_graph attempts))

let prop_no_cycles_ever =
  QCheck.Test.make ~name:"graph stays acyclic under random set_deps" ~count:300 arb_attempts
    (fun attempts ->
      let g = build_graph attempts in
      (* A DAG's levels cover every node. *)
      List.length (List.concat (Depgraph.levels g)) = Depgraph.node_count g)

let () =
  Alcotest.run "depgraph"
    [
      ( "structure",
        [
          Alcotest.test_case "nodes" `Quick test_nodes;
          Alcotest.test_case "deps and dependents" `Quick test_deps_and_dependents;
          Alcotest.test_case "replace deps" `Quick test_replace_deps;
          Alcotest.test_case "remove detaches" `Quick test_remove_node_detaches;
          Alcotest.test_case "unknown deps registered" `Quick test_unknown_dep_registered;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "self" `Quick test_self_cycle;
          Alcotest.test_case "two-node" `Quick test_two_cycle;
          Alcotest.test_case "long" `Quick test_long_cycle;
          Alcotest.test_case "partial rollback" `Quick test_partial_rollback;
          Alcotest.test_case "would_cycle is pure" `Quick test_would_cycle_pure;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "affected order" `Quick test_affected_order;
          Alcotest.test_case "levels order" `Quick test_levels_order;
        ] );
      ( "levels",
        [
          Alcotest.test_case "diamond" `Quick test_levels_diamond;
          Alcotest.test_case "subset" `Quick test_levels_of_subset;
          Alcotest.test_case "hand-built" `Quick test_levels_hand_built;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_topo_respects_edges;
            prop_affected_closed;
            prop_no_cycles_ever;
            prop_levels_sound;
          ] );
    ]
