(* The target index of a semantic directory's link table: after any
   sequence of adds, removals, upgrades to permanent and re-adds — with
   several links sharing one target — [link_by_target], [links_to_key] and
   [is_permanent_key] must agree with a brute-force scan of the links, and
   [link_by_target] must pick the same link every time. *)

module Semdir = Hac_core.Semdir
module Link = Hac_core.Link

let names = [| "a"; "b"; "c"; "a~2"; "doc.txt"; "z" |]

let targets =
  [|
    Link.Local "/d/doc.txt";
    Link.Local "/d/other.txt";
    Link.Local "/e/doc.txt";
    Link.Remote { ns_id = "lib"; uri = "dlib://lib/doc.txt" };
  |]

type op =
  | Add of int * int * bool (* name slot, target slot, permanent *)
  | Remove of int
  | Upgrade of int (* target slot: upgrade its representative to permanent *)
  | Readd of int (* name slot: remove the link, then add the same record back *)

let pp_op = function
  | Add (n, t, p) -> Printf.sprintf "Add(%d,%d,%b)" n t p
  | Remove n -> Printf.sprintf "Remove(%d)" n
  | Upgrade t -> Printf.sprintf "Upgrade(%d)" t
  | Readd n -> Printf.sprintf "Readd(%d)" n

let gen_op =
  let name = QCheck.Gen.int_bound (Array.length names - 1) in
  let target = QCheck.Gen.int_bound (Array.length targets - 1) in
  QCheck.Gen.(
    frequency
      [
        (5, map3 (fun n t p -> Add (n, t, p)) name target (map (fun k -> k = 0) (int_bound 3)));
        (2, map (fun n -> Remove n) name);
        (2, map (fun t -> Upgrade t) target);
        (2, map (fun n -> Readd n) name);
      ])

let apply sd = function
  | Add (n, t, p) ->
      Semdir.add_link sd
        {
          Link.name = names.(n);
          target = targets.(t);
          cls = (if p then Link.Permanent else Link.Transient);
        }
  | Remove n -> ignore (Semdir.remove_link sd names.(n))
  | Upgrade t -> (
      match Semdir.link_by_target sd targets.(t) with
      | Some l -> Semdir.add_link sd { l with Link.cls = Link.Permanent }
      | None -> ())
  | Readd n -> (
      match Semdir.remove_link sd names.(n) with
      | Some l -> Semdir.add_link sd l
      | None -> ())

(* The reference answers, computed by scanning every present link. *)
let brute_links_to sd key =
  Semdir.Names.fold
    (fun _ l acc -> if Link.target_key l.Link.target = key then l :: acc else acc)
    sd.Semdir.links []
  |> List.sort (fun a b -> String.compare a.Link.name b.Link.name)

let brute_permanent sd key =
  List.exists (fun l -> l.Link.cls = Link.Permanent) (brute_links_to sd key)

let agrees sd =
  Array.for_all
    (fun target ->
      let key = Link.target_key target in
      let expected = brute_links_to sd key in
      let first = Semdir.link_by_target sd target in
      Semdir.links_to_key sd key = expected
      && first = (match expected with l :: _ -> Some l | [] -> None)
      && Semdir.link_by_target sd target = first
      && Semdir.is_permanent_key sd key = brute_permanent sd key)
    targets

let prop_index_matches_scan seed =
  QCheck.Test.make
    ~name:(Printf.sprintf "seed %d" seed)
    ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 60) gen_op)
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops)))
    (fun ops ->
      let sd = Semdir.create ~uid:1 Hac_query.Ast.All in
      List.iteri
        (fun i op ->
          apply sd op;
          if not (agrees sd) then
            QCheck.Test.fail_reportf "index diverged from the scan after step %d (%s)" i
              (pp_op op))
        ops;
      true)

let test_shared_target () =
  let sd = Semdir.create ~uid:1 Hac_query.Ast.All in
  let target = Link.Local "/d/doc.txt" in
  let link name cls = { Link.name; target; cls } in
  Semdir.add_link sd (link "m" Link.Transient);
  Semdir.add_link sd (link "b" Link.Transient);
  Semdir.add_link sd (link "x" Link.Permanent);
  let key = Link.target_key target in
  Alcotest.(check (option string))
    "smallest name represents the target" (Some "b")
    (Option.map (fun l -> l.Link.name) (Semdir.link_by_target sd target));
  Alcotest.(check bool) "permanent key" true (Semdir.is_permanent_key sd key);
  ignore (Semdir.remove_link sd "x");
  Alcotest.(check bool)
    "permanent key gone with its link" false (Semdir.is_permanent_key sd key);
  ignore (Semdir.remove_link sd "b");
  Alcotest.(check (option string))
    "next name takes over" (Some "m")
    (Option.map (fun l -> l.Link.name) (Semdir.link_by_target sd target));
  (* Replacing a record under the same name re-files it under its new target. *)
  Semdir.add_link sd
    { Link.name = "m"; target = Link.Local "/d/other.txt"; cls = Link.Permanent };
  Alcotest.(check (list string))
    "old target emptied" []
    (List.map (fun l -> l.Link.name) (Semdir.links_to_key sd key));
  Alcotest.(check bool) "new target permanent" true (Semdir.is_permanent_key sd "/d/other.txt")

let () =
  Alcotest.run "semdir"
    [
      ("target index", [ Alcotest.test_case "shared target" `Quick test_shared_target ]);
      ( "index matches a scan",
        List.map
          (fun seed ->
            QCheck_alcotest.to_alcotest ~speed_level:`Quick
              ~rand:(Random.State.make [| seed |])
              (prop_index_matches_scan seed))
          [ 7; 42; 1999 ] );
    ]
