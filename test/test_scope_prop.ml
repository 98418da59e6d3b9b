(* Property test of the paper's scope invariant (section 2.3).

   A random sequence of user operations (file writes and deletions, semantic
   directory creation, link deletion, permanent additions, query changes) is
   applied; after settling (reindex + sync_all, at pool widths 1 and 2)
   every semantic directory must satisfy, against an INDEPENDENT
   re-implementation of the scope definition:

     transient(sd) = { f in scope(parent sd) | f matches query(sd) }
                     \ prohibited(sd) \ permanent(sd) \ subtree(sd)

   The oracle here recomputes scopes from first principles (walking the real
   file system), so any disagreement flags a consistency bug rather than a
   shared mistake. *)

module Hac = Hac_core.Hac
module Link = Hac_core.Link
module Fs = Hac_vfs.Fs
module Vpath = Hac_vfs.Vpath
module Tokenizer = Hac_index.Tokenizer
module StrSet = Set.Make (String)

(* A small fixed world of paths and words keeps the generator dense. *)
let file_paths =
  [ "/docs/f0.txt"; "/docs/f1.txt"; "/docs/sub/f2.txt"; "/docs/sub/f3.txt"; "/misc/f4.txt" ]

let words = [ "red"; "green"; "blue" ]

let semdir_paths = [ "/s0"; "/s1"; "/s0/n0" ]

type op =
  | Write of int * bool list (* which words the file contains *)
  | Delete of int
  | Smkdir of int * int (* semdir slot, query word *)
  | RemoveSomeLink of int
  | AddPermanent of int * int (* semdir slot, file slot *)
  | Schquery of int * int

let pp_op = function
  | Write (i, ws) ->
      Printf.sprintf "Write(%d,[%s])" i (String.concat "" (List.map (fun b -> if b then "1" else "0") ws))
  | Delete i -> Printf.sprintf "Delete(%d)" i
  | Smkdir (s, w) -> Printf.sprintf "Smkdir(%d,%d)" s w
  | RemoveSomeLink s -> Printf.sprintf "RemoveSomeLink(%d)" s
  | AddPermanent (s, f) -> Printf.sprintf "AddPermanent(%d,%d)" s f
  | Schquery (s, w) -> Printf.sprintf "Schquery(%d,%d)" s w

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun i ws -> Write (i, ws)) (int_bound 4) (list_size (return 3) bool));
        (2, map (fun i -> Delete i) (int_bound 4));
        (3, map2 (fun s w -> Smkdir (s, w)) (int_bound 2) (int_bound 2));
        (2, map (fun s -> RemoveSomeLink s) (int_bound 2));
        (2, map2 (fun s f -> AddPermanent (s, f)) (int_bound 2) (int_bound 4));
        (2, map2 (fun s w -> Schquery (s, w)) (int_bound 2) (int_bound 2));
      ])

let arb_ops =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 25) gen_op)
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))

let content_for flags =
  let chosen = List.filteri (fun i _ -> List.nth flags i) words in
  "filler text " ^ String.concat " " chosen ^ "\n"

let apply t op =
  (* User-level ops may legitimately fail (missing file, existing dir...);
     that's part of the random walk. *)
  let ignore_errors f = try f () with Hac_vfs.Errno.Error _ | Hac.Hac_error _ -> () in
  match op with
  | Write (i, flags) ->
      ignore_errors (fun () -> Hac.write_file t (List.nth file_paths i) (content_for flags))
  | Delete i -> ignore_errors (fun () -> Hac.unlink t (List.nth file_paths i))
  | Smkdir (s, w) ->
      ignore_errors (fun () -> Hac.smkdir t (List.nth semdir_paths s) (List.nth words w))
  | RemoveSomeLink s ->
      ignore_errors (fun () ->
          let dir = List.nth semdir_paths s in
          match Hac.links t dir with
          | l :: _ -> Hac.remove_link t ~dir ~name:l.Link.name
          | [] -> ())
  | AddPermanent (s, f) ->
      ignore_errors (fun () ->
          ignore (Hac.add_permanent t ~dir:(List.nth semdir_paths s) ~target:(List.nth file_paths f)))
  | Schquery (s, w) ->
      ignore_errors (fun () -> Hac.schquery t (List.nth semdir_paths s) (List.nth words w))

(* -- the independent oracle ------------------------------------------------- *)

(* HAC's own metadata area is invisible to indexing and scopes. *)
let all_files fs =
  Fs.find_files fs "/"
  |> List.filter (fun p -> not (Vpath.is_prefix ~prefix:"/.hac" p))
  |> StrSet.of_list

let files_under fs prefix =
  StrSet.filter (fun p -> Vpath.is_prefix ~prefix p) (all_files fs)

let link_targets_of t dir ~cls_filter =
  Hac.links t dir
  |> List.filter_map (fun l ->
         match (l.Link.target, cls_filter) with
         | Link.Local p, None -> Some p
         | Link.Local p, Some c when l.Link.cls = c -> Some p
         | _ -> None)
  |> StrSet.of_list

(* Scope a directory provides: for a semantic dir, its links plus physical
   files below it; otherwise just the files below it ("/" = everything). *)
let oracle_scope t fs dir =
  if Hac.is_semantic t dir then
    StrSet.union (link_targets_of t dir ~cls_filter:None) (files_under fs dir)
  else files_under fs dir

let matches fs word path =
  match Fs.read_file fs path with
  | content -> Tokenizer.contains_word content word
  | exception Hac_vfs.Errno.Error _ -> false

let check_invariant t fs dir =
  match Hac.sreadin t dir with
  | None -> true
  | Some query_word ->
      let parent = Vpath.dirname dir in
      let scope = oracle_scope t fs parent in
      let prohibited = StrSet.of_list (Hac.prohibited t dir) in
      let permanent = link_targets_of t dir ~cls_filter:(Some Link.Permanent) in
      let expected =
        scope
        |> StrSet.filter (fun p -> matches fs query_word p)
        |> (fun s -> StrSet.diff s prohibited)
        |> (fun s -> StrSet.diff s permanent)
        |> StrSet.filter (fun p -> not (Vpath.is_prefix ~prefix:dir p))
      in
      let actual = link_targets_of t dir ~cls_filter:(Some Link.Transient) in
      if StrSet.equal expected actual then true
      else
        QCheck.Test.fail_reportf
          "scope invariant violated at %s (query %s):@ expected {%s}@ actual {%s}" dir
          query_word
          (String.concat ", " (StrSet.elements expected))
          (String.concat ", " (StrSet.elements actual))

(* The oracle checks the settle engine at width 1 and on a two-domain pool
   alike: the multi-domain schedule gets no weaker check than the inline
   one. *)
let prop_scope_invariant =
  QCheck.Test.make ~name:"scope invariant holds after random ops" ~count:150 arb_ops
    (fun ops ->
      List.for_all
        (fun domains ->
          (* Queries here are single words with stemming off, so the
             oracle's word-containment check is exactly the system's match
             semantics. *)
          let t = Hac.create ~stem:false () in
          Hac.mkdir_p t "/docs/sub";
          Hac.mkdir_p t "/misc";
          List.iter (apply t) ops;
          ignore (Hac.reindex ~domains t ());
          Hac.sync_all ~domains t;
          let fs = Hac.fs t in
          List.for_all (fun d -> check_invariant t fs d) (Hac.semantic_dirs t))
        [ 1; 2 ])

(* A second walk in eager mode: auto_sync must maintain the same invariant
   continuously (checked at the end, but without an explicit settle). *)
let prop_scope_invariant_auto =
  QCheck.Test.make ~name:"scope invariant holds in auto_sync mode" ~count:75 arb_ops
    (fun ops ->
      let t = Hac.create ~stem:false ~auto_sync:true () in
      Hac.mkdir_p t "/docs/sub";
      Hac.mkdir_p t "/misc";
      List.iter (apply t) ops;
      let fs = Hac.fs t in
      List.for_all (fun d -> check_invariant t fs d) (Hac.semantic_dirs t))

(* Prohibited targets must never be linked, settled or not. *)
let prop_prohibited_never_linked =
  QCheck.Test.make ~name:"prohibited targets never appear as links" ~count:150 arb_ops
    (fun ops ->
      let t = Hac.create ~stem:false ~auto_sync:true () in
      Hac.mkdir_p t "/docs/sub";
      Hac.mkdir_p t "/misc";
      List.iter (apply t) ops;
      List.for_all
        (fun dir ->
          let prohibited = StrSet.of_list (Hac.prohibited t dir) in
          List.for_all
            (fun l -> not (StrSet.mem (Link.target_key l.Link.target) prohibited))
            (Hac.links t dir))
        (Hac.semantic_dirs t))

let () =
  Alcotest.run "scope_prop"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_scope_invariant;
            prop_scope_invariant_auto;
            prop_prohibited_never_linked;
          ] );
    ]
