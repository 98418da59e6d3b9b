module Fs = Hac_vfs.Fs
module Vpath = Hac_vfs.Vpath
module Fileset = Hac_bitset.Fileset
module Index = Hac_index.Index
module Search = Hac_index.Search
module Ast = Hac_query.Ast
module Depgraph = Hac_depgraph.Depgraph
module Namespace = Hac_remote.Namespace
module Mount_table = Hac_remote.Mount_table

type scope = {
  local : Fileset.t;
  remote : Link.target list;
  mount_uids : int list;
}

let subtree_docs (ctx : Ctx.t) path =
  let path = Vpath.normalize path in
  if path = Vpath.root then Index.universe ctx.index
  else Index.doc_ids_under ctx.index path

let mounts_under (ctx : Ctx.t) path =
  List.filter
    (fun uid ->
      match Uidmap.path_of_uid ctx.uids uid with
      | Some mpath -> Vpath.is_prefix ~prefix:path mpath
      | None -> false)
    (Mount_table.mount_points ctx.mounts)

let compute_scope (ctx : Ctx.t) uid =
  match Uidmap.path_of_uid ctx.uids uid with
  | None -> { local = Fileset.empty; remote = []; mount_uids = [] }
  | Some path -> (
      let mount_uids = mounts_under ctx path in
      match Ctx.semdir_of_uid ctx uid with
      | None -> { local = subtree_docs ctx path; remote = []; mount_uids }
      | Some sd ->
          (* The current query result (bitmap + remote entries) plus
             explicitly present links plus physical files of the subtree. *)
          let local = ref (Fileset.union sd.Semdir.transient_local (subtree_docs ctx path)) in
          let remote = ref [] in
          List.iter
            (fun r ->
              remote := Link.Remote { ns_id = r.Semdir.rr_ns; uri = r.Semdir.rr_uri } :: !remote)
            sd.Semdir.transient_remote;
          List.iter
            (fun l ->
              match l.Link.target with
              | Link.Local p -> (
                  match Index.doc_of_path ctx.index p with
                  | Some id -> local := Fileset.add !local id
                  | None -> ())
              | Link.Remote _ as r -> remote := r :: !remote)
            (Semdir.links_of_cls sd Link.Permanent);
          { local = !local; remote = List.rev !remote; mount_uids })

(* One propagation pass computes each directory's provided scope at most
   once, however many children and dirref terms read it.  Entries stay
   valid for the whole pass because directories are processed
   dependencies-first and the index does not change during a pass; the one
   exception — a directory whose own result just changed — drops its entry
   so dependents recompute it.

   A pass also owns the shared evaluation caches (a term-result memo and a
   bounded document content/token cache); both live exactly as long as the
   pass, which is the window during which the index is frozen — dropping
   them at pass end is the whole invalidation story. *)
type pass = {
  scopes : (int, scope) Hashtbl.t;
  memo : Search.term_memo option;
  cache : Search.doc_cache option;
}

let fresh_pass (ctx : Ctx.t) =
  if ctx.pass_caches then
    {
      scopes = Hashtbl.create 16;
      memo = Some (Search.term_memo ());
      cache = Some (Search.doc_cache ());
    }
  else { scopes = Hashtbl.create 16; memo = None; cache = None }

(* Fold the pass caches' totals into the instance counters once, at pass
   end — during the pass, accounting stays inside the caches' own locks, so
   no shared [Instr] counter is touched from a worker domain. *)
let flush_pass (ctx : Ctx.t) pass =
  let i = ctx.instr in
  (match pass.memo with
  | Some m ->
      let s = Search.term_memo_stats m in
      Hac_obs.Metrics.incr ~by:s.Search.memo_hits i.Instr.memo_hits;
      Hac_obs.Metrics.incr ~by:s.Search.memo_misses i.Instr.memo_misses
  | None -> ());
  match pass.cache with
  | Some c ->
      let s = Search.doc_cache_stats c in
      Hac_obs.Metrics.incr ~by:s.Search.cache_hits i.Instr.doc_cache_hits;
      Hac_obs.Metrics.incr ~by:s.Search.cache_misses i.Instr.doc_cache_misses;
      Hac_obs.Metrics.incr ~by:s.Search.cache_uncached i.Instr.doc_cache_uncached
  | None -> ()

let scope_in pass ctx uid =
  match Hashtbl.find_opt pass.scopes uid with
  | Some s -> s
  | None ->
      let s = compute_scope ctx uid in
      Hashtbl.replace pass.scopes uid s;
      s

(* Read-only scope view for worker domains: serve memoized entries, compute
   misses without publishing them (the pass table is unsynchronized).  The
   pre-stage warms every entry a level's evaluations can read, so the
   fallback is a correctness net, not a hot path. *)
let scope_ro pass ctx uid =
  match Hashtbl.find_opt pass.scopes uid with
  | Some s -> s
  | None -> compute_scope ctx uid

let attr_docs ?within ?cache (ctx : Ctx.t) key value =
  match key with
  | "name" | "ext" | "path" ->
      (* Built-in attributes derive from the path alone; under a delta
         restriction only the delta's paths need testing. *)
      let base =
        match within with Some w -> w | None -> Index.universe ctx.index
      in
      Fileset.filter
        (fun id ->
          match Index.doc_path ctx.index id with
          | Some p -> Vpath.matches_builtin_attr ~key ~value p
          | None -> false)
        base
  | _ -> (
      (* Transducer-extracted attributes: block-coarse candidates from the
         index, verified by re-extracting from the candidate's content. *)
      match Index.transducer ctx.index with
      | None -> Fileset.empty
      | Some td ->
          let key = String.lowercase_ascii key and value = String.lowercase_ascii value in
          let read path =
            match cache with
            | Some c -> Search.cached_content c (Ctx.reader ctx) path
            | None -> Ctx.reader ctx path
          in
          let verify id =
            match Index.doc_path ctx.index id with
            | None -> false
            | Some path -> (
                match read path with
                | None -> false
                | Some content ->
                    List.exists
                      (fun (k, v) -> k = key && v = value)
                      (td.Hac_index.Transducer.extract ~path ~content))
          in
          Fileset.filter verify (Index.attr_docs ?within ctx.index key value))

(* Measured candidate counts for the planner.  With the CAS index on these
   are per-container cardinalities of exactly the partitions a lookup would
   touch (scoped by [?under] when the evaluation has a subtree scope);
   with it off they fall back to Glimpse posting-block upper bounds.  No
   candidate set is ever materialised, and — because evaluations run on
   pool domains — no metric, tracer or cache is touched here.
   Verification never widens a candidate set, so these are sound upper
   bounds for ordering conjunctions. *)
let term_cost ?under (ctx : Ctx.t) term =
  let universe_size () = Index.doc_count ctx.index in
  match term with
  | Ast.Word w -> Index.term_cost ?under ctx.index w
  | Ast.Phrase ws ->
      List.fold_left (fun acc w -> min acc (Index.term_cost ?under ctx.index w)) max_int ws
  | Ast.Approx _ -> universe_size () (* vocabulary scan: treat as expensive *)
  | Ast.Attr (("name" | "ext" | "path"), _) -> universe_size ()
  | Ast.Attr (k, v) -> Index.attr_cost ?under ctx.index k v
  | Ast.Regex r -> (
      match Hac_index.Regex.compile_result r with
      | Ok re when (not (Index.stemming ctx.index)) && Hac_index.Regex.required_word re <> None
        ->
          universe_size () / 2 (* literal-narrowed scan: cheaper than full *)
      | Ok _ | Error _ -> universe_size ())
  | Ast.Dirref (Ast.Ref_uid u) -> (
      match Ctx.semdir_of_uid ctx u with
      | Some sd -> Fileset.cardinal sd.Semdir.transient_local
      | None -> universe_size ())
  | Ast.Dirref (Ast.Ref_path _) -> universe_size ()

(* Build an evaluator over the pass caches.  Evaluations may run on any
   domain of the pool, so dirref scopes go through the read-only view: the
   unsynchronized pass table is only ever written by the pre-stage, on the
   calling domain. *)
let make_evaluator pass (ctx : Ctx.t) =
  let scope_of u = (scope_ro pass ctx u).local in
  let dirref ?within:_ = function
    | Ast.Ref_uid u -> scope_of u
    | Ast.Ref_path p -> (
        match Uidmap.uid_of_path ctx.uids p with
        | Some u -> scope_of u
        | None -> Fileset.empty)
  in
  let attr ?within k v = attr_docs ?within ?cache:pass.cache ctx k v in
  Search.evaluator ?memo:pass.memo ?cache:pass.cache ctx.index (Ctx.reader ctx) ~attr
    ~dirref

(* -- query evaluation ------------------------------------------------------

   An evaluation may not touch the tracer, the metrics registry, the result
   cache or the pass scope table — everything observable accumulates in a
   per-task [acc], merged on the calling domain at the level barrier. *)

type acc = {
  acc_probe : Search.probe;
  mutable acc_chains : int;
  mutable acc_reordered : int;
  mutable acc_cost_saved : int;
  mutable acc_scoped : int;
}

let new_acc () =
  {
    acc_probe = Search.new_probe ();
    acc_chains = 0;
    acc_reordered = 0;
    acc_cost_saved = 0;
    acc_scoped = 0;
  }

let merge_acc (ctx : Ctx.t) acc =
  let i = ctx.instr in
  Instr.flush_probe i acc.acc_probe;
  Hac_obs.Metrics.incr ~by:acc.acc_chains i.Instr.planner_chains;
  Hac_obs.Metrics.incr ~by:acc.acc_reordered i.Instr.planner_reordered;
  Hac_obs.Metrics.incr ~by:acc.acc_cost_saved i.Instr.planner_cost_saved;
  Hac_obs.Metrics.incr ~by:acc.acc_scoped i.Instr.planner_scoped_chains

(* [?under] is the scope-pushdown hint: the (normalized, absolute) directory
   the final result will be intersected below.  It sharpens both the cost
   model (partition-scoped cardinalities) and candidate generation (the CAS
   index skips partitions that cannot intersect the scope) — sound only
   because the caller intersects with a subtree scope at or below it. *)
let eval_query pass (ctx : Ctx.t) acc ?restrict_to ?under q =
  let report ~chosen ~naive ~terms:_ =
    acc.acc_chains <- acc.acc_chains + 1;
    if chosen < naive then begin
      acc.acc_reordered <- acc.acc_reordered + 1;
      acc.acc_cost_saved <- acc.acc_cost_saved + (naive - chosen)
    end;
    match under with Some _ -> acc.acc_scoped <- acc.acc_scoped + 1 | None -> ()
  in
  let q =
    Hac_query.Planner.optimize ~report
      ~cost:(Hac_query.Planner.calibrated ~measured:(term_cost ?under ctx))
      q
  in
  Search.eval_with (make_evaluator pass ctx) ~probe:acc.acc_probe ?restrict_to ?under q

(* -- metadata persistence --------------------------------------------------

   The paper's HAC stores each directory's query, query-result (as an N/8
   byte bitmap) and link sets on disk; those writes are a real part of its
   measured overhead.  We persist the same information through the VFS into
   a hidden metadata area. *)

let meta_root = "/.hac"

(* Each structure lives in its own file, as the paper stores them as
   separate on-disk objects: the query, the link sets, the prohibitions and
   the query-result bitmap. *)
let meta_files uid =
  List.map
    (fun suffix -> Printf.sprintf "%s/sd-%d.%s" meta_root uid suffix)
    [ "query"; "links"; "proh"; "result" ]

let persist_semdir (ctx : Ctx.t) (sd : Semdir.t) =
  (* Directory references are rendered through the global map: stored
     queries must survive into a future instance whose uids differ. *)
  let query_data =
    Ast.to_string ~path_of_uid:(Uidmap.path_of_uid ctx.uids) sd.Semdir.query ^ "\n"
  in
  let links_data =
    let b = Buffer.create 128 in
    List.iter
      (fun l ->
        Buffer.add_string b
          (Printf.sprintf "%s %s %s\n" (Link.cls_name l.Link.cls) l.Link.name
             (Link.symlink_value l.Link.target)))
      (Semdir.all_links sd);
    List.iter
      (fun r -> Buffer.add_string b ("remote " ^ r.Semdir.rr_ns ^ " " ^ r.Semdir.rr_uri ^ "\n"))
      sd.Semdir.transient_remote;
    Buffer.contents b
  in
  let proh_data = String.concat "\n" (Semdir.prohibited_keys sd) in
  (* The query-result bitmap, ceil(N/8) bytes for N indexed files. *)
  let result_data =
    let bitmap = Bytes.make ((Index.doc_count ctx.index + 7) / 8) '\000' in
    Hac_bitset.Fileset.iter
      (fun id ->
        if id / 8 < Bytes.length bitmap then begin
          let byte = Char.code (Bytes.get bitmap (id / 8)) in
          Bytes.set bitmap (id / 8) (Char.chr (byte lor (1 lsl (id mod 8))))
        end)
      sd.Semdir.transient_local;
    Bytes.to_string bitmap
  in
  Ctx.with_maintenance ctx (fun () ->
      if not (Fs.is_dir ctx.fs meta_root) then Fs.mkdir_p ctx.fs meta_root;
      (* Sealed whole, so a torn write leaves a detectably-damaged file
         rather than a silently truncated query or link set. *)
      List.iter2 (Fs.write_file ctx.fs) (meta_files sd.Semdir.uid)
        (List.map Hac_store.Seal.seal_blob
           [ query_data; links_data; proh_data; result_data ]))

let unpersist_semdir (ctx : Ctx.t) uid =
  Ctx.with_maintenance ctx (fun () ->
      List.iter
        (fun f -> if Fs.lexists ctx.fs f then Fs.unlink ctx.fs f)
        (meta_files uid))

(* -- query rendering for remote namespaces ------------------------------- *)

let rec strip_dirrefs = function
  | Ast.Term (Ast.Dirref _) ->
      (* A remote document is never a member of a local directory. *)
      Ast.Not Ast.All
  | Ast.Term _ as q -> q
  | Ast.All -> Ast.All
  | Ast.Not a -> Ast.Not (strip_dirrefs a)
  | Ast.And (a, b) -> Ast.And (strip_dirrefs a, strip_dirrefs b)
  | Ast.Or (a, b) -> Ast.Or (strip_dirrefs a, strip_dirrefs b)

let max_keyword_renders = 16

(* Conjunctive keyword sets, one per OR branch.  Constraints a keyword
   engine cannot express (NOT, attrs, the match-all star) render as the
   empty set, which means "enumerate"; local verification then applies the
   precise query. *)
let rec keyword_sets = function
  | Ast.Term (Ast.Word w) -> [ [ w ] ]
  | Ast.Term (Ast.Phrase ws) -> [ ws ]
  | Ast.Term (Ast.Approx (w, _)) -> [ [ w ] ]
  | Ast.Term (Ast.Attr _) | Ast.Term (Ast.Regex _) | Ast.Term (Ast.Dirref _) | Ast.All
  | Ast.Not _ ->
      [ [] ]
  | Ast.Or (a, b) ->
      let sets = keyword_sets a @ keyword_sets b in
      if List.length sets > max_keyword_renders then [ [] ] else sets
  | Ast.And (a, b) ->
      let sa = keyword_sets a and sb = keyword_sets b in
      let crossed = List.concat_map (fun x -> List.map (fun y -> x @ y) sb) sa in
      if List.length crossed > max_keyword_renders then [ [] ] else crossed

let render_for lang q =
  match lang with
  | Namespace.Hac_syntax -> [ Ast.to_string (strip_dirrefs q) ]
  | Namespace.Keywords ->
      keyword_sets q
      |> List.map (fun ws -> String.concat " " (List.sort_uniq compare ws))
      |> List.sort_uniq compare

(* -- remote evaluation ---------------------------------------------------- *)

let failure_reason = function
  | Namespace.Unavailable { reason; _ } -> reason
  | e -> Printexc.to_string e

(* The ns_id parsed out of a uri is a heuristic (uri schemes differ between
   namespaces); ask the named namespace first, then fall back to every
   registered one.  Namespaces are remote and may fail: any exception from a
   provider is reported through [on_failure] and treated as "no content" —
   callers decide whether that means a miss or a degraded re-serve. *)
let fetch_remote ?(on_failure = fun _ _ -> ()) (ctx : Ctx.t) ~ns_id ~uri =
  let try_ns ns =
    match ns.Namespace.fetch uri with
    | r -> r
    | exception e ->
        on_failure ns.Namespace.ns_id (failure_reason e);
        None
  in
  let direct = Option.bind (Hashtbl.find_opt ctx.namespaces ns_id) try_ns in
  match direct with
  | Some _ as r -> r
  | None ->
      Hashtbl.fold
        (fun _ ns acc -> match acc with Some _ -> acc | None -> try_ns ns)
        ctx.namespaces None

let remote_matches ?on_failure (ctx : Ctx.t) q ~name ~ns_id ~uri =
  match fetch_remote ?on_failure ctx ~ns_id ~uri with
  | Some content ->
      Qmatch.matches ~stem:(Index.stemming ctx.index) q ~name ~content
  | None -> false

(* Entries a semantic directory should import from the mount points visible
   in its scope: query each namespace in its own language, then verify each
   answer locally against the full query.  Results carry the entry's display
   name, used as the symbolic link name. *)
let mount_results ?(on_failure = fun _ _ -> ()) (ctx : Ctx.t) q mount_uids =
  let results = ref [] in
  let seen = Hashtbl.create 16 in
  let consider ns (e : Namespace.entry) =
    let key = e.uri in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      let keep =
        match ns.Namespace.fetch e.uri with
        | Some content ->
            Qmatch.matches ~stem:(Index.stemming ctx.index) q ~name:e.name ~content
        | None ->
            (* Unfetchable entries are kept only when the namespace itself
               evaluated the full query. *)
            ns.Namespace.lang = Namespace.Hac_syntax
      in
      if keep then
        results :=
          (Link.Remote { ns_id = ns.Namespace.ns_id; uri = e.uri }, e.name) :: !results
    end
  in
  List.iter
    (fun muid ->
      List.iter
        (fun ns ->
          (* One failing namespace must not poison the others at this (or
             any later) mount point: report it and move on.  Whatever it
             answered before failing is kept. *)
          match
            List.iter
              (fun qs ->
                let entries =
                  if qs = "" then ns.Namespace.list_all () else ns.Namespace.search qs
                in
                List.iter (consider ns) entries)
              (render_for ns.Namespace.lang q)
          with
          | () -> ()
          | exception e -> on_failure ns.Namespace.ns_id (failure_reason e))
        (Mount_table.mounted ctx.mounts ~uid:muid))
    mount_uids;
  List.rev !results

(* -- the scope-consistency algorithm (section 2.3) ------------------------ *)

let parent_uid (ctx : Ctx.t) uid =
  if uid = Uidmap.root_uid then None
  else
    match Uidmap.path_of_uid ctx.uids uid with
    | None -> None
    | Some path -> Uidmap.uid_of_path ctx.uids (Vpath.dirname path)

let recompute_deps (ctx : Ctx.t) (sd : Semdir.t) =
  let parent = Option.to_list (parent_uid ctx sd.Semdir.uid) in
  Depgraph.set_deps ctx.deps sd.Semdir.uid (parent @ Ast.dir_uids sd.Semdir.query)

(* Expand the stored transient result into physical symbolic links.  Called
   lazily on first access through HAC; every re-evaluation then keeps an
   already-materialised directory consistent. *)
let create_transient_link (ctx : Ctx.t) (sd : Semdir.t) ~path ~target ~name_hint =
  let taken name = Fs.lexists ctx.fs (Vpath.join path name) in
  let name =
    match name_hint with
    | Some n when Vpath.valid_name n && not (taken n) -> n
    | Some _ | None -> Semdir.fresh_link_name sd ~taken target
  in
  Fs.symlink ctx.fs ~target:(Link.symlink_value target) ~link:(Vpath.join path name);
  Semdir.add_link sd { Link.name; target; cls = Link.Transient }

let materialize (ctx : Ctx.t) (sd : Semdir.t) =
  if not sd.Semdir.materialized then begin
    match Uidmap.path_of_uid ctx.uids sd.Semdir.uid with
    | None -> ()
    | Some path ->
        Ctx.with_maintenance ctx (fun () ->
            Fileset.iter
              (fun id ->
                match Index.doc_path ctx.index id with
                | Some p ->
                    create_transient_link ctx sd ~path ~target:(Link.Local p) ~name_hint:None
                | None -> ())
              sd.Semdir.transient_local;
            List.iter
              (fun r ->
                create_transient_link ctx sd ~path
                  ~target:(Link.Remote { ns_id = r.Semdir.rr_ns; uri = r.Semdir.rr_uri })
                  ~name_hint:(Some r.Semdir.rr_name))
              sd.Semdir.transient_remote);
        sd.Semdir.materialized <- true
  end

let exclusion_filter (ctx : Ctx.t) (sd : Semdir.t) ~path set =
  let prohibited key = Semdir.is_prohibited sd key in
  let permanent_key key =
    List.exists
      (fun l -> Link.target_key l.Link.target = key)
      (Semdir.links_of_cls sd Link.Permanent)
  in
  Fileset.filter
    (fun id ->
      match Index.doc_path ctx.index id with
      | Some p ->
          (not (Vpath.is_prefix ~prefix:path p))
          && (not (prohibited p))
          && not (permanent_key p)
      | None -> false)
    set

(* The cache key for a directory's local result.  The printed uid-form query
   ([{#n}] for dirrefs) is stable across renames of referenced directories,
   and exact string comparison cannot collide the way a structural hash
   could. *)
let fingerprint (sd : Semdir.t) = Ast.to_string sd.Semdir.query

(* The scope-pushdown hint for a directory's evaluation: the parent's path,
   but only when the parent is a {e plain} directory.  Then the parent
   scope's [local] is exactly [subtree_docs] of that path, so the
   [Fileset.inter _ within] in [evaluate] discharges the soundness
   obligation of [?under] — every kept document lives under the hint.  A
   semdir parent's scope also carries its own query result and permanent
   links, which are not confined to its subtree, so no hint. *)
let under_hint (ctx : Ctx.t) uid =
  match parent_uid ctx uid with
  | None -> None
  | Some p -> (
      match (Ctx.semdir_of_uid ctx p, Uidmap.path_of_uid ctx.uids p) with
      | None, Some path -> Some (Vpath.normalize path)
      | _ -> None)

let parent_scope pass (ctx : Ctx.t) uid =
  match parent_uid ctx uid with
  | Some p -> scope_in pass ctx p
  | None -> { local = Fileset.empty; remote = []; mount_uids = [] }

(* Write back one directory's re-evaluation, given its new local result
   (steps 1–2, computed by the level engine below): the remote part, link
   patching, generation bumps, the result cache and persistence — everything
   that writes, on the calling domain. *)
let apply_full pass (ctx : Ctx.t) (sd : Semdir.t) ~path ~pscope ~fp new_local =
  let uid = sd.Semdir.uid in
  let prohibited key = Semdir.is_prohibited sd key in
  let permanent_key key =
    List.exists
      (fun l -> Link.target_key l.Link.target = key)
      (Semdir.links_of_cls sd Link.Permanent)
  in
  (* 3. New remote result: inherited parent links that match, plus fresh
        results from visible mount points; same exclusions.  Namespace
        failures are collected rather than propagated — a re-evaluation
        must never be broken by a flaky remote.  With no remote scope at
        all (no inherited remote links, no visible mounts) the result is
        empty by construction — no namespace is consulted, so no failure
        and no stale re-serve can occur. *)
  let new_remote =
    if pscope.remote = [] && pscope.mount_uids = [] then []
    else begin
      let failed = Hashtbl.create 4 in
      let note_failure ns_id reason =
        ctx.remote_failures <- ctx.remote_failures + 1;
        if not (Hashtbl.mem failed ns_id) then Hashtbl.replace failed ns_id reason
      in
      let remote_acc = ref [] in
      let seen_remote = Hashtbl.create 8 in
      let consider_remote ~stale ~ns_id ~uri ~name =
        if
          (not (Hashtbl.mem seen_remote uri))
          && (not (prohibited uri))
          && not (permanent_key uri)
        then begin
          Hashtbl.replace seen_remote uri ();
          if stale then ctx.stale_serves <- ctx.stale_serves + 1;
          remote_acc :=
            { Semdir.rr_ns = ns_id; rr_uri = uri; rr_name = name; rr_stale = stale }
            :: !remote_acc
        end
      in
      List.iter
        (fun target ->
          match target with
          | Link.Remote { ns_id; uri } ->
              if
                remote_matches ~on_failure:note_failure ctx sd.Semdir.query
                  ~name:(Link.display_name target) ~ns_id ~uri
              then
                consider_remote ~stale:false ~ns_id ~uri ~name:(Link.display_name target)
          | Link.Local _ -> ())
        pscope.remote;
      List.iter
        (fun (target, name) ->
          match target with
          | Link.Remote { ns_id; uri } -> consider_remote ~stale:false ~ns_id ~uri ~name
          | Link.Local _ -> ())
        (mount_results ~on_failure:note_failure ctx sd.Semdir.query pscope.mount_uids);
      (* Graceful degradation: a namespace that failed this round keeps
         its last-good entries — re-served from the previous result and
         marked stale — instead of silently vanishing from the
         directory.  Fresh answers (e.g. inherited through the parent)
         win the dedup. *)
      if Hashtbl.length failed > 0 then
        List.iter
          (fun r ->
            if Hashtbl.mem failed r.Semdir.rr_ns then
              consider_remote ~stale:true ~ns_id:r.Semdir.rr_ns ~uri:r.Semdir.rr_uri
                ~name:r.Semdir.rr_name)
          sd.Semdir.transient_remote;
      List.rev !remote_acc
    end
  in
  let changed =
    (not (Fileset.equal new_local sd.Semdir.transient_local))
    || new_remote <> sd.Semdir.transient_remote
  in
  Hac_obs.Metrics.incr ctx.instr.Instr.sync_dirs;
  if changed then Hac_obs.Metrics.incr ctx.instr.Instr.sync_changed;
  sd.Semdir.transient_local <- new_local;
  sd.Semdir.transient_remote <- new_remote;
  (* 4. A directory whose links are already expanded must stay
        physically consistent: diff and patch its transient symlinks. *)
  if sd.Semdir.materialized then begin
    let desired = Hashtbl.create 32 in
    Fileset.iter
      (fun id ->
        match Index.doc_path ctx.index id with
        | Some p -> Hashtbl.replace desired p (Link.Local p, None)
        | None -> ())
      new_local;
    List.iter
      (fun r ->
        Hashtbl.replace desired r.Semdir.rr_uri
          (Link.Remote { ns_id = r.Semdir.rr_ns; uri = r.Semdir.rr_uri }, Some r.Semdir.rr_name))
      new_remote;
    Ctx.with_maintenance ctx (fun () ->
        List.iter
          (fun l ->
            let key = Link.target_key l.Link.target in
            if Hashtbl.mem desired key then Hashtbl.remove desired key
            else begin
              ignore (Semdir.remove_link sd l.Link.name);
              let lpath = Vpath.join path l.Link.name in
              if Fs.is_symlink ctx.fs lpath then Fs.unlink ctx.fs lpath
            end)
          (Semdir.links_of_cls sd Link.Transient);
        Hashtbl.iter
          (fun _key (target, name_hint) ->
            create_transient_link ctx sd ~path ~target ~name_hint)
          desired)
  end;
  if changed then begin
    (* Any later directory in this pass evaluating against stale state
       would be wrong: its cached result and this directory's memoized
       scope both reflect the pre-change world. *)
    Ctx.bump_generation ctx;
    Hashtbl.remove pass.scopes uid
  end;
  Rescache.store ctx.rescache ~uid ~fingerprint:fp ~generation:ctx.scope_generation
    new_local;
  let first_sync = sd.Semdir.last_synced = 0 in
  ctx.sync_stamp <- ctx.sync_stamp + 1;
  sd.Semdir.last_synced <- ctx.sync_stamp;
  (* The paper persists after every re-evaluation; nothing is lost by
     skipping the write when neither the result nor the link/prohibition
     metadata moved since the last one. *)
  if changed || sd.Semdir.meta_dirty || first_sync then begin
    persist_semdir ctx sd;
    sd.Semdir.meta_dirty <- false
  end

(* -- the level engine -----------------------------------------------------

   The scope-consistency algorithm orders re-evaluation only along
   dependency edges; directories in the same dependency level (an antichain
   of {!Depgraph.levels}) are mutually independent, so their expensive,
   read-only query evaluations can run concurrently.  Every pass — full,
   from one directory, or delta — runs each level in three phases:

   1. {e pre-stage} (calling domain): resolve each semdir, consult the
      result cache or the delta candidates, and only for a directory that
      will actually be evaluated warm every scope its evaluation can read
      into the pass table;
   2. {e evaluate} ({!Hac_par.Pool.map_timed}): query evaluation + exclusion
      filtering, against the frozen index and the warmed read-only scope
      view, accumulating observability into per-task [acc]s;
   3. {e apply} (calling domain, level order): merge the accumulators, emit
      one [query.eval] span per evaluation, then everything that writes.

   A missing or size-1 pool runs phase 2 inline on the caller; there is no
   other sequential path.  Within a level no directory depends on another,
   so neither the width nor the apply order can change any level result
   (see docs/parallelism.md for the argument and test/test_parallel.ml for
   the differential check across widths). *)

type task = {
  sd : Semdir.t;
  path : string;
  within : Fileset.t;  (* the result is intersected with this set *)
  restrict_to : Fileset.t option;
  under : string option;
}

(* What the pre-stage decided for one directory: its local result is
   already known (result-cache hit, or provably empty), or must be
   evaluated.  The pre-stage pairs it with the closure that writes the
   result back in phase 3. *)
type job = Known of Fileset.t | Eval of task

let evaluate pass (ctx : Ctx.t) t =
  let acc = new_acc () in
  let matched =
    Fileset.inter
      (eval_query pass ctx acc ?restrict_to:t.restrict_to ?under:t.under t.sd.Semdir.query)
      t.within
  in
  (exclusion_filter ctx t.sd ~path:t.path matched, acc)

(* Warm every scope a directory's evaluation reads (its parent and its
   dirref dependencies), so evaluations only ever read the pass table. *)
let warm_deps pass (ctx : Ctx.t) uid =
  List.iter (fun d -> ignore (scope_in pass ctx d)) (Depgraph.deps ctx.deps uid)

let inline_pool = Hac_par.Pool.create ()

let run_level pool pass (ctx : Ctx.t) prestage level =
  let jobs = List.filter_map (prestage pass ctx) level in
  let tasks =
    Array.of_list (List.filter_map (function Eval t, _ -> Some t | Known _, _ -> None) jobs)
  in
  let results, cpu = Hac_par.Pool.map_timed pool (evaluate pass ctx) tasks in
  (* Level barrier: fold the per-task accumulators and spans in on the
     calling domain, parent-linked to the pass span. *)
  let i = ctx.instr in
  let tr = i.Instr.tracer in
  let parent = Hac_obs.Trace.current tr and now = Hac_fault.Clock.now ctx.clock in
  Array.iteri
    (fun k (_, acc) ->
      merge_acc ctx acc;
      if Hac_obs.Trace.enabled tr then
        ignore
          (Hac_obs.Trace.emit tr ?parent
             ~attrs:
               [
                 ("verified", string_of_int acc.acc_probe.Search.docs_verified);
                 ("terms", string_of_int acc.acc_probe.Search.terms);
               ]
             ~name:"query.eval" ~vstart:now ~vstop:now ~cpu_s:cpu.(k) ()))
    results;
  if Hac_par.Pool.size pool > 1 then begin
    Hac_obs.Metrics.incr i.Instr.par_levels;
    Hac_obs.Metrics.incr ~by:(Array.length tasks) i.Instr.par_tasks
  end;
  let k = ref 0 in
  List.iter
    (fun (job, apply) ->
      match job with
      | Known r -> apply r
      | Eval _ ->
          apply (fst results.(!k));
          incr k)
    jobs

(* One pass over the given levels; returns how many directories it
   scheduled. *)
let run_pass ?(pool = inline_pool) (ctx : Ctx.t) prestage levels =
  if Hac_par.Pool.size pool > 1 then
    Hac_obs.Metrics.set ctx.instr.Instr.par_domains (float_of_int (Hac_par.Pool.size pool));
  let pass = fresh_pass ctx in
  List.iter (run_level pool pass ctx prestage) levels;
  flush_pass ctx pass;
  List.fold_left (fun acc l -> acc + List.length l) 0 levels

(* Steps 1–2 of a full re-evaluation.  The local result is the query
   evaluated over the parent's scope, minus files physically inside this
   directory (already "in" it), the prohibited ones, and the permanent ones
   (section 2.3: HAC never touches those sets).  This set is the paper's
   per-directory result bitmap — and exactly what the result cache
   memoizes: on a generation-fresh hit both the evaluation and the
   exclusion filtering are skipped. *)
let prestage_full pass (ctx : Ctx.t) uid =
  match (Ctx.semdir_of_uid ctx uid, Uidmap.path_of_uid ctx.uids uid) with
  | None, _ | _, None -> None
  | Some sd, Some path ->
      let pscope = parent_scope pass ctx uid in
      let fp = fingerprint sd in
      let job =
        match Rescache.find ctx.rescache ~uid ~fingerprint:fp ~generation:ctx.scope_generation with
        | Some r -> Known r
        | None ->
            warm_deps pass ctx uid;
            Eval { sd; path; within = pscope.local; restrict_to = None; under = under_hint ctx uid }
      in
      Some (job, apply_full pass ctx sd ~path ~pscope ~fp)

let pass_span (ctx : Ctx.t) ~name ~counter run =
  let i = ctx.instr in
  Hac_obs.Trace.with_span i.Instr.tracer ~name (fun () ->
      Hac_obs.Metrics.incr counter;
      let n_dirs = run () in
      Hac_obs.Metrics.observe i.Instr.pass_dirs (float_of_int n_dirs);
      Hac_obs.Trace.set_attr_int i.Instr.tracer "dirs" n_dirs)

let sync_from ?pool (ctx : Ctx.t) uid =
  pass_span ctx ~name:"sync.from" ~counter:ctx.instr.Instr.sync_from (fun () ->
      (* The start directory is the only one of the set without a
         dependency inside it, so it forms the first level on its own. *)
      run_pass ?pool ctx prestage_full
        (Depgraph.levels_of ctx.deps (uid :: Depgraph.affected ctx.deps uid)))

let sync_all ?pool (ctx : Ctx.t) =
  pass_span ctx ~name:"sync.full" ~counter:ctx.instr.Instr.sync_full (fun () ->
      run_pass ?pool ctx prestage_full (Depgraph.levels ctx.deps))

(* -- data consistency (section 2.4) --------------------------------------- *)

type delta = { touched : Fileset.t; removed : Fileset.t }

let reindex_with_delta (ctx : Ctx.t) ?under () =
  let i = ctx.instr in
  Hac_obs.Trace.with_span i.Instr.tracer ~name:"sync.reindex" (fun () ->
  let in_scope path =
    match under with
    | None -> true
    | Some prefix -> Vpath.is_prefix ~prefix path
  in
  let paths = Hashtbl.fold (fun p () acc -> if in_scope p then p :: acc else acc) ctx.dirty [] in
  (* The CBA mechanism reads files like any client of the library: each
     access is interposed (global-map lookup) and goes through an open
     file descriptor — the paper's Table 3 time overhead. *)
  let fds = Hac_vfs.Fd_table.create ctx.fs in
  let read_interposed path =
    (match Uidmap.uid_of_path ctx.uids (Vpath.dirname path) with
    | Some uid -> ignore (Ctx.semdir_of_uid ctx uid : Semdir.t option)
    | None -> ());
    let fd = Hac_vfs.Fd_table.openfile fds Hac_vfs.Fd_table.Read_only path in
    let content = Hac_vfs.Fd_table.read_all fds fd in
    Hac_vfs.Fd_table.close fds fd;
    content
  in
  let touched = ref Fileset.empty in
  let removed = ref Fileset.empty in
  let forget path =
    (match Index.doc_of_path ctx.index path with
    | Some id ->
        removed := Fileset.add !removed id;
        Option.iter (fun s -> Hac_store.Store.forget_doc s id) ctx.store
    | None -> ());
    Index.remove_path ctx.index path
  in
  List.iter
    (fun path ->
      Hashtbl.remove ctx.dirty path;
      if Fs.is_file ctx.fs path then
        match read_interposed path with
        | content ->
            let id = Index.update_document ctx.index ~path ~content in
            touched := Fileset.add !touched id;
            (* The settled body becomes the block store's copy — from here
               until the path dirties again, verification reads serve from
               the cache instead of the tree.  Maintenance mode: the block
               put's own mkdir/write/rename must not echo back into the
               event stream as user activity (and into the journal). *)
            Option.iter
              (fun s ->
                Ctx.with_maintenance ctx (fun () -> Hac_store.Store.put_doc s id content))
              ctx.store
        | exception Hac_vfs.Errno.Error (Hac_vfs.Errno.EACCES, _) ->
            (* The current user may not read it, so it cannot be indexed
               under their credentials (security borrowed from the OS). *)
            forget path
      else forget path)
    paths;
  (* Lazy updates leave stale block bits behind (Glimpse-style); once a
     third of the document slots are dead weight, compact. *)
  if Index.stale_ratio ctx.index > 0.33 && Index.doc_count ctx.index > 0 then begin
    Hac_obs.Metrics.incr i.Instr.index_rebuilds;
    let live_before = Index.doc_count ctx.index in
    Index.rebuild ctx.index (fun id ->
        Option.bind (Index.doc_path ctx.index id) (fun p ->
            match read_interposed p with
            | content -> Some content
            | exception Hac_vfs.Errno.Error _ -> None));
    (* Rebuild drops documents whose content became unreadable without any
       event (e.g. a permission change); such removals are invisible to the
       delta, so only a full re-evaluation is safe. *)
    if Index.doc_count ctx.index <> live_before then Ctx.force_full_sync ctx
  end;
  ctx.ops_since_reindex <- 0;
  if paths <> [] then Ctx.bump_generation ctx;
  Hac_obs.Metrics.incr ~by:(List.length paths) i.Instr.reindex_files;
  Hac_obs.Trace.set_attr_int i.Instr.tracer "files" (List.length paths);
  (List.length paths, { touched = !touched; removed = !removed }))

let reindex (ctx : Ctx.t) ?under () = fst (reindex_with_delta ctx ?under ())

(* -- incremental scope maintenance ----------------------------------------

   [sync_all] after a k-file change re-evaluates every query over every
   scope: O(all-docs × all-dirs) content verifications.  [sync_delta]
   exploits what the reindex just learned.  For a content-only change the
   membership of every document {e outside} the delta is unchanged in every
   directory (word/phrase/attr/regex terms depend on the document's own
   content and path; dirref terms on scopes whose non-delta membership is
   itself unchanged, inductively, dependencies-first).  So each directory
   only needs the query verdict on delta documents inside its scope:

     new = (old \ delta) ∪ {d ∈ touched ∩ scope(parent) | d ⊨ query} \ excl

   evaluated with {!Search.eval}'s [?restrict_to] so candidate expansion and
   verification never leave the delta — O(k × affected-dirs).

   Structural events (renames, link edits, mounts, prohibition changes,
   query edits) change membership outside any reindex delta; they set
   {!Ctx.t.needs_full_sync} and the next [sync_delta] falls back to a full
   [sync_all].  That fallback is also the property-test oracle: both paths
   must reach the same transient-link fixpoint. *)

(* Write back one directory's delta re-evaluation, given the
   exclusion-filtered additions among its candidates. *)
let apply_delta pass (ctx : Ctx.t) (sd : Semdir.t) ~path ~delta_all adds =
  Hac_obs.Metrics.incr ctx.instr.Instr.sync_dirs;
  let old_local = sd.Semdir.transient_local in
  let new_local = Fileset.union adds (Fileset.diff old_local delta_all) in
  let changed = not (Fileset.equal new_local old_local) in
  if changed then begin
    Hac_obs.Metrics.incr ctx.instr.Instr.sync_changed;
    sd.Semdir.transient_local <- new_local;
    if sd.Semdir.materialized then
      Ctx.with_maintenance ctx (fun () ->
          (* Drop transient links whose target left the result or the
             index; only delta documents can be affected, but removed
             documents no longer map back to an id, so walk the links and
             keep exactly those still in the result. *)
          List.iter
            (fun l ->
              match l.Link.target with
              | Link.Local p ->
                  let keep =
                    match Index.doc_of_path ctx.index p with
                    | Some id -> Fileset.mem new_local id
                    | None -> false
                  in
                  if not keep then begin
                    ignore (Semdir.remove_link sd l.Link.name);
                    let lpath = Vpath.join path l.Link.name in
                    if Fs.is_symlink ctx.fs lpath then Fs.unlink ctx.fs lpath
                  end
              | Link.Remote _ -> ())
            (Semdir.links_of_cls sd Link.Transient);
          Fileset.iter
            (fun id ->
              match Index.doc_path ctx.index id with
              | Some p ->
                  if Semdir.link_by_target sd (Link.Local p) = None then
                    create_transient_link ctx sd ~path ~target:(Link.Local p) ~name_hint:None
              | None -> ())
            adds);
    Ctx.bump_generation ctx;
    Hashtbl.remove pass.scopes sd.Semdir.uid
  end;
  ctx.sync_stamp <- ctx.sync_stamp + 1;
  sd.Semdir.last_synced <- ctx.sync_stamp;
  if changed || sd.Semdir.meta_dirty then begin
    persist_semdir ctx sd;
    sd.Semdir.meta_dirty <- false
  end

(* Only a directory with delta documents in its parent scope (candidates
   whose verdict must be computed) or among its members (whose verdict may
   have been lost: dropped from the parent scope, or from the index
   altogether) has anything to do; with no candidates its additions are
   empty and nothing is evaluated.  Delta evaluations are already
   restricted to the candidates, so the partition hint would buy nothing on
   top. *)
let prestage_delta ~touched ~delta_all pass (ctx : Ctx.t) uid =
  match (Ctx.semdir_of_uid ctx uid, Uidmap.path_of_uid ctx.uids uid) with
  | None, _ | _, None -> None
  | Some sd, Some path ->
      let candidates = Fileset.inter touched (parent_scope pass ctx uid).local in
      let stale = Fileset.inter delta_all sd.Semdir.transient_local in
      if Fileset.is_empty candidates && Fileset.is_empty stale then None
      else
        let job =
          if Fileset.is_empty candidates then Known Fileset.empty
          else begin
            warm_deps pass ctx uid;
            Eval { sd; path; within = candidates; restrict_to = Some candidates; under = None }
          end
        in
        Some (job, apply_delta pass ctx sd ~path ~delta_all)

let sync_delta ?pool (ctx : Ctx.t) delta =
  let i = ctx.instr in
  if ctx.needs_full_sync then begin
    Hac_obs.Metrics.incr i.Instr.sync_fallback;
    ctx.needs_full_sync <- false;
    sync_all ?pool ctx
  end
  else if not (Fileset.is_empty delta.touched && Fileset.is_empty delta.removed) then
    pass_span ctx ~name:"sync.delta" ~counter:i.Instr.sync_delta (fun () ->
        Hac_obs.Trace.set_attr_int i.Instr.tracer "delta"
          (Fileset.cardinal delta.touched + Fileset.cardinal delta.removed);
        run_pass ?pool ctx
          (prestage_delta ~touched:delta.touched
             ~delta_all:(Fileset.union delta.touched delta.removed))
          (Depgraph.levels ctx.deps))
