(** The scope- and data-consistency engine (sections 2.3–2.5).

    Scope consistency: for every semantic directory [sd] with parent [p],
    the transient links of [sd] are exactly the files of [p]'s provided
    scope that satisfy [sd]'s query, minus prohibited and permanent targets.
    [sync_from] re-establishes it for one directory and everything that
    depends on it, [sync_all] for the whole file system, [sync_delta]
    incrementally after a content-only change.  All three run one engine:
    the dependency DAG is walked level by level
    ({!Hac_depgraph.Depgraph.levels}), each level's query evaluations are
    farmed out to a domain pool (inline when there is no pool, or it has
    one slot) against the frozen index, and their results are applied in
    level order on the calling domain.

    Data consistency: [reindex] brings the content index up to date with the
    dirty-path set accumulated from file system events. *)

val render_for : Hac_remote.Namespace.lang -> Hac_query.Ast.t -> string list
(** Query strings to submit to a namespace speaking the given language.  For
    [Keywords] this is a union of conjunctive keyword queries (one per OR
    branch); an empty string means "enumerate everything" ([*]). *)

val meta_root : string
(** ["/.hac"] — the directory where HAC persists its per-directory
    structures inside the file system, as the paper's implementation writes
    them to disk.  Everything below it is invisible to indexing and scopes. *)

val meta_files : int -> string list
(** Paths of a directory's structure files ([sd-<uid>.query/.links/.proh/
    .result]) under {!meta_root}, by uid. *)

val persist_semdir : Ctx.t -> Semdir.t -> unit
(** Write a semantic directory's structures (query, link sets, prohibitions
    and the paper's N/8-byte result bitmap) to its metadata file.  Performed
    after every re-evaluation, mirroring the paper's disk I/O. *)

val unpersist_semdir : Ctx.t -> int -> unit
(** Remove the metadata file of a (removed) directory, by uid. *)

val fetch_remote :
  ?on_failure:(string -> string -> unit) ->
  Ctx.t ->
  ns_id:string ->
  uri:string ->
  string option
(** Contents of a remote entry: ask the namespace registered under [ns_id]
    first, then fall back to every registered namespace (uri schemes don't
    reliably encode the namespace identifier).  A namespace raising —
    typically {!Hac_remote.Namespace.Unavailable} — is reported as
    [on_failure ns_id reason] (default: ignored) and treated as having no
    content; the exception never escapes. *)

val materialize : Ctx.t -> Semdir.t -> unit
(** Expand a directory's stored transient result (the bitmap) into physical
    symbolic links.  Idempotent; happens lazily on first access through HAC.
    Once materialised, every re-evaluation keeps the physical links
    consistent. *)

val sync_from : ?pool:Hac_par.Pool.t -> Ctx.t -> int -> unit
(** Re-evaluate one semantic directory against its parent's current scope,
    then every directory that directly or indirectly depends on it, level by
    level ({!Hac_depgraph.Depgraph.levels_of}; the directory itself is the
    first level).  Permanent and prohibited sets are never modified;
    materialised directories have their transient links patched.  No-op on
    syntactic directories.  Each level's query evaluations run on [pool]
    (default: inline, width 1) against the frozen index and are applied in
    level order on the calling domain, so the outcome does not depend on
    the pool's width. *)

val sync_all : ?pool:Hac_par.Pool.t -> Ctx.t -> unit
(** Re-evaluate every semantic directory, level by level over
    {!Hac_depgraph.Depgraph.levels}.  [?pool] as in {!sync_from}. *)

type delta = {
  touched : Hac_bitset.Fileset.t;
      (** Documents added or whose content was reindexed. *)
  removed : Hac_bitset.Fileset.t;
      (** Documents dropped from the index (deleted or unreadable). *)
}
(** What one {!reindex_with_delta} changed — the input to {!sync_delta}. *)

val reindex : Ctx.t -> ?under:string -> unit -> int
(** Settle data consistency for the dirty paths (optionally only those below
    [under]): update or drop their index entries.  Returns the number of
    paths processed.  Does {e not} re-evaluate queries — callers typically
    follow with {!sync_delta} (via {!reindex_with_delta}) or {!sync_all}. *)

val reindex_with_delta : Ctx.t -> ?under:string -> unit -> int * delta
(** {!reindex}, also returning which documents it touched or removed. *)

val sync_delta : ?pool:Hac_par.Pool.t -> Ctx.t -> delta -> unit
(** Incremental scope maintenance: restore the scope invariant after a
    content-only change described by the delta.  Walks the same dependency
    levels as {!sync_all}, on the same engine and [?pool], but re-evaluates
    each query {e only over the delta documents in its parent scope} (a
    directory with none has nothing evaluated), patching the transient-link set — the
    settle after [k] changed files costs O(k × affected dirs) instead of
    O(all docs × all dirs).  Remote results are left as they are (remote
    membership does not depend on local contents).  When
    {!Ctx.t.needs_full_sync} is set (a structural event happened), clears it
    and falls back to {!sync_all}; both paths reach the same fixpoint. *)

val parent_uid : Ctx.t -> int -> int option
(** UID of the parent directory ([None] for the root or unknown uids). *)

val recompute_deps : Ctx.t -> Semdir.t -> (unit, int list) result
(** Reinstall the dependency edges of a semantic directory: its parent plus
    every directory its query references.  [Error cycle] when the query
    would create a dependency cycle (graph unchanged). *)
