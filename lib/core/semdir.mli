(** Per-directory semantic state: query, link sets, prohibitions.

    One [Semdir.t] exists for every directory created with [smkdir] (or
    retro-fitted with [schquery]).  It records the query, the classification
    of each present symbolic link, and the set of prohibited target keys.
    The physical symlinks live in the VFS; this structure is HAC's view of
    them.  All mutators here are local bookkeeping — enforcing the scope
    invariant is {!Sync}'s job. *)

type remote_result = {
  rr_ns : string;  (** Namespace the entry came from. *)
  rr_uri : string;  (** Entry identifier (the link's target key). *)
  rr_name : string;  (** Display name, used as the link name. *)
  rr_stale : bool;
      (** True when the entry was {e not} confirmed by the namespace during
          the last re-evaluation but re-served from the previous result
          because the namespace was unavailable (graceful degradation). *)
}
(** One remote entry in the current query result. *)

module Names : Map.S with type key = string
(** Maps keyed by link name, in [String.compare] order. *)

type t = {
  uid : int;  (** The directory's identifier in the global map. *)
  mutable query : Hac_query.Ast.t;  (** Dirrefs are installed ([Ref_uid]). *)
  mutable links : Link.t Names.t;
      (** {e Physically present} links, by link name: permanent ones, and
          transient ones once materialised.  Written only through
          {!add_link} and {!remove_link}, which keep the two tables below
          in step. *)
  by_target : (string, Link.t list) Hashtbl.t;
      (** Present links by target key, each list sorted by name. *)
  permanent : (string, int) Hashtbl.t;
      (** Number of present permanent links per target key. *)
  mutable transient_local : Hac_bitset.Fileset.t;
      (** The current local query result — the paper's per-directory result
          bitmap (N/8 bytes when dense). *)
  mutable transient_remote : remote_result list;
      (** The current remote query result. *)
  mutable materialized : bool;
      (** Whether the transient result has been expanded into physical
          symbolic links.  Materialisation happens lazily on first access
          through HAC and is then kept consistent by every re-evaluation. *)
  prohibited : (string, unit) Hashtbl.t;  (** Prohibited target keys. *)
  mutable last_synced : int;  (** Logical stamp of the last re-evaluation. *)
  mutable meta_dirty : bool;
      (** True when links, prohibitions or the query changed since the last
          persist — lets {!Sync} skip the metadata write for untouched
          directories without ever losing recovery state.  Set by every
          mutator here and by a query change; cleared by {!Sync} after
          persisting. *)
}

val create : uid:int -> Hac_query.Ast.t -> t
(** Fresh semantic directory state with no links and no prohibitions. *)

val find_link : t -> string -> Link.t option
(** Present link by name. *)

val link_by_target : t -> Link.target -> Link.t option
(** Present link by target key, if any — when several links share the
    target, the one with the smallest name.  O(1) in the number of links. *)

val links_to_key : t -> string -> Link.t list
(** Every present link whose target key is the given one, sorted by name. *)

val is_permanent_key : t -> string -> bool
(** Whether some present permanent link targets the key. *)

val add_link : t -> Link.t -> unit
(** Record a present link (replaces any record under the same name). *)

val remove_link : t -> string -> Link.t option
(** Forget a present link by name; returns what was removed. *)

val links_of_cls : t -> Link.cls -> Link.t list
(** Present links of one class, sorted by name. *)

val all_links : t -> Link.t list
(** Every present link, sorted by name. *)

val prohibit : t -> string -> unit
(** Add a target key to the prohibited set. *)

val unprohibit : t -> string -> unit
(** Remove a target key from the prohibited set (a user re-adding a link is
    a direct action that lifts the prohibition). *)

val is_prohibited : t -> string -> bool
(** Whether the target key is prohibited. *)

val prohibited_keys : t -> string list
(** Sorted prohibited target keys. *)

val fresh_link_name : t -> taken:(string -> bool) -> Link.target -> string
(** A link name for the target that collides neither with present links nor
    with [taken] (the physical directory entries): the display name, or
    [name~2], [name~3], ... *)

val approx_bytes : t -> int
(** Estimated memory footprint of this record, for space accounting. *)
