(** A small fixed-size pool of OCaml 5 worker domains.

    Built for fork/join regions: {!run} publishes a job to every worker and
    joins them at a barrier, {!map} distributes an array over the pool with
    work stealing.  A pool of size 1 spawns nothing and runs the same code
    inline on the caller, so callers need no separate sequential path. *)

type t
(** A pool.  Workers park between parallel regions; {!shutdown} (or
    {!with_pool}) reaps them. *)

val create : ?domains:int -> unit -> t
(** A pool of [domains] total slots (default, and minimum, 1): the caller
    participates as slot 0, so [domains - 1] worker domains are spawned. *)

val size : t -> int
(** Total slots, including the caller's. *)

val default_domains : unit -> int
(** A sensible default width for interactive use:
    [min 4 (Domain.recommended_domain_count ())]. *)

exception Task of { index : int; exn : exn; trace : Printexc.raw_backtrace }
(** A task failure re-raised at the fork/join barrier.  [index] identifies
    the failing unit of work — the element index for {!map}, the slot for
    {!run} — and [trace] is the backtrace captured where the task raised,
    restored on re-raise so failures stay attributable. *)

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f slot] for every slot [0 .. size-1] concurrently
    (the caller runs slot 0) and returns once all have finished.  If any
    slot raises, the first failure is re-raised after the barrier as
    {!Task} with the slot index and original backtrace attached.  Not
    reentrant: a job must not call {!run} or {!map} on its own pool. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] applies [f] to every element, balancing elements across
    slots via a shared counter; results keep input order.  [f] must be safe
    to call from any domain.  The first failing element's exception is
    re-raised as {!Task} with that element's index and its backtrace; the
    width-1 pool raises identically, so error surfaces do not depend on the
    domain budget. *)

val map_timed : t -> ('a -> 'b) -> 'a array -> 'b array * float array
(** {!map} that additionally returns each element's CPU duration
    ([Sys.time]) as measured on the domain that executed it — the
    context handoff for request tracing.  The pool never touches the
    tracer, metrics or the virtual clock; callers turn these durations
    into parent-linked spans after the barrier. *)

val shutdown : t -> unit
(** Join all workers.  Idempotent; the pool must not be used afterwards. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown], exception-safe. *)
