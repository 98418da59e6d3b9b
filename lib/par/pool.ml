(* A fixed-size pool of worker domains for level-parallel settle passes.

   Deliberately tiny and dependency-free: one mutex, two condition
   variables, and an epoch counter.  A parallel region ([run]) publishes a
   job, wakes every worker, participates as slot 0 itself, and waits for the
   stragglers at a barrier — exactly the fork/join shape of evaluating one
   dependency level.  Workers park between regions, so spawning cost is paid
   once per pool, not once per level. *)

type t = {
  size : int;
  mutable workers : unit Domain.t array;
  mutable job : (int -> unit) option;
  mutable epoch : int;
  mutable pending : int;
  mutable shutdown : bool;
  lock : Mutex.t;
  start : Condition.t;  (* a new epoch (or shutdown) is available *)
  finished : Condition.t;  (* pending reached zero *)
}

let size t = t.size

let default_domains () = min 4 (max 1 (Domain.recommended_domain_count ()))

exception Task of { index : int; exn : exn; trace : Printexc.raw_backtrace }

let () =
  Printexc.register_printer (function
    | Task { index; exn; _ } ->
        Some (Printf.sprintf "Pool.Task(task %d: %s)" index (Printexc.to_string exn))
    | _ -> None)

(* Re-raise a captured task failure with its origin attached: the task (or
   slot) index says *which* unit of work failed — without it a chaos-harness
   failure in a 200-task map is anonymous — and the captured backtrace is
   restored so the trace points at the task body, not at the barrier. *)
let reraise_task (index, exn, trace) =
  Printexc.raise_with_backtrace (Task { index; exn; trace }) trace

let rec worker t ~slot seen_epoch =
  (* Invariant: [t.lock] is held on entry. *)
  if t.shutdown then Mutex.unlock t.lock
  else if t.epoch > seen_epoch then begin
    let epoch = t.epoch in
    let job = match t.job with Some j -> j | None -> fun _ -> () in
    Mutex.unlock t.lock;
    (* [run] wraps the job so it cannot raise; belt and braces here keeps a
       buggy job from deadlocking the barrier. *)
    (try job slot with _ -> ());
    Mutex.lock t.lock;
    t.pending <- t.pending - 1;
    if t.pending = 0 then Condition.broadcast t.finished;
    worker t ~slot epoch
  end
  else begin
    Condition.wait t.start t.lock;
    worker t ~slot seen_epoch
  end

let create ?(domains = 1) () =
  let size = max 1 domains in
  let t =
    {
      size;
      workers = [||];
      job = None;
      epoch = 0;
      pending = 0;
      shutdown = false;
      lock = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
    }
  in
  if size > 1 then
    t.workers <-
      Array.init (size - 1) (fun i ->
          Domain.spawn (fun () ->
              Mutex.lock t.lock;
              worker t ~slot:(i + 1) 0));
  t

let shutdown t =
  if t.size > 1 then begin
    Mutex.lock t.lock;
    let was = t.shutdown in
    t.shutdown <- true;
    Condition.broadcast t.start;
    Mutex.unlock t.lock;
    if not was then Array.iter Domain.join t.workers
  end

(* Run [f slot] on every slot [0 .. size-1] concurrently; the calling domain
   takes slot 0.  Returns when all slots have finished.  The first failure is
   re-raised after the barrier as {!Task} carrying the slot index and the
   original backtrace (the other slots complete regardless). *)
let run t f =
  if t.size = 1 then (try f 0 with e -> reraise_task (0, e, Printexc.get_raw_backtrace ()))
  else begin
    let err = Atomic.make None in
    let guarded slot =
      try f slot
      with e ->
        let trace = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set err None (Some (slot, e, trace)))
    in
    Mutex.lock t.lock;
    t.job <- Some guarded;
    t.pending <- t.size - 1;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.start;
    Mutex.unlock t.lock;
    guarded 0;
    Mutex.lock t.lock;
    while t.pending > 0 do
      Condition.wait t.finished t.lock
    done;
    t.job <- None;
    Mutex.unlock t.lock;
    match Atomic.get err with Some e -> reraise_task e | None -> ()
  end

(* [mapi t f xs]: apply [f i xs.(i)] to every element, work-stolen off a
   shared counter so uneven task costs balance across domains.  Results keep
   their input order.  With a 1-sized pool [run] executes the same loop
   inline on the caller.  A failing element stops its slot; the first
   failure (by race, not by index) is re-raised as {!Task} with the
   *element* index attached, so a chaos-harness crash names the request
   that caused it rather than an anonymous slot. *)
let mapi t f xs =
  let n = Array.length xs in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let err = Atomic.make None in
  if n > 0 then
    run t (fun _slot ->
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then continue := false
          else
            match f i xs.(i) with
            | v -> results.(i) <- Some v
            | exception e ->
                let trace = Printexc.get_raw_backtrace () in
                ignore (Atomic.compare_and_set err None (Some (i, e, trace)));
                continue := false
        done);
  (match Atomic.get err with Some e -> reraise_task e | None -> ());
  Array.map (function Some v -> v | None -> assert false) results

let map t f xs = mapi t (fun _ x -> f x) xs

(* [map_timed] is [map] that also reports how long each element took on
   its worker, measured with [Sys.time] on the executing domain.  This is
   the pool's whole contribution to request tracing: the caller (who owns
   the tracer and the virtual clock — the pool touches neither) stitches
   the durations into parent-linked spans after the barrier. *)
let map_timed t f xs =
  let times = Array.make (Array.length xs) 0.0 in
  let ys =
    mapi t
      (fun i x ->
        let c0 = Sys.time () in
        let y = f x in
        times.(i) <- Sys.time () -. c0;
        y)
      xs
  in
  (ys, times)

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
