(* Per-layer counters read from outside the program: deltas of an
   engine's metrics registry, the simulated device's op log and fsync
   count, [Gc.quick_stat] and [Unix.times] around the timed region.

   One workload may run several engine lives (crash_mount mounts a new
   instance every cycle, each with a fresh registry), so counter deltas
   are taken per life and summed into an accumulator. *)

module Metrics = Hac_obs.Metrics
module Store = Hac_fault.Store

let numeric = function
  | Metrics.Counter_value c -> float_of_int c
  | Metrics.Gauge_value g -> g
  | Metrics.Histogram_value h -> float_of_int h.Metrics.count

type life = { start : (string * float) list; registry : Metrics.t }

let begin_life registry =
  { start = List.map (fun (n, v) -> (n, numeric v)) (Metrics.dump registry); registry }

(* A life whose registry was created during the timed region (an
   instance brought up by a mount): every count it holds is the run's. *)
let fresh_life registry = { start = []; registry }

(* Summed counter deltas over every closed life. *)
type acc = (string, float) Hashtbl.t

let create () : acc = Hashtbl.create 64

let end_life (acc : acc) life =
  List.iter
    (fun (n, v) ->
      match v with
      | Metrics.Gauge_value _ -> ()
      | _ ->
          let before = Option.value ~default:0.0 (List.assoc_opt n life.start) in
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc n) in
          Hashtbl.replace acc n (prev +. numeric v -. before))
    (Metrics.dump life.registry)

let get (acc : acc) n = Option.value ~default:0.0 (Hashtbl.find_opt acc n)

(* Device payload bytes by path prefix: the storage tier's blocks and
   segments, the rest of HAC's metadata area (journal, checkpoints,
   structure files), and user files. *)
type bytes = { mutable user : int; mutable journal : int; mutable store : int }

let zero_bytes () = { user = 0; journal = 0; store = 0 }

let op_path = function
  | Store.Mkdir p | Store.Create p | Store.Write (p, _) | Store.Append (p, _)
  | Store.Pwrite (p, _, _) | Store.Unlink p | Store.Rmdir p | Store.Chmod (p, _)
  | Store.Chown (p, _) | Store.Fsync p ->
      p
  | Store.Symlink { link; _ } -> link
  | Store.Rename { dst; _ } | Store.Rename_dup { dst; _ } -> dst

let has_prefix pre s =
  String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

(* Add the payload of the device's ops with index in [\[from, upto)]. *)
let add_device_bytes b dev ~from ~upto =
  List.iteri
    (fun i op ->
      if i >= from then begin
        let n = Store.payload_length op in
        let p = op_path op in
        if has_prefix "/.hac/store/" p then b.store <- b.store + n
        else if has_prefix "/.hac/" p then b.journal <- b.journal + n
        else b.user <- b.user + n
      end)
    (Store.ops ~upto dev)

let total b = b.user + b.journal + b.store

(* Process-wide resources around a timed region. *)
type res = { gc : Gc.stat; cpu : float; wall : float }

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let res () = { gc = Gc.quick_stat (); cpu = cpu (); wall = Measure.wall () }

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
