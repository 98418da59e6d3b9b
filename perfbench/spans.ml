(* In-memory spans recorded by the benchmark around each call it makes
   into a layer.  A span has a name, start, end, parent and the id of the
   user op (or batch/cycle) it serves; children inherit the op id.  Spans
   stay in memory while the run lasts and are written out at the end.
   Recording is switched on and off per block of work, so a traced run can
   alternate traced and untraced blocks and report the overhead. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span. *)
  op : int;
  name : string;
  start : float;
  mutable stop : float;
}

let on = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let next_op = ref 0

(* A fresh user-op id. *)
let fresh_op () =
  incr next_op;
  !next_op

let with_span ?op name f =
  if not !on then f ()
  else begin
    let parent, inherited =
      match !stack with s :: _ -> (s.id, s.op) | [] -> (-1, 0)
    in
    let op = match op with Some o -> o | None -> inherited in
    let s = { id = !next_id; parent; op; name; start = Measure.now (); stop = 0.0 } in
    incr next_id;
    spans := s :: !spans;
    stack := s :: !stack;
    let close () =
      s.stop <- Measure.now ();
      stack := List.tl !stack
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* A harness span (replay, checks): recorded like any other, but the
   calls it makes into the program are not, so harness work never feeds a
   layer's timings. *)
let harness name f =
  with_span name (fun () ->
      let was = !on in
      on := false;
      Fun.protect ~finally:(fun () -> on := was) f)

let count () = List.length !spans

(* Self time of every span: its duration minus the part its children
   cover (children of one parent never overlap — the benchmark is one
   thread).  Returned grouped by name. *)
let self_times () =
  let all = Array.of_list (List.rev !spans) in
  let child = Hashtbl.create 1024 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then begin
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. (s.stop -. s.start))
      end)
    all;
  let by_name = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let samples =
        match Hashtbl.find_opt by_name s.name with
        | Some x -> x
        | None ->
            let x = Measure.Samples.create () in
            Hashtbl.add by_name s.name x;
            x
      in
      Measure.Samples.add samples (s.stop -. s.start -. covered))
    all;
  by_name

(* Self times of every span named in [names]. *)
let self table names =
  let out = Measure.Samples.create () in
  List.iter
    (fun n ->
      match Hashtbl.find_opt table n with
      | Some (s : Measure.Samples.t) ->
          for i = 0 to s.n - 1 do
            Measure.Samples.add out s.a.(i)
          done
      | None -> ())
    names;
  out

(* One JSON object per span, in start order. *)
let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}\n"
        s.id s.parent s.op s.name s.start s.stop)
    (List.rev !spans);
  close_out oc
