(* serve_mixed: a closed loop of 16 logical sessions driven from one
   thread against a server.  Each session keeps exactly one ticket
   outstanding; its ops come from Serveload's default profile (70% reads,
   40% of them on semantic directories, Zipf 1.05).  When a session's
   stream ends it starts the next one under a fresh home.

   The measured server runs one domain.  With two, every settle spawns
   and joins a domain pool of its own (Hac.settle ~domains), which on a
   2-core host made episodes about twice as slow and their times vary by
   ±30% — too wide for any bound.  The traced run therefore adds two
   episodes at two domains and reports their CPU time per op against the
   one-domain episodes, and the par.* metrics from them. *)

open Common
module Corpus = Hac_workload.Corpus
module Serveload = Hac_workload.Serveload
module Msg = Hac_serve.Msg
module Server = Hac_serve.Server
module Spec = Hac_serve.Spec

let spec = { Corpus.depth = 3; dirs_per_level = 4; files_per_dir = 8; words_per_file = 120 }
let n_dirs = 8
let sessions = 16
let config domains = { Server.default_config with domains }
let block = 50

let engine ?device ~seed () =
  let w = World.make ?device ~seed ~root:"/c" spec in
  Fs.mkdir_p w.World.fs "/srv";
  let hac = Hac.of_fs w.World.fs in
  let qs = World.queries ~corpus:w.World.corpus ~root:"/c" n_dirs in
  List.iter (fun (p, q) -> Spans.with_span "hac.smkdir" (fun () -> Hac.smkdir hac p q)) qs;
  Hac.settle hac;
  (w, hac, qs)

let setup ~seed ~domains =
  let t0 = now () in
  let w, hac, qs = engine ~seed () in
  let server = Server.create ~config:(config domains) hac in
  (w, hac, qs, server, now () -. t0)

(* The checks, as functions of their inputs so the self-test can feed
   them corrupted ones. *)
let check_resolved tickets =
  let n = List.length (List.filter (fun (tk : Msg.ticket) -> tk.outcome = None) tickets) in
  if n = 0 then [] else [ Printf.sprintf "serve_mixed: %d tickets unresolved" n ]

let check_acked (st : Server.stats) =
  if st.acked = st.commits then []
  else [ Printf.sprintf "serve_mixed: acked %d <> commits %d" st.acked st.commits ]

let check_spec ~seed ~writes ~observations =
  List.map
    (fun v -> "serve_mixed spec: " ^ v)
    (Spec.check
       ~build:(fun () ->
         let _, h, _ = engine ~device:false ~seed () in
         h)
       ~writes ~observations ())

let corrupt (ob : Spec.observation) =
  let reply =
    match ob.ob_reply with
    | Msg.Data d -> Msg.Data (d ^ "!")
    | Msg.Entries l -> Msg.Entries ("corrupt" :: l)
    | Msg.Linkset l -> Msg.Linkset (List.tl l)
    | r -> r
  in
  { ob with ob_reply = reply }

(* One episode: a fresh server driven for [pumps] pumps, drained,
   stopped and checked.  Episodes keep the served state bounded: the
   profile's writes create files and semantic directories without end, so
   one long loop would measure an ever larger tree. *)
type totals = {
  reads : S.t;
  writes : S.t;
  waits : S.t;
  setup_s : S.t;
  arms : Arms.t;
  acc : Probe.acc;
  bytes : Probe.bytes;
  mutable timed : float;
  mutable completed : int;
  mutable attempted : int;
  mutable failed : int;
  mutable user_bytes : int;
  mutable pumps : int;
  mutable popped : int;
  mutable files : int;
  mutable corpus_bytes : int;
  mutable fsyncs : int;
  mutable acks : int;
  mutable stale : int;
  mutable commits : int;
  mutable observations : int;
  mutable semdirs : int;
  mutable postings_per_doc : float;
  mutable failures : string list;
}

let pumps_per_episode = 300

(* Fixed work per run — whole episodes, sized by [--seconds] at this
   rate — so every run of a seed serves the same op streams.  The
   server's own cost per episode is about 1.1 s on the benchmark's clock;
   the rest of each episode's wall time is set-up and the serial-spec
   check. *)
let episodes_per_second = 0.65

let episode tot ~seed ~k ~trace ~domains =
  Spans.on := trace;
  Gc.full_major ();
  let w, hac, _, server, dt = setup ~seed ~domains in
  S.add tot.setup_s dt;
  let dev = Option.get w.World.dev in
  let files = w.World.files in
  tot.files <- Array.length files;
  tot.corpus_bytes <- w.World.bytes;
  let semdirs = Array.of_list (Hac.semantic_dirs hac) in
  let streams = Array.make sessions [] and gens = Array.make sessions 0 in
  let rec next_op i =
    match streams.(i) with
    | op :: rest ->
        streams.(i) <- rest;
        Msg.of_workload op
    | [] ->
        streams.(i) <-
          Serveload.session_ops Serveload.default ~corpus:w.World.corpus
            ~seed:(seed + (7919 * k))
            ~session:((gens.(i) * sessions) + i) ~files ~semdirs ~fresh_root:"/srv";
        gens.(i) <- gens.(i) + 1;
        next_op i
  in
  let out = Array.make sessions None in
  let observations = ref [] and tickets = ref [] in
  let life = Probe.begin_life (Hac.metrics hac) in
  let ops0 = Store.op_count dev and fsyncs0 = Store.fsync_count dev in
  let st0 = Server.stats server in
  let finish (tk : Msg.ticket) ~submitted ~pump_start ~pump_end =
    match tk.outcome with
    | Some (Msg.Replied { reply = Msg.Nack _; _ }) | Some (Msg.Rejected _) ->
        tot.failed <- tot.failed + 1
    | Some (Msg.Replied _) ->
        tot.completed <- tot.completed + 1;
        S.add tot.waits (pump_start -. submitted);
        (match tk.op with
        | Msg.R _ -> S.add tot.reads (pump_end -. submitted)
        | Msg.W w -> (
            S.add tot.writes (pump_end -. submitted);
            match w with
            | Msg.Write (_, c) | Msg.Append (_, c) ->
                tot.user_bytes <- tot.user_bytes + String.length c
            | _ -> ()));
        Option.iter (fun o -> observations := o :: !observations) (Spec.observe tk)
    | None -> ()
  in
  for p = 0 to pumps_per_episode - 1 do
    (* Traced and untraced blocks swap places every episode, so neither
       arm always gets the episode's smaller early state. *)
    Arms.select ~trace ((p / block) + k);
    let t0 = now () in
    let before = tot.completed in
    for i = 0 to sessions - 1 do
      if out.(i) = None then begin
        let op = next_op i in
        let id = Spans.fresh_op () in
        let s = now () in
        let tk =
          Spans.with_span ~op:id "server.submit" (fun () ->
              Server.submit server ~session:(Printf.sprintf "s%d" i) op)
        in
        tot.attempted <- tot.attempted + 1;
        tickets := tk :: !tickets;
        if tk.outcome = None then out.(i) <- Some (tk, s)
        else finish tk ~submitted:s ~pump_start:s ~pump_end:s
      end
    done;
    let pump_start = now () in
    tot.popped <- tot.popped + Server.queue_depth server;
    Spans.with_span "server.pump" (fun () -> Server.pump server);
    let pump_end = now () in
    Array.iteri
      (fun i slot ->
        match slot with
        | Some ((tk : Msg.ticket), s) when tk.outcome <> None ->
            finish tk ~submitted:s ~pump_start ~pump_end;
            out.(i) <- None
        | _ -> ())
      out;
    let dt = pump_end -. t0 in
    tot.timed <- tot.timed +. dt;
    Arms.charge tot.arms ~seconds:dt ~ops:(tot.completed - before)
  done;
  tot.pumps <- tot.pumps + pumps_per_episode;
  Spans.on := trace;
  Probe.end_life tot.acc life;
  Probe.add_device_bytes tot.bytes dev ~from:ops0 ~upto:(Store.op_count dev);
  tot.fsyncs <- tot.fsyncs + Store.fsync_count dev - fsyncs0;
  let st = Server.stats server in
  tot.acks <- tot.acks + st.acked - st0.acked;
  tot.stale <- tot.stale + st.stale_reads - st0.stale_reads;
  tot.semdirs <- max tot.semdirs (List.length (Hac.semantic_dirs hac));
  tot.postings_per_doc <-
    float_of_int (Hac.index_report hac).Hac_index.Cas.bytes /. float_of_int (Array.length files);
  (* The drain resolves whatever is outstanding; nothing may be left. *)
  Server.stop server;
  let tickets = !tickets in
  tot.failed <-
    tot.failed + List.length (List.filter (fun (tk : Msg.ticket) -> tk.outcome = None) tickets);
  let st = Server.stats server in
  let writes = Server.committed_writes server in
  let observations = !observations in
  tot.commits <- tot.commits + st.commits;
  tot.observations <- tot.observations + List.length observations;
  let failures =
    Spans.harness "harness.check" (fun () ->
        check_resolved tickets @ check_acked st @ check_spec ~seed ~writes ~observations)
  in
  (* Once per run: every check must fire on a corrupted input. *)
  let self_test () =
    let fired name = function [] -> [ "self-test: " ^ name ^ " check did not fire" ] | _ -> [] in
    let earliest =
      List.fold_left
        (fun acc (o : Spec.observation) ->
          let usable =
            match o.ob_reply with
            | Msg.Data _ | Msg.Entries _ | Msg.Linkset (_ :: _) -> true
            | _ -> false
          in
          match acc with
          | Some (b : Spec.observation) when b.ob_seq <= o.ob_seq -> acc
          | _ -> if usable then Some o else acc)
        None observations
    in
    fired "resolved" (check_resolved [ { (List.hd tickets) with outcome = None } ])
    @ fired "acked" (check_acked { st with acked = st.acked - 1 })
    @
    match earliest with
    | Some ob -> fired "spec" (check_spec ~seed ~writes ~observations:[ corrupt ob ])
    | None -> [ "self-test: no read observation to corrupt" ]
  in
  tot.failures <- tot.failures @ failures @ (if k = 0 then self_test () else [])

let totals () =
  {
    reads = S.create ();
    writes = S.create ();
    waits = S.create ();
    setup_s = S.create ();
    arms = Arms.create ();
    acc = Probe.create ();
    bytes = Probe.zero_bytes ();
    timed = 0.0;
    completed = 0;
    attempted = 0;
    failed = 0;
    user_bytes = 0;
    pumps = 0;
    popped = 0;
    files = 0;
    corpus_bytes = 0;
    fsyncs = 0;
    acks = 0;
    stale = 0;
    commits = 0;
    observations = 0;
    semdirs = 0;
    postings_per_doc = 0.0;
    failures = [];
  }

let run ~seed ~seconds ~trace =
  let tot = totals () in
  let r0 = Probe.res () in
  let k = ref 0 in
  let total = max 3 (int_of_float (Float.round (seconds *. episodes_per_second))) in
  while !k < total do
    episode tot ~seed ~k:!k ~trace ~domains:1;
    incr k
  done;
  let r1 = Probe.res () in
  (* Traced runs only: two untraced episodes at two domains. *)
  let two = totals () in
  let q0 = Probe.res () in
  if trace then begin
    Measure.disarm ();
    for j = 0 to 1 do
      episode two ~seed ~k:(total + j) ~trace:false ~domains:2
    done;
    Measure.arm ()
  end;
  let q1 = Probe.res () in
  Spans.on := trace;
  let heap_mb = Probe.top_heap_mb () in
  let table = Spans.self_times () in
  let e2e =
    e2e ~setup:tot.setup_s ~timed:tot.timed ~ops:tot.completed ~reads:tot.reads
      ~writes:tot.writes ~device_bytes:(Probe.total tot.bytes) ~user_bytes:tot.user_bytes
      ~heap_mb
  in
  let per_op (t : totals) = t.timed /. float_of_int (max 1 t.completed) in
  let replaced = [ "par.cpu_util"; "sync.par.tasks" ] in
  let layer =
    List.filter
      (fun (m : Measure.metric) -> not (List.mem m.name replaced))
      (layers ~acc:tot.acc
         ~settles:(int_of_float (Probe.get tot.acc "serve.settle_s"))
         ~acks:tot.acks ~ops:tot.completed ~r0 ~r1 ~bytes:tot.bytes ~fsyncs:tot.fsyncs ~table
         ~postings_per_doc:tot.postings_per_doc)
    @ Measure.
        [
          pct "serve.pump_ms.p50" "ms" ~scale:1e3 (Spans.self table [ "server.pump" ]) 0.5;
          pct "serve.pump_ms.p99" "ms" ~scale:1e3 (Spans.self table [ "server.pump" ]) 0.99;
          ratio "serve.batch_ops" "count" (float_of_int tot.popped) (float_of_int tot.pumps)
            ~what:" tickets popped / pumps";
          pct "serve.queue_wait_ms.p50" "ms" ~scale:1e3 tot.waits 0.5;
          pct "serve.submit_us.p50" "us" ~scale:1e6 (Spans.self table [ "server.submit" ]) 0.5;
          ratio "serve.stale_read_frac" "ratio" (float_of_int tot.stale)
            (float_of_int (S.count tot.reads)) ~what:" stale / reads";
          metric "trace.overhead_frac" "ratio" (Arms.overhead tot.arms);
          ratio "serve.domains2_time_ratio" "ratio" (per_op two)
            (tot.arms.off_s /. float_of_int (max 1 tot.arms.off_ops))
            ~what:" CPU s per op at 2 domains / at 1 domain, untraced";
          ratio "par.cpu_util" "ratio" (q1.cpu -. q0.cpu) (q1.wall -. q0.wall)
            ~what:" CPU s / wall s over the 2-domain episodes";
          metric "sync.par.tasks" "count" (Probe.get two.acc "sync.par.tasks");
        ]
  in
  {
    e2e;
    layer;
    record =
      [
        ("files", string_of_int tot.files);
        ("corpus_bytes", string_of_int tot.corpus_bytes);
        ("semantic_dirs", Printf.sprintf "%d at setup, %d at most" n_dirs tot.semdirs);
        ("sessions", string_of_int sessions);
        ("episodes", string_of_int !k);
        ("pumps", string_of_int tot.pumps);
        ("commits", string_of_int tot.commits);
        ("spec_observations", string_of_int tot.observations);
        ("store", "off");
      ];
    failures = tot.failures @ two.failures;
    attempted = tot.attempted + two.attempted;
    failed = tot.failed + two.failed;
  }
