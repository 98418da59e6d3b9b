(* settle_fanout: one client calling the engine directly.  Each batch
   applies 8 Zipf-chosen writes or appends, settles, then lists the links
   of 32 semantic directories (reads are microseconds next to a settle;
   32 rather than 2 gives the read tail enough samples per run), each
   directory once every two batches in an order the seed shuffles, so the
   read tail does not hang on how often random draws hit the largest;
   about one batch in 32 also renames a file, forcing the structural
   full-pass fallback.  64 semantic directories of mixed query shapes make
   settle — reindex, scope re-evaluation, query evaluation — most of the
   work.  Link sets are checked against a from-scratch oracle after the
   first batch, half-way and at the end. *)

open Common
module Image = Hac_vfs.Image
module Corpus = Hac_workload.Corpus
module Prng = Hac_workload.Prng

let spec = { Corpus.depth = 3; dirs_per_level = 4; files_per_dir = 8; words_per_file = 120 }
let n_dirs = 64
let batch_writes = 8
let reads_per_batch = 32
let rename_every = 32
let max_file_bytes = 3000
let block = 32

(* A run does a fixed amount of work, so every run of a seed builds the
   same state; it is sized by [--seconds] at this rate, and never below
   the samples the write p99 needs.  At 12 seconds a run has 252 batches,
   8 of them structural — enough for the write tail, which those batches
   set — and about 16 s of timed work on the benchmark's clock. *)
let batches_per_second = 21.0

let setup ~seed () =
  let t0 = now () in
  let w = World.make ~seed ~root:"/c" spec in
  let hac = Hac.of_fs w.World.fs in
  let qs = World.queries ~corpus:w.World.corpus ~root:"/c" n_dirs in
  List.iter (fun (p, q) -> Spans.with_span "hac.smkdir" (fun () -> Hac.smkdir hac p q)) qs;
  Hac.settle hac;
  ((w, hac, qs), now () -. t0)

(* The from-scratch oracle: a copy of the tree with HAC's metadata and
   every semantic directory removed, adopted afresh and given the same
   queries in the same order. *)
let oracle_links img qs =
  let fs = Result.get_ok (Image.load img) in
  Fs.rmtree fs "/.hac";
  List.iter (fun (d, _) -> Fs.rmtree fs d) qs;
  let o = Hac.of_fs fs in
  List.iter (fun (p, q) -> Hac.smkdir o p q) qs;
  Hac.settle o;
  World.link_sets o (List.map fst qs)

(* Fisher-Yates over [a]. *)
let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Set-ups per run; the median is [setup_s]. *)
let setups = 5

let run ~seed ~seconds ~trace =
  let setup_s = S.create () in
  Spans.on := trace;
  let w, hac, qs = repeated_setup setups setup_s (setup ~seed) in
  let fs = w.World.fs and dev = Option.get w.World.dev in
  let dirs = Array.of_list (List.map fst qs) in
  let order = Array.copy dirs in
  let files = Array.copy w.World.files in
  let g = Prng.make ~seed:(seed * 7919) in
  let reads = S.create () and writes = S.create () in
  let arms = Arms.create () in
  let timed = ref 0.0 and ops = ref 0 and user_bytes = ref 0 in
  let batches = ref 0 and structural = ref 0 in
  let checkpoints = ref [] in
  let snapshot () =
    checkpoints := (Image.dump fs, World.link_sets hac (Array.to_list dirs)) :: !checkpoints
  in
  let life = Probe.begin_life (Hac.metrics hac) in
  let ops0 = Store.op_count dev and fsyncs0 = Store.fsync_count dev in
  let r0 = Probe.res () in
  let total =
    max (Measure.needed 0.99 / batch_writes + 1) (int_of_float (seconds *. batches_per_second))
  in
  while !batches < total do
    Arms.select ~trace (!batches / block);
    let b = !batches in
    incr batches;
    let op = Spans.fresh_op () in
    (* Inputs are drawn before the clock starts: they are the client's
       business, not the system's. *)
    let plan =
      List.init batch_writes (fun _ ->
          let i = Prng.zipf g ~n:(Array.length files) ~skew:1.05 in
          let doc = World.document w.World.corpus g ~words:(40 + Prng.int g 80) in
          let append = Prng.int g 2 = 0 && Fs.file_size fs files.(i) < max_file_bytes in
          (files.(i), doc, append))
    in
    let rename =
      if b mod rename_every = rename_every / 2 then begin
        let i = Prng.zipf g ~n:(Array.length files) ~skew:1.05 in
        let src = files.(i) in
        let dst =
          Filename.concat (Filename.dirname src) (Printf.sprintf "r%d-%s" b (Filename.basename src))
        in
        files.(i) <- dst;
        Some (src, dst)
      end
      else None
    in
    let picks =
      if b * reads_per_batch mod n_dirs = 0 then shuffle g order;
      List.init reads_per_batch (fun j -> order.(((b * reads_per_batch) + j) mod n_dirs))
    in
    let t0 = now () in
    let starts = apply_writes hac ~op plan in
    Option.iter
      (fun (src, dst) ->
        incr structural;
        Spans.with_span ~op "hac.rename" (fun () -> Hac.rename hac ~src ~dst))
      rename;
    Spans.with_span ~op "hac.settle" (fun () -> Hac.settle hac);
    let settled = now () in
    List.iter (fun s -> S.add writes (settled -. s)) starts;
    List.iter
      (fun d ->
        let s = now () in
        ignore (Spans.with_span ~op "hac.links" (fun () -> Hac.links hac d));
        S.add reads (now () -. s))
      picks;
    let dt = now () -. t0 in
    user_bytes := !user_bytes + plan_bytes plan;
    let n = batch_writes + reads_per_batch in
    timed := !timed +. dt;
    ops := !ops + n;
    Arms.charge arms ~seconds:dt ~ops:n;
    if b = 0 || b = total / 2 then snapshot ()
  done;
  let r1 = Probe.res () in
  Spans.on := trace;
  snapshot ();
  let acc = Probe.create () in
  Probe.end_life acc life;
  let bytes = Probe.zero_bytes () in
  Probe.add_device_bytes bytes dev ~from:ops0 ~upto:(Store.op_count dev);
  let fsyncs = Store.fsync_count dev - fsyncs0 in
  let heap_mb = Probe.top_heap_mb () in
  let report = Hac.index_report hac in
  let n_docs = Array.length files in
  (* Correctness: each recorded point against the from-scratch oracle. *)
  let failures =
    Spans.harness "harness.check" (fun () ->
        World.check_link_sets ~name:"settle_fanout"
          (List.map (fun (img, got) -> (oracle_links img qs, got)) (List.rev !checkpoints)))
  in
  let table = Spans.self_times () in
  let settles = !batches in
  let e2e =
    e2e ~setup:setup_s ~timed:!timed ~ops:!ops ~reads ~writes
      ~device_bytes:(Probe.total bytes) ~user_bytes:!user_bytes ~heap_mb
  in
  let layer =
    layers ~acc ~settles ~acks:(S.count writes) ~ops:!ops ~r0 ~r1 ~bytes ~fsyncs ~table
      ~postings_per_doc:(float_of_int report.Hac_index.Cas.bytes /. float_of_int n_docs)
    @ [
        Measure.ratio "workload.structural_batch_frac" "ratio" (float_of_int !structural)
          (float_of_int !batches) ~what:" batches with a rename / batches";
        Measure.metric "trace.overhead_frac" "ratio" (Arms.overhead arms);
      ]
  in
  {
    e2e;
    layer;
    record =
      [
        ("files", string_of_int n_docs);
        ("corpus_bytes", string_of_int w.World.bytes);
        ("semantic_dirs", string_of_int n_dirs);
        ("batches", string_of_int !batches);
        ("structural_batch_share", Printf.sprintf "%d/%d" !structural !batches);
        ("oracle_points", string_of_int (List.length !checkpoints));
        ("store", "off");
      ];
    failures;
    attempted = !ops;
    failed = 0;
  }
