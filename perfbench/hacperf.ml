(* The end-to-end benchmark's command line.

     hacperf --workload serve_mixed|settle_fanout|crash_mount
             --seed N --seconds S --trace 0|1

   Prints the run record, every metric by name with its unit and the
   correctness checks, then as its last line one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics when
   untraced, the per-layer metrics when traced.  Exits 1 when a check
   fails. *)

(* Every metric the benchmark defines, with its unit, in print order. *)
let end_to_end =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("read_p50_ms", "ms"); ("read_p99_ms", "ms");
    ("write_p50_ms", "ms"); ("write_p99_ms", "ms"); ("write_amp", "ratio"); ("heap_peak_mb", "MB");
  ]

let per_layer =
  [
    ("serve.pump_ms.p50", "ms"); ("serve.pump_ms.p99", "ms"); ("serve.batch_ops", "count");
    ("serve.queue_wait_ms.p50", "ms"); ("serve.submit_us.p50", "us");
    ("serve.stale_read_frac", "ratio"); ("serve.domains2_time_ratio", "ratio");
    ("core.apply_us.p50", "us"); ("core.apply_us.p99", "us");
    ("core.read_us.p50", "us"); ("sync.settle_ms.p50", "ms"); ("sync.settle_ms.p99", "ms");
    ("sync.dirs_reevaluated_per_settle", "count"); ("sync.dirs_changed_ratio", "ratio");
    ("sync.fallback_frac", "ratio"); ("sync.reindex_files_per_settle", "count");
    ("index.postings_scanned_per_settle", "count"); ("index.docs_verified_per_settle", "count");
    ("index.candidates_per_settle", "count"); ("index.term_memo_hit_rate", "ratio");
    ("index.doc_cache_hit_rate", "ratio"); ("index.rescache_hit_rate", "ratio");
    ("index.postings_bytes_per_doc", "B"); ("query.smkdir_ms.p50", "ms");
    ("query.planner_reordered", "count"); ("journal.appends_per_settle", "count");
    ("disk.fsyncs_per_ack", "count"); ("disk.bytes.user", "B"); ("disk.bytes.journal", "B");
    ("disk.bytes.store", "B"); ("journal.checkpoint_ms.p50", "ms");
    ("journal.compact_ms.p50", "ms"); ("store.cache_hit_rate", "ratio");
    ("store.cache_evictions", "count"); ("store.seg_loads", "count");
    ("store.blocks_puts", "count"); ("mount_p50_ms", "ms"); ("recover.mount_ms.fast.p50", "ms");
    ("recover.mount_ms.full.p50", "ms"); ("recover.fast_path_frac", "ratio");
    ("recover.first_links_ms", "ms"); ("par.cpu_util", "ratio"); ("sync.par.tasks", "count");
    ("gc.minor_words_per_op", "words"); ("gc.major_per_1k_ops", "count");
    ("gc.top_heap_mb", "MB"); ("workload.structural_batch_frac", "ratio");
    ("failed_frac", "ratio"); ("trace.overhead_frac", "ratio"); ("trace.spans", "count");
  ]

let workloads =
  [
    ("serve_mixed", Serve_mixed.run);
    ("settle_fanout", Settle_fanout.run);
    ("crash_mount", Crash_mount.run);
  ]

let usage () =
  prerr_endline
    "usage: hacperf --workload serve_mixed|settle_fanout|crash_mount --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let opt k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (opt k) with Some n -> n | None -> usage () in
  let name = opt "workload" and seed = int "seed" and seconds = int "seconds" in
  let trace = int "trace" = 1 in
  let run = match List.assoc_opt name workloads with Some f -> f | None -> usage () in
  let cpu_res_ns = Measure.resolution_ns Measure.cpu_now in
  let wall_res_ns = Measure.resolution_ns Measure.wall in
  let wall0 = Measure.wall () in
  Measure.arm ();
  let r = run ~seed ~seconds:(float_of_int seconds) ~trace in
  Measure.disarm ();
  let open Common in
  let failed_frac =
    Measure.ratio "failed_frac" "ratio" (float_of_int r.failed) (float_of_int r.attempted)
      ~what:" failed / attempted ops"
  in
  let spans = Measure.metric "trace.spans" "count" (float_of_int (Spans.count ())) in
  let computed = r.e2e @ r.layer @ [ failed_frac; spans ] in
  let record =
    [
      ("workload", name);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("traced", string_of_bool trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("clock", "CLOCK_PROCESS_CPUTIME_ID (process CPU time), scaled to reference speed");
      ("clock_resolution_ns", Printf.sprintf "%.0f" cpu_res_ns);
      ( "speed_kernel_ms",
        let p = Measure.Speed.probes in
        Printf.sprintf "median %.4f, p10 %.4f, p90 %.4f over %d probes; reference %.4f"
          (1e3 *. Measure.Samples.percentile p 0.5)
          (1e3 *. Measure.Samples.percentile p 0.1)
          (1e3 *. Measure.Samples.percentile p 0.9)
          (Measure.Samples.count p) (1e3 *. Measure.Speed.reference_s) );
      ("speed_factor_mean", Printf.sprintf "%.4f" (!Measure.virt_total /. !Measure.raw_total));
      ("wall_clock", "bechamel.monotonic_clock (CLOCK_MONOTONIC)");
      ("wall_clock_resolution_ns", Printf.sprintf "%.0f" wall_res_ns);
      ("run_wall_s", Printf.sprintf "%.3f" (Measure.wall () -. wall0));
    ]
    @ r.record
  in
  List.iter (fun (k, v) -> Printf.printf "record %s = %s\n" k v) record;
  let shown = if trace then per_layer else end_to_end in
  let find (n, u) =
    match List.find_opt (fun (m : Measure.metric) -> m.name = n) computed with
    | Some m when m.unit_ = u -> m
    | Some m -> failwith (Printf.sprintf "metric %s: unit %s, declared %s" n m.unit_ u)
    | None when trace -> Measure.metric n u 0.0 ~note:"not exercised by this workload"
    | None -> failwith ("metric not computed: " ^ n)
  in
  List.iter
    (fun (m : Measure.metric) ->
      Printf.printf "metric %s = %.6g %s%s\n" m.name m.value m.unit_
        (if m.note = "" then "" else "  (" ^ m.note ^ ")"))
    (List.map find shown);
  if trace then begin
    let dir = "perfbench/traces" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Printf.sprintf "%s/%s.jsonl" dir name in
    Spans.write_jsonl path;
    Printf.printf "record spans_file = %s\n" path
  end;
  List.iter (fun f -> Printf.printf "check FAILED: %s\n" f) r.failures;
  let correct = r.failures = [] in
  Printf.printf "check %s\n" (if correct then "all passed" else "FAILED");
  let json_num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v else failwith "non-finite metric"
  in
  let metrics =
    List.map
      (fun d ->
        let m = find d in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_num m.value) m.unit_)
      shown
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    r.attempted r.failed (String.concat ", " metrics);
  exit (if correct then 0 else 1)
