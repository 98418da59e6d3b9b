(* Pieces every workload shares: the result a workload hands back, the
   traced/untraced arms of a traced run, and the end-to-end and per-layer
   metrics read off the samples, an engine's counters and the spans. *)

module Fs = Hac_vfs.Fs
module Hac = Hac_core.Hac
module Store = Hac_fault.Store
module S = Measure.Samples

let now = Measure.now

type result = {
  e2e : Measure.metric list;
  layer : Measure.metric list;
  record : (string * string) list;  (** Run record: sizes and counts. *)
  failures : string list;  (** Correctness-check failures; empty = correct. *)
  attempted : int;  (** User ops attempted in the timed region. *)
  failed : int;  (** Shed + nacked + unresolved + raised. *)
}

(* A traced run alternates blocks of work with span recording on and off
   and charges each block's timed seconds and user ops to its arm; the
   ratio of seconds per op between the arms is the tracing overhead. *)
module Arms = struct
  type t = {
    mutable on_s : float;
    mutable on_ops : int;
    mutable off_s : float;
    mutable off_ops : int;
  }

  let create () = { on_s = 0.0; on_ops = 0; off_s = 0.0; off_ops = 0 }

  (* Switch recording for block [k] of a traced run; untraced runs never
     record. *)
  let select ~trace k = Spans.on := trace && k mod 2 = 1

  let charge t ~seconds ~ops =
    if !Spans.on then begin
      t.on_s <- t.on_s +. seconds;
      t.on_ops <- t.on_ops + ops
    end
    else begin
      t.off_s <- t.off_s +. seconds;
      t.off_ops <- t.off_ops + ops
    end

  let overhead t =
    if t.on_ops = 0 || t.off_ops = 0 || t.off_s = 0.0 then 0.0
    else t.on_s /. float_of_int t.on_ops /. (t.off_s /. float_of_int t.off_ops) -. 1.0
end

(* Run [setup] [n] times, each after a full collection, and keep the last
   rig; every set-up time goes to [samples] (their median is [setup_s]). *)
let repeated_setup n samples setup =
  let rig = ref None in
  for _ = 1 to n do
    rig := None;
    Gc.full_major ();
    let r, dt = setup () in
    S.add samples dt;
    rig := Some r
  done;
  Option.get !rig

(* Apply planned [(path, document, append)] writes through the engine;
   returns each write's start time. *)
let apply_writes hac ~op plan =
  List.map
    (fun (p, doc, append) ->
      let s = now () in
      Spans.with_span ~op (if append then "hac.append_file" else "hac.write_file") (fun () ->
          if append then Hac.append_file hac p doc else Hac.write_file hac p doc);
      s)
    plan

let plan_bytes plan = List.fold_left (fun acc (_, doc, _) -> acc + String.length doc) 0 plan

(* End-to-end metrics every workload reports. *)
let e2e ~setup ~timed ~ops ~reads ~writes ~device_bytes ~user_bytes ~heap_mb =
  let open Measure in
  [
    pct "setup_s" "s" ~scale:1.0 setup 0.5;
    metric "ops_per_s" "1/s" (float_of_int ops /. timed)
      ~note:(Printf.sprintf "= %d ops / %.3f s" ops timed);
    pct "read_p50_ms" "ms" ~scale:1e3 reads 0.5;
    pct "read_p99_ms" "ms" ~scale:1e3 reads 0.99;
    pct "write_p50_ms" "ms" ~scale:1e3 writes 0.5;
    pct "write_p99_ms" "ms" ~scale:1e3 writes 0.99;
    ratio "write_amp" "ratio" (float_of_int device_bytes) (float_of_int user_bytes)
      ~what:" device / user payload bytes";
    metric "heap_peak_mb" "MB" heap_mb;
  ]

(* Per-layer metrics read off engine counters and spans, shared by every
   workload.  [settles] counts the settles the workload drove, [acks] the
   writes acknowledged, [ops] the user ops completed. *)
let layers ~(acc : Probe.acc) ~settles ~acks ~ops ~(r0 : Probe.res) ~(r1 : Probe.res)
    ~(bytes : Probe.bytes) ~fsyncs ~table ~postings_per_doc =
  let open Measure in
  let g = Probe.get acc in
  let per_settle name key =
    ratio name "count" (g key) (float_of_int settles) ~what:" per settle"
  in
  let self name = Spans.self table [ name ] in
  let rate name hits misses =
    let h = g hits and m_ = g misses in
    ratio name "ratio" h (h +. m_) ~what:" hits / lookups"
  in
  let fops = float_of_int (max 1 ops) in
  let wall = r1.Probe.wall -. r0.Probe.wall in
  let apply = Spans.self table [ "hac.write_file"; "hac.append_file"; "hac.rename" ] in
  let read = Spans.self table [ "hac.links"; "hac.resolve_link" ] in
  [
    pct "core.apply_us.p50" "us" ~scale:1e6 apply 0.5;
    pct "core.apply_us.p99" "us" ~scale:1e6 apply 0.99;
    pct "core.read_us.p50" "us" ~scale:1e6 read 0.5;
    pct "sync.settle_ms.p50" "ms" ~scale:1e3 (self "hac.settle") 0.5;
    pct "sync.settle_ms.p99" "ms" ~scale:1e3 (self "hac.settle") 0.99;
    per_settle "sync.dirs_reevaluated_per_settle" "sync.dirs_reevaluated";
    ratio "sync.dirs_changed_ratio" "ratio" (g "sync.dirs_changed") (g "sync.dirs_reevaluated")
      ~what:" changed / re-evaluated";
    ratio "sync.fallback_frac" "ratio" (g "sync.delta.fallback") (float_of_int settles)
      ~what:" full-pass fallbacks / settles";
    per_settle "sync.reindex_files_per_settle" "sync.reindex.files";
    per_settle "index.postings_scanned_per_settle" "search.postings_scanned";
    per_settle "index.docs_verified_per_settle" "search.docs_verified";
    per_settle "index.candidates_per_settle" "search.candidates_expanded";
    rate "index.term_memo_hit_rate" "pass.term_memo.hits" "pass.term_memo.misses";
    rate "index.doc_cache_hit_rate" "pass.doc_cache.hits" "pass.doc_cache.misses";
    rate "index.rescache_hit_rate" "rescache.hits" "rescache.misses";
    metric "index.postings_bytes_per_doc" "B" postings_per_doc;
    pct "query.smkdir_ms.p50" "ms" ~scale:1e3 (self "hac.smkdir") 0.5;
    metric "query.planner_reordered" "count" (g "planner.optimize.reordered");
    per_settle "journal.appends_per_settle" "journal.appends";
    ratio "disk.fsyncs_per_ack" "count" (float_of_int fsyncs) (float_of_int acks)
      ~what:" fsyncs / acked writes";
    metric "disk.bytes.user" "B" (float_of_int bytes.Probe.user);
    metric "disk.bytes.journal" "B" (float_of_int bytes.Probe.journal);
    metric "disk.bytes.store" "B" (float_of_int bytes.Probe.store);
    pct "journal.checkpoint_ms.p50" "ms" ~scale:1e3 (self "hac.checkpoint") 0.5;
    pct "journal.compact_ms.p50" "ms" ~scale:1e3 (self "hac.compact") 0.5;
    rate "store.cache_hit_rate" "store.cache.hits" "store.cache.misses";
    metric "store.cache_evictions" "count" (g "store.cache.evictions");
    metric "store.seg_loads" "count" (g "store.seg.loads");
    metric "store.blocks_puts" "count" (g "store.blocks.puts");
    ratio "par.cpu_util" "ratio" (r1.Probe.cpu -. r0.Probe.cpu) wall ~what:" CPU s / wall s";
    metric "sync.par.tasks" "count" (g "sync.par.tasks");
    metric "gc.minor_words_per_op" "words"
      ((r1.Probe.gc.Gc.minor_words -. r0.Probe.gc.Gc.minor_words) /. fops);
    metric "gc.major_per_1k_ops" "count"
      (float_of_int (r1.Probe.gc.Gc.major_collections - r0.Probe.gc.Gc.major_collections)
      *. 1000.0 /. fops);
    metric "gc.top_heap_mb" "MB" (Probe.top_heap_mb ());
  ]
