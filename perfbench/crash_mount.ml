(* crash_mount: the storage tier on, over a corpus 2.5 times the block
   cache budget.  Each cycle writes and settles, checkpoints and compacts
   every other cycle, then crashes: the device's durable prefix is
   replayed into a fresh tree (harness time, not counted), brought back
   with Recover.mount, every semantic directory is listed, and a Zipf
   sample of files is read through the block cache.  A directory rename
   in one cycle of four leaves a post-checkpoint move record in the
   journal tail, so both the fast and the fallback mount paths occur. *)

open Common
module Image = Hac_vfs.Image
module Recover = Hac_core.Recover
module Corpus = Hac_workload.Corpus
module Prng = Hac_workload.Prng

let spec = { Corpus.depth = 3; dirs_per_level = 4; files_per_dir = 5; words_per_file = 340 }
let budget = 384 * 1024
let n_dirs = 16
let batches_per_cycle = 16
let batch_writes = 4
let reads_per_cycle = 512
let max_file_bytes = 6000

(* Fixed work per run, sized by [--seconds] at this rate, and never below
   the 21 mounts the mount median needs; a cycle takes about 1 s of timed
   work on the benchmark's clock, 0.4 s of it in the mount. *)
let cycles_per_second = 1.05

let load img =
  match Image.load img with Ok fs -> fs | Error e -> failwith ("image: " ^ e)

(* Recover.mount on [fs], then list every semantic directory once: the
   mount latency a user sees.  Returns the instance, the path taken, the
   whole latency and the time from mount return to the first listing. *)
let mount_and_list ?budget fs =
  let t0 = now () in
  let hac, mode = Spans.with_span "recover.mount" (fun () -> Recover.mount ?budget fs) in
  let t1 = now () in
  let first = ref 0.0 in
  List.iteri
    (fun i d ->
      ignore (Spans.with_span "mount.links" (fun () -> Hac.links hac d));
      if i = 0 then first := now () -. t1)
    (Hac.semantic_dirs hac);
  (hac, mode, now () -. t0, !first)

(* The tree a crash leaves: the device's durable prefix replayed into a
   fresh tree (harness time, never counted), as an image so it can be
   mounted several times. *)
let crash_image ?base dev =
  Spans.harness "harness.replay" (fun () ->
      let into = Option.map load base in
      let ops = Store.ops ~upto:(Store.durable_count dev) dev in
      Image.dump (Hac_crash.Sim.replay ?into ops))

(* Mount samples, split by the path recovery took. *)
type mounts = {
  all : S.t;
  fast : S.t;
  full : S.t;
  first_links : S.t;
}

let mounts () =
  { all = S.create (); fast = S.create (); full = S.create (); first_links = S.create () }

let add_mount m mode ~total ~first =
  S.add m.all total;
  S.add (if mode = `Fast then m.fast else m.full) total;
  S.add m.first_links first

let setup ~seed () =
  let t0 = now () in
  let w = World.make ~seed ~root:"/c" spec in
  let hac = Hac.of_fs w.World.fs in
  let qs = World.queries ~corpus:w.World.corpus ~root:"/c" n_dirs in
  List.iter (fun (p, q) -> Spans.with_span "hac.smkdir" (fun () -> Hac.smkdir hac p q)) qs;
  Hac.settle hac;
  Hac.enable_store ~budget hac;
  ignore (Spans.with_span "hac.checkpoint" (fun () -> Hac.checkpoint hac));
  ((w, hac, qs), now () -. t0)

(* The full-path oracle on a crash image: adopt the tree from scratch and
   recover the semantic directories from the journal chain. *)
let oracle_links img dirs =
  let o = Hac.of_fs (load img) in
  ignore (Recover.reload_report o);
  World.link_sets o dirs

(* Every file the model holds must read back byte-identical. *)
let check_readback fs model =
  Hashtbl.fold
    (fun p expected acc ->
      match Fs.read_file fs p with
      | got when got = expected -> acc
      | _ -> Printf.sprintf "crash_mount readback: %s differs after mount" p :: acc
      | exception _ -> Printf.sprintf "crash_mount readback: %s missing after mount" p :: acc)
    model []

(* Set-ups per run; the median is [setup_s]. *)
let setups = 3

let run ~seed ~seconds ~trace =
  let setup_s = S.create () in
  Spans.on := trace;
  let w, hac0, qs = repeated_setup setups setup_s (setup ~seed) in
  let dirs = List.map fst qs in
  let files = Array.copy w.World.files in
  let model = Hashtbl.create 4096 in
  Array.iter (fun p -> Hashtbl.replace model p (Fs.read_file w.World.fs p)) files;
  let g = Prng.make ~seed:(seed * 6271) in
  let hac = ref hac0 and dev = ref (Option.get w.World.dev) and base = ref None in
  let life = ref (Probe.begin_life (Hac.metrics hac0)) in
  let from = ref (Store.op_count !dev) in
  let acc = Probe.create () and bytes = Probe.zero_bytes () in
  let fsyncs = ref (- Store.fsync_count !dev) in
  let reads = S.create () and writes = S.create () and m = mounts () in
  let arms = Arms.create () in
  let timed = ref 0.0 and ops = ref 0 and user_bytes = ref 0 and cycles = ref 0 in
  let settles = ref 0 and renames = ref 0 in
  let failures = ref [] and oracle_points = ref [] in
  let r0 = Probe.res () in
  let total = max (Measure.needed 0.5) (int_of_float (seconds *. cycles_per_second)) in
  while !cycles < total do
    (* Blocks of two cycles, so each arm holds checkpoint cycles too. *)
    Arms.select ~trace (!cycles / 2);
    let c = !cycles in
    incr cycles;
    let op = Spans.fresh_op () in
    let t = !hac in
    let dt = ref 0.0 and n = ref 0 in
    let timed_part f =
      let s = now () in
      let v = f () in
      dt := !dt +. (now () -. s);
      v
    in
    for _ = 1 to batches_per_cycle do
      let plan =
        List.init batch_writes (fun _ ->
            let p = files.(Prng.zipf g ~n:(Array.length files) ~skew:1.05) in
            let doc = World.document w.World.corpus g ~words:(60 + Prng.int g 120) in
            let append = Prng.int g 2 = 0 && String.length (Hashtbl.find model p) < max_file_bytes in
            Hashtbl.replace model p (if append then Hashtbl.find model p ^ doc else doc);
            (p, doc, append))
      in
      user_bytes := !user_bytes + plan_bytes plan;
      timed_part (fun () ->
          let starts = apply_writes t ~op plan in
          Spans.with_span ~op "hac.settle" (fun () -> Hac.settle t);
          let settled = now () in
          List.iter (fun s -> S.add writes (settled -. s)) starts);
      incr settles;
      n := !n + batch_writes
    done;
    (* Structural cycles (one in four, spread over both arms of a traced
       run) rename the directory of a Zipf-chosen file, alone in its own
       settle: the move record in the journal tail sends the next mount
       down the fallback path. *)
    if c mod 8 = 1 || c mod 8 = 7 then begin
      (* Only leaf directories (three levels below the root) move: the
         semantic directories sit higher up. *)
      let rec leaf () =
        let p = files.(Prng.zipf g ~n:(Array.length files) ~skew:1.05) in
        if List.length (String.split_on_char '/' p) = 6 then Filename.dirname p else leaf ()
      in
      let src = leaf () in
      let dst = Printf.sprintf "%s-r%d" src c in
      let pre = src ^ "/" in
      let moved p = dst ^ String.sub p (String.length src) (String.length p - String.length src) in
      Array.iteri
        (fun i p ->
          if Probe.has_prefix pre p then begin
            files.(i) <- moved p;
            Hashtbl.replace model (moved p) (Hashtbl.find model p);
            Hashtbl.remove model p
          end)
        files;
      timed_part (fun () ->
          Spans.with_span ~op "hac.rename" (fun () -> Hac.rename t ~src ~dst);
          Spans.with_span ~op "hac.settle" (fun () -> Hac.settle t));
      incr renames;
      incr settles;
      incr n
    end;
    if c mod 2 = 0 then
      timed_part (fun () ->
          ignore (Spans.with_span ~op "hac.checkpoint" (fun () -> Hac.checkpoint t));
          ignore (Spans.with_span ~op "hac.compact" (fun () -> Hac.compact t)));
    (* Crash.  Close the life's accounts, replay the durable prefix. *)
    Probe.end_life acc !life;
    Probe.add_device_bytes bytes !dev ~from:!from ~upto:(Store.op_count !dev);
    fsyncs := !fsyncs + Store.fsync_count !dev;
    Hac.shutdown ~graceful:false t;
    let img = crash_image ?base:!base !dev in
    let fs = load img in
    let d = Store.create ~seed () in
    Fs.attach_disk fs d;
    dev := d;
    base := Some img;
    from := 0;
    let t, mode, total, first =
      timed_part (fun () -> Spans.with_span ~op "op.mount" (fun () -> mount_and_list ~budget fs))
    in
    add_mount m mode ~total ~first;
    hac := t;
    life := Probe.fresh_life (Hac.metrics t);
    (* Reads through the block cache, each checked against the model. *)
    for _ = 1 to reads_per_cycle do
      let p = files.(Prng.zipf g ~n:(Array.length files) ~skew:1.05) in
      let got =
        timed_part (fun () ->
            let s = now () in
            let v = Spans.with_span ~op "hac.resolve_link" (fun () -> Hac.resolve_link t p) in
            S.add reads (now () -. s);
            v)
      in
      if got <> Some (Hashtbl.find model p) then
        failures := Printf.sprintf "crash_mount read: %s differs" p :: !failures
    done;
    n := !n + reads_per_cycle;
    Spans.harness "harness.check" (fun () ->
        failures := check_readback (Hac.fs t) model @ !failures;
        let first_of_kind =
          (mode = `Fast && S.count m.fast = 1) || (mode = `Full && S.count m.full = 1)
        in
        if first_of_kind then oracle_points := (img, World.link_sets t dirs) :: !oracle_points);
    timed := !timed +. !dt;
    ops := !ops + !n;
    Arms.charge arms ~seconds:!dt ~ops:!n
  done;
  let r1 = Probe.res () in
  Spans.on := trace;
  let t = !hac in
  Probe.end_life acc !life;
  Probe.add_device_bytes bytes !dev ~from:!from ~upto:(Store.op_count !dev);
  let fsyncs = !fsyncs + Store.fsync_count !dev in
  let heap_mb = Probe.top_heap_mb () in
  let report = Hac.index_report t in
  let cache_hits = Probe.get acc "store.cache.hits" in
  let last = (Option.get !base, World.link_sets t dirs) in
  let points = List.rev (last :: !oracle_points) in
  let failures =
    List.rev !failures
    @ Spans.harness "harness.check" (fun () ->
          World.check_link_sets ~name:"crash_mount"
            (List.map (fun (img, got) -> (oracle_links img dirs, got)) points))
  in
  let self_test =
    let bad = Hashtbl.copy model in
    let p = files.(0) in
    Hashtbl.replace bad p (Hashtbl.find bad p ^ "!");
    if check_readback (Hac.fs t) bad = [] then [ "self-test: readback check did not fire" ] else []
  in
  let table = Spans.self_times () in
  let e2e =
    e2e ~setup:setup_s ~timed:!timed ~ops:!ops ~reads ~writes
      ~device_bytes:(Probe.total bytes) ~user_bytes:!user_bytes ~heap_mb
  in
  let layer =
    layers ~acc ~settles:!settles ~acks:(S.count writes) ~ops:!ops ~r0 ~r1 ~bytes ~fsyncs ~table
      ~postings_per_doc:(float_of_int report.Hac_index.Cas.bytes /. float_of_int (Array.length files))
    @ Measure.
        [
          pct "mount_p50_ms" "ms" ~scale:1e3 m.all 0.5;
          pct "recover.mount_ms.fast.p50" "ms" ~scale:1e3 m.fast 0.5;
          pct "recover.mount_ms.full.p50" "ms" ~scale:1e3 m.full 0.5;
          ratio "recover.fast_path_frac" "ratio" (float_of_int (S.count m.fast))
            (float_of_int (S.count m.all)) ~what:" fast mounts / mounts";
          pct "recover.first_links_ms" "ms" ~scale:1e3 m.first_links 0.5;
        ]
    @ [
        Measure.ratio "workload.structural_batch_frac" "ratio" (float_of_int !renames)
          (float_of_int !settles) ~what:" settles after a directory rename / settles";
        Measure.metric "trace.overhead_frac" "ratio" (Arms.overhead arms);
      ]
  in
  {
    e2e;
    layer;
    record =
      [
        ("files", string_of_int (Array.length files));
        ("corpus_bytes", string_of_int w.World.bytes);
        ("semantic_dirs", string_of_int n_dirs);
        ("cache_budget_bytes", string_of_int budget);
        ( "corpus_over_budget",
          Printf.sprintf "%.2f" (float_of_int w.World.bytes /. float_of_int budget) );
        ("cycles", string_of_int !cycles);
        ("structural_cycle_share", Printf.sprintf "%d/%d" !renames !cycles);
        ("cache_hits", Printf.sprintf "%.0f" cache_hits);
        ("oracle_points", string_of_int (List.length points));
        ("store", "on");
      ];
    failures = failures @ self_test;
    attempted = !ops;
    failed = 0;
  }
