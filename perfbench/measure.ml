(* Timing and sample bookkeeping for the benchmark: the clocks, exact
   nearest-rank percentiles over every recorded sample, and the named
   metric lines a run prints. *)

(* A growable set of float samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  (* Nearest rank: the smallest sample with at least [p * n] samples at or
     below it.  0 on an empty set. *)
  let rank t p = max 1 (int_of_float (Float.ceil (p *. float_of_int t.n)))

  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      s.(rank t p - 1)
    end

  (* Samples strictly beyond the [p] percentile's rank. *)
  let beyond t p = if t.n = 0 then 0 else t.n - rank t p
end

(* The benchmark's clock.

   On a shared host the speed of the core a run gets is not steady: a
   fixed loop's CPU time swings by up to 1.6x over a few seconds with the
   run's own load unchanged, and wall-clock figures of the same code moved
   by a quarter between runs.  Two different fixed loops interleaved in
   one process slow down together (their ratio stayed within 4% while each
   moved by 30%).  So the benchmark times the program on the process CPU
   clock (CLOCK_PROCESS_CPUTIME_ID: the measured runs use one domain and
   the simulated device never blocks, so on an idle host this is the wall
   time a user waits) and scales it by the host's current speed.  Every
   [interval] seconds a fixed calibration kernel runs; the clock advances
   by CPU time times [reference_s / median of the last [window] kernel
   times], and the kernel's own time is left out.  A time read on this
   clock is the time the program would take on a host where the kernel
   takes [reference_s]. *)

external cpu_now : unit -> (float[@unboxed]) = "hacperf_cpu_now_byte" "hacperf_cpu_now"
[@@noalloc]

let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

module Speed = struct
  (* The kernel: equal parts integer arithmetic, sorting an int array with
     polymorphic [compare], and string-keyed hash-table lookups.  Over 90 s
     of a shared host, the program's set-up and read times divided by this
     mix varied 4-5% (interquartile range over median of 6 s chunks)
     while the times themselves varied 19-23%; a pointer walk over 2 MB or
     256 KB tracked the program no better than the raw times.  Nothing is
     allocated, so the kernel never moves the program's collections. *)
  let arith () =
    let h = ref 1 and c = ref 0 in
    for i = 1 to 30_000 do
      h := !h lxor (!h lsl 13);
      h := !h lxor (!h lsr 7);
      h := !h lxor (!h lsl 17);
      if !h land 3 = 0 then c := !c + i
    done;
    ignore (Sys.opaque_identity (!h + !c))

  let unsorted = Array.init 1024 (fun i -> i * 7919 mod 1021)
  let scratch = Array.make 1024 0

  let sort () =
    Array.blit unsorted 0 scratch 0 1024;
    Array.sort compare scratch

  let keys =
    Array.init 512 (fun i ->
        String.make (8 + (i mod 40)) (Char.chr (97 + (i mod 26))) ^ string_of_int i)
  let table = Hashtbl.create 1024
  let () = Array.iter (fun k -> Hashtbl.replace table k (String.length k)) keys

  let lookups () =
    let acc = ref 0 in
    for _ = 1 to 12 do
      for i = 0 to Array.length keys - 1 do
        acc := !acc + Hashtbl.find table (Array.unsafe_get keys i)
      done
    done;
    ignore (Sys.opaque_identity !acc)

  let kernel () =
    arith ();
    sort ();
    lookups ()

  let reference_s = 0.8e-3
  let window = 15
  let recent = Array.make window reference_s
  let probes = Samples.create ()
  let factor = ref 1.0

  (* One untimed pass brings the kernel's data back into cache after the
     program's work; the second is timed. *)
  let probe () =
    kernel ();
    let s = cpu_now () in
    kernel ();
    let d = cpu_now () -. s in
    recent.(Samples.count probes mod window) <- d;
    Samples.add probes d;
    let sorted = Array.copy recent in
    Array.sort compare sorted;
    factor := reference_s /. sorted.(window / 2)

  let () =
    for _ = 1 to window do
      probe ()
    done
end

let raw_total = ref 0.0
let virt_total = ref 0.0
let raw0 = ref 0.0
let virt0 = ref 0.0

(* The scaled CPU clock, in seconds.  Straight-line code with no
   allocation before the result is boxed, so a probe cannot run between
   reading the CPU clock and reading the state it is scaled with. *)
let now () = !virt0 +. ((cpu_now () -. !raw0) *. !Speed.factor)

(* A probe, run from the interval timer: the clock is rebased around it,
   so the kernel's time is never on it. *)
let in_tick = ref false

let tick _ =
  if not !in_tick then begin
    in_tick := true;
    let c = cpu_now () in
    let v = !virt0 +. ((c -. !raw0) *. !Speed.factor) in
    raw_total := !raw_total +. (c -. !raw0);
    virt_total := !virt_total +. (v -. !virt0);
    Speed.probe ();
    raw0 := cpu_now ();
    virt0 := v;
    in_tick := false
  end

(* Probes run every [interval] seconds while the timer is armed: a wall
   timer, because arming a CPU-time timer makes Linux read the process CPU
   clock at scheduler-tick granularity.  It is armed for the whole run
   except while more than one domain runs (the 2-domain serve episodes of
   a traced run), where a probe could land on another domain. *)
let interval = 0.04

let set_timer v =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })

let arm () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle tick);
  set_timer interval

let disarm () = set_timer 0.0

(* Smallest positive step between consecutive reads of [clock]: its
   effective resolution on this host, in nanoseconds. *)
let resolution_ns clock =
  let best = ref infinity in
  for _ = 1 to 20_000 do
    let a = clock () in
    let b = ref (clock ()) in
    while !b = a do
      b := clock ()
    done;
    best := Float.min !best (!b -. a)
  done;
  !best *. 1e9

(* Min samples so that percentile [p] has ten samples beyond it. *)
let needed p = int_of_float (Float.ceil (10.0 /. (1.0 -. p))) + 1

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

(* [a / b], 0 when the base is empty; the base goes into the note. *)
let ratio ?(what = "") name unit_ a b =
  let v = if b = 0.0 then 0.0 else a /. b in
  metric name unit_ v ~note:(Printf.sprintf "= %g / %g%s" a b what)

(* A percentile metric with its sample count and the count beyond it. *)
let pct name unit_ ~scale samples p =
  let n = Samples.count samples in
  metric name unit_
    (scale *. Samples.percentile samples p)
    ~note:(Printf.sprintf "n=%d, %d beyond" n (Samples.beyond samples p))
