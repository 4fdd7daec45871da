(** The timed-run engine behind every multi-domain harness.

    [run] spawns [threads] worker domains and holds them at a start
    barrier. A worker body is staged: [body pid] runs before the
    barrier (contexts, RNGs, key generators) and returns the loop that
    runs inside the window. The timed window opens when the last
    worker has arrived and closes when the stop flag is raised,
    [duration] seconds later, so domain spawn, worker setup, flush and
    join are never timed. While the window is open the coordinating
    domain calls the caller's [sample] hook every [period] seconds;
    anything a harness does on the side (adaptive controller,
    watchdog, service ticks, breakers, fault recovery) lives in that
    hook, not here.

    Worker exceptions never escape and are never swallowed: a
    [Simheap.Use_after_free] or [Simheap.Double_free] counts as a
    safety violation ([uaf]), anything else as a worker failure
    ([failures]), and each is printed with the run's label and the
    worker's pid. Operations a worker published before it died still
    count. *)

type worker = { pid : int; stop : bool Atomic.t; counts : int Repro_util.Padded.t }

let running w = not (Atomic.get w.stop)

(** [count w n] publishes [n] more completed operations of worker [w]. *)
let count w n = Repro_util.Padded.add w.counts w.pid n

type outcome = {
  ops : int array; (* per worker *)
  total_ops : int;
  elapsed : float; (* seconds the window was open *)
  uaf : int;
  failures : int;
}

let mops o = Repro_util.Stats.throughput_mops ~ops:o.total_ops ~seconds:o.elapsed

(** The suffix every result row carries: nothing for a clean run. *)
let failure_suffix ~uaf ~failures =
  (if uaf > 0 then Printf.sprintf "  UAF=%d" uaf else "")
  ^ if failures > 0 then Printf.sprintf "  FAILED-WORKERS=%d" failures else ""

(** [run ~label ~threads ~duration body] runs [body pid] and then the
    loop it returns on each of [threads] domains (pids
    [0 .. threads-1]). [sample ~elapsed ~ops] receives the seconds since
    the window opened and the operations published so far. *)
let run ~label ~threads ~duration ?(period = 0.01)
    ?(sample = fun ~elapsed:_ ~ops:_ -> ()) (body : int -> worker -> unit) =
  let stop = Atomic.make false in
  let counts = Repro_util.Padded.create threads 0 in
  let uaf = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let m = Mutex.create () in
  let arrived = Condition.create () in
  let released = Condition.create () in
  let ready = ref 0 in
  let opened = ref false in
  let worker pid () =
    let loop = try Ok (body pid) with e -> Error e in
    Mutex.lock m;
    incr ready;
    Condition.signal arrived;
    while not !opened do
      Condition.wait released m
    done;
    Mutex.unlock m;
    let report e =
      let kind, counter =
        match e with
        | Simheap.Use_after_free _ | Simheap.Double_free _ -> ("safety violation", uaf)
        | _ -> ("died", failures)
      in
      Atomic.incr counter;
      Printf.eprintf "[%s] worker %d %s: %s\n%!" label pid kind (Printexc.to_string e)
    in
    match loop with
    | Error e -> report e
    | Ok loop -> ( try loop { pid; stop; counts } with e -> report e)
  in
  let domains = List.init threads (fun pid -> Domain.spawn (worker pid)) in
  let window () =
    Mutex.lock m;
    while !ready < threads do
      Condition.wait arrived m
    done;
    opened := true;
    Condition.broadcast released;
    Mutex.unlock m;
    let t0 = Unix.gettimeofday () in
    let deadline = t0 +. duration in
    let rec loop () =
      let now = Unix.gettimeofday () in
      if now < deadline then begin
        sample ~elapsed:(now -. t0) ~ops:(Repro_util.Padded.fold ( + ) 0 counts);
        Unix.sleepf (min period (deadline -. Unix.gettimeofday ()));
        loop ()
      end
    in
    loop ();
    Atomic.set stop true;
    Unix.gettimeofday () -. t0
  in
  let elapsed =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        List.iter Domain.join domains)
      window
  in
  let ops = Array.init threads (Repro_util.Padded.get counts) in
  {
    ops;
    total_ops = Array.fold_left ( + ) 0 ops;
    elapsed;
    uaf = Atomic.get uaf;
    failures = Atomic.get failures;
  }
