(* Reclamation-progress watchdog, shared by acquire–retire and CDRC.

   Detects the paper's §2 pathology at runtime: a stalled reader pins
   the scheme's reclamation frontier and garbage accumulates behind it.
   The caller samples (frontier, total pending retired entries) and
   feeds them to [check]. A frontier move resets the state (and
   re-baselines the backlog); a frontier that sits still across
   [threshold] consecutive checks while the backlog grew by more than
   [slack] entries since it last moved yields [Stuck] — the
   supervisor's cue to find the stalled thread and abandon it. [slack]
   absorbs the sawtooth of amortized eject scans so a healthy
   bounded-garbage scheme doesn't trip it.

   Besides returning the verdict, [check] feeds the telemetry layer:
   per-verdict counters in the registry, a bounded string sink
   ([Verdicts]) the driver drains into its result record, and a
   [Watchdog] event on the trace ring. *)

type verdict = Progressing | Stuck of { frontier : int; pending : int }

type t = {
  scheme : string;
  threshold : int;
  slack : int;
  mutable last_frontier : int;
  mutable baseline : int; (* pending when the frontier last moved *)
  mutable strikes : int;
  progressing_c : Metrics.counter;
  stuck_c : Metrics.counter;
}

let create ?(threshold = 3) ?(slack = 256) ~scheme () =
  let prefix = "ar." ^ String.lowercase_ascii scheme ^ ".watchdog." in
  {
    scheme;
    threshold;
    slack;
    last_frontier = min_int;
    baseline = max_int;
    strikes = 0;
    progressing_c = Metrics.counter (prefix ^ "progressing");
    stuck_c = Metrics.counter (prefix ^ "stuck");
  }

let scheme t = t.scheme

let verdict_string t ~frontier ~pending =
  Printf.sprintf "%s: stuck (frontier=%d pending=%d strikes=%d)" t.scheme frontier pending
    t.strikes

let check t ~pid ~frontier ~pending =
  if frontier <> t.last_frontier then begin
    t.last_frontier <- frontier;
    t.baseline <- pending;
    t.strikes <- 0;
    Metrics.incr t.progressing_c ~pid;
    Progressing
  end
  else begin
    t.strikes <- t.strikes + 1;
    if t.strikes >= t.threshold && pending >= t.baseline + t.slack then begin
      Metrics.incr t.stuck_c ~pid;
      let s = verdict_string t ~frontier ~pending in
      Verdicts.record s;
      Trace.emit ~pid (Trace.Watchdog { scheme = t.scheme; verdict = s });
      Stuck { frontier; pending }
    end
    else begin
      Metrics.incr t.progressing_c ~pid;
      Progressing
    end
  end
