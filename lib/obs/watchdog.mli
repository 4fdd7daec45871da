(** Reclamation-progress watchdog, shared by acquire–retire and CDRC.

    Detects the paper's §2 pathology at runtime: a stalled reader pins
    the scheme's reclamation frontier and garbage accumulates behind
    it. The caller samples [(frontier, pending)] and feeds them to
    {!check}; a frontier that sits still across [threshold]
    consecutive checks while the backlog grows past [slack] yields
    [Stuck] — the supervisor's cue to find the stalled thread and
    abandon it. *)

type verdict = Progressing | Stuck of { frontier : int; pending : int }

type t

val create : ?threshold:int -> ?slack:int -> scheme:string -> unit -> t
(** [threshold] defaults to 3 strikes; [slack] (default 256) absorbs
    the sawtooth of amortized eject scans so a healthy bounded-garbage
    scheme doesn't trip it. *)

val scheme : t -> string
(** The scheme name the watchdog was created for. *)

val check : t -> pid:int -> frontier:int -> pending:int -> verdict
(** Besides returning the verdict, feeds the telemetry layer:
    per-verdict counters, the [Verdicts] sink, and a [Watchdog] trace
    event on [Stuck]. *)
