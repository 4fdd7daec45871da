(** Generalized acquire–retire (paper §3.1, Fig 2).

    This layer packages any manual SMR scheme as the paper's
    generalized interface: [alloc] / [retire] / [eject] plus critical
    sections and the typed [acquire] / [protect] / [release] protocol.
    It is the one place outside the schemes that runs the
    announce/confirm protocol or ejects: the manual data structures
    use one instance, and reference counting ([Cdrc]) uses three —
    strong decrements, weak decrements and disposals (Figs 5 and 8).

    Differences from Fig 2, forced by OCaml and documented in
    DESIGN.md: [alloc] wraps an existing value in a {!Make.managed}
    record (carrying the birth tag and the simulated-heap block) rather
    than calling a constructor; [eject] returns deferred closures for
    the caller to run (never reentrantly — use {!Make.reclaim} or
    {!Make.drain}); the typed read of the shared location is supplied
    by the caller as a read function. *)

(** The announcement-slot kernel of the Fig 2 protocol, functorized
    over the atomic shim for deterministic schedule exploration
    (DESIGN.md §8). *)
module Slot_protocol = Slot_protocol

module Make (S : Smr.Smr_intf.S) = struct
  type guard = S.guard

  type t = {
    smr : S.t;
    heap : Simheap.t;
    wd : Obs.Watchdog.t; (* default-tuned progress watchdog, see {!watchdog_check} *)
  }

  (* AR-level eject batch sizes: unlike the scheme-level histogram this
     sees the batches the caller drains, i.e. after any fault-injection
     wrapper has had its say, and it includes reference counting's
     deferred decrements and disposals. *)
  let eject_batch_h = Obs.Histo.histo ("ar." ^ String.lowercase_ascii S.name ^ ".eject.batch_size")

  (** A value under acquire–retire management. [alloc] is part of the
      Fig 2 interface because IBR and HE must tag each object with a
      birth epoch at allocation time. *)
  type 'a managed = { value : 'a; birth : int; block : Simheap.block }

  let create ?epoch_freq ?cleanup_freq ?slots_per_thread ?heap ~max_threads () =
    let heap =
      match heap with Some h -> h | None -> Simheap.create ~name:("ar-" ^ S.name) ()
    in
    {
      smr = S.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads ();
      heap;
      wd = Obs.Watchdog.create ~scheme:S.name ();
    }

  let heap t = t.heap
  let max_threads t = S.max_threads t.smr

  let handle t =
    {
      Smr.Knobs.h_scheme = S.name;
      h_knobs = S.knobs t.smr;
      h_force_advance = (fun () -> S.force_advance t.smr);
    }

  (** The birth tag for an object about to be published, for callers
      that manage their own records (reference counting's control
      blocks); {!alloc} is this plus a heap block. *)
  let birth_tag t ~pid = S.alloc_hook t.smr ~pid

  (* The hook runs strictly before the heap allocation: if it raises
     (fault injection crashing the thread), no block exists yet and
     nothing can leak. *)
  let alloc t ~pid value =
    let birth = birth_tag t ~pid in
    let block = Simheap.alloc t.heap in
    { value; birth; block }

  let get (m : _ managed) =
    Simheap.check_live m.block;
    m.value

  let is_live (m : _ managed) = Simheap.is_live m.block
  let ident (m : _ managed) = Smr.Ident.of_val m

  let begin_critical_section t ~pid = S.begin_critical_section t.smr ~pid
  let end_critical_section t ~pid = S.end_critical_section t.smr ~pid

  let critically t ~pid f =
    begin_critical_section t ~pid;
    Fun.protect ~finally:(fun () -> end_critical_section t ~pid) f

  (* The two-phase announce/confirm protocol described in
     [Smr.Smr_intf]. [read loc] loads the shared location and [ident]
     projects the identity token the scheme announces and validates;
     keeping [read] and [loc] apart lets callers pass [Atomic.get]
     itself, so protecting a cell allocates no closure. The guard has
     already announced the first read; re-read until [confirm] accepts
     the announcement for the latest value. *)
  let rec settle smr ~pid g read loc ident =
    let v = read loc in
    if S.confirm smr ~pid g (ident v) then v else settle smr ~pid g read loc ident

  (* When confirm is constantly true (EBR, Hyaline, None) the ambient
     critical section already protects the first load: the single-load
     fast path that makes region schemes cheap (paper §2). *)
  let acquire_at t ~pid read loc ident =
    if S.confirm_is_trivial then
      let g = S.acquire t.smr ~pid Smr.Ident.null in
      (read loc, g)
    else
      let g = S.acquire t.smr ~pid (ident (read loc)) in
      (settle t.smr ~pid g read loc ident, g)

  let try_acquire_at t ~pid read loc ident =
    if S.confirm_is_trivial then
      match S.try_acquire t.smr ~pid Smr.Ident.null with
      | Some g -> Some (read loc, g)
      | None -> None
    else
      match S.try_acquire t.smr ~pid (ident (read loc)) with
      | Some g -> Some (settle t.smr ~pid g read loc ident, g)
      | None -> None

  (** Protect the value [read ()] returns, using the thread's reserved
      slot (never fails; at most one such guard per thread). *)
  let acquire t ~pid ~(read : unit -> 'v) ~(ident : 'v -> Smr.Ident.t) : 'v * guard =
    acquire_at t ~pid read () ident

  (** Like {!acquire} with a free slot; [None] when the slots are
      exhausted (HP, HE, PTB). *)
  let try_acquire t ~pid ~(read : unit -> 'v) ~(ident : 'v -> Smr.Ident.t) :
      ('v * guard) option =
    try_acquire_at t ~pid read () ident

  (** {!acquire} over an atomic cell: the protected current value of
      [loc] and its guard. *)
  let protect t ~pid ~(ident : 'v -> Smr.Ident.t) (loc : 'v Atomic.t) : 'v * guard =
    acquire_at t ~pid Atomic.get loc ident

  (** {!try_acquire} over an atomic cell. *)
  let try_protect t ~pid ~(ident : 'v -> Smr.Ident.t) (loc : 'v Atomic.t) :
      ('v * guard) option =
    try_acquire_at t ~pid Atomic.get loc ident

  (** Protect a fixed identity [id] that the caller already reached
      through protected memory (a queue successor, a control block
      whose disposal must be held off), with a free slot. The caller
      must re-validate its path to [id] afterwards. *)
  let try_protect_ident t ~pid id =
    match S.try_acquire t.smr ~pid id with
    | Some g ->
        if not S.confirm_is_trivial then ignore (settle t.smr ~pid g Fun.id id Fun.id);
        Some g
    | None -> None

  let release t ~pid g = S.release t.smr ~pid g

  (** Defer [op] on the object identified by [id] (born with [birth],
      from {!birth_tag}) until no guard active now still protects it. *)
  let retire_ident t ~pid id ~birth op = S.retire t.smr ~pid id ~birth op

  let retire t ~pid (m : _ managed) (op : Smr.Deferred.t) =
    retire_ident t ~pid (ident m) ~birth:m.birth op

  (** Manual-SMR convenience: retire with the deferred operation being
      the reclamation itself. *)
  let retire_free t ~pid (m : _ managed) =
    retire t ~pid m (fun _pid -> Simheap.free m.block)

  (** Deferred operations now safe to run; the scheme applies the
      live [Knobs.batch_cap] to the thread's own queue unless
      [~force]. *)
  let eject ?force t ~pid =
    let ops = S.eject ?force t.smr ~pid in
    (match ops with [] -> () | _ -> Obs.Histo.observe eject_batch_h ~pid (List.length ops));
    ops

  let rec run pid = function
    | [] -> ()
    | op :: ops ->
        op pid;
        run pid ops

  (** Eject, then run the released operations as [pid]. The manual
      structures call this right after each retire. *)
  let reclaim t ~pid = run pid (eject t ~pid)

  (** Run every ejectable deferred operation. Safe against cascades:
      operations executed here may retire further objects; we loop
      until [eject] yields nothing, never recursing into a running
      operation. *)
  let rec drain t ~pid =
    match eject ~force:true t ~pid with
    | [] -> ()
    | ops ->
        run pid ops;
        drain t ~pid

  (** Crash recovery: reap [pid]'s scheme state (close its critical
      section, clear announcements, orphan its retired entries for
      adoption). Call once, after the thread has truly stopped. *)
  let abandon t ~pid = S.abandon t.smr ~pid

  (** Retired entries not yet ejected, over all threads. Hyaline keeps
      one global list and reports it against pid 0 only, so the sum
      counts each entry once for every scheme. *)
  let total_pending t =
    let acc = ref 0 in
    for pid = 0 to S.max_threads t.smr - 1 do
      acc := !acc + S.retired_count t.smr ~pid
    done;
    !acc

  (** {2 Epoch watchdog}

      Detects the paper's §2 pathology at runtime: a thread stalled
      inside a critical section pins the scheme's reclamation frontier,
      and for a protected-region scheme like EBR {e all} garbage
      retired since then accumulates behind it. The watchdog samples
      (frontier, pending retired entries) and reports a stuck verdict
      once the frontier has sat still across [threshold] consecutive
      checks while the backlog grew by more than [slack] entries since
      the frontier last moved — the supervisor's cue to find the
      stalled thread and [abandon] it. The [slack] absorbs the sawtooth
      of amortized eject scans, so a healthy bounded-garbage scheme
      (IBR with one stalled thread: frontier pinned but backlog capped)
      doesn't trip it. Schemes without a global clock (HP, PTB,
      Hyaline) never report stuck: their garbage is already bounded per
      stalled thread. *)

  type watchdog = Obs.Watchdog.t

  let watchdog ?threshold ?slack () = Obs.Watchdog.create ?threshold ?slack ~scheme:S.name ()

  (** Feed [w] this instance's frontier and [pending]; [Some verdict]
      ("<scheme>: stuck (frontier=… pending=…)", named after [w]'s
      scheme) when the frontier is stuck behind a growing backlog. The
      counters, verdict sink and trace event live in [Obs.Watchdog]. *)
  let stuck t (w : watchdog) ~pending =
    match S.reclamation_frontier t.smr with
    | None -> None
    | Some frontier -> (
        match Obs.Watchdog.check w ~pid:0 ~frontier ~pending with
        | Obs.Watchdog.Progressing -> None
        | Obs.Watchdog.Stuck { frontier; pending } ->
            Some
              (Printf.sprintf "%s: stuck (frontier=%d pending=%d)" (Obs.Watchdog.scheme w)
                 frontier pending))

  (** {!stuck} on the instance's own default watchdog and backlog. *)
  let watchdog_check t = stuck t t.wd ~pending:(total_pending t)

  (** Every pending deferred operation from all threads. Only sound at
      quiescence (see [Smr_intf.drain_all]). *)
  let drain_all t = S.drain_all t.smr

  (** Teardown at quiescence: apply every pending deferred operation,
      including cascades. Requires no concurrent activity. *)
  let rec quiesce t =
    match drain_all t with
    | [] -> ()
    | ops ->
        run 0 ops;
        quiesce t
end
