(** Exact atomic-op profiles of the three lock-free cores (DESIGN.md
    §11): each core re-instantiated over the {!Sched.Counting} shim and
    driven through a pinned single-domain script. test/test_perf.ml
    pins the per-op counts and perfbench reports them as
    [atomics.<core>.<op>]. *)

(* The three schedule-explored cores, re-instantiated over the
   counting shim. Counts are exact and deterministic: each script is
   single-domain, contention-free, and pinned so its per-op cost is a
   protocol invariant, not a measurement. *)
module C = Sched.Counting
module Sticky_c = Sticky.Sticky_counter_f.Make (C)
module Slot_c = Acquire_retire.Slot_protocol.Make (C)
module Cell_c = Cdrc.Rc_cell.Make (C)

let profile_ops = 1000

let profile ~core ~op body : Obs.Perf.atomic_profile =
  C.reset ();
  for _ = 1 to profile_ops do
    body ()
  done;
  let c = C.snapshot () in
  {
    Obs.Perf.a_core = core;
    a_op = op;
    a_ops = profile_ops;
    a_gets = c.C.gets;
    a_sets = c.C.sets;
    a_exchanges = c.C.exchanges;
    a_cas = c.C.cas;
    a_cas_failures = c.C.cas_failures;
    a_faa = c.C.faa;
  }

let atomic_profiles () =
  let sticky = Sticky_c.create 1 in
  let slots = Slot_c.create ~slots_per_thread:2 ~max_threads:1 () in
  let shared = C.make 7 in
  let cell = Cell_c.make 0 in
  [
    (* Revive-free increment + non-final decrement: the refcount hot
       path. 2 FAA/op. *)
    profile ~core:"sticky" ~op:"inc_dec" (fun () ->
        ignore (Sticky_c.increment_if_not_zero sticky);
        ignore (Sticky_c.decrement sticky));
    (* Linearizable read of a live counter. 1 get/op. *)
    profile ~core:"sticky" ~op:"load" (fun () -> ignore (Sticky_c.load sticky));
    (* Uncontended death: final decrement announces with one CAS. *)
    profile ~core:"sticky" ~op:"death" (fun () ->
        let t = Sticky_c.create 1 in
        ignore (Sticky_c.decrement t));
    (* Announce→confirm→release on an unchanging location: the
       hazard-pointer read path. 3 gets (pre-read, settle re-read,
       confirm) + 2 sets (announce, release) per op — the [read]
       closure is itself a counted get. *)
    profile ~core:"slot" ~op:"protect_release" (fun () ->
        let _, g = Slot_c.protect_read slots ~pid:0 ~read:(fun () -> C.get shared) in
        Slot_c.release slots ~pid:0 g);
    (* Retire one identity and eject it: the scan reads every slot. *)
    profile ~core:"slot" ~op:"retire_eject" (fun () ->
        Slot_c.retire slots ~pid:0 1 (fun () -> ());
        ignore (Slot_c.eject slots ~pid:0));
    (* Fig 9 weak upgrade + matching drop on a live control block. *)
    profile ~core:"rc_cell" ~op:"upgrade_drop" (fun () ->
        ignore (Cell_c.try_upgrade cell);
        ignore (Cell_c.strong_decrement cell));
    (* Value-cell dereference. 1 get/op. *)
    profile ~core:"rc_cell" ~op:"read" (fun () -> ignore (Cell_c.read cell));
    (* Full disposal: final strong decrement, take the value, final
       weak decrement frees the block. *)
    profile ~core:"rc_cell" ~op:"dispose" (fun () ->
        let cb = Cell_c.make 0 in
        ignore (Cell_c.strong_decrement cb);
        ignore (Cell_c.take cb);
        ignore (Cell_c.weak_decrement cb));
  ]

(* The pinned per-op expectations for these scripts live in
   test/test_perf.ml; a change there is a change to a core protocol's
   atomic footprint and should be deliberate. *)
