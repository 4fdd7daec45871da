(* The pinned atomic-op footprints of the lock-free cores under the
   counting shim (DESIGN.md §11). The footprint expectations are
   protocol invariants — if one moves, an algorithm's atomic cost
   changed and the new number must be justified, not just re-pinned. *)

module P = Obs.Perf

(* ---------------- counting shim ---------------- *)

module C = Sched.Counting

let test_counting_shim () =
  C.reset ();
  let r = C.make 5 in
  Alcotest.(check int) "make is free" 0 (C.total (C.snapshot ()));
  ignore (C.get r);
  C.set r 6;
  ignore (C.exchange r 7);
  Alcotest.(check bool) "cas success" true (C.compare_and_set r 7 8);
  Alcotest.(check bool) "cas failure" false (C.compare_and_set r 7 9);
  ignore (C.fetch_and_add r 1);
  let c = C.snapshot () in
  Alcotest.(check int) "gets" 1 c.C.gets;
  Alcotest.(check int) "sets" 1 c.C.sets;
  Alcotest.(check int) "exchanges" 1 c.C.exchanges;
  Alcotest.(check int) "cas" 2 c.C.cas;
  Alcotest.(check int) "cas failures" 1 c.C.cas_failures;
  Alcotest.(check int) "faa" 1 c.C.faa;
  Alcotest.(check int) "total" 6 (C.total c);
  Alcotest.(check int) "value" 9 (Atomic.get r);
  C.reset ();
  Alcotest.(check int) "reset" 0 (C.total (C.snapshot ()))

let test_pinned_atomic_footprints () =
  let profiles = Workload.Perf_runner.atomic_profiles () in
  let find core op =
    match
      List.find_opt (fun a -> a.P.a_core = core && a.P.a_op = op) profiles
    with
    | Some a -> a
    | None -> Alcotest.failf "missing profile %s/%s" core op
  in
  let expect core op ~gets ~sets ~exchanges ~cas ~faa =
    let a = find core op in
    let ops = a.P.a_ops in
    Alcotest.(check int) (core ^ "/" ^ op ^ " gets") (gets * ops) a.P.a_gets;
    Alcotest.(check int) (core ^ "/" ^ op ^ " sets") (sets * ops) a.P.a_sets;
    Alcotest.(check int) (core ^ "/" ^ op ^ " xchg") (exchanges * ops) a.P.a_exchanges;
    Alcotest.(check int) (core ^ "/" ^ op ^ " cas") (cas * ops) a.P.a_cas;
    Alcotest.(check int) (core ^ "/" ^ op ^ " cas failures") 0 a.P.a_cas_failures;
    Alcotest.(check int) (core ^ "/" ^ op ^ " faa") (faa * ops) a.P.a_faa;
    Alcotest.(check (float 0.001))
      (core ^ "/" ^ op ^ " atomics/op")
      (float_of_int (gets + sets + exchanges + cas + faa))
      (P.atomics_per_op a)
  in
  Alcotest.(check int) "8 pinned scripts" 8 (List.length profiles);
  (* Refcount hot path: one FAA up, one FAA down. *)
  expect "sticky" "inc_dec" ~gets:0 ~sets:0 ~exchanges:0 ~cas:0 ~faa:2;
  expect "sticky" "load" ~gets:1 ~sets:0 ~exchanges:0 ~cas:0 ~faa:0;
  (* Uncontended death: the final FAA plus the zero-flag CAS. *)
  expect "sticky" "death" ~gets:0 ~sets:0 ~exchanges:0 ~cas:1 ~faa:1;
  (* HP read path: pre-read + settle re-read + confirm, announce +
     release. *)
  expect "slot" "protect_release" ~gets:3 ~sets:2 ~exchanges:0 ~cas:0 ~faa:0;
  (* Eject scans 1 thread x 2 slots. *)
  expect "slot" "retire_eject" ~gets:2 ~sets:0 ~exchanges:0 ~cas:0 ~faa:0;
  expect "rc_cell" "upgrade_drop" ~gets:0 ~sets:0 ~exchanges:0 ~cas:0 ~faa:2;
  expect "rc_cell" "read" ~gets:1 ~sets:0 ~exchanges:0 ~cas:0 ~faa:0;
  (* Disposal: strong death (FAA+CAS), take (exchange), weak death
     (FAA+CAS). *)
  expect "rc_cell" "dispose" ~gets:0 ~sets:0 ~exchanges:1 ~cas:2 ~faa:2

let () =
  Alcotest.run "perf"
    [
      ( "atomics",
        [
          Alcotest.test_case "counting shim" `Quick test_counting_shim;
          Alcotest.test_case "pinned core footprints" `Quick test_pinned_atomic_footprints;
        ] );
    ]
