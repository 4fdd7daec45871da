(* Tests for the instrumentation and the small type-erasure modules:
   snapshot fast/slow path accounting (the Fig 11 fallback mechanism),
   weak-snapshot fallback under slot exhaustion, identity tokens,
   deferred-op plumbing, and the Histo percentiles. *)

module Ident = Smr.Ident

(* ---------------- Ident ---------------- *)

let test_ident_identity () =
  let a = ref 1 and b = ref 1 in
  Alcotest.(check bool) "same object equal" true (Ident.equal (Ident.of_val a) (Ident.of_val a));
  Alcotest.(check bool) "distinct objects differ" false
    (Ident.equal (Ident.of_val a) (Ident.of_val b));
  Alcotest.(check bool) "null is null" true (Ident.is_null Ident.null);
  Alcotest.(check bool) "object is not null" false (Ident.is_null (Ident.of_val a));
  Alcotest.(check bool) "null equals null" true (Ident.equal Ident.null Ident.null)

let test_ident_stable_across_gc () =
  let a = Array.make 10 0 in
  let id = Ident.of_val a in
  (* Force minor+major collections; physical identity must survive the
     moving GC. *)
  for _ = 1 to 5 do
    ignore (Sys.opaque_identity (Array.make 10_000 0));
    Gc.full_major ()
  done;
  Alcotest.(check bool) "identity stable across GC" true (Ident.equal id (Ident.of_val a))

(* ---------------- Deferred ---------------- *)

let test_deferred_run () =
  let got = ref (-1) in
  let op : Smr.Deferred.t = fun pid -> got := pid in
  Smr.Deferred.run op ~pid:3;
  Alcotest.(check int) "pid passed" 3 !got

(* ---------------- snapshot_stats ---------------- *)

module R_hp = Cdrc.Make (Smr.Hp)
module R_ebr = Cdrc.Make (Smr.Ebr)

let test_fast_path_counting () =
  let rt = R_ebr.create ~max_threads:1 () in
  let th = R_ebr.thread rt 0 in
  R_ebr.critically th (fun () ->
      let p = R_ebr.Shared.make th 1 in
      let cell = R_ebr.Asp.make th (R_ebr.Shared.ptr p) in
      for _ = 1 to 10 do
        let s = R_ebr.Asp.get_snapshot th cell in
        R_ebr.Snapshot.drop th s
      done;
      R_ebr.Shared.drop th p;
      R_ebr.Asp.clear th cell);
  let fast, slow = R_ebr.snapshot_stats rt in
  Alcotest.(check int) "10 fast" 10 fast;
  Alcotest.(check int) "0 slow (region scheme never exhausts)" 0 slow;
  R_ebr.quiesce rt

let test_slow_path_counting_on_exhaustion () =
  (* 2 announcement slots: the first two snapshots are fast, the rest
     spill to the count-increment slow path. *)
  let rt = R_hp.create ~slots_per_thread:2 ~max_threads:1 () in
  let th = R_hp.thread rt 0 in
  R_hp.critically th (fun () ->
      let p = R_hp.Shared.make th 1 in
      let cell = R_hp.Asp.make th (R_hp.Shared.ptr p) in
      let snaps = List.init 5 (fun _ -> R_hp.Asp.get_snapshot th cell) in
      let protected_count =
        List.length (List.filter R_hp.Snapshot.is_protected snaps)
      in
      Alcotest.(check int) "2 guard-protected" 2 protected_count;
      let fast, slow = R_hp.snapshot_stats rt in
      Alcotest.(check int) "fast count" 2 fast;
      Alcotest.(check int) "slow count" 3 slow;
      List.iter (R_hp.Snapshot.drop th) snaps;
      R_hp.Shared.drop th p;
      R_hp.Asp.clear th cell);
  R_hp.quiesce rt

let test_weak_snapshot_fallback_on_exhaustion () =
  (* With 1 dispose slot, the second concurrent weak snapshot takes the
     Fig 9 line 26 fallback (strong increment) and is not
     guard-protected. *)
  let rt = R_hp.create ~support_weak:true ~slots_per_thread:1 ~max_threads:1 () in
  let th = R_hp.thread rt 0 in
  R_hp.critically th (fun () ->
      let p = R_hp.Shared.make th 9 in
      let w = R_hp.Weak.of_shared th p in
      let cell = R_hp.Awp.make th (R_hp.Weak.ptr w) in
      let ws1 = R_hp.Awp.get_snapshot th cell in
      let ws2 = R_hp.Awp.get_snapshot th cell in
      Alcotest.(check bool) "first uses dispose guard" true
        (R_hp.Weak_snapshot.is_protected ws1);
      Alcotest.(check bool) "second fell back to an increment" false
        (R_hp.Weak_snapshot.is_protected ws2);
      (* Both must read the value regardless of path. *)
      Alcotest.(check int) "ws1 reads" 9 (R_hp.Weak_snapshot.get ws1);
      Alcotest.(check int) "ws2 reads" 9 (R_hp.Weak_snapshot.get ws2);
      R_hp.Weak_snapshot.drop th ws1;
      R_hp.Weak_snapshot.drop th ws2;
      R_hp.Weak.drop th w;
      R_hp.Shared.drop th p;
      R_hp.Awp.clear th cell);
  R_hp.quiesce rt;
  Alcotest.(check int) "no leak" 0 (R_hp.live_objects rt)

(* The driver surfaces the slow-path share for RC structures. *)
let test_set_intf_snapshot_stats () =
  let module T = Ds.Nm_tree_rc.Make (R_hp) in
  let t = T.create ~slots_per_thread:2 ~max_threads:1 () in
  let c = T.ctx t 0 in
  for k = 1 to 200 do
    ignore (T.insert c k)
  done;
  (* Deep range queries exhaust 2 slots constantly. *)
  ignore (T.range_query c 0 200);
  (match T.snapshot_stats t with
  | Some (fast, slow) ->
      Alcotest.(check bool) "counted" true (fast > 0);
      Alcotest.(check bool) "slow path exercised" true (slow > 0)
  | None -> Alcotest.fail "RC tree must report stats");
  let module M = Ds.Nm_tree_manual.Make (Smr.Ebr) in
  let m = M.create ~max_threads:1 () in
  Alcotest.(check bool) "manual reports none" true (M.snapshot_stats m = None);
  M.teardown m;
  T.teardown t

(* ---------------- telemetry counters (lib/obs) ---------------- *)

(* Scripted single-domain HP sequence with exact expected counters:
   2 slots, so the third try_acquire exhausts; one confirm against a
   changed target retries; 5 retires all deliver on a forced eject. *)
let test_hp_scripted_counters () =
  Obs.Report.reset_all ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      let module H = Smr.Hp in
      let t = H.create ~slots_per_thread:2 ~max_threads:1 () in
      let pid = 0 in
      (* The refs anchor their idents: tokens are physical identities. *)
      let r1 = ref 1 and r2 = ref 2 and r3 = ref 3 in
      let id1 = Smr.Ident.of_val r1
      and id2 = Smr.Ident.of_val r2
      and id3 = Smr.Ident.of_val r3 in
      H.begin_critical_section t ~pid;
      let g1 = Option.get (H.try_acquire t ~pid id1) in
      let g2 = Option.get (H.try_acquire t ~pid id2) in
      Alcotest.(check bool) "third acquire exhausts" true (H.try_acquire t ~pid id3 = None);
      Alcotest.(check bool) "changed target fails confirm" false (H.confirm t ~pid g1 id3);
      Alcotest.(check bool) "re-announced confirm settles" true (H.confirm t ~pid g1 id3);
      H.release t ~pid g1;
      H.release t ~pid g2;
      H.end_critical_section t ~pid;
      let anchors = Array.init 5 (fun i -> ref (100 + i)) in
      let ran = ref 0 in
      Array.iter
        (fun r -> H.retire t ~pid (Smr.Ident.of_val r) ~birth:0 (fun _ -> incr ran))
        anchors;
      List.iter (fun op -> op pid) (H.eject ~force:true t ~pid);
      let v = Obs.Metrics.value in
      Alcotest.(check int) "acquire" 2 (v "smr.hp.acquire");
      Alcotest.(check int) "slot_exhausted" 1 (v "smr.hp.slot_exhausted");
      Alcotest.(check int) "confirm_retry" 1 (v "smr.hp.confirm_retry");
      Alcotest.(check int) "retire" 5 (v "smr.hp.retire");
      Alcotest.(check int) "eject scans" 1 (v "smr.hp.eject.scans");
      Alcotest.(check int) "eject ops" 5 (v "smr.hp.eject.ops");
      Alcotest.(check int) "delivered ops ran" 5 !ran;
      Alcotest.(check int) "backlog empty" 0 (H.retired_count t ~pid))

(* The PR's deterministic-accounting criterion: single domain, fixed op
   count, for every scheme the retire counter equals delivered eject
   ops plus the remaining backlog — checked before teardown, whose
   [drain_all] path legitimately bypasses the eject counters. *)
let accounting_schemes : (module Smr.Smr_intf.S) list =
  [
    (module Smr.Ebr);
    (module Smr.Ibr);
    (module Smr.Hp);
    (module Smr.Hazard_eras);
    (module Smr.Hyaline);
    (module Smr.Ptb);
    (module Smr.Leaky);
  ]

let test_accounting_identity () =
  List.iter
    (fun (module S : Smr.Smr_intf.S) ->
      Obs.Report.reset_all ();
      Obs.Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Obs.Metrics.set_enabled false)
        (fun () ->
          let module St = Ds.Treiber_stack_manual.Make (S) in
          let s = St.create ~max_threads:1 () in
          let c = St.ctx s 0 in
          for i = 1 to 300 do
            St.push c i;
            ignore (St.pop c)
          done;
          St.flush c;
          let lower = String.lowercase_ascii S.name in
          let retire = Obs.Metrics.value ("smr." ^ lower ^ ".retire") in
          let delivered = Obs.Metrics.value ("smr." ^ lower ^ ".eject.ops") in
          let backlog = St.Ar.total_pending s.St.ar in
          Alcotest.(check int) (S.name ^ ": one retire per pop") 300 retire;
          Alcotest.(check int)
            (S.name ^ ": retire = delivered + backlog")
            retire (delivered + backlog);
          St.teardown s))
    accounting_schemes

(* 4 domains, distinct pids, one shared counter: the merged total must
   be the exact sum of per-domain increments (the single-writer-per-
   shard contract of [Obs.Metrics]). *)
let counter_merge_prop =
  QCheck.Test.make ~name:"merged counter total = sum of per-domain increments" ~count:25
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (a, b, c, d) ->
      Obs.Report.reset_all ();
      Obs.Metrics.set_enabled true;
      let ctr = Obs.Metrics.counter "test.merge.total" in
      let ns = [| a; b; c; d |] in
      let ds =
        List.init 4 (fun i ->
            Domain.spawn (fun () ->
                for _ = 1 to ns.(i) do
                  Obs.Metrics.incr ctr ~pid:i
                done))
      in
      List.iter Domain.join ds;
      Obs.Metrics.set_enabled false;
      Obs.Metrics.total ctr = a + b + c + d)

(* ---------------- Histo quantiles ---------------- *)

(* Histo's bucketed percentiles against the exact nearest-rank
   percentile of the raw values: the bucket of the exact answer. The
   samples land in several per-domain shards, so this also covers the
   merge that [Driver.reclaim_p99] and the KV latency columns rely on. *)
let test_quantiles_match_histo () =
  Obs.Report.reset_all ();
  Obs.Metrics.set_enabled true;
  let h = Obs.Histo.histo "test.quantiles" in
  let rng = Repro_util.Rng.create ~seed:11 in
  let raw =
    Array.init 5000 (fun i ->
        let v = Repro_util.Rng.int rng 100_000 in
        Obs.Histo.observe h ~pid:(i mod 4) v;
        float_of_int v)
  in
  let exact p =
    Obs.Histo.bucket_upper (Obs.Histo.bucket_of (int_of_float (Repro_util.Stats.percentile raw p)))
  in
  Alcotest.(check int) "count" 5000 (Obs.Histo.count h);
  (match Obs.Histo.percentiles h with
  | Some (p50, p99, p999) ->
      Alcotest.(check int) "p50" (exact 50.0) p50;
      Alcotest.(check int) "p99" (exact 99.0) p99;
      Alcotest.(check int) "p999" (exact 99.9) p999
  | None -> Alcotest.fail "histo empty");
  Obs.Metrics.set_enabled false;
  Obs.Report.reset_all ();
  Alcotest.(check bool) "empty after reset" true (Obs.Histo.percentiles h = None)

let () =
  Alcotest.run "instrumentation"
    [
      ( "ident",
        [
          Alcotest.test_case "identity" `Quick test_ident_identity;
          Alcotest.test_case "stable across GC" `Quick test_ident_stable_across_gc;
        ] );
      ("deferred", [ Alcotest.test_case "run" `Quick test_deferred_run ]);
      ( "snapshot stats",
        [
          Alcotest.test_case "fast path counting" `Quick test_fast_path_counting;
          Alcotest.test_case "slow path on exhaustion" `Quick test_slow_path_counting_on_exhaustion;
          Alcotest.test_case "weak fallback on exhaustion" `Quick
            test_weak_snapshot_fallback_on_exhaustion;
          Alcotest.test_case "Set_intf stats" `Quick test_set_intf_snapshot_stats;
        ] );
      ( "telemetry counters",
        [
          Alcotest.test_case "scripted HP sequence" `Quick test_hp_scripted_counters;
          Alcotest.test_case "accounting identity, all schemes" `Quick
            test_accounting_identity;
          QCheck_alcotest.to_alcotest counter_merge_prop;
        ] );
      ("quantiles", [ Alcotest.test_case "agree with Histo" `Quick test_quantiles_match_histo ]);
    ]
