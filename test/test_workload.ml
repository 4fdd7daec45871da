(* Tests for the benchmark harness itself: the run engine must time
   only its window, count every worker's operations and classify
   worker exceptions; the driver must prefill to the requested size,
   count operations, sample memory, and leave no leaks; the experiment
   registry must cover every figure and reject unknown scheme names;
   the fig12 queue loop must conserve elements. *)

module L_ebr = Ds.Hm_list_manual.Make (Smr.Ebr)
module D = Workload.Driver.Run (L_ebr)

let tiny_spec =
  {
    Workload.Driver.default_spec with
    threads = 2;
    duration = 0.1;
    key_range = 256;
    init_size = 128;
    update_pct = 20;
  }

let test_driver_basics () =
  let r = D.run ~spec:tiny_spec () in
  Alcotest.(check string) "scheme name" "EBR" r.scheme;
  Alcotest.(check bool) "performed ops" true (r.total_ops > 0);
  (* No wall-clock bounds: they are flaky on loaded machines. Check the
     measurement is internally consistent instead — elapsed is positive
     and the reported throughput derives from ops/elapsed. *)
  Alcotest.(check bool) "elapsed positive" true (r.elapsed > 0.);
  Alcotest.(check bool) "throughput positive" true (r.mops > 0.);
  let derived = float_of_int r.total_ops /. r.elapsed /. 1e6 in
  Alcotest.(check bool) "mops consistent with ops/elapsed" true
    (abs_float (r.mops -. derived) <= 0.05 *. derived);
  Alcotest.(check bool) "live average near init size" true
    (r.live_avg > 64. && r.live_avg < 512.);
  Alcotest.(check int) "no leak" 0 r.leaked;
  Alcotest.(check int) "no uaf on EBR" 0 r.uaf

let test_driver_deterministic_prefill () =
  (* Same seed => same prefill contents: verify via size only (the
     driver owns teardown, so probe with a fresh structure). *)
  let d = L_ebr.create ~max_threads:1 () in
  let c = L_ebr.ctx d 0 in
  let rng = Repro_util.Rng.create ~seed:tiny_spec.seed in
  let filled = ref 0 in
  while !filled < tiny_spec.init_size do
    if L_ebr.insert c (Repro_util.Rng.int rng tiny_spec.key_range) then incr filled
  done;
  Alcotest.(check int) "prefill reaches target" tiny_spec.init_size (L_ebr.size d);
  L_ebr.teardown d

let test_registry_covers_figures () =
  let ids =
    List.map (fun e -> e.Workload.Experiments.id) Workload.Experiments.set_experiments
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true (List.mem id ids))
    [ "fig11"; "fig13a"; "fig13b"; "fig13c"; "fig13d"; "fig13e"; "fig13f" ]

let test_instance_matrix_complete () =
  List.iter
    (fun s ->
      let names =
        List.map
          (fun (module D : Ds.Set_intf.S) -> D.name)
          (Workload.Instances.all_sets s)
      in
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Workload.Instances.structure_name s ^ "/" ^ n)
            true (List.mem n names))
        [ "EBR"; "IBR"; "Hyaline"; "HP"; "HE"; "PTB"; "RCEBR"; "RCIBR"; "RCHyaline"; "RCHP"; "RCHE"; "RCPTB" ])
    [ Workload.Instances.List_s; Hash_s; Tree_s ];
  Alcotest.(check int) "8 queue instances" 8 (List.length Workload.Instances.queues)

let test_find_set () =
  (match Workload.Instances.find_set Workload.Instances.Tree_s "rcebr" with
  | Some (module D : Ds.Set_intf.S) -> Alcotest.(check string) "found" "RCEBR" D.name
  | None -> Alcotest.fail "RCEBR not found");
  Alcotest.(check bool) "unknown scheme" true
    (Workload.Instances.find_set Workload.Instances.Tree_s "nope" = None)

let test_select_rejects_unknown () =
  let module I = Workload.Instances in
  let unknown name f =
    Alcotest.check_raises name (I.Unknown_scheme "BOGUS") (fun () -> ignore (f ()))
  in
  unknown "sets" (fun () -> I.select_sets I.Hash_s [ "RCEBR"; "BOGUS" ]);
  unknown "queues" (fun () -> I.select_queues [ "BOGUS" ]);
  unknown "kv" (fun () -> I.select_kv [ "BOGUS" ]);
  unknown "chaos" (fun () -> Workload.Chaos_runner.select_schemes [ "BOGUS" ]);
  (* The runners resolve names before they run or print anything. *)
  unknown "fig12" (fun () -> Workload.Experiments.run_fig12 ~schemes:[ "BOGUS" ] ());
  unknown "robustness" (fun () -> Workload.Experiments.run_robustness ~schemes:[ "BOGUS" ] ());
  Alcotest.(check (list string))
    "request order, case-insensitive, RC alias" [ "HP"; "EBR" ]
    (List.map fst (I.select_kv [ "hp"; "RC-EBR" ]));
  Alcotest.(check int) "empty selects all" (List.length I.queues)
    (List.length (I.select_queues []))

let test_queue_driver () =
  let r =
    Workload.Experiments.run_queue_instance
      (module Workload.Instances.Q_manual)
      ~threads:2 ~duration:0.1
  in
  Alcotest.(check bool) "ops" true (r.q_run.total_ops > 0);
  Alcotest.(check int) "no failures" 0 (r.q_run.uaf + r.q_run.failures);
  Alcotest.(check int) "no leak" 0 r.q_leaked

(* ---------------- the run engine ---------------- *)

module Run = Workload.Run

(* Busy workers that publish one op per iteration until stopped. *)
let spin (w : Run.worker) =
  while Run.running w do
    Run.count w 1;
    Domain.cpu_relax ()
  done

let test_run_counts () =
  let samples = ref 0 in
  let o =
    Run.run ~label:"count" ~threads:2 ~duration:0.05
      ~sample:(fun ~elapsed:_ ~ops:_ -> incr samples)
      (fun _ -> spin)
  in
  Alcotest.(check int) "total is the sum of per-worker counts"
    (Array.fold_left ( + ) 0 o.ops) o.total_ops;
  Alcotest.(check bool) "every worker counted" true (Array.for_all (fun n -> n > 0) o.ops);
  Alcotest.(check bool) "sampler ran" true (!samples >= 1);
  Alcotest.(check int) "no failures" 0 (o.uaf + o.failures)

let test_run_failure_isolated () =
  let o =
    Run.run ~label:"fail" ~threads:3 ~duration:0.05 (fun pid ->
        if pid = 0 then fun w ->
          Run.count w 5;
          failwith "boom"
        else spin)
  in
  Alcotest.(check int) "one failure" 1 o.failures;
  Alcotest.(check int) "no uaf" 0 o.uaf;
  Alcotest.(check int) "ops published before dying count" 5 o.ops.(0);
  Alcotest.(check bool) "survivors finished" true (o.ops.(1) > 0 && o.ops.(2) > 0)

let test_run_uaf_classified () =
  let o =
    Run.run ~label:"uaf" ~threads:2 ~duration:0.05 (fun pid ->
        if pid = 0 then fun _ -> raise (Simheap.Use_after_free "probe") else spin)
  in
  Alcotest.(check int) "one uaf" 1 o.uaf;
  Alcotest.(check int) "not a failure" 0 o.failures

let test_run_window_excludes_setup () =
  (* Setup before the barrier and a slow flush after the stop flag
     both sit outside the timed window. *)
  let o =
    Run.run ~label:"window" ~threads:2 ~duration:0.05 (fun _ ->
        Unix.sleepf 0.2;
        fun w ->
          spin w;
          Unix.sleepf 0.2)
  in
  Alcotest.(check bool)
    (Printf.sprintf "elapsed %.3fs < 0.2s" o.elapsed)
    true
    (o.elapsed >= 0.05 && o.elapsed < 0.2)

let test_rows_show_failures () =
  let failed = { Run.ops = [| 1 |]; total_ops = 1; elapsed = 1.; uaf = 0; failures = 1 } in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let row pp r = Format.asprintf "%a" pp r in
  let shows name s = Alcotest.(check bool) name true (contains s "FAILED-WORKERS=1") in
  shows "queue row"
    (row Workload.Experiments.pp_queue_result
       { q_scheme = "Q"; q_threads = 1; q_run = failed; q_leaked = 0 });
  let r = D.run ~spec:{ tiny_spec with duration = 0.02 } () in
  shows "driver row" (row Workload.Driver.pp_result { r with worker_failures = 1 });
  Alcotest.(check bool) "clean run shows none" false
    (contains (row Workload.Driver.pp_result r) "FAILED-WORKERS");
  let rb =
    Workload.Experiments.run_robustness_one ~duration:0.02 (module Smr.Hp : Smr.Smr_intf.S)
  in
  shows "robustness row"
    (row Workload.Experiments.pp_robustness_result { rb with rb_failures = 1 });
  let kv =
    Workload.Kv_runner.run_one
      ~spec:{ Workload.Kv_runner.default_spec with threads = 1; duration = 0.02; keys = 256 }
      (List.hd Workload.Instances.kv_services)
  in
  shows "kv row" (row Workload.Kv_runner.pp_result { kv with r_failures = 1 });
  (* ext-stack and abl-sticky print this suffix inline. *)
  shows "suffix" (Run.failure_suffix ~uaf:0 ~failures:1)

let () =
  Alcotest.run "workload"
    [
      ( "driver",
        [
          Alcotest.test_case "basics" `Slow test_driver_basics;
          Alcotest.test_case "deterministic prefill" `Quick test_driver_deterministic_prefill;
        ] );
      ( "registry",
        [
          Alcotest.test_case "figures covered" `Quick test_registry_covers_figures;
          Alcotest.test_case "instance matrix" `Quick test_instance_matrix_complete;
          Alcotest.test_case "find_set" `Quick test_find_set;
          Alcotest.test_case "unknown schemes rejected" `Quick test_select_rejects_unknown;
        ] );
      ("queue driver", [ Alcotest.test_case "basics" `Slow test_queue_driver ]);
      ( "run engine",
        [
          Alcotest.test_case "op counts and sampler" `Quick test_run_counts;
          Alcotest.test_case "worker failure isolated" `Quick test_run_failure_isolated;
          Alcotest.test_case "uaf classified" `Quick test_run_uaf_classified;
          Alcotest.test_case "window excludes setup and flush" `Quick
            test_run_window_excludes_setup;
          Alcotest.test_case "rows show failed workers" `Slow test_rows_show_failures;
        ] );
    ]
