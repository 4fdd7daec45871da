(* Benchmark worker. run.py is the user-facing command; it spawns

     bench.exe info
     bench.exe cell WORKLOAD CONFIG SEED SECONDS TRACE SPANS_FILE
     bench.exe kernels QUOTA_S SPANS_FILE

   and each prints one JSON object on stdout.

   A cell builds and prefills the workload's structure [setups] times
   (run.py takes the median set-up time), warms up, then measures one
   closed-loop pass with telemetry off. With TRACE = 1 two more passes
   follow, each on a fresh, warmed-up structure: a traced pass with
   Obs.Metrics and Obs.Trace on, whose counters give the per-layer
   figures and whose spans go to SPANS_FILE, and a pass that takes GC
   deltas and pauses and samples live objects. Every pass ends with the
   workload's correctness checks and a leak check after teardown. The
   worker prints raw figures (window rates, sparse latency histograms);
   run.py computes every throughput and percentile from them. *)

let setups = 3
let warmup_s seconds = Float.min 0.2 (0.1 *. seconds)

(* ---------------- JSON output ---------------- *)

let num f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
let str s = "\"" ^ Obs.Trace.json_escape s ^ "\""
let obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"
let arr xs = "[" ^ String.concat "," xs ^ "]"

(* ---------------- cells ---------------- *)

let per x n = if n = 0 then 0. else float_of_int x /. float_of_int n

(* Each worker's closed windows, oldest first, as [[Mops/s, probe ns], ...]. *)
let windows (passes : Runloop.pass array) =
  arr
    (Array.to_list
       (Array.map
          (fun (w : Runloop.pass) ->
            arr (List.rev_map (fun (r, pr) -> arr [ num r; num pr ]) w.windows))
          passes))

let with_spans path f =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* Telemetry-side figures of the traced pass, per completed op. *)
let obs_layer ~cfg ~ops =
  let s = if String.ends_with ~suffix:"HP" cfg then "hp" else "ebr" in
  let v name = Obs.Metrics.value name in
  let p99 name = Option.value ~default:0 (Obs.Histo.percentile (Obs.Histo.histo name) 99.) in
  let p50 name = Option.value ~default:0 (Obs.Histo.percentile (Obs.Histo.histo name) 50.) in
  let smr n = v ("smr." ^ s ^ "." ^ n) in
  let cdrc n = v ("cdrc.rc" ^ s ^ "." ^ n) in
  let fast = cdrc "snapshot.fast" and slow = cdrc "snapshot.slow" in
  [
    ("smr.acquire_per_op", per (smr "acquire") ops);
    ("smr.confirm_retry_frac", per (smr "confirm_retry") (smr "acquire"));
    ("smr.retire_per_op", per (smr "retire") ops);
    ("smr.eject_scans_per_op", per (smr "eject.scans") ops);
    ("smr.ejected_per_scan", per (smr "eject.ops") (smr "eject.scans"));
    ("smr.reclaim_latency_p99_ticks", float_of_int (p99 ("smr." ^ s ^ ".reclaim_latency")));
    ("sticky.cas_fail_per_op", per (v "sticky.cas_fail") ops);
    ("sticky.help_per_op", per (v "sticky.help") ops);
    (* Cdrc ejects through the scheme directly, not through
       Acquire_retire.Make, so its acquire-retire batches are the
       scheme's. *)
    ("ar.eject_batch_p50", float_of_int (p50 ("smr." ^ s ^ ".eject.batch_size")));
    ("cdrc.snapshot_fast_frac", per fast (fast + slow));
    ("cdrc.deferred_decrements_per_op", per (cdrc "decrement.deferred") ops);
  ]

let cell ~workload ~cfg ~seed ~seconds ~trace ~spans_path =
  let checks = ref [] in
  let check where errs = checks := !checks @ List.map (fun e -> where ^ ": " ^ e) errs in
  let op_failures (p : Runloop.pass) = List.map (fun e -> "operation failed: " ^ e) p.errors in
  (* Each set-up is bracketed by machine-speed probes (Runloop.probe). *)
  let setup () =
    Gc.compact ();
    let p0 = Runloop.probe () in
    let t0 = Lat.now_ns () in
    let inst = Cells.make workload cfg ~seed in
    let dt = float_of_int (Lat.now_ns () - t0) /. 1e9 in
    (inst, dt, (p0 +. Runloop.probe ()) /. 2.)
  in
  let setup_times = ref [] in
  let rec fresh k =
    let inst, dt, pr = setup () in
    setup_times := (dt, pr) :: !setup_times;
    if k = 1 then inst
    else begin
      check "setup" (inst.Cells.finish ());
      fresh (k - 1)
    end
  in
  (* Every pass starts the same way: a fresh structure, warmed up,
     on a settled heap. *)
  let prepared k =
    let inst = fresh k in
    let warm, _ =
      Runloop.run inst ~seconds:(warmup_s seconds) ~sample_live:false ~traced:false ~poll:ignore
    in
    check "warm-up" (op_failures (Runloop.merge warm));
    Gc.full_major ();
    inst
  in
  (* The telemetry-off pass: the end-to-end figures, and the baseline
     of obs.overhead_pct. *)
  let inst = prepared setups in
  let passes, _ = Runloop.run inst ~seconds ~sample_live:false ~traced:false ~poll:ignore in
  let p = Runloop.merge passes in
  let ops = Runloop.completed p in
  let counters = inst.counters () in
  let uaf = inst.uaf () in
  check "run" (inst.finish ());
  let traced =
    if not trace then []
    else begin
      (* The traced pass: Obs.Metrics and Obs.Trace on, spans kept. *)
      let inst = prepared 1 in
      Obs.Report.reset_all ();
      Obs.Metrics.set_enabled true;
      Obs.Trace.set_enabled true;
      let tpasses, spans = Runloop.run inst ~seconds ~sample_live:false ~traced:true ~poll:ignore in
      Obs.Metrics.set_enabled false;
      Obs.Trace.set_enabled false;
      let tp = Runloop.merge tpasses in
      let obs = obs_layer ~cfg ~ops:(Runloop.completed tp) in
      check "traced run" (op_failures tp @ inst.finish ());
      let dropped =
        with_spans spans_path (fun oc ->
            Array.fold_left
              (fun acc sp -> match sp with Some s -> acc + Spans.write oc ~cfg s | None -> acc)
              0 spans)
      in
      (* The GC pass, last, because runtime_events stays on once
         started: GC deltas and pauses, and the live-object and shard
         backlog samples, which cost time between batches. *)
      let inst = prepared 1 in
      let pauses = Gc_pauses.start () in
      Gc_pauses.reset pauses;
      let last = ref 0 in
      let poll () =
        let now = Lat.now_ns () in
        if now - !last > 2_000_000 then begin
          last := now;
          Gc_pauses.poll pauses
        end
      in
      let gc0 = Gc.quick_stat () in
      let gpasses, _ = Runloop.run inst ~seconds ~sample_live:true ~traced:false ~poll in
      let gc1 = Gc.quick_stat () in
      Gc_pauses.poll pauses;
      let gp = Runloop.merge gpasses in
      let gops = Runloop.completed gp in
      check "gc run" (op_failures gp @ inst.finish ());
      let counter n = per (Option.value ~default:0 (List.assoc_opt n counters)) ops in
      let words f = per (int_of_float (f gc1 -. f gc0)) gops in
      let layer =
        [
          ("gc.minor_words_per_op", words (fun s -> s.Gc.minor_words));
          ("gc.promoted_words_per_op", words (fun s -> s.Gc.promoted_words));
          ( "gc.major_collections_per_mop",
            per (gc1.Gc.major_collections - gc0.Gc.major_collections) gops *. 1e6 );
          ("ds.peak_live", float_of_int gp.peak_live);
          ("ds.uaf_retries_per_op", per uaf ops);
          ("kv.overwrite_per_op", counter "overwrites");
          ("kv.expiry_per_op", counter "expiries");
          ("kv.max_shard_backlog", float_of_int gp.peak_shard);
        ]
        @ obs
      in
      [
        ("traced_windows", windows tpasses);
        ("gc_pauses", Lat.to_json (Gc_pauses.hist pauses));
        ("spans_dropped", string_of_int dropped);
        ("layer", obj (List.map (fun (k, v) -> (k, num v)) layer));
      ]
    end
  in
  print_endline
    (obj
       ([
          ("workload", str workload);
          ("cfg", str cfg);
          ("seed", string_of_int seed);
          ("setup_s", arr (List.map (fun (dt, pr) -> arr [ num dt; num pr ]) !setup_times));
          ("attempted", string_of_int p.attempted);
          ("failed", string_of_int p.failed);
          ("peak_backlog", string_of_int p.peak_backlog);
          ("probe_ref_ns", num Runloop.probe_ref_ns);
          ("lat", Lat.to_json p.lat);
          ( "kinds",
            obj (Array.to_list (Array.mapi (fun k n -> (n, Lat.to_json p.by_kind.(k))) inst.kinds)) );
          ("windows", windows passes);
          ("errors", arr (List.map str p.errors));
          ("checks", arr (List.map str !checks));
        ]
       @ traced))

let kernels ~quota ~spans_path =
  let dropped = ref 0 in
  let values =
    Kernels.run ~quota (fun sp -> with_spans spans_path (fun oc -> dropped := Spans.write oc ~cfg:"-" sp))
  in
  print_endline
    (obj
       [
         ("values", obj (List.map (fun (k, v) -> (k, num v)) values));
         ("spans_dropped", string_of_int !dropped);
       ])

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "info" ] ->
      print_endline
        (obj
           [ ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ())) ])
  | [ "cell"; workload; cfg; seed; seconds; trace; spans_path ] ->
      cell ~workload ~cfg ~seed:(int_of_string seed) ~seconds:(float_of_string seconds)
        ~trace:(trace = "1") ~spans_path
  | [ "kernels"; quota; spans_path ] -> kernels ~quota:(float_of_string quota) ~spans_path
  | _ ->
      prerr_endline "usage: bench.exe (info | cell W CFG SEED SECONDS TRACE SPANS | kernels QUOTA SPANS)";
      exit 2
