(* Layer kernels of a traced run: each times only one layer's public
   functions, with Bechamel (OLS over the run count, monotonic clock).

   The ladder rungs all run the same single-domain push;pop pair on an
   empty-bottomed Treiber stack, each rung adding one layer:
     atomic          Stdlib.Atomic CAS on plain OCaml nodes (the GC reclaims)
     smr.<s>         + Smr.Hp / Smr.Ebr announce, confirm, retire, eject
     simheap.<s>     + Simheap alloc, check_live and free of every node
     acquire_retire.<s>  the same stack through Acquire_retire.Make
     cdrc.<s>        the same stack through Cdrc.Make (no manual retire)
   so the difference between two rungs is one layer's cost per
   operation. The stack starts empty so that every rung is stationary:
   the pinned-node shape, whose RCHP backlog grows without bound,
   belongs to the stack-pinned workload itself. *)

open Bechamel

(* ns per call of [f], by OLS over [quota] seconds of runs. *)
let ns_per_call ~quota name f =
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  Gc.compact ();
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |] in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  match Hashtbl.fold (fun _ v acc -> Analyze.OLS.estimates v :: acc) res [] with
  | [ Some [ est ] ] -> est
  | _ -> failwith ("no estimate for kernel " ^ name)

(* Runs [bg] in a second domain, hammering the same object, while the
   main domain is timed. *)
let with_background bg f =
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          bg ()
        done)
  in
  Fun.protect ~finally:(fun () -> Atomic.set stop true; Domain.join d) f

(* ---------------- ladder rungs ---------------- *)

module type RUNG = sig
  val push : int -> unit
  val pop : unit -> int option
end

let pair (module K : RUNG) () =
  K.push 1;
  match K.pop () with Some 1 -> () | _ -> failwith "ladder kernel: pop lost the pushed value"

module Atomic_rung : RUNG = struct
  type node = { v : int; next : node option }

  let top : node option Atomic.t = Atomic.make None

  let rec push v =
    let t = Atomic.get top in
    if not (Atomic.compare_and_set top t (Some { v; next = t })) then push v

  let rec pop () =
    match Atomic.get top with
    | None -> None
    | Some n as t -> if Atomic.compare_and_set top t n.next then Some n.v else pop ()
end

(* [heap] adds the Simheap rung: a block per node, checked on every
   dereference and freed by the deferred operation. *)
module Smr_rung
    (S : Smr.Smr_intf.S)
    (H : sig
      val heap : Simheap.t option
    end) : RUNG = struct
  type node = { v : int; next : node option; birth : int; block : Simheap.block option }

  let s = S.create ~max_threads:1 ()
  let top : node option Atomic.t = Atomic.make None
  let ident = function None -> Smr.Ident.null | Some n -> Smr.Ident.of_val n

  let push v =
    S.begin_critical_section s ~pid:0;
    let birth = S.alloc_hook s ~pid:0 in
    let block = Option.map Simheap.alloc H.heap in
    let rec go () =
      let t = Atomic.get top in
      if not (Atomic.compare_and_set top t (Some { v; next = t; birth; block })) then go ()
    in
    go ();
    S.end_critical_section s ~pid:0

  let pop () =
    S.begin_critical_section s ~pid:0;
    let g = S.acquire s ~pid:0 (ident (Atomic.get top)) in
    let rec settle () =
      let t = Atomic.get top in
      if S.confirm s ~pid:0 g (ident t) then t else settle ()
    in
    let r =
      match settle () with
      | None -> None
      | Some n as t ->
          Option.iter Simheap.check_live n.block;
          if not (Atomic.compare_and_set top t n.next) then failwith "ladder: lone popper lost a CAS";
          let free = match n.block with Some b -> fun _ -> Simheap.free b | None -> fun _ -> () in
          S.retire s ~pid:0 (ident t) ~birth:n.birth free;
          Some n.v
    in
    S.release s ~pid:0 g;
    List.iter (fun op -> op 0) (S.eject s ~pid:0);
    S.end_critical_section s ~pid:0;
    r
end

module No_heap = struct
  let heap = None
end

module With_heap = struct
  let heap = Some (Simheap.create ~name:"ladder" ())
end

module Ar_rung (S : Smr.Smr_intf.S) : RUNG = struct
  module Ar = Acquire_retire.Make (S)

  type node = { v : int; next : node Ar.managed option }

  let ar = Ar.create ~max_threads:1 ()
  let top : node Ar.managed option Atomic.t = Atomic.make None
  let read () = Atomic.get top
  let ident = function None -> Smr.Ident.null | Some m -> Ar.ident m

  let push v =
    Ar.begin_critical_section ar ~pid:0;
    let t = Atomic.get top in
    let m = Ar.alloc ar ~pid:0 { v; next = t } in
    if not (Atomic.compare_and_set top t (Some m)) then failwith "ladder: lone pusher lost a CAS";
    Ar.end_critical_section ar ~pid:0

  let pop () =
    Ar.begin_critical_section ar ~pid:0;
    let t, g = Ar.acquire ar ~pid:0 ~read ~ident in
    let r =
      match t with
      | None -> None
      | Some m ->
          let n = Ar.get m in
          if not (Atomic.compare_and_set top t n.next) then failwith "ladder: lone popper lost a CAS";
          Ar.release ar ~pid:0 g;
          Ar.retire_free ar ~pid:0 m;
          List.iter (fun op -> op 0) (Ar.eject ar ~pid:0);
          Some n.v
    in
    if r = None then Ar.release ar ~pid:0 g;
    Ar.end_critical_section ar ~pid:0;
    r
end

module Cdrc_rung (R : Cdrc.Intf.S) : RUNG = struct
  type node = { v : int; next : node R.asp }

  let rt = R.create ~support_weak:false ~max_threads:1 ()
  let th = R.thread rt 0
  let top : node R.asp = R.Asp.make_null ()

  let push v =
    R.begin_critical_section th;
    let t = R.Asp.get_snapshot th top in
    let fresh =
      R.Shared.make th
        ~destroy:(fun th n -> R.Asp.clear th n.next)
        { v; next = R.Asp.make th (R.Snapshot.ptr t ~tag:0) }
    in
    if
      not
        (R.Asp.compare_and_swap th top ~expected:(R.Snapshot.ptr t ~tag:0)
           ~desired:(R.Shared.ptr fresh))
    then failwith "ladder: lone pusher lost a CAS";
    R.Shared.drop th fresh;
    R.Snapshot.drop th t;
    R.end_critical_section th

  let pop () =
    R.begin_critical_section th;
    let t = R.Asp.get_snapshot th top in
    let r =
      if R.Snapshot.is_null t then None
      else begin
        let n = R.Snapshot.get t in
        let next = R.Asp.get_snapshot th n.next in
        if
          not
            (R.Asp.compare_and_swap th top ~expected:(R.Snapshot.ptr t ~tag:0)
               ~desired:(R.Snapshot.ptr next ~tag:0))
        then failwith "ladder: lone popper lost a CAS";
        R.Snapshot.drop th next;
        Some n.v
      end
    in
    R.Snapshot.drop th t;
    R.end_critical_section th;
    r
end

module RC_hp = Workload.Instances.RC_hp
module RC_ebr = Workload.Instances.RC_ebr

let rungs : (string * (module RUNG)) list =
  [
    ("ladder.atomic", (module Atomic_rung));
    ("ladder.smr.HP", (module Smr_rung (Smr.Hp) (No_heap)));
    ("ladder.smr.EBR", (module Smr_rung (Smr.Ebr) (No_heap)));
    ("ladder.simheap.HP", (module Smr_rung (Smr.Hp) (With_heap)));
    ("ladder.simheap.EBR", (module Smr_rung (Smr.Ebr) (With_heap)));
    ("ladder.acquire_retire.HP", (module Ar_rung (Smr.Hp)));
    ("ladder.acquire_retire.EBR", (module Ar_rung (Smr.Ebr)));
    ("ladder.cdrc.HP", (module Cdrc_rung (RC_hp)));
    ("ladder.cdrc.EBR", (module Cdrc_rung (RC_ebr)));
  ]

(* ---------------- single-layer kernels ---------------- *)

let simheap_kernel heap () = Simheap.free (Simheap.alloc heap)

let sticky_kernel c () =
  if Sticky.Sticky_counter.increment_if_not_zero c then ignore (Sticky.Sticky_counter.decrement c)

module Ar_kernels (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)

  let ar = Ar.create ~max_threads:1 ()
  let loc = Atomic.make (ref 0)
  let read () = Atomic.get loc
  let ident = Smr.Ident.of_val

  let protect_release () =
    Ar.begin_critical_section ar ~pid:0;
    let _, g = Ar.acquire ar ~pid:0 ~read ~ident in
    Ar.release ar ~pid:0 g;
    Ar.end_critical_section ar ~pid:0

  let retire_eject () =
    Ar.begin_critical_section ar ~pid:0;
    Ar.retire_free ar ~pid:0 (Ar.alloc ar ~pid:0 ());
    List.iter (fun op -> op 0) (Ar.eject ar ~pid:0);
    Ar.end_critical_section ar ~pid:0
end

module Cdrc_kernels (R : Cdrc.Intf.S) = struct
  let rt = R.create ~support_weak:false ~max_threads:1 ()
  let th = R.thread rt 0
  let sp = R.Shared.make th 42
  let cell = R.Asp.make th (R.Shared.ptr sp)

  let in_cs f () =
    R.begin_critical_section th;
    f ();
    R.end_critical_section th

  let snapshot_drop = in_cs (fun () -> R.Snapshot.drop th (R.Asp.get_snapshot th cell))
  let load_drop = in_cs (fun () -> R.Shared.drop th (R.Asp.load th cell))
  let store = in_cs (fun () -> R.Asp.store th cell (R.Shared.ptr sp))
  let make_drop = in_cs (fun () -> R.Shared.drop th (R.Shared.make th 1))
end

module Ar_hp = Ar_kernels (Smr.Hp)
module Ar_ebr = Ar_kernels (Smr.Ebr)
module Cd_hp = Cdrc_kernels (RC_hp)
module Cd_ebr = Cdrc_kernels (RC_ebr)

(* (name, kernel, background kernel for the two-domain variant) *)
let single_layer () : (string * (unit -> unit) * (unit -> unit) option) list =
  let heap = Simheap.create ~name:"kernel" () in
  let counter = Sticky.Sticky_counter.create 1 in
  [
    ("simheap.alloc_free_ns.p1", simheap_kernel heap, None);
    ("simheap.alloc_free_ns.p2", simheap_kernel heap, Some (simheap_kernel heap));
    ("sticky.inc_dec_ns.p1", sticky_kernel counter, None);
    ("sticky.inc_dec_ns.p2", sticky_kernel counter, Some (sticky_kernel counter));
    ("ar.protect_release_ns.HP", Ar_hp.protect_release, None);
    ("ar.protect_release_ns.EBR", Ar_ebr.protect_release, None);
    ("ar.retire_eject_ns.HP", Ar_hp.retire_eject, None);
    ("ar.retire_eject_ns.EBR", Ar_ebr.retire_eject, None);
    ("cdrc.snapshot_drop_ns.RCHP", Cd_hp.snapshot_drop, None);
    ("cdrc.snapshot_drop_ns.RCEBR", Cd_ebr.snapshot_drop, None);
    ("cdrc.load_drop_ns.RCHP", Cd_hp.load_drop, None);
    ("cdrc.load_drop_ns.RCEBR", Cd_ebr.load_drop, None);
    ("cdrc.store_ns.RCHP", Cd_hp.store, None);
    ("cdrc.store_ns.RCEBR", Cd_ebr.store, None);
    ("cdrc.make_drop_ns.RCHP", Cd_hp.make_drop, None);
    ("cdrc.make_drop_ns.RCEBR", Cd_ebr.make_drop, None);
  ]

(* Exact atomic-primitive counts per operation of the pinned scripts
   of [Workload.Perf_runner.atomic_profiles]. *)
let atomics () =
  List.map
    (fun (p : Obs.Perf.atomic_profile) ->
      (Printf.sprintf "atomics.%s.%s" p.a_core p.a_op, Obs.Perf.atomics_per_op p))
    (Workload.Perf_runner.atomic_profiles ())

(* Every kernel, each inside one span of [spans]. *)
let run ~quota spans =
  let kernels = single_layer () in
  let names = Array.of_list (("kernels" :: List.map fst rungs) @ List.map (fun (n, _, _) -> n) kernels) in
  let sp = Spans.create ~worker:0 names in
  let root = Spans.reserve sp in
  let t_root = Lat.now_ns () in
  let idx = ref 0 in
  let timed name f =
    incr idx;
    let t0 = Lat.now_ns () in
    let v = f () in
    Spans.record sp ~name:!idx ~op:!idx ~parent:root ~t0 ~t1:(Lat.now_ns ());
    (name, v)
  in
  (* A ladder value is per operation: half a push;pop pair. *)
  let ladder = List.map (fun (n, r) -> timed n (fun () -> ns_per_call ~quota n (pair r) /. 2.)) rungs in
  let single =
    List.map
      (fun (n, f, bg) ->
        timed n (fun () ->
            match bg with
            | None -> ns_per_call ~quota n f
            | Some bg -> with_background bg (fun () -> ns_per_call ~quota n f)))
      kernels
  in
  Spans.set sp root ~name:0 ~op:0 ~parent:(-1) ~t0:t_root ~t1:(Lat.now_ns ());
  spans sp;
  ladder @ single @ atomics ()
