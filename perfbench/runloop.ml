(* The closed loop: each worker issues its next operation only after
   the previous one returned, times every operation with one clock
   read, and between batches samples the structure's backlog — the
   workers themselves, not a sampler domain. A run ends on time,
   never on an operation count. *)

type pass = {
  mutable attempted : int;
  mutable failed : int;
  lat : Lat.t;  (** every completed operation *)
  by_kind : Lat.t array;
  mutable peak_backlog : int;
  mutable peak_live : int;
  mutable peak_shard : int;
  mutable errors : string list;  (** the first [max_errors] failure messages *)
  mutable windows : (float * float) list;
      (** (completed Mops/s, probe ns) of each closed window, newest
          first; the probe figure is the mean of the probes at the
          window's two ends *)
}

(* Not a multiple of the schemes' 64-retire scan period, so the
   backlog samples see every phase of the amortized scan. *)
let batch = 100
let max_errors = 5

(* A window closes at the first batch boundary after [window_ns] and
   [window_ops] completed operations (slow configs need longer windows
   for a stable rate). Interference from outside the process comes and
   goes on this time scale; medians over windows discount it. *)
let window_ns = 50_000_000
let window_ops = 2000

(* Machine-speed probe. The 2-vCPU shared Xeon VM this benchmark was
   written on runs its cores at speeds that differ by up to 2x for
   tens of minutes at a time (other tenants on shared cores and a
   shared memory system); the probe, taken at every window boundary,
   tracks that speed so run.py can report figures at one reference
   speed. It has two parts, and reads the geometric mean of their ns
   per step:

   - compute: a loop of [Hashtbl.hash] calls (into C, allocation-free,
     no atomics: atomics cost more once a second domain runs, which is
     not machine speed), which tracks the speed of cache-resident work
     such as stack-pinned;
   - memory: a pointer chase along one random cycle through a 4 MiB
     Bigarray (outside the OCaml heap, so the GC never scans it),
     which tracks cache and memory contention, the part of a slowdown
     that hits the traversals of tree-read90 hardest.

   Fitted over 1500 windows of both workloads, the log rate followed
   both parts (slopes -0.2 to -0.7 on the compute part, -0.5 to -1.3
   on the memory part); scaling by their geometric mean left less
   spread than scaling by either alone. Each part is the fastest of a
   few timed chunks, so that a stop-the-world minor collection started
   by another domain does not count as slowness. *)
let probe_chunks = 4
let hash_iters = 5_000
let chase_steps = 500
let chase_len = 1 lsl 19

let chase =
  let open Bigarray in
  let cycle = Array1.create int c_layout chase_len in
  let order = Array.init chase_len Fun.id in
  let rng = Random.State.make [| 0x5eed |] in
  for i = chase_len - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  Array.iteri (fun i x -> cycle.{x} <- order.((i + 1) mod chase_len)) order;
  cycle

(* The chase resumes where the last probe stopped, so that it keeps
   walking lines that are not in cache. *)
let chase_at = ref 0

(* Fastest of [probe_chunks] runs of [chunk], in ns per step. *)
let fastest ~steps chunk =
  let best = ref max_int in
  for _ = 1 to probe_chunks do
    let t0 = Lat.now_ns () in
    chunk ();
    best := min !best (Lat.now_ns () - t0)
  done;
  float_of_int !best /. float_of_int steps

let probe () =
  let a = Sys.opaque_identity (ref 0) in
  let compute =
    fastest ~steps:hash_iters (fun () ->
        for i = 1 to hash_iters do
          a := !a + Hashtbl.hash i
        done)
  in
  let memory =
    fastest ~steps:chase_steps (fun () ->
        let p = ref !chase_at in
        for _ = 1 to chase_steps do
          p := Bigarray.Array1.unsafe_get chase !p
        done;
        chase_at := !p)
  in
  sqrt (compute *. memory)

(* The probe's reading at the reference speed: run.py reports rates,
   latencies and set-up times as if the probe had read this. It is a
   nominal figure, near the probe's reading on a quiet core of that
   VM. *)
let probe_ref_ns = 25.0

let create_pass kinds =
  {
    attempted = 0;
    failed = 0;
    lat = Lat.create ();
    by_kind = Array.init kinds (fun _ -> Lat.create ());
    peak_backlog = 0;
    peak_live = 0;
    peak_shard = 0;
    errors = [];
    windows = [];
  }

let record_failure p e =
  p.failed <- p.failed + 1;
  if List.length p.errors < max_errors then p.errors <- Printexc.to_string e :: p.errors

let worker_loop (inst : Cells.inst) ~w ~deadline ~sample_live ~spans ~poll p =
  let next = inst.worker w in
  let batch_name = Array.length inst.kinds in
  let op = ref 0 in
  let last_probe = ref (probe ()) in
  let t = ref (Lat.now_ns ()) in
  let w_start = ref !t and w_done = ref 0 in
  while !t < deadline do
    let parent = match spans with Some s -> Spans.reserve s | None -> -1 in
    let b0 = !t in
    for _ = 1 to batch do
      (match next () with
      | k ->
          let t1 = Lat.now_ns () in
          let d = t1 - !t in
          Lat.add p.lat d;
          Lat.add p.by_kind.(k) d;
          (match spans with
          | Some s -> Spans.record s ~name:k ~op:!op ~parent ~t0:!t ~t1
          | None -> ());
          t := t1
      | exception e ->
          record_failure p e;
          t := Lat.now_ns ());
      incr op
    done;
    (match spans with
    | Some s -> Spans.set s parent ~name:batch_name ~op:(-1) ~parent:(-1) ~t0:b0 ~t1:!t
    | None -> ());
    p.attempted <- p.attempted + batch;
    let done_ = p.attempted - p.failed in
    if !t - !w_start >= window_ns && done_ - !w_done >= window_ops then begin
      let rate = float_of_int (done_ - !w_done) /. float_of_int (!t - !w_start) *. 1e3 in
      let pr = probe () in
      let mean = (pr +. !last_probe) /. 2. in
      p.windows <- (rate, mean) :: p.windows;
      last_probe := pr;
      w_start := Lat.now_ns ();
      w_done := done_
    end;
    let b = inst.backlog () in
    if b > p.peak_backlog then p.peak_backlog <- b;
    if sample_live then begin
      p.peak_live <- max p.peak_live (inst.live ());
      p.peak_shard <- max p.peak_shard (inst.shard_backlog ())
    end;
    poll ();
    t := Lat.now_ns ()
  done

(* Worker 0 runs on the calling domain; the others on spawned ones. *)
let run (inst : Cells.inst) ~seconds ~sample_live ~traced ~poll =
  let kinds = Array.length inst.kinds in
  let span_names = Array.append inst.kinds [| "batch" |] in
  let passes = Array.init inst.domains (fun _ -> create_pass kinds) in
  let spans =
    Array.init inst.domains (fun w ->
        if traced then Some (Spans.create ~worker:w span_names) else None)
  in
  let deadline = Lat.now_ns () + int_of_float (seconds *. 1e9) in
  let loop w poll =
    worker_loop inst ~w ~deadline ~sample_live ~spans:spans.(w) ~poll passes.(w)
  in
  let others = List.init (inst.domains - 1) (fun i -> Domain.spawn (fun () -> loop (i + 1) ignore)) in
  loop 0 poll;
  List.iter Domain.join others;
  (passes, spans)

(* Merge the workers' passes into one. *)
let merge (passes : pass array) =
  let m = create_pass (Array.length passes.(0).by_kind) in
  Array.iter
    (fun p ->
      m.attempted <- m.attempted + p.attempted;
      m.failed <- m.failed + p.failed;
      Lat.merge_into m.lat p.lat;
      Array.iteri (fun k h -> Lat.merge_into m.by_kind.(k) h) p.by_kind;
      m.peak_backlog <- max m.peak_backlog p.peak_backlog;
      m.peak_live <- max m.peak_live p.peak_live;
      m.peak_shard <- max m.peak_shard p.peak_shard;
      m.errors <- m.errors @ p.errors)
    passes;
  m

let completed p = p.attempted - p.failed
