(* The two workloads over the four scheme configs, and the KV-service
   cell that traced runs read the KV layer from.

   A workload instance is a built and prefilled structure plus one
   operation generator per worker. Each generator performs one
   operation per call, checks its result where one domain makes the
   result predictable, and returns the operation's kind. [finish]
   runs the end-of-run checks at quiescence, tears the structure down
   and checks that nothing leaked. *)

module I = Workload.Instances
module Rng = Repro_util.Rng

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt

type inst = {
  domains : int;
  kinds : string array;  (** span and latency name of each operation kind *)
  worker : int -> unit -> int;  (** [worker w] is worker [w]'s generator *)
  backlog : unit -> int;  (** [retired_backlog] *)
  live : unit -> int;  (** live simulated-heap blocks *)
  shard_backlog : unit -> int;  (** largest per-shard backlog (KV service only) *)
  uaf : unit -> int;  (** use-after-free events caught and retried *)
  counters : unit -> (string * int) list;  (** structure-side outcome counts *)
  finish : unit -> string list;  (** quiescent checks, teardown, leak check *)
}

let no_counters () = []
let zero () = 0

(* Distinct keys from [0, range), a seeded shuffle. *)
let shuffled ~seed range =
  let rng = Rng.create ~seed in
  let a = Array.init range Fun.id in
  for i = range - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let leak_check live =
  if live <> 0 then [ Printf.sprintf "live_objects = %d after teardown" live ] else []

let size_check ~what ~size ~expect =
  if size <> expect then [ Printf.sprintf "%s: size %d, expected %d" what size expect ] else []

(* ---------------- stack-pinned ---------------- *)

(* One domain loops push;pop pairs above [stack_prefill] nodes, so
   the bottom node stays pinned while every operation allocates or
   retires. *)
let stack_prefill = 1000

let stack (module St : I.STACK) ~seed =
  let s = St.create ~max_threads:1 () in
  let c = St.ctx s 0 in
  for i = 1 to stack_prefill do
    St.push c i
  done;
  let pushes = ref 0 and pops = ref 0 in
  let worker _ =
    let rng = Rng.create ~seed in
    let pending = ref 0 and popping = ref false in
    fun () ->
      if !popping then begin
        popping := false;
        match St.pop c with
        | Some v ->
            incr pops;
            if v <> !pending then fail "pop returned %d, expected %d" v !pending;
            1
        | None -> fail "pop on a prefilled stack returned None"
      end
      else begin
        let v = Rng.int rng 1_000_000 in
        St.push c v;
        incr pushes;
        pending := v;
        popping := true;
        0
      end
  in
  let finish () =
    St.flush c;
    let size = St.size s in
    let sized =
      size_check ~what:"prefill + pushes - pops" ~size
        ~expect:(stack_prefill + !pushes - !pops)
    in
    St.teardown s;
    sized @ leak_check (St.live_objects s)
  in
  {
    domains = 1;
    kinds = [| "ds.push"; "ds.pop" |];
    worker;
    backlog = (fun () -> St.retired_backlog s);
    live = (fun () -> St.live_objects s);
    shard_backlog = zero;
    uaf = zero;
    counters = no_counters;
    finish;
  }

(* ---------------- tree-read90 ---------------- *)

(* Paper Fig 13c: 10k keys of 20k, uniform keys, 90% contains. One
   domain, so a sequential oracle checks every result. *)
let tree_range = 20_000
let tree_prefill = 10_000

let tree (module D : Ds.Set_intf.S) ~seed =
  let d = D.create ~max_threads:1 () in
  let c = D.ctx d 0 in
  let present = Array.make tree_range false in
  let keys = shuffled ~seed tree_range in
  for i = 0 to tree_prefill - 1 do
    let k = keys.(i) in
    if not (D.insert c k) then fail "prefill insert of %d failed" k;
    present.(k) <- true
  done;
  let ins = ref 0 and rem = ref 0 in
  let worker _ =
    let rng = Rng.create ~seed:((seed * 7) + 1) in
    fun () ->
      let r = Rng.int rng 100 and k = Rng.int rng tree_range in
      if r < 90 then begin
        let got = D.contains c k in
        if got <> present.(k) then fail "contains %d = %b, oracle %b" k got present.(k);
        0
      end
      else if r < 95 then begin
        let got = D.insert c k in
        if got = present.(k) then fail "insert %d = %b, oracle present %b" k got present.(k);
        if got then begin
          present.(k) <- true;
          incr ins
        end;
        1
      end
      else begin
        let got = D.remove c k in
        if got <> present.(k) then fail "remove %d = %b, oracle present %b" k got present.(k);
        if got then begin
          present.(k) <- false;
          incr rem
        end;
        2
      end
  in
  let finish () =
    D.flush c;
    let sized =
      size_check ~what:"prefill + inserts - removes" ~size:(D.size d)
        ~expect:(tree_prefill + !ins - !rem)
    in
    D.teardown d;
    sized @ leak_check (D.live_objects d)
  in
  {
    domains = 1;
    kinds = [| "ds.contains"; "ds.insert"; "ds.remove" |];
    worker;
    backlog = (fun () -> D.retired_backlog d);
    live = (fun () -> D.live_objects d);
    shard_backlog = zero;
    uaf = (fun () -> D.uaf_events d);
    counters = no_counters;
    finish;
  }

(* ---------------- kv-zipf-p2 ---------------- *)

(* The KV service under its RC schemes only (it has no manual
   version): two workers, 8192 keys of 16384, Zipfian 0.99: 50% get,
   40% put (a quarter with TTL 64), 10% remove. Worker 0 advances the
   service clock once per 64 of its requests. Traced runs read the KV
   layer and cross-domain sticky-counter contention from it. *)
let kv_range = 16_384
let kv_prefill = 8192
let kv_workers = 2

let kv_service (module K : Workload.Kv_intf.S) ~seed =
  let t = K.create ~shards:4 ~max_threads:kv_workers () in
  let ctxs = Array.init kv_workers (K.ctx t) in
  let keys = shuffled ~seed kv_range in
  for i = 0 to kv_prefill - 1 do
    ignore (K.put ctxs.(0) ~now:0 keys.(i) keys.(i))
  done;
  let worker w =
    let c = ctxs.(w) in
    let kg =
      Workload.Keygen.create ~seed:((seed * 31) + w + 1) ~range:kv_range
        (Workload.Keygen.Zipfian { theta = 0.99 })
    in
    let rng = Rng.create ~seed:((seed * 131) + w + 7) in
    let n = ref 0 in
    fun () ->
      if w = 0 && !n land 63 = 0 then ignore (K.tick t);
      incr n;
      let now = K.now t in
      let key = Workload.Keygen.next kg in
      let r = Rng.int rng 100 in
      if r < 50 then begin
        ignore (K.get c ~now key);
        0
      end
      else if r < 90 then begin
        let ttl = if r < 60 then Some 64 else None in
        ignore (K.put c ~now ?ttl key r);
        1
      end
      else begin
        ignore (K.remove c ~now key);
        2
      end
  in
  let finish () =
    Array.iter K.flush ctxs;
    let now = K.now t in
    ignore (K.expire_sweep ctxs.(0) ~now);
    Array.iter K.flush ctxs;
    let size = K.size t ~now in
    let k = K.counters t in
    let installed = k.puts_new + k.overwrites + k.expired_overwrites in
    let node =
      size_check ~what:"node identity: puts_new = size + removes + expiries"
        ~size:k.puts_new ~expect:(size + k.removes + k.expiries)
    in
    let box =
      size_check ~what:"box identity: installed - size = retire events" ~size:(installed - size)
        ~expect:(k.overwrites + k.expired_overwrites + k.removes + k.expiries)
    in
    K.teardown t;
    node @ box @ leak_check (K.live_objects t)
  in
  let shard_backlog () =
    let m = ref 0 in
    for shard = 0 to K.shard_count t - 1 do
      m := max !m (K.shard_backlog t ~shard)
    done;
    !m
  in
  let counters () =
    let k = K.counters t in
    [ ("overwrites", k.overwrites + k.expired_overwrites); ("expiries", k.expiries) ]
  in
  {
    domains = kv_workers;
    kinds = [| "kv.get"; "kv.put"; "kv.remove" |];
    worker;
    backlog = (fun () -> K.retired_backlog t);
    live = (fun () -> K.live_objects t);
    shard_backlog;
    uaf = zero;
    counters;
    finish;
  }

let make workload cfg ~seed =
  match (workload, cfg) with
  | "stack-pinned", "HP" -> stack (module I.St_hp) ~seed
  | "stack-pinned", "RCHP" -> stack (module I.Str_hp) ~seed
  | "stack-pinned", "EBR" -> stack (module I.St_ebr) ~seed
  | "stack-pinned", "RCEBR" -> stack (module I.Str_ebr) ~seed
  | "tree-read90", "HP" -> tree (module I.T_hp) ~seed
  | "tree-read90", "RCHP" -> tree (module I.Tr_hp) ~seed
  | "tree-read90", "EBR" -> tree (module I.T_ebr) ~seed
  | "tree-read90", "RCEBR" -> tree (module I.Tr_ebr) ~seed
  | "kv-zipf-p2", "RCHP" -> kv_service (module I.Kv_hp) ~seed
  | "kv-zipf-p2", "RCEBR" -> kv_service (module I.Kv_ebr) ~seed
  | _ -> invalid_arg (Printf.sprintf "unknown workload/config %s/%s" workload cfg)
