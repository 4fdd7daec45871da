(* Benchmark-side spans: one per call into a layer's public function
   (a ds operation, a KV request, a ladder kernel), each child of the
   batch span that contains it. Spans of one operation share its [op]
   id. They are kept in a fixed ring per worker — the most recent
   [capacity] survive, since a pass of a few seconds makes millions —
   and written out as JSON lines at exit. *)

let capacity = 1 lsl 13

type t = {
  worker : int;
  names : string array; (* span names, indexed by [name] below *)
  name : int array;
  op : int array;
  parent : int array;
  t0 : int array;
  t1 : int array;
  mutable next_span : int; (* spans recorded so far; the span id *)
}

let create ~worker names =
  let z () = Array.make capacity 0 in
  { worker; names; name = z (); op = z (); parent = z (); t0 = z (); t1 = z (); next_span = 0 }

(* A span id is taken before the span's children are recorded, so a
   batch span can be their parent although it ends after them. *)
let reserve t =
  let id = t.next_span in
  t.next_span <- id + 1;
  id

(* [parent] is -1 for a root span. *)
let set t id ~name ~op ~parent ~t0 ~t1 =
  let i = id land (capacity - 1) in
  t.name.(i) <- name;
  t.op.(i) <- op;
  t.parent.(i) <- parent;
  t.t0.(i) <- t0;
  t.t1.(i) <- t1

let record t ~name ~op ~parent ~t0 ~t1 = set t (reserve t) ~name ~op ~parent ~t0 ~t1

(* Writes the surviving spans; returns how many the ring dropped. *)
let write oc ~cfg t =
  let first = max 0 (t.next_span - capacity) in
  for id = first to t.next_span - 1 do
    let i = id land (capacity - 1) in
    Printf.fprintf oc
      "{\"cfg\":\"%s\",\"worker\":%d,\"span\":%d,\"op\":%d,\"name\":\"%s\",\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
      cfg t.worker id t.op.(i) t.names.(t.name.(i)) t.parent.(i) t.t0.(i) t.t1.(i)
  done;
  first
