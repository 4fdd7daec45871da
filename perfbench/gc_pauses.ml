(* GC pauses read back from the runtime's own event rings
   (runtime_events): the duration of every minor collection and every
   major slice, on every domain. Only the polling domain runs the
   callbacks. *)

module RE = Runtime_events

type t = { cursor : RE.cursor; callbacks : RE.Callbacks.t; hist : Lat.t }

let tracked = function RE.EV_MINOR | RE.EV_MAJOR_SLICE -> true | _ -> false
let ns ts = Int64.to_int (RE.Timestamp.to_int64 ts)

let start () =
  RE.start ();
  let hist = Lat.create () in
  let begun = Hashtbl.create 8 in
  let runtime_begin dom ts phase = if tracked phase then Hashtbl.replace begun (dom, phase) (ns ts) in
  let runtime_end dom ts phase =
    if tracked phase then
      match Hashtbl.find_opt begun (dom, phase) with
      | Some t0 ->
          Hashtbl.remove begun (dom, phase);
          Lat.add hist (ns ts - t0)
      | None -> ()
  in
  let callbacks = RE.Callbacks.create ~runtime_begin ~runtime_end () in
  { cursor = RE.create_cursor None; callbacks; hist }

let poll t = ignore (RE.read_poll t.cursor t.callbacks None)

(* Fresh histogram: pauses seen from now on. *)
let reset t =
  poll t;
  Array.fill t.hist 0 (Array.length t.hist) 0

let hist t = t.hist
