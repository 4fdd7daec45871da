(** Michael–Scott lock-free FIFO queue (PODC 1996) under manual SMR —
    the structure hazard pointers were originally demonstrated on, and
    a second queue shape (single dummy node, no back-links) to contrast
    with the paper's doubly-linked queue.

    Protection discipline (Michael 2004): the dequeuer protects the
    head node, then its successor, and must re-validate [head == h]
    after each protection before dereferencing — the successor of a
    stale head may already be reclaimed under the pointer/interval
    schemes. The re-validation is performed unconditionally; for
    EBR/Hyaline it is redundant but harmless. *)

module Make (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)
  module Ident = Smr.Ident

  let name = S.name

  type node = { value : int; next : link Atomic.t }
  and link = node Ar.managed option

  type t = { ar : Ar.t; head : link Atomic.t; tail : link Atomic.t }
  type ctx = { t : t; pid : int }

  let mk_node ar ~pid v = Ar.alloc ar ~pid { value = v; next = Atomic.make None }

  let create ?slots_per_thread ?epoch_freq ~max_threads () =
    let ar = Ar.create ?slots_per_thread ?epoch_freq ~max_threads () in
    let dummy = mk_node ar ~pid:0 min_int in
    { ar; head = Atomic.make (Some dummy); tail = Atomic.make (Some dummy) }

  let ctx t pid = { t; pid }
  let ident_of = function None -> Ident.null | Some m -> Ident.of_val m

  let rec link_cas cell expected desired =
    let cur = Atomic.get cell in
    let eq =
      match (cur, expected) with
      | None, None -> true
      | Some a, Some b -> a == b
      | _ -> false
    in
    if not eq then false
    else if Atomic.compare_and_set cell cur desired then true
    else link_cas cell expected desired

  let link_is cell v =
    match (Atomic.get cell, v) with
    | None, None -> true
    | Some a, Some b -> a == b
    | _ -> false

  let out_of_slots () = failwith "ms_queue: out of announcement slots"

  (* Announce-and-settle on an anchor cell (head or tail). *)
  let protect c (cell : link Atomic.t) =
    match Ar.try_protect c.t.ar ~pid:c.pid ~ident:ident_of cell with
    | Some vg -> vg
    | None -> out_of_slots ()

  let release c g = Ar.release c.t.ar ~pid:c.pid g

  let enqueue c v =
    Ar.begin_critical_section c.t.ar ~pid:c.pid;
    let nu = mk_node c.t.ar ~pid:c.pid v in
    let rec loop () =
      let lt, g = protect c c.t.tail in
      match lt with
      | None ->
          (* The tail link is never null; still, don't leak the slot. *)
          release c g;
          failwith "ms_queue: null tail"
      | Some tm ->
          (* Validate tail still = tm before trusting it. *)
          if not (link_is c.t.tail lt) then begin
            release c g;
            loop ()
          end
          else begin
            let tnode = Ar.get tm in
            match Atomic.get tnode.next with
            | None ->
                if link_cas tnode.next None (Some nu) then begin
                  (* Swing the tail; failure means someone helped. *)
                  ignore (link_cas c.t.tail (Some tm) (Some nu));
                  release c g
                end
                else begin
                  release c g;
                  loop ()
                end
            | Some nx ->
                (* Help a lagging enqueuer advance the tail. *)
                ignore (link_cas c.t.tail (Some tm) (Some nx));
                release c g;
                loop ()
          end
    in
    loop ();
    Ar.end_critical_section c.t.ar ~pid:c.pid

  let dequeue c =
    Ar.begin_critical_section c.t.ar ~pid:c.pid;
    let rec loop () =
      let lh, gh = protect c c.t.head in
      match lh with
      | None ->
          release c gh;
          failwith "ms_queue: null head"
      | Some hm ->
          if not (link_is c.t.head lh) then begin
            release c gh;
            loop ()
          end
          else begin
            let hnode = Ar.get hm in
            let lt = Atomic.get c.t.tail in
            let next = Atomic.get hnode.next in
            match next with
            | None ->
                release c gh;
                None
            | Some nm ->
                (* Protect the successor, then re-validate the head:
                   a stale head's successor may already be reclaimed. *)
                let gn =
                  match Ar.try_protect_ident c.t.ar ~pid:c.pid (Ident.of_val nm) with
                  | Some g -> g
                  | None -> out_of_slots ()
                in
                if not (link_is c.t.head lh) then begin
                  release c gn;
                  release c gh;
                  loop ()
                end
                else if
                  match lt with Some tm -> tm == hm | None -> false
                then begin
                  (* Tail is lagging behind a non-empty queue: help. *)
                  ignore (link_cas c.t.tail lt next);
                  release c gn;
                  release c gh;
                  loop ()
                end
                else begin
                  let v = (Ar.get nm).value in
                  if link_cas c.t.head lh next then begin
                    Ar.retire_free c.t.ar ~pid:c.pid hm;
                    Ar.reclaim c.t.ar ~pid:c.pid;
                    release c gn;
                    release c gh;
                    Some v
                  end
                  else begin
                    release c gn;
                    release c gh;
                    loop ()
                  end
                end
          end
    in
    let r = loop () in
    Ar.end_critical_section c.t.ar ~pid:c.pid;
    r

  let flush c = Ar.drain c.t.ar ~pid:c.pid
  let live_objects t = Simheap.live (Ar.heap t.ar)

  let teardown t =
    let rec go = function
      | None -> ()
      | Some (m : node Ar.managed) ->
          let next = Atomic.get m.Ar.value.next in
          if Simheap.is_live m.Ar.block then Simheap.free m.Ar.block;
          go next
    in
    go (Atomic.get t.head);
    Atomic.set t.head None;
    Atomic.set t.tail None;
    Ar.quiesce t.ar
end
