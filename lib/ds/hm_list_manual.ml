(** Harris–Michael lock-free linked-list set (Harris 2001, Michael
    2002) under {e manual} safe memory reclamation — the baseline side
    of the paper's list benchmark (Fig 13a).

    Nodes are unlinked with a logically-deleting mark on their [next]
    link, then retired; removed memory is reclaimed by whichever SMR
    scheme the functor is instantiated with. Schemes whose protection
    is interval- or pointer-precise (HP, HE, IBR) additionally require
    Michael's [*prev == cur] revalidation before trusting a protected
    node; EBR and Hyaline skip it (see [Smr_intf.requires_validation])
    exactly as their native implementations do — this asymmetry is part
    of why region schemes are faster and is preserved deliberately.

    The core operates on an explicit head cell so that the Michael
    hash table can reuse it bucket-by-bucket. *)

module Make (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)
  module Ident = Smr.Ident

  let name = S.name

  type node = { key : int; next : link Atomic.t }
  and link = { dest : node Ar.managed option; marked : bool }

  type t = { ar : Ar.t; head : link Atomic.t }
  type ctx = { t : t; pid : int }

  let null_link = { dest = None; marked = false }

  let create ?slots_per_thread ?epoch_freq ?buckets:_ ~max_threads () =
    {
      ar = Ar.create ?slots_per_thread ?epoch_freq ~max_threads ();
      head = Atomic.make null_link;
    }

  let ctx t pid = { t; pid }
  let validate = S.requires_validation
  let ident_of l = match l.dest with None -> Ident.null | Some m -> Ident.of_val m
  let link_to m = { dest = Some m; marked = false }

  let link_eq a b =
    a.marked = b.marked
    &&
    match (a.dest, b.dest) with
    | None, None -> true
    | Some x, Some y -> x == y
    | _ -> false

  let rec link_cas cell expected desired =
    let cur = Atomic.get cell in
    if not (link_eq cur expected) then false
    else if Atomic.compare_and_set cell cur desired then true
    else link_cas cell expected desired

  (* Protect the destination of the link currently in [cell]; returns
     the protected link and its guard. Guard budget per traversal is at
     most 3, below the default 8 slots of HP/HE. *)
  let protect c cell =
    match Ar.try_protect c.t.ar ~pid:c.pid ~ident:ident_of cell with
    | Some vg -> vg
    | None -> failwith "hm_list_manual: out of announcement slots (need >= 3)"

  let release c g = Ar.release c.t.ar ~pid:c.pid g
  let release_opt c = function Some g -> release c g | None -> ()

  exception Restart

  type cursor = {
    found : bool;
    prev : link Atomic.t;
    prev_g : S.guard option; (* protects the node containing [prev] *)
    cur : link; (* unmarked view of the successor *)
    cur_g : S.guard option;
  }

  let discard c cu =
    release_opt c cu.prev_g;
    release_opt c cu.cur_g

  (* Michael's find: position the cursor at the first node with
     key >= [key], unlinking marked nodes on the way. *)
  let rec search c head key =
    match search_once c head key with cu -> cu | exception Restart -> search c head key

  and search_once c head key =
    let prev = ref head in
    let prev_g = ref None in
    let v, g = protect c head in
    let cur = ref v in
    let cur_g = ref (if v.dest = None then (release c g; None) else Some g) in
    let abort () =
      release_opt c !cur_g;
      release_opt c !prev_g;
      raise Restart
    in
    let rec loop () =
      match !cur.dest with
      | None -> { found = false; prev = !prev; prev_g = !prev_g; cur = !cur; cur_g = None }
      | Some m ->
          let node = Ar.get m in
          let next, gn = protect c node.next in
          (* Protected-pointer schemes: cur is only trustworthy if prev
             still links to it unmarked (Michael 2002). *)
          if validate && not (link_eq (Atomic.get !prev) { dest = !cur.dest; marked = false })
          then begin
            release c gn;
            abort ()
          end
          else if next.marked then
            (* cur is logically deleted: unlink and retire it. *)
            if
              link_cas !prev
                { dest = !cur.dest; marked = false }
                { dest = next.dest; marked = false }
            then begin
              Ar.retire_free c.t.ar ~pid:c.pid m;
              Ar.reclaim c.t.ar ~pid:c.pid;
              release_opt c !cur_g;
              cur := { next with marked = false };
              cur_g := (if next.dest = None then (release c gn; None) else Some gn);
              loop ()
            end
            else begin
              release c gn;
              abort ()
            end
          else if node.key >= key then begin
            release c gn;
            {
              found = node.key = key;
              prev = !prev;
              prev_g = !prev_g;
              cur = !cur;
              cur_g = !cur_g;
            }
          end
          else begin
            release_opt c !prev_g;
            prev_g := !cur_g;
            prev := node.next;
            cur := next;
            cur_g := (if next.dest = None then (release c gn; None) else Some gn);
            loop ()
          end
    in
    loop ()

  let insert_at c head key =
    let rec go () =
      let cu = search c head key in
      if cu.found then begin
        discard c cu;
        false
      end
      else begin
        let m =
          Ar.alloc c.t.ar ~pid:c.pid
            { key; next = Atomic.make { dest = cu.cur.dest; marked = false } }
        in
        if
          link_cas cu.prev { dest = cu.cur.dest; marked = false } { dest = Some m; marked = false }
        then begin
          discard c cu;
          true
        end
        else begin
          (* Never published: reclaim directly. *)
          Simheap.free m.Ar.block;
          discard c cu;
          go ()
        end
      end
    in
    go ()

  let remove_at c head key =
    let rec go () =
      let cu = search c head key in
      if not cu.found then begin
        discard c cu;
        false
      end
      else begin
        let m = Option.get cu.cur.dest in
        let node = Ar.get m in
        let next = Atomic.get node.next in
        if next.marked then begin
          (* A concurrent remove owns this node; retry until the find
             no longer sees it. *)
          discard c cu;
          go ()
        end
        else if
          link_cas node.next { dest = next.dest; marked = false }
            { dest = next.dest; marked = true }
        then begin
          (* We own the deletion; try to unlink (guards still held, so
             the prev cell is safe to CAS), else a later find unlinks
             and retires it. *)
          if
            link_cas cu.prev { dest = Some m; marked = false }
              { dest = next.dest; marked = false }
          then begin
            Ar.retire_free c.t.ar ~pid:c.pid m;
            Ar.reclaim c.t.ar ~pid:c.pid
          end
          else begin
            let cu2 = search c head key in
            discard c cu2
          end;
          discard c cu;
          true
        end
        else begin
          discard c cu;
          go ()
        end
      end
    in
    go ()

  (* Read-only traversal: no helping, no unlinking; marked nodes are
     passed through (their links are frozen). *)
  let contains_at c head key =
    let once () =
      let prev = ref head in
      let prev_g = ref None in
      let v, g = protect c head in
      let cur = ref v in
      let cur_g = ref (if v.dest = None then (release c g; None) else Some g) in
      let finish result =
        release_opt c !cur_g;
        release_opt c !prev_g;
        result
      in
      let rec loop () =
        match !cur.dest with
        | None -> finish false
        | Some m ->
            let node = Ar.get m in
            if node.key > key then finish false
            else if node.key = key then
              (* Deletion flag lives on the node's own next link; no
                 dereference needed to read it. *)
              finish (not (Atomic.get node.next).marked)
            else begin
              let next, gn = protect c node.next in
              if
                validate
                && not (link_eq (Atomic.get !prev) { dest = !cur.dest; marked = false })
              then begin
                release c gn;
                release_opt c !cur_g;
                release_opt c !prev_g;
                raise Restart
              end;
              release_opt c !prev_g;
              prev_g := !cur_g;
              prev := node.next;
              cur := { next with marked = false };
              cur_g := (if next.dest = None then (release c gn; None) else Some gn);
              loop ()
            end
      in
      loop ()
    in
    let rec retry () = match once () with b -> b | exception Restart -> retry () in
    retry ()

  (* Sequential-traversal range count (non-linearizable, as in the
     paper's range-query workload). *)
  let range_at c head lo hi =
    let once () =
      let prev = ref head in
      let prev_g = ref None in
      let v, g = protect c head in
      let cur = ref v in
      let cur_g = ref (if v.dest = None then (release c g; None) else Some g) in
      let count = ref 0 in
      let finish () =
        release_opt c !cur_g;
        release_opt c !prev_g;
        !count
      in
      let rec loop () =
        match !cur.dest with
        | None -> finish ()
        | Some m ->
            let node = Ar.get m in
            if node.key >= hi then finish ()
            else begin
              let next, gn = protect c node.next in
              if
                validate
                && not (link_eq (Atomic.get !prev) { dest = !cur.dest; marked = false })
              then begin
                release c gn;
                release_opt c !cur_g;
                release_opt c !prev_g;
                raise Restart
              end;
              if node.key >= lo && not next.marked then incr count;
              release_opt c !prev_g;
              prev_g := !cur_g;
              prev := node.next;
              cur := { next with marked = false };
              cur_g := (if next.dest = None then (release c gn; None) else Some gn);
              loop ()
            end
      in
      loop ()
    in
    let rec retry () = match once () with n -> n | exception Restart -> retry () in
    retry ()

  (* Quiescent-only sequential helpers over a head cell. *)
  let size_at head =
    let rec go l n =
      match l.dest with
      | None -> n
      | Some m ->
          let node = m.Ar.value in
          let next = Atomic.get node.next in
          go next (if next.marked then n else n + 1)
    in
    go (Atomic.get head) 0

  let teardown_at head =
    let rec go l =
      match l.dest with
      | None -> ()
      | Some m ->
          let node = m.Ar.value in
          let next = Atomic.get node.next in
          if Simheap.is_live m.Ar.block then Simheap.free m.Ar.block;
          go next
    in
    go (Atomic.get head);
    Atomic.set head null_link

  (* ------------------ Set_intf.S wrapper ---------------------------- *)

  let with_section c f = Ar.critically c.t.ar ~pid:c.pid f

  let insert c key = with_section c (fun () -> insert_at c c.t.head key)
  let remove c key = with_section c (fun () -> remove_at c c.t.head key)
  let contains c key = with_section c (fun () -> contains_at c c.t.head key)
  let range_query c lo hi = with_section c (fun () -> range_at c c.t.head lo hi)
  let flush c = Ar.drain c.t.ar ~pid:c.pid
  let size t = size_at t.head
  let live_objects t = Simheap.live (Ar.heap t.ar)
  let peak_objects t = Simheap.peak (Ar.heap t.ar)
  let reset_peak t = Simheap.reset_peak (Ar.heap t.ar)
  let teardown t =
    teardown_at t.head;
    Ar.quiesce t.ar
  let uaf_events _ = 0

  let snapshot_stats _ = None
  let retired_backlog t = Ar.total_pending t.ar
  let control t = [ Ar.handle t.ar ]
  let watchdog_check t = Ar.watchdog_check t.ar
end
