(* Tests of the generalized acquire-retire layer itself (Fig 2):
   allocation birth tags, critical-section wrappers, deferred-op
   cascades, pid routing of ejected operations, the protect entry
   points, batch sizing, and the backlog census (through Cdrc too). *)

(* [S] with a writer that runs right after the next announcement, i.e.
   between the first read of a location and its confirm. *)
module Racing (S : Smr.Smr_intf.S) = struct
  include S

  let after_announce = ref (fun () -> ())

  let fire () =
    let f = !after_announce in
    after_announce := (fun () -> ());
    f ()

  let acquire t ~pid id =
    let g = S.acquire t ~pid id in
    fire ();
    g

  let try_acquire t ~pid id =
    let g = S.try_acquire t ~pid id in
    fire ();
    g
end

(* Every scheme, for the tests that hold for the leaky baseline too. *)
module Protocol_tests (S : Smr.Smr_intf.S) = struct
  module R = Racing (S)
  module Ar = Acquire_retire.Make (R)
  module Rc = Cdrc.Make (S)

  let t name f = Alcotest.test_case (S.name ^ ": " ^ name) `Quick f
  let reclaims = S.name <> "None"

  (* The writer swaps [cell] from m1 to m2 after the announcement of
     m1: protect must come back with m2, and m2 must be the object the
     guard (with the section) keeps alive. *)
  let protect_returns_reread () =
    let check_one (protect : Ar.t -> int Ar.managed Atomic.t -> int Ar.managed * Ar.guard) =
      let ar = Ar.create ~max_threads:1 () in
      let m1 = Ar.alloc ar ~pid:0 1 and m2 = Ar.alloc ar ~pid:0 2 in
      let cell = Atomic.make m1 in
      R.after_announce := (fun () -> Atomic.set cell m2);
      Ar.begin_critical_section ar ~pid:0;
      let v, g = protect ar cell in
      Alcotest.(check int) "re-read value" 2 (Ar.get v);
      Atomic.set cell m1;
      Ar.retire_free ar ~pid:0 m2;
      Ar.drain ar ~pid:0;
      Alcotest.(check bool) "re-read value protected" true (Ar.is_live m2);
      Ar.release ar ~pid:0 g;
      Ar.end_critical_section ar ~pid:0;
      Ar.retire_free ar ~pid:0 m1;
      Ar.quiesce ar;
      Alcotest.(check int) "no leak" 0 (Simheap.live (Ar.heap ar))
    in
    check_one (fun ar cell -> Ar.protect ar ~pid:0 ~ident:Ar.ident cell);
    check_one (fun ar cell -> Option.get (Ar.try_protect ar ~pid:0 ~ident:Ar.ident cell))

  let try_protect_exhaustion () =
    let slots = 2 in
    let ar = Ar.create ~slots_per_thread:slots ~max_threads:1 () in
    let m = Ar.alloc ar ~pid:0 0 in
    let cell = Atomic.make m in
    Ar.begin_critical_section ar ~pid:0;
    let rec take n acc =
      if n = 0 then acc
      else
        match Ar.try_protect ar ~pid:0 ~ident:Ar.ident cell with
        | Some (_, g) -> take (n - 1) (g :: acc)
        | None -> acc
    in
    let guards = take 64 [] in
    let expected = if List.mem S.name [ "HP"; "HE"; "PTB" ] then slots else 64 in
    Alcotest.(check int) "guards granted" expected (List.length guards);
    List.iter (Ar.release ar ~pid:0) guards;
    Ar.end_critical_section ar ~pid:0;
    Ar.retire_free ar ~pid:0 m;
    Ar.quiesce ar

  (* Nothing is protected, so every entry is ejectable: a non-forced
     eject must still stop at the live batch cap, and a forced one must
     take the rest. *)
  let eject_batch_cap () =
    let cap = 4 and n = 20 in
    let ar = Ar.create ~cleanup_freq:1 ~max_threads:1 () in
    Smr.Knobs.set_batch_cap (Ar.handle ar).h_knobs cap;
    for i = 1 to n do
      Ar.retire_free ar ~pid:0 (Ar.alloc ar ~pid:0 i)
    done;
    let first = Ar.eject ar ~pid:0 in
    Alcotest.(check bool) "capped" true (List.length first <= cap);
    let rest = Ar.eject ~force:true ar ~pid:0 in
    List.iter (fun op -> op 0) (first @ rest);
    if reclaims then begin
      Alcotest.(check int) "forced eject takes the rest" n (List.length first + List.length rest);
      Alcotest.(check int) "nothing pending" 0 (Ar.total_pending ar)
    end;
    Ar.quiesce ar;
    Alcotest.(check int) "no leak" 0 (Simheap.live (Ar.heap ar))

  (* Deferred decrements, weak decrements and disposals in flight, then
     quiesce: the census over the three instances must read zero. *)
  let cdrc_backlog_after_quiesce () =
    let rt = Rc.create ~max_threads:2 () in
    let th = Rc.thread rt 0 in
    let a = Rc.Shared.make th 0 in
    let cell = Rc.Asp.make th (Rc.Shared.ptr a) in
    let wcell = Rc.Awp.make th (Rc.Shared.ptr a) in
    Rc.Shared.drop th a;
    Rc.critically th (fun () ->
        for i = 1 to 50 do
          Rc.Shared.scoped th i (fun p ->
              Rc.Asp.store th cell (Rc.Shared.ptr p);
              Rc.Awp.store th wcell (Rc.Shared.ptr p))
        done);
    Rc.Asp.clear th cell;
    Rc.Awp.clear th wcell;
    Rc.quiesce rt;
    Alcotest.(check int) "backlog" 0 (Rc.retired_backlog rt);
    Alcotest.(check int) "no leak" 0 (Rc.live_objects rt)

  let tests =
    [
      t "protect returns the re-read value" protect_returns_reread;
      t "try_protect slot exhaustion" try_protect_exhaustion;
      t "eject honours batch_cap" eject_batch_cap;
      t "Cdrc backlog zero after quiesce" cdrc_backlog_after_quiesce;
    ]
end

module Make_tests (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)

  let t name f = Alcotest.test_case (S.name ^ ": " ^ name) `Quick f

  let birth_tags_monotone () =
    let ar = Ar.create ~epoch_freq:5 ~max_threads:1 () in
    let prev = ref min_int in
    for _ = 1 to 100 do
      let m = Ar.alloc ar ~pid:0 () in
      Alcotest.(check bool) "monotone" true (m.Ar.birth >= !prev);
      prev := m.Ar.birth;
      Ar.retire_free ar ~pid:0 m
    done;
    (* IBR/HE advance their clock every 5 allocations here; the tag
       must actually move for the epoch-based schemes. *)
    if S.name = "IBR" || S.name = "HE" then
      Alcotest.(check bool) "epochs advanced" true (!prev >= 19);
    Ar.quiesce ar;
    Alcotest.(check int) "no leak" 0 (Simheap.live (Ar.heap ar))

  let critically_ends_section_on_exception () =
    let ar = Ar.create ~max_threads:1 () in
    (match Ar.critically ar ~pid:0 (fun () -> failwith "boom") with
    | _ -> Alcotest.fail "expected exception"
    | exception Failure _ -> ());
    (* If the section leaked, this retire would never eject. *)
    let m = Ar.alloc ar ~pid:0 () in
    Ar.retire_free ar ~pid:0 m;
    Ar.quiesce ar;
    Alcotest.(check int) "section was closed" 0 (Simheap.live (Ar.heap ar))

  let cascading_retires () =
    (* A deferred op that retires another object: quiesce must chase
       the cascade to the end (linked chain of 50 objects). *)
    let ar = Ar.create ~max_threads:1 () in
    let ms = Array.init 50 (fun i -> Ar.alloc ar ~pid:0 i) in
    let rec retire_chain i =
      if i < 50 then
        Ar.retire ar ~pid:0 ms.(i) (fun _pid ->
            Simheap.free ms.(i).Ar.block;
            retire_chain (i + 1))
    in
    retire_chain 0;
    Ar.quiesce ar;
    Alcotest.(check int) "whole chain reclaimed" 0 (Simheap.live (Ar.heap ar))

  let ejected_ops_receive_executing_pid () =
    let ar = Ar.create ~cleanup_freq:1 ~max_threads:3 () in
    let m = Ar.alloc ar ~pid:0 () in
    let seen = ref (-1) in
    Ar.retire ar ~pid:0 m (fun pid -> seen := pid);
    (* Drain from pid 2: the op must observe pid 2 (Hyaline can eject
       cross-thread; the closure must not assume the retiring pid). *)
    Ar.drain ar ~pid:2;
    (* For per-thread-queue schemes the entry lives in pid 0's queue, so
       drain it there too. *)
    if !seen = -1 then Ar.drain ar ~pid:0;
    Alcotest.(check bool) "pid routed" true (!seen = 0 || !seen = 2);
    Simheap.free m.Ar.block

  let try_acquire_settles_on_current_value () =
    let ar = Ar.create ~max_threads:1 () in
    let m1 = Ar.alloc ar ~pid:0 1 in
    let cell = Atomic.make m1 in
    Ar.begin_critical_section ar ~pid:0;
    (match Ar.try_acquire ar ~pid:0 ~read:(fun () -> Atomic.get cell) ~ident:Ar.ident with
    | Some (v, g) ->
        Alcotest.(check int) "value" 1 (Ar.get v);
        Ar.release ar ~pid:0 g
    | None -> Alcotest.fail "unexpected exhaustion with free slots");
    Ar.end_critical_section ar ~pid:0;
    Ar.retire_free ar ~pid:0 m1;
    Ar.quiesce ar

  let tests =
    [
      t "birth tags monotone" birth_tags_monotone;
      t "critically closes on exception" critically_ends_section_on_exception;
      t "cascading retires" cascading_retires;
      t "ejected ops receive pid" ejected_ops_receive_executing_pid;
      t "try_acquire settles" try_acquire_settles_on_current_value;
    ]
end

(* Hyaline keeps one global retired list; the backlog census must
   count each entry once, not once per thread. *)
let hyaline_backlog_counts_once () =
  let module Ar = Acquire_retire.Make (Smr.Hyaline) in
  let ar = Ar.create ~max_threads:4 () in
  Ar.begin_critical_section ar ~pid:0;
  for i = 1 to 10 do
    Ar.retire_free ar ~pid:0 (Ar.alloc ar ~pid:0 i)
  done;
  Alcotest.(check int) "AR backlog" 10 (Ar.total_pending ar);
  Ar.end_critical_section ar ~pid:0;
  Ar.quiesce ar;
  let module Rc = Cdrc.Make (Smr.Hyaline) in
  let rt = Rc.create ~max_threads:4 () in
  let th = Rc.thread rt 0 in
  let ps = Array.init 11 (fun i -> Rc.Shared.make th i) in
  let cell = Rc.Asp.make th (Rc.Shared.ptr ps.(0)) in
  Rc.begin_critical_section th;
  for i = 1 to 10 do
    Rc.Asp.store th cell (Rc.Shared.ptr ps.(i))
  done;
  Alcotest.(check int) "Cdrc backlog" 10 (Rc.retired_backlog rt);
  Rc.end_critical_section th;
  Rc.Asp.clear th cell;
  Array.iter (Rc.Shared.drop th) ps;
  Rc.quiesce rt;
  Alcotest.(check int) "no leak" 0 (Rc.live_objects rt)

module T_ebr = Make_tests (Smr.Ebr)
module T_ibr = Make_tests (Smr.Ibr)
module T_hyaline = Make_tests (Smr.Hyaline)
module T_hp = Make_tests (Smr.Hp)
module T_he = Make_tests (Smr.Hazard_eras)
module T_ptb = Make_tests (Smr.Ptb)
module P_ebr = Protocol_tests (Smr.Ebr)
module P_ibr = Protocol_tests (Smr.Ibr)
module P_hyaline = Protocol_tests (Smr.Hyaline)
module P_hp = Protocol_tests (Smr.Hp)
module P_he = Protocol_tests (Smr.Hazard_eras)
module P_ptb = Protocol_tests (Smr.Ptb)
module P_none = Protocol_tests (Smr.Leaky)

let () =
  Alcotest.run "acquire_retire"
    [
      ("ebr", T_ebr.tests);
      ("ibr", T_ibr.tests);
      ("hyaline", T_hyaline.tests);
      ("hp", T_hp.tests);
      ("hazard_eras", T_he.tests);
      ("ptb", T_ptb.tests);
      ( "protocol",
        List.concat
          [
            P_ebr.tests;
            P_ibr.tests;
            P_hyaline.tests;
            P_hp.tests;
            P_he.tests;
            P_ptb.tests;
            P_none.tests;
          ] );
      ( "backlog",
        [ Alcotest.test_case "Hyaline counts each entry once" `Quick hyaline_backlog_counts_once ]
      );
    ]
