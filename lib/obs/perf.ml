(* Atomic-op profiles of the lock-free cores (DESIGN.md §11), counted
   over the counting shim ([Sched.Counting]) by
   [Workload.Perf_runner.atomic_profiles]. *)

type atomic_profile = {
  a_core : string;  (** "sticky" | "slot" | "rc_cell" *)
  a_op : string;  (** pinned script name, e.g. "inc_dec" *)
  a_ops : int;  (** operations the script executed *)
  a_gets : int;
  a_sets : int;
  a_exchanges : int;
  a_cas : int;
  a_cas_failures : int;
  a_faa : int;
}

let atomics_total a = a.a_gets + a.a_sets + a.a_exchanges + a.a_cas + a.a_faa

let atomics_per_op a =
  if a.a_ops = 0 then 0.0 else float_of_int (atomics_total a) /. float_of_int a.a_ops
