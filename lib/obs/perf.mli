(** Exact atomic-op profiles of the lock-free cores (DESIGN.md §11):
    one pinned single-domain script per (core, op), run over
    [Sched.Counting]. test/test_perf.ml pins the counts; perfbench
    reports {!atomics_per_op} as [atomics.<core>.<op>]. *)

type atomic_profile = {
  a_core : string;
  a_op : string;
  a_ops : int;
  a_gets : int;
  a_sets : int;
  a_exchanges : int;
  a_cas : int;
  a_cas_failures : int;
  a_faa : int;
}

val atomics_total : atomic_profile -> int
val atomics_per_op : atomic_profile -> float
