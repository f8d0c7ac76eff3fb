(** Self-healing recovery on top of the monitor: checkpoint, rollback,
    resume.

    The paper's framework is fail-stop — any divergence halts the
    system. Follow-on N-variant work (DMON, dMVX; see PAPERS.md)
    recovers instead: roll the variants back to a known-good state,
    shed the offending input, and keep serving. This module implements
    that discipline over {!Monitor.snapshot}/{!Monitor.restore}:

    - a checkpoint of every variant plus the kernel is taken at
      {!Monitor.Blocked_on_accept} boundaries, every
      [checkpoint_interval] rendezvous, and replaces the last one in
      each variant's own page buffers, so a warmed checkpoint copies
      the pages the served requests dirtied and allocates no page;
    - on {!Monitor.Alarm} the system is rolled back to the last
      checkpoint, live connections (including the one that carried the
      attack) are dropped, and the accept loop resumes;
    - a restart budget — at most [max_recoveries] rollbacks per
      [recovery_window] rendezvous — bounds deterministic crash loops,
      degrading to the paper's fail-stop behaviour once exhausted.

    Recovery is bit-deterministic: runs under either execution engine
    take identical checkpoints, roll back at identical
    points and produce identical metrics. *)

type config = {
  checkpoint_interval : int;
      (** rendezvous between checkpoints (at accept boundaries); >= 1 *)
  max_recoveries : int;  (** rollbacks allowed per window; >= 0 *)
  recovery_window : int;  (** window length in rendezvous; >= 1 *)
}

val default_config : config
(** Checkpoint at every accept boundary; at most 8 recoveries per
    100_000 rendezvous. *)

type t

val create : ?config:config -> Monitor.t -> t
(** Wrap a monitor. Takes the initial checkpoint immediately (the
    pre-run entry state), so recovery is defined from the first
    quantum. Registers [supervisor.recoveries],
    [supervisor.dropped_connections], [supervisor.checkpoints] and
    [supervisor.failstop] counters in the monitor's registry. Raises
    [Invalid_argument] on an out-of-range config. *)

val run : ?fuel:int -> t -> Monitor.outcome
(** Like {!Monitor.run}, but alarms are absorbed while the restart
    budget lasts: on alarm the system rolls back to the last
    checkpoint (dropping live connections) and resumes. Returns
    {!Monitor.Alarm} only once the budget is exhausted — from then on
    the supervisor is fail-stop ({!exhausted}). Checkpoints are taken
    when the system parks on accept, each after releasing the one it
    replaces. *)

val monitor : t -> Monitor.t
val config : t -> config

val recoveries : t -> int
(** Rollbacks performed so far ([supervisor.recoveries]). *)

val dropped_connections : t -> int
(** Live connections closed by rollbacks
    ([supervisor.dropped_connections]). *)

val checkpoints : t -> int
(** Checkpoints taken, including the initial one
    ([supervisor.checkpoints]). *)

val last_alarm : t -> Alarm.reason option
(** The most recent alarm absorbed or surfaced, if any. *)

type recovery_record = {
  rr_rendezvous : int;  (** rendezvous count when the alarm fired *)
  rr_alarm : Alarm.reason;
  rr_dropped : int;  (** live connections closed by the rollback *)
  rr_forensics : Nv_util.Metrics.Json.value option;
      (** the monitor's post-mortem bundle, captured before the
          rollback erased the divergent state *)
}

val recovery_log : t -> recovery_record list
(** The rollbacks inside the recovery window, oldest first, each
    carrying the alarm it absorbed and the forensics bundle snapshotted
    at that alarm. The log is pruned by the restart budget's own rule:
    at every alarm, records more than [recovery_window] rendezvous older
    than it are dropped, so a long-running server keeps at most the
    records of one window rather than every recovery it ever made
    ({!recoveries} still counts them all). Fail-stopped alarms are not
    in the log (they were not recovered); their bundle remains
    available via {!Monitor.forensics}. *)

val exhausted : t -> bool
(** Whether the restart budget has been exhausted (the supervisor has
    degraded to fail-stop). *)
