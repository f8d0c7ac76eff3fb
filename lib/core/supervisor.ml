module Metrics = Nv_util.Metrics
module Trace = Nv_util.Trace

type config = {
  checkpoint_interval : int;
  max_recoveries : int;
  recovery_window : int;
}

let default_config =
  { checkpoint_interval = 1; max_recoveries = 8; recovery_window = 100_000 }

type recovery_record = {
  rr_rendezvous : int;
  rr_alarm : Alarm.reason;
  rr_dropped : int;
  rr_forensics : Metrics.Json.value option;
}

type t = {
  monitor : Monitor.t;
  config : config;
  mutable checkpoint : Monitor.snapshot;
  mutable checkpoint_rv : int;  (* rendezvous count at the checkpoint *)
  mutable last_alarm : Alarm.reason option;
  mutable exhausted : bool;
  (* The rollbacks inside the current recovery window, newest first:
     both the restart budget's count and the recovery log. *)
  mutable recovery_records : recovery_record list;
  trace_ring : Trace.ring;
  recoveries_c : Metrics.counter;
  dropped_c : Metrics.counter;
  checkpoints_c : Metrics.counter;
  failstop_c : Metrics.counter;
}

let create ?(config = default_config) monitor =
  if config.checkpoint_interval < 1 then
    invalid_arg "Supervisor.create: checkpoint_interval must be >= 1";
  if config.max_recoveries < 0 then
    invalid_arg "Supervisor.create: max_recoveries must be >= 0";
  if config.recovery_window < 1 then
    invalid_arg "Supervisor.create: recovery_window must be >= 1";
  let scope = Metrics.scope (Monitor.metrics monitor) "supervisor" in
  let t =
    {
      monitor;
      config;
      (* The initial checkpoint is the pre-run entry state, so recovery
         is defined from the very first quantum. *)
      checkpoint = Monitor.snapshot monitor;
      checkpoint_rv = Monitor.rendezvous_count monitor;
      last_alarm = None;
      exhausted = false;
      recovery_records = [];
      (* The supervisor lane sits past the monitor's variant /
         coordinator / kernel tids; it only records between
         [Monitor.run] calls. *)
      trace_ring =
        Trace.ring
          (Monitor.trace_session monitor)
          ~name:"supervisor" ~pid:0
          ~tid:(Monitor.variant_count monitor + 2);
      recoveries_c = Metrics.counter scope "recoveries";
      dropped_c = Metrics.counter scope "dropped_connections";
      checkpoints_c = Metrics.counter scope "checkpoints";
      failstop_c = Metrics.counter scope "failstop";
    }
  in
  Metrics.incr t.checkpoints_c;
  (if Trace.enabled_ring t.trace_ring then
     Trace.record t.trace_ring
       ~ts:(Monitor.instructions_retired monitor)
       (Trace.Checkpoint { rendezvous = t.checkpoint_rv }));
  t

let monitor t = t.monitor

let config t = t.config

let recoveries t = Metrics.counter_value t.recoveries_c

let dropped_connections t = Metrics.counter_value t.dropped_c

let checkpoints t = Metrics.counter_value t.checkpoints_c

let last_alarm t = t.last_alarm

let exhausted t = t.exhausted

let recovery_log t = List.rev t.recovery_records

let record_event t kind =
  if Trace.enabled_ring t.trace_ring then
    Trace.record t.trace_ring ~ts:(Monitor.instructions_retired t.monitor) kind

(* Checkpoints are only taken at [Blocked_on_accept]: every variant is
   parked at an equivalent rendezvous boundary with its pc rewound to
   the accept instruction, so a restore resumes the accept loop with no
   half-performed syscall in flight. The new checkpoint replaces the
   old one in every variant's own page buffers. *)
let maybe_checkpoint t =
  let now = Monitor.rendezvous_count t.monitor in
  if now - t.checkpoint_rv >= t.config.checkpoint_interval then begin
    t.checkpoint <- Monitor.snapshot t.monitor;
    t.checkpoint_rv <- now;
    Metrics.incr t.checkpoints_c;
    record_event t (Trace.Checkpoint { rendezvous = now })
  end

(* The restart budget: at most [max_recoveries] rollbacks within any
   [recovery_window] rendezvous. A deterministic crash loop (an alarm
   that recovery cannot clear, e.g. one raised before any connection
   is accepted) burns through the budget and degrades to fail-stop
   rather than looping forever. Records that fall out of the window are
   dropped here, which also bounds the recovery log (and the forensics
   bundles it holds) on a long-running server. *)
let budget_available t ~now =
  t.recovery_records <-
    List.filter
      (fun r -> now - r.rr_rendezvous < t.config.recovery_window)
      t.recovery_records;
  List.length t.recovery_records < t.config.max_recoveries

let run ?fuel t =
  let rec go () =
    match Monitor.run ?fuel t.monitor with
    | Monitor.Blocked_on_accept ->
      maybe_checkpoint t;
      Monitor.Blocked_on_accept
    | Monitor.Alarm reason ->
      t.last_alarm <- Some reason;
      let now = Monitor.rendezvous_count t.monitor in
      if t.exhausted || not (budget_available t ~now) then begin
        t.exhausted <- true;
        Metrics.incr t.failstop_c;
        record_event t (Trace.Failstop { rendezvous = now });
        Logs.warn ~src:Nv_util.Logsrc.supervisor (fun m ->
            m "supervisor: recovery budget exhausted, failing stop on %a" Alarm.pp
              reason);
        Monitor.Alarm reason
      end
      else begin
        (* The forensics bundle was captured by the monitor at the
           alarm, before the rollback below erases the divergent
           state; attach it to the recovery record. *)
        let forensics = Monitor.forensics t.monitor in
        let dropped = Monitor.restore t.monitor t.checkpoint in
        t.recovery_records <-
          {
            rr_rendezvous = now;
            rr_alarm = reason;
            rr_dropped = dropped;
            rr_forensics = forensics;
          }
          :: t.recovery_records;
        Metrics.incr t.recoveries_c;
        Metrics.add t.dropped_c dropped;
        record_event t (Trace.Rollback { rendezvous = t.checkpoint_rv; dropped });
        Logs.info ~src:Nv_util.Logsrc.supervisor (fun m ->
            m "supervisor: rolled back to checkpoint (%d connection%s dropped) on %a"
              dropped
              (if dropped = 1 then "" else "s")
              Alarm.pp reason);
        go ()
      end
    | (Monitor.Exited _ | Monitor.Out_of_fuel) as outcome -> outcome
  in
  go ()
