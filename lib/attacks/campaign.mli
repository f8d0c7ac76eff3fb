(** The attack campaign: every attack class against every deployment
    configuration — experiment X2, the evidence behind the paper's
    detection claims (and its admitted high-bit escape).

    Each cell of the matrix builds a fresh system, drives the attack
    through the public input channel (plus direct memory fault
    injection for the bit-level rows), and classifies the outcome. *)

type verdict =
  | Escalated of string
      (** The attacker read the protected file; payload excerpt kept
          as evidence. *)
  | Corrupted_undetected
      (** The stored UID changed and the system kept serving without
          an alarm — an integrity violation the monitor missed (the
          expected result for the high-bit row under the XOR key). *)
  | Detected of Nv_core.Alarm.reason
      (** The monitor raised an alarm before the attack took effect. *)
  | Crashed of string
      (** The (single-variant) server died without escalation. *)
  | Recovered of { recoveries : int; last_alarm : Nv_core.Alarm.reason option }
      (** A supervisor absorbed the alarm(s): the attack was detected,
          the system rolled back and kept serving, and the probe saw a
          healthy server (only produced under [?recover]). *)
  | No_effect
      (** Server still healthy, UID intact, nothing leaked. *)

val verdict_label : verdict -> string
(** Short cell text: "ESCALATED", "CORRUPTED", "DETECTED",
    "CRASHED", "RECOVERED", "no effect". *)

val pp_verdict : Format.formatter -> verdict -> unit

type attack = {
  name : string;
  description : string;
  assumes_keys : bool;
      (** The attack computes per-variant values from {e guessed}
          reexpression keys — a strictly stronger, key-compromise
          threat model than the paper's single-channel attacker.
          Deployments with fixed published keys (including the paper's
          own two-variant configuration) are expected to lose to it;
          per-boot seeded and per-variant keys are what defeat it, so
          headline gates on the single-channel rows must exempt it. *)
  run : Nv_core.Nsystem.t -> verdict;
}

val attacks : attack list
(** The matrix rows:
    - [baseline-request]: a benign request (control row);
    - [uid-null-overflow]: 64-byte URL, NUL terminator zeroes the UID
      low byte → canonical root, then [..] traversal;
    - [uid-partial-byte]: 65-byte URL, one attacker byte into the UID;
    - [uid-three-bytes]: 67-byte URL, the three low-order UID bytes
      replaced (the Section 2.3 partial-overwrite granularity);
    - [uid-bit-set-low]: hardware fault forcing bit 0 of the stored
      word in every variant;
    - [uid-bit-set-high]: hardware fault forcing bit 31 — the paper's
      reexpression-key escape;
    - [uid-guessed-key-injection]: key-compromise fault writing each
      variant's guess of [encode 0] under the {e published shared
      key} — escalates undetected wherever all non-zero variants
      share that key (the pre-fix [uid_diversity_n] bug's regression
      row) and is caught by per-variant or per-boot keys;
    - [uid-zero-injection]: blind zeroing fault (same bytes in every
      variant) — defeats any reexpression family with a common fixed
      point at 0, e.g. bare rotations;
    - [stack-code-injection]: stack smash redirecting the return into
      machine code carried by the request. *)

val find : string -> attack option

val run_attack :
  ?recover:Nv_core.Supervisor.config ->
  attack ->
  Nv_httpd.Deploy.config ->
  (verdict, string) result
(** Build the configuration fresh and run one attack. With [recover]
    the system carries a recovery supervisor; an attack it absorbs
    (rollback, connection dropped, server healthy afterwards)
    classifies as {!Recovered} instead of halting as {!Detected}. *)

type traced = {
  verdict : verdict;
  forensics : Nv_util.Metrics.Json.value option;
      (** The monitor's alarm post-mortem (alarm class, per-variant
          registers, credential snapshots, flight-recorder ring
          tails), when the run alarmed at least once. Under [?recover]
          this is the latest alarm's bundle; the full per-rollback
          history is on {!Nv_core.Supervisor.recovery_log}. *)
  trace_json : Nv_util.Metrics.Json.value;
      (** Chrome trace-event export of the whole run's flight-recorder
          rings ({!Nv_util.Trace.to_chrome}), with the forensics
          bundle attached under an ["forensics"] top-level key when
          present. Load it in Perfetto or chrome://tracing. *)
}

val run_attack_traced :
  ?recover:Nv_core.Supervisor.config ->
  attack ->
  Nv_httpd.Deploy.config ->
  (traced, string) result
(** {!run_attack} with the system's flight recorder enabled for the
    whole run: same verdict, plus the alarm forensics bundle and a
    Perfetto-loadable trace of every ring (variants, coordinator,
    kernel, and supervisor when [?recover] is given). *)

type matrix = (attack * (Nv_httpd.Deploy.config * verdict) list) list

val run_matrix :
  ?recover:Nv_core.Supervisor.config ->
  ?attacks:attack list ->
  ?configs:Nv_httpd.Deploy.config list ->
  unit ->
  matrix
(** Every attack against every configuration (default:
    {!Nv_httpd.Deploy.matrix} — the four Table 3 columns plus the
    N=3/4 portfolio columns). Cells are independent (each builds a
    fresh system), so they run concurrently over the host's cores
    ({!Nv_util.Par.map_array}), with results reassembled in
    deterministic matrix order. [recover] as in {!run_attack}
    (recovered-vs-halted comparison). *)

val render_matrix : matrix -> string
(** Table: attacks as rows, configurations as columns. *)

val undetected_cells : matrix -> (attack * Nv_httpd.Deploy.config * verdict) list
(** The cells where the attacker won without an alarm ({!Escalated} or
    {!Corrupted_undetected}), control row excluded — the list CI gates
    on being empty for the composed columns. *)

val matrix_json : matrix -> Nv_util.Metrics.Json.value
(** The detection-coverage table as JSON:
    [{"cells": {attack: {config: label}}, "undetected": [...]}] — the
    object the bench writes under ["attack_matrix"] in
    BENCH_results.json. *)
