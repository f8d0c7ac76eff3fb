(** Deterministic fault injection against a deployed system — the test
    generator for the recovery layer.

    Where {!Campaign} drives semantic attacks through the input
    channel, [Faultgen] models low-level corruption: a flipped register
    or memory bit in one variant, a corrupted syscall argument, a byte
    lost from one variant's replicated input. Divergence-based
    detection should catch each of these at the next rendezvous, and a
    {!Nv_core.Supervisor} should absorb the alarm and keep serving. *)

type fault =
  | Flip_register of { variant : int; reg : int; bit : int }
      (** XOR bit [bit] (0..31) of register [reg] (0..15). *)
  | Flip_memory_bit of { variant : int; offset : int; bit : int }
      (** XOR bit [bit] (0..7) of one byte of the variant's
          initialized-data/bss region; [offset] is folded into the
          region ([offset mod region size]). *)
  | Corrupt_syscall_arg of { variant : int; bit : int }
      (** XOR bit [bit] of the first argument (r1) of the syscall the
          parked variant is about to re-execute. *)
  | Drop_input_byte of { variant : int; index : int }
      (** One-shot: remove byte [index] from the bytes the next
          sufficiently long shared read replicates to [variant]
          (installed via {!Nv_core.Monitor.set_input_fault}). *)

val describe : fault -> string

val inject : Nv_core.Nsystem.t -> fault -> unit
(** Apply the fault to a system parked on accept. Raises
    [Invalid_argument] on out-of-range fields. [Drop_input_byte] only
    installs the hook; clear it with
    [Monitor.set_input_fault m None] after the probe. *)

val random_fault : Nv_util.Prng.t -> variants:int -> fault
(** Draw one fault uniformly across the four kinds (deterministic in
    the PRNG state). *)

type report = {
  injected : int;
  recovered : int;  (** alarm absorbed, subsequent benign request byte-identical *)
  failstop : int;  (** alarm surfaced (no supervisor, or budget exhausted) *)
  clean : int;  (** fault had no observable effect *)
  corrupted : int;  (** response diverged from baseline without an alarm *)
  crashed : int;  (** server exited or ran out of fuel *)
}

val pp_report : Format.formatter -> report -> unit

val run_campaign :
  ?seed:int ->
  ?faults:fault list ->
  ?recover:Nv_core.Supervisor.config ->
  Nv_httpd.Deploy.config ->
  (report, string) result
(** Build the configuration fresh (with a supervisor when [recover] is
    given), pin the healthy [GET /] response as baseline, then inject
    each fault while parked on accept and probe. Faults default to 12
    drawn from a PRNG seeded with [seed] (default 42), so the campaign
    is reproducible and identical under either execution engine.
    Fail-stop and crash outcomes are terminal: the campaign
    stops early with the counts so far. *)
