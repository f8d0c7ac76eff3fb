(** The N-variant monitor: syscall-boundary rendezvous, input
    replication, equivalence checking, and reexpression at the kernel
    interface.

    This is the OCaml analogue of the paper's modified Linux kernel
    (Section 3.1): variants are synchronized at system calls; the
    monitor checks that all variants make the same call with equivalent
    (canonicalized) arguments, performs input system calls once and
    replicates the result, performs output system calls once after
    checking the variants agree on the bytes, applies [R_i^-1] to
    UID-typed arguments before checking and the kernel call, applies
    [R_i] to UID-typed results per variant, and implements the Table 2
    detection system calls. Unshared-file I/O is performed per variant
    by the kernel.

    Canonicalization (Section 2.1's normal-equivalence function):
    pointer arguments are compared as segment-relative offsets, UID
    arguments as [R_i^-1] images. *)

type outcome =
  | Exited of int
  | Alarm of Alarm.reason
  | Blocked_on_accept
      (** every variant is parked on [accept]; connect a client and
          call {!run} again *)
  | Out_of_fuel

type event = {
  ev_syscall : int;
  ev_note : string;  (** human-readable canonicalization summary *)
}
(** One rendezvous, for the Figure 2 trace demo. *)

type t

val create :
  ?engine:Nv_vm.Memory.engine ->
  ?segment_size:int ->
  kernel:Nv_os.Kernel.t ->
  variation:Variation.t ->
  Nv_vm.Image.t array ->
  t
(** [create ~kernel ~variation images] loads [images.(i)] according to
    [variation.variants.(i)] (base, tag) and registers the variation's
    unshared paths with the kernel. [images] must have exactly one
    image per variant (pass the same image several times for
    non-data-diversity variations); the kernel must have been created
    with a matching [~variants] count. Default segment size 1 MiB; each
    variant gets a 64 KiB stack. The monitor reports into the
    kernel's registry, so one registry covers the whole system.

    [engine] pins every variant segment's execution tier
    ({!Nv_vm.Memory.engine}: the [Block] compiler or the [Reference]
    oracle); when omitted, segments keep their creation default,
    [Block]. The two engines are
    bit-identical at the monitor level: same outcomes, alarms, final
    registers/memory, metric values and trace streams (enforced by
    [test/test_differential.ml]). *)

val kernel : t -> Nv_os.Kernel.t

val parallel : t -> bool
(** Always [false]: {!run} runs every variant inline on the calling
    domain. Kept only because the served-request benchmark harness
    ([perfbench/]) prints it; it goes once that harness stops reading
    it. *)

(** Size of the per-syscall-number metric-handle fast path; every
    [Nv_os.Syscall] number must stay below this. *)
val syscall_slots : int
val variation : t -> Variation.t
val variant_count : t -> int

val loaded : t -> int -> Nv_vm.Image.loaded
(** The loaded instance of variant [i] (used by attack payload
    builders to resolve symbol addresses). *)

val run : ?fuel:int -> t -> outcome
(** Execute until exit, alarm, accept-block, or the fuel budget (total
    guest instructions across all variants, default 50 million) is
    exhausted. Resumable after [Blocked_on_accept].

    Variants run inline on the calling domain, in index order, each up
    to its next trap. Every syscall, credential reads and the Table 2
    detection calls included, is a rendezvous: every variant parks at
    it, the monitor checks they made the same call with equivalent
    canonical arguments, and performs the call once, replicating the
    result. A divergence alarms at the call, before any variant runs
    past it. *)

val instructions_retired : t -> int
(** Total instructions across all variants — the redundant-computation
    cost that Table 3's saturated-throughput halving comes from. *)

val rendezvous_count : t -> int
(** Syscall rendezvous points so far (each costs one monitor check). *)

val metrics : t -> Nv_util.Metrics.t
(** The registry this monitor reports into: its kernel's. Monitor
    metrics: [monitor.rendezvous], [monitor.calls.<name>],
    [monitor.checks.performed], [monitor.checks.failed],
    [monitor.alarms.<label>],
    [monitor.latency_instr.<name>] (histogram of retired instructions
    between rendezvous), [monitor.input_bytes_replicated],
    [monitor.output_writes_checked] and [monitor.signals_delivered]. *)

type stats = {
  st_rendezvous : int;
  st_instructions : int array;  (** retired, per variant *)
  st_calls : (string * int) list;  (** rendezvous per syscall name, sorted *)
  st_checks_performed : int;
      (** equivalence checks evaluated (argument, output, exit, cond,
          syscall-number) *)
  st_checks_failed : int;  (** checks that raised an alarm *)
  st_input_bytes_replicated : int;
      (** bytes of shared input performed once and copied to every
          variant *)
  st_output_writes_checked : int;
      (** shared writes whose bytes were compared across variants *)
  st_signals_delivered : int;
  st_relaxed_checks : int;
      (** Always [0]: every syscall is a rendezvous. Kept only because
          the served-request benchmark harness ([perfbench/]) reads it;
          it goes once that harness stops reading it. *)
}

val stats : t -> stats
(** Aggregate counters since creation — a thin view over {!metrics},
    the observability surface the operator of an N-variant deployment
    would watch. *)

val set_tracer : t -> (event -> unit) -> unit
(** Install a rendezvous observer (Figure 2 demo). Rendezvous notes
    are only formatted while a tracer is installed or the flight
    recorder is enabled; otherwise the monitor builds no strings. *)

(** {1 Flight recorder}

    Every monitor owns a disabled {!Nv_util.Trace} session with one
    ring per variant (tid [0..n-1]: quanta, one syscall slice per call
    with the variant's raw argument words and its result, signal
    deliveries), a coordinator ring (tid [n]: rendezvous, dispatch
    breadcrumbs, alarms) and a kernel ring (tid [n+1]: every kernel
    dispatch). Timestamps are retired-instruction counts — the
    variant's own for its ring, the all-variant total for the
    coordinator and kernel — so runs of the same program under either
    engine record bit-identical streams. Enable with
    [Trace.set_enabled (trace_session t) true]; when disabled every
    recording site costs one atomic load and allocates nothing. *)

val trace_session : t -> Nv_util.Trace.t

val forensics : t -> Nv_util.Metrics.Json.value option
(** The post-mortem bundle captured by the most recent alarm (any
    alarm, whether or not the recorder is enabled): alarm class and
    payload including the divergent variant(s), syscall number and
    mismatched canonical argument values; rendezvous count; canonical
    and per-variant reexpressed credentials; each variant's pc,
    register file and retired count; and the tail of every trace ring
    (empty rings when the recorder was off). *)

(** {1 Asynchronous events (signals)}

    Section 3.1 flags scheduling divergence from asynchronous signal
    delivery as an open issue of the framework ("if a signal is
    delivered to variants at different points in their execution, their
    behaviors may diverge. This leads to a false attack detection"),
    and credits Bruschi et al. with steps toward simultaneous delivery.
    Both deliveries are implemented here:

    - {!Immediate} models a naive kernel: the handler is forced into
      each variant once that variant has retired a fixed number of
      further instructions. When data diversity makes the variants'
      instruction streams drift (e.g. while parsing different-length
      unshared files), the same count lands at {e different logical
      points} and normal equivalence can break — the false-detection
      hazard, reproducible on demand.
    - {!At_rendezvous} is the synchronized discipline: delivery is
      deferred to the next syscall rendezvous, where every variant is
      at an equivalent state, so handlers run in lockstep.

    Handler contract: a handler is a guest function of no arguments
    that mutates globals and returns; it must not make system calls
    (delivery is a synchronous monitor-driven subroutine execution,
    outside the lockstep protocol). A handler that traps raises a
    {!Alarm.Signal_delivery_failed} alarm. *)

type signal_mode =
  | Immediate of { after_instructions : int }
      (** deliver once the variant has retired this many further
          instructions *)
  | At_rendezvous  (** deliver at the next syscall rendezvous *)

val post_signal : t -> handler:string -> mode:signal_mode -> (unit, string) result
(** Queue one asynchronous event for every variant. Fails if [handler]
    is not a symbol of every variant's image, or if a signal is already
    pending. *)

val signal_pending : t -> bool

(** {1 Checkpointing}

    The state captured is exactly what rendezvous-determinism depends
    on: every variant's CPU + memory ({!Nv_vm.Image.snapshot}) and the
    kernel ({!Nv_os.Kernel.snapshot}). Metrics are {e not} rolled back
    (counters stay monotonic); the listener's pending-accept queue is
    preserved so connections queued after the checkpoint are still
    served. Take snapshots only while the system is parked at a
    rendezvous boundary ({!Blocked_on_accept} or before the first
    {!run}) — the supervisor enforces this. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> int
(** Roll every variant and the kernel back to [snap]; returns the
    number of live connections dropped. Any pending signal is
    discarded and the latency baseline re-anchored. Each variant's
    memory restore rewrites only the pages dirtied since the snapshot
    ({!Nv_vm.Memory.restore}): compiled blocks are dropped there, to be
    rebuilt as the restored code runs, and kept everywhere else. Each
    variant keeps one checkpoint, so only the latest snapshot can be
    restored, any number of times; restoring one that a later
    {!snapshot} replaced raises [Invalid_argument] before anything is
    rolled back. *)

val set_input_fault : t -> (variant:int -> string -> string) option -> unit
(** Install (or clear) a fault-injection hook on replicated input:
    when set, each shared read's bytes pass through the hook per
    variant, and each variant receives its own possibly-perturbed copy
    with its own byte count. Used by [Nv_attacks.Faultgen]. *)
