(** Flight-recorder tracing: bounded event rings.

    A {!t} is a trace session owning a set of fixed-capacity {!ring}s.
    Each ring is single-writer — its owner records without any
    locking — and holds the most recent events: when full,
    recording drops the oldest event and bumps a dropped counter, so a
    ring always retains the tail of the execution that led up to the
    present (the property a post-mortem needs).

    Recording is gated on one [Atomic.get]: when the session is
    disabled, a guarded call site
    [if Trace.enabled t then Trace.record ring ~ts ev] costs a single
    atomic load and a branch, and allocates nothing because the event
    constructor sits inside the guard. Everything here is deterministic:
    timestamps come from the caller (retired instruction counts,
    simulated seconds), never the host clock, so runs of the same
    program under either execution engine record identical streams.

    Read a ring only once its writer has stopped recording; the
    structure itself does no cross-domain synchronization beyond the
    enable flag. *)

type t
(** A trace session: enable flag + registered rings. *)

type ring
(** A bounded single-writer event ring inside a session. *)

(** Typed events. The ring identity (its [pid]/[tid]) carries which
    replica / variant the event belongs to, so events themselves only
    carry payload. *)
type kind =
  | Quantum_begin  (** a variant starts a run-to-trap quantum *)
  | Quantum_end of { retired : int }  (** quantum ended; retired so far *)
  | Syscall_enter of { number : int; args : int array }
      (** syscall entered with the raw argument words *)
  | Syscall_exit of { number : int; result : int }
  | Rendezvous of { number : int }
      (** every variant parked at a syscall and cross-checked *)
  | Signal of { handler : string; immediate : bool }  (** delivery *)
  | Kernel_call of { name : string; seq : int }
      (** kernel dispatch; [seq] is the kernel's syscall ordinal *)
  | Checkpoint of { rendezvous : int }  (** supervisor checkpoint *)
  | Rollback of { rendezvous : int; dropped : int }
      (** supervisor rollback to [rendezvous], dropping connections *)
  | Failstop of { rendezvous : int }  (** recovery budget exhausted *)
  | Health of { replica : int; state : string }
      (** fleet replica health transition *)
  | Shed of { replica : int }
      (** fleet load shedding ([-1] = no replica available) *)
  | Alarm of { label : string }  (** divergence alarm classified *)
  | Note of string

type event = { ts : int; kind : kind }
(** [ts] is in the caller's deterministic time unit (microseconds in
    Chrome export terms). *)

val create : ?capacity:int -> unit -> t
(** A new session, initially disabled. [capacity] (default 1024) is
    the per-ring event capacity; it must be positive. *)

val set_enabled : t -> bool -> unit

val enabled : t -> bool
(** One atomic load. Call sites guard event construction on this so a
    disabled recorder allocates nothing. *)

val enabled_ring : ring -> bool
(** {!enabled} of the ring's owning session — for call sites that hold
    a ring but not the session. *)

val ring : t -> name:string -> pid:int -> tid:int -> ring
(** Register a new ring. Registration is not thread-safe: create all
    rings before handing each to its writer. [pid]/[tid] name the
    Chrome trace process/thread rows (pid = replica, tid = variant or
    coordinator lane). *)

val record : ring -> ts:int -> kind -> unit
(** Append from the ring's single writer. No-op when the session is disabled
    (call sites should still guard with {!enabled} to avoid
    constructing the event). Drops the oldest event when full. *)

val note : ring -> ts:int -> string -> unit
(** [record] of a [Note], with the string built only when enabled —
    convenience for printf-style breadcrumbs. *)

val events : ring -> event list
(** Retained events, oldest first. Read from the coordinator after the
    owner quiesced. *)

val dropped : ring -> int
(** Events evicted from this ring since creation. *)

val recorded : ring -> int
(** Total events ever recorded into this ring (retained + dropped). *)

val ring_name : ring -> string
val rings : t -> ring list
(** All rings in registration order. *)

val clear : t -> unit
(** Empty every ring and reset drop counters (the session keeps its
    enable state). *)

val publish : t -> Metrics.t -> unit
(** Set the [trace.rings], [trace.events] and [trace.dropped] gauges
    from the session's current totals. *)

(** {1 Sinks} *)

val to_chrome :
  ?syscall_name:(int -> string) ->
  ?extra:(string * Metrics.Json.value) list ->
  t ->
  Metrics.Json.value
(** The whole session as a Chrome trace-event JSON object —
    [{"traceEvents": [...], ...}] — loadable in Perfetto or
    [chrome://tracing]. Quanta and syscalls become "B"/"E" duration
    pairs (an unmatched end from ring truncation is tolerated by both
    viewers); everything else becomes instant events. [syscall_name]
    renders syscall numbers (default ["sys#N"]); [extra] appends
    top-level keys (e.g. a ["forensics"] bundle). *)

val ring_events_json : ?syscall_name:(int -> string) -> ?last:int -> ring -> Metrics.Json.value
(** One ring as [{"name"; "pid"; "tid"; "dropped"; "events": [...]}]
    with at most [last] (default all retained) trailing events — the
    building block of a forensics bundle. *)

val event_to_json : ?syscall_name:(int -> string) -> event -> Metrics.Json.value

val pp_event : ?syscall_name:(int -> string) -> Format.formatter -> event -> unit
(** Human-readable one-line rendering ("[seteuid] rendezvous"). *)
