(** Metric registries: counters, gauges, histograms.

    A {!t} is a registry of named metrics. Names are dot-separated
    paths built from {!scope}s (e.g. ["monitor.calls.read"]); a metric
    is created on first use and shared by every later lookup of the
    same name. All registries are independent: each N-variant system
    gets its own so concurrent systems in one process (tests, the
    bench harness) do not pollute each other.

    The registry is deterministic — no wall-clock time, no randomness —
    so metric output is reproducible for a fixed workload. Timers are
    driven by an explicit clock function (simulated seconds, retired
    instructions, ...), never the host clock. *)

type t
(** A metric registry. *)

val create : unit -> t

(** {1 Scopes} *)

type scope
(** A name prefix inside a registry ("monitor", "kernel.io", ...). *)

val scope : t -> string -> scope
val sub : scope -> string -> scope
val registry : scope -> t

(** {1 Counters} *)

type counter

val counter : scope -> string -> counter
(** Get or create. Raises [Invalid_argument] if the name is already a
    metric of another kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : scope -> string -> gauge
val set_gauge : gauge -> float -> unit

val max_gauge : gauge -> float -> unit
(** Raise the gauge to the given value if it is higher (high-water
    marks). *)

val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : scope -> string -> histogram
val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_percentile : histogram -> float -> float
(** Percentile over the retained samples: a 4096-slot uniform reservoir
    maintained with Vitter's Algorithm R (exact until the reservoir
    fills). The replacement PRNG is seeded from the metric's full name,
    so a fixed observation sequence always yields the same estimate.
    Returns [0.] for an empty histogram. *)

val histogram_p999 : histogram -> float
(** [histogram_percentile h 99.9] — the tail-latency figure fleet SLO
    reports are built on. *)

(** {1 Timers}

    A timer observes elapsed "time" on an explicit monotonic clock
    into a histogram. The clock is any non-decreasing float source:
    [Engine.now], instructions retired, bytes processed. Deltas are
    clamped at zero so a (buggy) non-monotonic clock can never record
    negative durations. *)

type timer

val timer : scope -> string -> clock:(unit -> float) -> timer
(** The underlying histogram is registered under the given name. *)

val timer_histogram : timer -> histogram

val start : timer -> unit -> unit
(** [start tm] samples the clock and returns a stop function; calling
    it observes [max 0 (clock () - start)]. Each stop observes once. *)

(** {1 Lookup} *)

val find_counter : t -> string -> int option
(** Value of the counter with this exact full name, if any. *)

val counters_under : t -> prefix:string -> (string * int) list
(** All counters whose full name starts with [prefix], as
    [(name-without-prefix, value)], sorted by name. *)

(** {1 Export} *)

module Json : sig
  type value =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of value list
    | Obj of (string * value) list

  val to_string : value -> string
  (** Compact rendering; integral [Num]s print without a decimal
      point. *)

  val of_string : string -> (value, string) result
  (** Parser for the subset this module emits (all of JSON except
      [\uXXXX] escapes). *)

  val member : string -> value -> value option
  (** Field lookup in an [Obj]; [None] elsewhere. *)
end

val to_json_value : t -> Json.value
(** [{"counters": {..}, "gauges": {..}, "histograms": {name: {count,
    sum, min, max, p50, p90, p99}}}], keys sorted. *)

val to_json : t -> string

val to_text : t -> string
(** One metric per line, sorted by name:
    [counter monitor.rendezvous 12]. *)

val dump : ?format:[ `Text | `Json ] -> t -> out_channel -> unit
(** Write {!to_text} (default) or {!to_json} plus a final newline. *)
