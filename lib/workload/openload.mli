(** Open-loop fleet benchmark: measured per-request demands from a real
    N-variant server, replayed through {!Nv_sim.Fleet} at fleet scale.

    Where {!Webbench} models a fixed set of closed-loop clients against
    a single replica, this driver feeds an {!Nv_sim.Arrivals} process
    into a load-balanced fleet of replicas and authenticates every
    request against a large synthetic passwd population through the
    indexed {!Nv_os.Passwd} lookups — so the per-request UID work that
    the paper's diversity scheme multiplies stays O(log n) even at a
    million users. Fully deterministic for a fixed seed, independently
    of the execution engine (the measured demand samples are
    retired-instruction counts, identical under every engine). *)

type spec = {
  replicas : int;
  arrival : Nv_sim.Arrivals.model;
  duration_s : float;
  users : int;  (** synthetic passwd entries behind the LB *)
  attacks_per_10k : int;  (** per-mille-ish attack mix driving alarms *)
}

type result = {
  fleet : Nv_sim.Fleet.report;
  population : int;  (** total passwd entries (samples + synthetic) *)
  lookups : int;  (** indexed UID lookups performed (one per arrival) *)
  comparisons : int;  (** total key comparisons those lookups spent *)
  comparisons_per_lookup : float;
  mean_service_s : float;  (** mean per-request core demand *)
}

type population
(** A passwd population with its {!Nv_os.Passwd.index} and uid array
    built once, so that several {!run}s (one per arrival model, say)
    share them instead of rebuilding them over a million entries. *)

val population : ?seed:int -> users:int -> unit -> population
(** {!Nv_os.Passwd.sample} followed by [users] generated entries — the
    same layout {!Nv_core.Nsystem.standard_vfs} installs. *)

val entries : population -> Nv_os.Passwd.entry list
(** The entries in file order. *)

val passwd_world :
  entries:Nv_os.Passwd.entry list -> variation:Nv_core.Variation.t -> int array
(** Byte size of each per-variant unshared reexpressed copy
    [/etc/passwd-0..] of [entries], using the {e deployed variation's}
    per-variant UID reexpression (not a hardcoded default family).
    The sizes are counted, not serialized: at a million users these
    are the 62.8 MB and 71.0 MB unshared files the fleet's config4
    replicas would carry. *)

val run :
  ?seed:int ->
  ?metrics:Nv_util.Metrics.t ->
  ?trace:Nv_util.Trace.t ->
  ?population:population ->
  variants:int ->
  samples:Measure.sample array ->
  spec ->
  result
(** Replay [samples] (cycled, as in {!Webbench}) through the fleet
    described by [spec]: {!Nv_sim.Fleet.default} supplies the
    non-[spec] knobs (pool sizes, health-check timings), and
    [spec.replicas], [spec.arrival], [spec.duration_s] and [seed]
    override it. Service times come from {!Cost_model.default}. Each
    arrival performs one indexed [find_uid] against the passwd
    population ([population] when given, else {!population} of
    [spec.users]); the comparisons it spends are charged to that
    request's service time, and [result.comparisons] counts this run's
    alone even when [population] is shared with other runs.
    [trace] is handed to {!Nv_sim.Fleet.run} for flight-recorder rings.
    Raises [Invalid_argument] on empty [samples]. *)
