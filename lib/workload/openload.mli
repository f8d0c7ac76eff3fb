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

val population : ?seed:int -> users:int -> unit -> Nv_os.Passwd.entry list
(** {!Nv_os.Passwd.sample} followed by [users] generated entries — the
    same layout {!Nv_core.Nsystem.standard_vfs} installs. *)

val passwd_world :
  entries:Nv_os.Passwd.entry list ->
  variation:Nv_core.Variation.t ->
  Nv_os.Vfs.t * int array
(** Install the canonical [/etc/passwd] plus the per-variant unshared
    reexpressed copies [/etc/passwd-0..], using the {e deployed
    variation's} per-variant UID reexpression (not a hardcoded
    default family), into a fresh VFS. Returns the VFS and the
    byte size of each variant file — at a million users these are the
    ~40 MB unshared files the fleet's replicas would carry. *)

val mean_service_s :
  ?cost:Cost_model.t -> variants:int -> Measure.sample array -> float
(** Mean core demand per request under the cost model — what a rate
    choice should be calibrated against. *)

val run :
  ?seed:int ->
  ?cost:Cost_model.t ->
  ?fleet:Nv_sim.Fleet.config ->
  ?metrics:Nv_util.Metrics.t ->
  ?trace:Nv_util.Trace.t ->
  ?entries:Nv_os.Passwd.entry list ->
  variants:int ->
  samples:Measure.sample array ->
  spec ->
  result
(** Replay [samples] (cycled, as in {!Webbench}) through the fleet
    described by [spec]. [fleet] supplies the non-[spec] knobs (pool
    sizes, health-check timings — defaults {!Nv_sim.Fleet.default});
    [spec.replicas], [spec.arrival], [spec.duration_s] and [seed]
    override it. Each arrival performs one indexed [find_uid] against
    the passwd population ([entries] when given — lets a caller
    generate a million-entry population once and reuse it across
    arrival models — else {!population} of [spec.users]); the
    comparisons it spends are charged to that request's service time.
    [trace] is handed to {!Nv_sim.Fleet.run} for flight-recorder rings.
    Raises [Invalid_argument] on empty [samples]. *)
