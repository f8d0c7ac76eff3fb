(** Whole-system assembly: filesystem world, kernel, monitor.

    [Nsystem] wires together everything a deployment needs: a VFS
    populated with the trusted UID-bearing files ({e and} their
    reexpressed per-variant copies for the variation's unshared paths),
    a kernel with the right variant count, and a monitor running one
    loaded image per variant. *)

type t

val standard_vfs : ?users:int -> variation:Variation.t -> unit -> Nv_os.Vfs.t
(** A small realistic world:
    - [/etc/passwd], [/etc/group] from {!Nv_os.Passwd.sample}, with
      [users] extra synthetic entries ({!Nv_os.Passwd.generate})
      appended after the samples when given (default 0);
    - for each unshared path of the variation, diversified copies
      [path-i] produced with variant [i]'s reexpression function;
    - [/secret/shadow] readable only by root (mode 0600) — the target
      the UID-corruption attack tries to reach;
    - an empty world-writable [/var/log/httpd.log]. *)

val create :
  ?vfs:Nv_os.Vfs.t ->
  ?engine:Nv_vm.Memory.engine ->
  ?segment_size:int ->
  ?recover:Supervisor.config ->
  variation:Variation.t ->
  Nv_vm.Image.t array ->
  t
(** Build the system. [images] and [engine] as in {!Monitor.create}.
    When [vfs] is omitted, {!standard_vfs} is used. When [recover] is
    given, a {!Supervisor} with that config wraps the monitor: {!run}
    and {!serve} then roll back and resume on alarms instead of
    fail-stopping, until the restart budget is exhausted. *)

val of_one_image :
  ?vfs:Nv_os.Vfs.t ->
  ?engine:Nv_vm.Memory.engine ->
  ?segment_size:int ->
  ?recover:Supervisor.config ->
  variation:Variation.t ->
  Nv_vm.Image.t ->
  t
(** Same image replicated to every variant — correct for every
    variation except data diversity, whose variant 1 runs transformed
    code. *)

val kernel : t -> Nv_os.Kernel.t
val monitor : t -> Monitor.t

val supervisor : t -> Supervisor.t option
(** The recovery supervisor, when the system was built with
    [?recover]. *)

val variation : t -> Variation.t

val metrics : t -> Nv_util.Metrics.t
(** The system-wide registry (monitor and kernel report into the same
    one). Dump it with {!Nv_util.Metrics.dump}. *)

val connect : t -> Nv_os.Socket.conn
(** Open a client connection to the guest server's listener. *)

val run : ?fuel:int -> t -> Monitor.outcome
(** Step the whole system: {!Supervisor.run} when a supervisor is
    attached, {!Monitor.run} otherwise. *)

type serve_result =
  | Served of string  (** the response bytes the client received *)
  | Stopped of Monitor.outcome
      (** the system alarmed, exited, or ran out of fuel mid-request *)

val serve : ?fuel:int -> t -> string -> serve_result
(** [serve t request] drives one full client interaction against a
    server guest: run until the system parks on [accept], connect a
    client, send [request], run until the system parks on [accept]
    again (response complete) or stops, and return what the client
    received. This is the workhorse of the attack campaign and the
    WebBench-style load generator. *)
