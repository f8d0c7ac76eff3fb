(** The simulated kernel: canonical syscall semantics for one logical
    process (which the monitor runs as N variant replicas).

    The kernel's view of the world is entirely {e canonical}: UIDs are
    un-reexpressed, pointers have already been dereferenced by the
    monitor. Its distinctive N-variant feature is the {e shared /
    unshared file} distinction of Section 3.4: descriptors for shared
    files carry one backing object whose I/O the framework performs
    once, while descriptors for registered unshared paths carry one
    backing file {e per variant} ([path-0], [path-1], ...), and each
    variant's I/O goes to its own diversified copy. *)

type t

type data =
  | Shared_data of string  (** one I/O result distributed to all variants *)
  | Per_variant of string array  (** index i belongs to variant i *)

val create :
  ?metrics:Nv_util.Metrics.t -> ?fd_limit:int -> variants:int -> Vfs.t -> t
(** A process booted as root, with fds 0/1/2 preopened (null stdin,
    captured stdout/stderr) and the listening socket preopened at
    {!listen_fd}. [metrics] is the registry syscall/IO/fd metrics are
    reported into (a fresh private registry by default); it is exposed
    via {!metrics} so the monitor can share it. *)

val listen_fd : int
(** The fd (3) at which the listening socket is preopened; guests pass
    it to [accept]. *)

val metrics : t -> Nv_util.Metrics.t
(** Registry this kernel reports into: [kernel.syscalls],
    [kernel.calls.<name>], [kernel.io.{shared,unshared}_bytes_{in,out}],
    [kernel.fds.open], [kernel.fds.high_water]. *)

val vfs : t -> Vfs.t
val variants : t -> int
val cred : t -> Cred.t
val set_cred : t -> Cred.t -> unit

val listener : t -> Socket.listener
val connect : t -> Socket.conn
(** Client-side: open a new connection to the process's listener. *)

val register_unshared : t -> string -> unit
(** Mark [path] as unshared: subsequent opens of [path] resolve to
    [path-0] .. [path-(n-1)]. The diversified copies must already be
    installed in the VFS. *)

val is_unshared : t -> string -> bool

val stdout_contents : t -> string
val stderr_contents : t -> string

val exit_status : t -> int option
val syscalls_executed : t -> int

val set_trace : t -> ring:Nv_util.Trace.ring -> clock:(unit -> int) -> unit
(** Route every dispatched syscall as a [Kernel_call] event into [ring]
    (timestamped by [clock]) whenever the ring's session is enabled.
    The monitor installs this with its own retired-instruction clock;
    only the monitor's coordinator calls into the kernel, so the ring
    is single-writer. *)

(** {1 Canonical syscall implementations}

    All return a result word ([-1] i.e. [0xFFFFFFFF] on error) unless
    noted. These are invoked exactly once per rendezvous by the
    monitor. *)

val sys_exit : t -> status:int -> int

val sys_open : t -> path:string -> flags:int -> int
(** Returns a new fd, or [-1]. Unshared paths open every per-variant
    copy; failure of any copy fails the open. *)

val sys_close : t -> fd:int -> int

val sys_read : t -> fd:int -> len:int -> int * data
(** Returns [(count, data)]. For unshared descriptors every variant
    performs its own read on its own diversified file, so each variant
    receives its own byte count and bytes ([count] is variant 0's count
    and [data] is [Per_variant]; the monitor hands variant [i] the
    length of [chunks.(i)] as its result). Diversified copies may
    legitimately differ in length (decimal UID widths differ), which is
    why per-variant counts are essential: the monitor checks syscall
    {e sequences}, not unshared file contents. *)

val sys_write : t -> fd:int -> data:data -> int
(** [Shared_data] is written once; [Per_variant] writes each variant's
    bytes to its own unshared backing file. Returns bytes written. *)

val sys_accept : t -> fd:int -> int
(** [sys_accept t ~fd] accepts on the listening descriptor [fd] (which
    must be {!listen_fd}). Returns a new fd for the oldest pending
    connection, [-1] if [fd] is not the listener or the fd table is
    full, or {!eagain} when no connection is pending (the monitor parks
    the system on this). *)

val eagain : int
(** Distinguished "would block" result (-2 as a word). *)

val sys_getuid : t -> Cred.uid
val sys_geteuid : t -> Cred.uid
val sys_getgid : t -> Cred.gid
val sys_getegid : t -> Cred.gid
val sys_setuid : t -> uid:Cred.uid -> int
val sys_seteuid : t -> uid:Cred.uid -> int
val sys_setgid : t -> gid:Cred.gid -> int
val sys_setegid : t -> gid:Cred.gid -> int

val fd_is_unshared : t -> fd:int -> bool
(** Whether an open descriptor is backed by per-variant unshared files
    (the monitor uses this to decide between checking written bytes
    across variants and letting each variant write its own copy). *)

val conn_of_fd : t -> fd:int -> Socket.conn option
(** The connection behind a socket fd, if any (used by tests and the
    workload driver). *)

(** {1 Checkpointing}

    Used by the supervisor's recovery layer. A snapshot captures
    credentials, the fd table (descriptor kinds, file positions),
    every VFS file's content and attributes, the stdout/stderr
    lengths and the exit status. Live connections are {e not}
    checkpointed: their slots are recorded as free, and {!restore}
    closes any connection open at restore time. The listener's
    pending-accept queue, metrics counters and the syscall count are
    deliberately left untouched (counters stay monotonic across
    rollbacks). *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> int
(** Roll the kernel back to [snap]; returns the number of live
    connections that were closed. A snapshot may be restored any
    number of times. *)
