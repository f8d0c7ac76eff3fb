(** The guest system-call ABI, declared once.

    A trapped call carries its number in [r0] and its arguments in
    [r1]..[r5]; the result replaces [r0]. Pointer arguments are absolute
    guest addresses. {!all} is the whole ABI: for each number, the
    kernel name (metrics, traces, alarms), the mini-C builtin that
    issues it, and its argument and result kinds. The mini-C front end
    derives everything it knows about builtins from this table: their
    types ([Typecheck.builtins]), the number the code generator emits,
    and the UID-returning builtins and UID parameter positions that
    [Uid_infer] seeds its analysis with.

    The monitor's per-call checks are not derived from the kinds: they
    live in [Monitor.dispatch], because some follow from no argument
    kind (exit statuses and [cond_chk] values must agree) and some
    depend on kernel state (buffer pointers on unshared descriptors
    need not canonicalize to the same offset).

    Numbers 20..27 are the paper's {e detection system calls}
    (Table 2): they exist purely to expose user-space UID uses to the
    monitor. *)

type number = int

val sys_exit : number (* 0: exit(status) *)
val sys_read : number (* 1: read(fd, buf, len) *)
val sys_write : number (* 2: write(fd, buf, len) *)
val sys_open : number (* 3: open(path, flags) *)
val sys_close : number (* 4: close(fd) *)
val sys_accept : number (* 5: accept() *)
val sys_getuid : number (* 6 *)
val sys_geteuid : number (* 7 *)
val sys_setuid : number (* 8: setuid(uid) *)
val sys_seteuid : number (* 9: seteuid(uid) *)
val sys_getgid : number (* 10 *)
val sys_getegid : number (* 11 *)
val sys_setgid : number (* 12: setgid(gid) *)
val sys_setegid : number (* 13: setegid(gid) *)
val sys_uid_value : number (* 20: uid_value(uid) - Table 2 *)
val sys_cond_chk : number (* 21: cond_chk(bool) - Table 2 *)
val sys_cc_eq : number (* 22 *)
val sys_cc_neq : number (* 23 *)
val sys_cc_lt : number (* 24 *)
val sys_cc_leq : number (* 25 *)
val sys_cc_gt : number (* 26 *)
val sys_cc_geq : number (* 27 *)

(* open() flags *)
val o_rdonly : int (* 0 *)
val o_wronly : int (* 1: truncates *)
val o_append : int (* 2 *)

type arg_kind =
  | Int  (** plain integer ([int] in mini-C) *)
  | Uid  (** UID/GID in the variant's data representation ([uid_t]) *)
  | Ptr_string  (** address of a NUL-terminated string ([char*]) *)
  | Ptr_out  (** address of an output buffer ([char*]) *)
  | Ptr_in  (** address of an input buffer, length in the next arg *)
  | Len  (** byte count governing the preceding pointer ([int]) *)

type ret_kind =
  | Ret_int
  | Ret_uid  (** result is a UID, reexpressed per variant ([uid_t]) *)

type signature = {
  name : string;  (** kernel name, as in [monitor.calls.<name>] *)
  builtin : string;  (** the mini-C builtin that issues the call *)
  args : arg_kind list;
  ret : ret_kind;
}

val all : (number * signature) list
(** The complete syscall table, in number order. *)

val signature : number -> signature option
(** Metadata for a syscall number; [None] for unknown numbers. *)

val of_builtin : string -> (number * signature) option
(** The row whose mini-C builtin is the given name; [None] for any
    other name. *)

val name : number -> string
(** Human-readable name; ["sys#N"] for unknown numbers. *)

val is_detection_call : number -> bool
(** Numbers 20..27. *)
