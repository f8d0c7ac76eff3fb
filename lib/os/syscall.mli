(** System-call numbers, signatures and marshalling metadata.

    The guest ABI: syscall number in [r0], arguments in [r1]..[r5], and
    the result replaces [r0]. Pointer arguments are absolute guest
    addresses; the monitor uses the {!arg_kind} metadata to read the
    pointed-to data out of each variant's memory (canonicalizing
    addresses to segment offsets for cross-variant comparison) and the
    {!ret_kind} to know when a result is a UID that must be reexpressed
    per variant on the way back (Section 3.5 of the paper).

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
  | Int  (** plain integer, compared verbatim across variants *)
  | Uid  (** UID/GID in the variant's data representation *)
  | Ptr_string  (** address of a NUL-terminated string (read in) *)
  | Ptr_out  (** address of an output buffer (data written back) *)
  | Ptr_in  (** address of an input buffer, length in the next arg *)
  | Len  (** byte count governing the preceding pointer *)

type ret_kind =
  | Ret_int
  | Ret_uid  (** result is a UID: reexpressed per variant on return *)

type signature = { name : string; args : arg_kind list; ret : ret_kind }

val all : (number * signature) list
(** The complete syscall table, in number order — the source of truth
    tests iterate to check invariants over every defined syscall
    (e.g. that every number fits the monitor's metric-handle fast
    path). *)

val signature : number -> signature option
(** Metadata for a syscall number; [None] for unknown numbers. *)

val name : number -> string
(** Human-readable name; ["sys#N"] for unknown numbers. *)

val is_detection_call : number -> bool
(** Numbers 20..27. *)
