(** Marshalling between the VM's syscall trap state and kernel calls.

    The guest ABI puts the syscall number in [r0] and up to five
    arguments in [r1]..[r5]; the result is written back to [r0]. The
    monitor marshals every call through these helpers. *)

type raw = { number : int; args : Nv_vm.Word.t array }
(** A trapped syscall as it appears in the registers; [args] always has
    five entries. *)

val of_cpu : Nv_vm.Cpu.t -> raw
(** Read the call out of a CPU stopped on [Syscall_trap]. *)

val set_result : Nv_vm.Cpu.t -> Nv_vm.Word.t -> unit
(** Deliver the result into [r0]. *)

val retry_syscall : Nv_vm.Cpu.t -> unit
(** Rewind the pc to the trapping [syscall] instruction so that
    resuming re-issues it (used to park a process on [accept] until a
    connection arrives). *)

val max_path : int
(** Longest path the kernel will read from guest memory (4096). *)

val read_string : Nv_vm.Memory.t -> addr:Nv_vm.Word.t -> string
(** NUL-terminated string at [addr], truncated at {!max_path} bytes.
    Raises [Nv_vm.Memory.Fault] on an unmapped pointer. *)

val read_bytes : Nv_vm.Memory.t -> addr:Nv_vm.Word.t -> len:int -> string

val write_bytes : Nv_vm.Memory.t -> addr:Nv_vm.Word.t -> string -> unit
