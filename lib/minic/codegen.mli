(** Code generation from typed mini-C to relocatable VM images.

    Calling convention: arguments are evaluated left to right and
    pushed, so parameter [i] of an [n]-ary function lives at
    [fp + 8 + 4*(n-1-i)]; results return in [r0]. The frame pointer is
    [r12], the stack pointer [r13]. Built-in functions (the syscall
    wrappers listed in {!Typecheck.builtins}) compile to the [syscall]
    instruction, with the number {!Nv_os.Syscall.of_builtin} gives.

    Every global (and every interned string literal) gets a symbol in
    the produced image, which is how the attack library locates the
    buffers and UID variables it corrupts. *)

exception Error of string

val compile : Tast.tprogram -> Nv_vm.Image.t
(** Compile a checked program. The image's entry stub calls [main]
    and passes its result to [sys_exit]. Raises {!Error} if [main] is
    missing or has parameters. *)

val compile_source : string -> Nv_vm.Image.t
(** Convenience: parse, typecheck (raising {!Error} with the first type
    error) and compile. *)
