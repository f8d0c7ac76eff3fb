(** The mini-C runtime library: string helpers, integer conversion,
    buffered output, and a [getpwnam]-style lookup that parses
    [/etc/passwd] through the kernel's file syscalls (and therefore
    through the {e unshared files} mechanism when the file is
    registered as unshared).

    [strcpy] is deliberately unbounded, like its libc namesake: the
    case-study server's vulnerability is an unchecked [strcpy] into a
    fixed buffer that sits next to its stored worker UID, the
    non-control-data attack shape of Chen et al. that the paper's UID
    variation is designed to stop. *)

val source : string
(** Mini-C source text of the runtime. Prepend to a program with
    {!with_runtime}. *)

val with_runtime : string -> string
(** [with_runtime program] is [source ^ program]. *)
