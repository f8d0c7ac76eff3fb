(** Type checking and elaboration of mini-C programs.

    The checker enforces the UID discipline the paper's transformation
    relies on (Section 3.3): [uid_t] is a distinct scalar type that
    supports only assignment, equality/ordering comparison against
    other [uid_t] values, use in boolean contexts (the implicit
    comparison with 0 that the transformer later explicates), and
    explicit casts. Arithmetic on [uid_t] is a type error - this is the
    "programs do not typically perform other operations on UID values"
    assumption, made checkable.

    Int {e literals} used where a [uid_t] is expected are implicitly
    coerced and elaborated to [(uid_t)lit] casts so the transformer can
    find every UID constant syntactically. Arbitrary [int] expressions
    do {e not} coerce: crossing the representation boundary requires an
    explicit cast (e.g. after parsing a UID from a trusted, already
    diversified file). *)

type error = { in_func : string option; message : string }

val pp_error : Format.formatter -> error -> unit

val builtins : (string * (Ast.ty list * Ast.ty)) list
(** Built-in functions (syscall wrappers): name, parameter types,
    return type, one per row of {!Nv_os.Syscall.all} (so the paper's
    Table 2 detection calls are included). *)

val check : Ast.program -> (Tast.tprogram, error list) result
(** Check and elaborate a program. All errors are collected (the
    checker recovers per-function). *)
