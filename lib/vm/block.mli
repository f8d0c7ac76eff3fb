(** Basic-block superinstruction compiler — the VM's default execution
    tier, above the stepping interpreter ({!Cpu.step}) it falls back to,
    which the reference engine runs on its own as the differential
    oracle. Both decode through the one uncached {!Memory.fetch}.

    Basic blocks are discovered at execution time (entry pc to the
    first control transfer, capped at {!Memory.max_block_slots}
    instructions) and compiled into closures with register and operand
    accesses specialized per instruction and the per-instruction tag
    check hoisted to one per-block tag comparison at dispatch.
    Compiled blocks are cached in the segment's page directory, keyed
    by block-entry slot ({!Memory.register_block}), so that any store
    into a block's byte range — self-modifying code, injected shellcode, a supervisor
    rollback — invalidates it before the next dispatch (or, for a
    store issued from inside the very block it rewrites, before the
    next instruction of the in-flight execution).

    Every block exit links to its successor's compiled block: both sides
    of a branch, the targets of [jmp] and [call], and the fall-through
    of a block capped before its terminator. [ret], [jmpr] and [callr]
    keep a one-entry cache of the block they last reached. An exit
    tail-calls the linked block when it starts at the exit's target pc,
    is still valid and fits the fuel left, so a run of blocks executes
    as one chain. The chain returns to the dispatcher at a trap, at an
    invalidating store into the running block, or at an exit whose link
    fails one of those tests; the dispatcher's next {!find} then points
    that link at the block it finds.

    The operand staging the mini-C code generator emits for every
    binary operator, [push a; X; mov b, a; pop a] with X one of
    [mov a, #w], [ld a, [rs+off]] and [ldb a, [rs+off]] ([a <> b],
    neither r13), compiles to one closure, together with a following
    [op a, a, b] ([setcc], or a binop other than div/mod), specialized
    per operator. It performs the push's store and page bookkeeping,
    passes the pushed value on instead of loading it back, and retires
    the same 4 or 5 instructions; a faulting push retires none of them,
    a push into the running block retires alone and resumes through
    the dispatcher, and a faulting X retires the push only.

    No closure's fast path calls out of this module: word arithmetic
    and the signed compare are defined here (dune's default dev profile
    compiles with [-opaque], which keeps cross-module calls out of
    line), and a store calls {!Memory.invalidate_window} only when a
    page it touches is not settled ({!Memory.settled_pages}).

    Observable semantics are bit-identical to the stepping
    interpreter: retired counts advance per instruction, faults leave
    registers and pc exactly as {!Cpu.step} would, and a block is only
    dispatched when it fits in the remaining fuel, so
    {!Cpu.run}[ ~fuel] never overruns its slice.

    This module sits below [Cpu] in the dependency order and therefore
    owns the fault/trap types; [Cpu] re-exports them. *)

type fault =
  | Segfault of { addr : int; access : Memory.access }
  | Bad_tag of { addr : int; found : int; expected : int }
  | Bad_instruction of { addr : int }
  | Division_fault of { addr : int }
  | Stack_fault of { addr : int }

type trap = Syscall_trap | Halt_trap | Fault_trap of fault

type status = {
  mutable st_pc : int;  (** pc after the (partial) chain execution *)
  mutable st_retired : int;  (** instructions retired by this execution *)
  mutable st_trap : trap option;
  mutable st_k : int;  (** executor scratch; meaningless between runs *)
  mutable st_stack : bool;  (** executor scratch; meaningless between runs *)
  mutable st_base : int;  (** executor scratch: instructions of completed blocks *)
  mutable st_budget : int;
      (** set by the dispatcher before {!exec}: total fuel available,
          bounding how many blocks the chain may run without returning *)
}
(** Reusable scratch cell the executor reports into, so the hot path
    allocates nothing per block. *)

type compiled
(** A compiled block: entry pc, hoisted tag, length, shared validity
    cell, and the executor closure, whose exits hold the links. *)

type cache
(** Per-CPU block dispatcher over one segment. The closures capture the
    CPU's register file and segment directly; the compiled blocks
    themselves live in the segment. *)

val create : Memory.t -> int array -> expected_tag:int -> cache
(** [create mem regs ~expected_tag] — [regs] is the live 16-entry
    register file the compiled closures mutate in place. *)

val scratch : cache -> status

val find : cache -> pc:int -> remaining:int -> compiled option
(** Return a block runnable from [pc] within [remaining] fuel,
    compiling (and registering) it on a miss, and fill the pending
    link: the exit whose chain last returned to the dispatcher now
    links to the returned block. Every call clears the pending link.
    [None] means the caller must fall back to single-stepping:
    unaligned or out-of-range pc, undecodable entry, a hoisted tag that
    differs from the CPU's expected tag (the step raises the precise
    fault), or a block longer than [remaining]. A returned block is the
    option stored at compile time, so dispatch allocates nothing. *)

val drop_pending : cache -> unit
(** Clear the pending link, so the next {!find} links no exit. The
    dispatcher calls it on entry: since the last chain returned, a
    restore, a signal handler or a retried syscall may have moved the
    pc. *)

val exec : compiled -> status -> unit
(** Run the block and the chain its links lead to, filling the status
    cell with the resulting pc, retired count (over the whole chain),
    and trap (if any). One exception handler covers the whole chain.
    Never raises. The caller must set [st_budget] to the remaining fuel
    first: a link is followed only while its block fits in it. *)

val compiled_blocks : cache -> int
(** Compilations performed (recompilations after invalidation
    included). *)

val hits : cache -> int
(** Dispatches served by an already-compiled, still-valid block, plus
    links followed. *)
