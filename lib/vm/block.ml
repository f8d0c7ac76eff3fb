(* Basic-block superinstruction compiler: the default execution tier.

   A block is a maximal straight-line run of same-tagged instructions
   starting at an aligned segment offset and ending at the first
   control transfer (or at [Memory.max_block_slots] instructions, a tag
   change, a decode error, or the end of the segment). Each instruction
   is compiled once into a closure with its register indices and
   operand shape burned in; executing the block is then a chain of
   closure calls with no per-instruction fetch, decode, tag check, pc
   update, or retired update.

   Every block exit links to its successor's compiled block, so a run
   of blocks executes as one chain of tail calls that returns to the
   dispatcher only at a trap, a store into the running block, or an
   exit whose link is unset, stale or would overrun the fuel.

   The operand-staging sequence the mini-C code generator emits for
   every binary operator compiles to one closure (see
   [compile_staging]), and no closure's fast path calls out of this
   module: word arithmetic is defined here, and a store consults the
   segment's page bytes before [Memory.invalidate_window].

   The observable semantics must match the stepping interpreter
   bit-for-bit — the monitor's signal-delivery slicing and the trace
   timestamps both key off exact retired counts — so the executor
   reconstructs the interpreter's exact architectural state at every
   early exit: a faulting instruction retires nothing and leaves the pc
   on itself; a mid-block store that hits the block's own bytes retires
   normally and hands control back to the dispatcher, which re-decodes
   the (possibly rewritten) successor exactly as the interpreter
   would. *)

type fault =
  | Segfault of { addr : int; access : Memory.access }
  | Bad_tag of { addr : int; found : int; expected : int }
  | Bad_instruction of { addr : int }
  | Division_fault of { addr : int }
  | Stack_fault of { addr : int }

type trap = Syscall_trap | Halt_trap | Fault_trap of fault

type status = {
  mutable st_pc : int;
  mutable st_retired : int;
  mutable st_trap : trap option;
  (* Where a raising instruction sits, for the chain's one handler in
     [exec]: its in-block index, whether it is a stack access, and its
     pc in [st_pc]. Only slow paths and div/mod write them. *)
  mutable st_k : int;
  mutable st_stack : bool;
  (* Chaining state: [st_base] counts the instructions of the blocks
     the chain has completed, and a link is followed only while its
     block fits in [st_budget] (the dispatcher's remaining fuel), so
     retired counts match dispatching every block. *)
  mutable st_base : int;
  mutable st_budget : int;
}

type compiled = {
  c_pc : int;  (* the entry address *)
  c_tag : int;  (* the hoisted per-block tag; -1 for uncompilable entries *)
  c_len : int;  (* instructions in the block; 0 = uncompilable entry *)
  c_valid : bool ref;  (* shared with the segment's block registry *)
  c_regs : int array;  (* the register file the closures were compiled against *)
  c_run : status -> unit;
}

(* What an exit's link holds until the exit first returns to the
   dispatcher: it starts at no pc and is never valid. *)
let unlinked =
  { c_pc = -1; c_tag = -1; c_len = 0; c_valid = ref false; c_regs = [||]; c_run = ignore }

(* Compiled blocks live in the segment's page directory, keyed by entry
   slot. The payload is the option [find] hands out, built once at
   compile time so a dispatch allocates nothing. *)
type Memory.block_code += Compiled of compiled option

type cache = {
  mem : Memory.t;
  regs : int array;
  expected_tag : int;
  scratch : status;
  mutable compiled_blocks : int;
  mutable hits : int;
  (* The link of the exit that last handed its pc back to the
     dispatcher; the next [find] points it at the block it returns.
     [idle] belongs to no exit, so nothing follows what it holds. *)
  mutable pending : compiled ref;
  idle : compiled ref;
}

let create mem regs ~expected_tag =
  let idle = ref unlinked in
  {
    mem;
    regs;
    expected_tag;
    scratch =
      {
        st_pc = 0;
        st_retired = 0;
        st_trap = None;
        st_k = 0;
        st_stack = false;
        st_base = 0;
        st_budget = 0;
      };
    compiled_blocks = 0;
    hits = 0;
    pending = idle;
    idle;
  }

let scratch c = c.scratch

let compiled_blocks c = c.compiled_blocks

let hits c = c.hits

let drop_pending c = c.pending <- c.idle

(* Raised by a compiled store whose write just landed inside this very
   block. The executor bails out with the store retired; the dispatcher
   then re-enters through the decoder, so rewritten successor
   instructions are re-fetched (and re-tag-checked) exactly as the
   stepping interpreter would. *)
exception Invalidated

let is_terminator = function
  | Isa.Br _ | Isa.Jmp _ | Isa.Jmpr _ | Isa.Call _ | Isa.Callr _ | Isa.Ret
  | Isa.Halt | Isa.Syscall ->
    true
  | Isa.Nop | Isa.Mov _ | Isa.Load _ | Isa.Store _ | Isa.Loadb _ | Isa.Storeb _
  | Isa.Binop _ | Isa.Setcc _ | Isa.Push _ | Isa.Pop _ ->
    false

(* Leave a block of [len] instructions for [pc] through its exit's
   [link]: tail-call the linked successor when it starts at [pc], is
   still valid and fits the fuel left; otherwise hand [pc] back to the
   dispatcher, whose next [find] points [link] at the block it finds.
   The [c_pc] test makes a computed exit's link a one-entry cache. *)
let leave c st link ~len pc =
  let done_ = st.st_base + len in
  let next = !link in
  if next.c_pc = pc && !(next.c_valid) && done_ + next.c_len <= st.st_budget then begin
    st.st_base <- done_;
    c.hits <- c.hits + 1;
    next.c_run st
  end
  else begin
    st.st_retired <- done_;
    st.st_pc <- pc;
    c.pending <- link
  end

(* r13 is the stack pointer, mirroring [Cpu.sp_index] (which lives
   above this module in the dependency order). *)
let sp_index = 13

(* Word arithmetic and the signed compare, exactly as [Word] defines
   them. The closures call these rather than [Word] or [Isa]: dune's
   default dev profile compiles every module with -opaque, which keeps
   each call into another module out of line, and a closure runs once
   per guest instruction. *)
let mask w = w land 0xFFFFFFFF

let add a b = mask (a + b)

let sub a b = mask (a - b)

let mul a b = mask (a * b)

let to_signed w = (w lxor 0x80000000) - 0x80000000

(* Flipping bit 31 maps the signed order onto the unsigned one. *)
let lt_signed a b = a lxor 0x80000000 < b lxor 0x80000000

(* [/] and [mod] raise [Division_by_zero] on a zero divisor, as
   [Word.div_signed] and [Word.rem_signed] do. *)
let div a b = mask (to_signed a / to_signed b)

let rem a b = mask (to_signed a mod to_signed b)

let shl a n = mask (a lsl (n land 31))

let shr a n = a lsr (n land 31)

let[@inline] sar a n = mask (to_signed a asr (n land 31))

(* [Memory.page_shift], as a constant the store path shifts by. *)
let page_shift = 12

let () = assert (page_shift = Memory.page_shift)

(* The bookkeeping after a compiled store of [len] bytes at segment
   offset [o]. Stack and heap stores mostly land on settled pages
   (already dirty, no block registry), where [Memory.invalidate_window]
   would do nothing. *)
let[@inline] note_store mem settled o len =
  if
    Bytes.unsafe_get settled (o lsr page_shift) = '\000'
    || Bytes.unsafe_get settled ((o + len - 1) lsr page_shift) = '\000'
  then Memory.invalidate_window mem o len

(* Compile instruction [k] of a block into one link of a
   continuation-passing chain: the closure does its work and
   tail-calls [kont] (the rest of the block), so executing a block is
   a straight run of indirect jumps — no dispatch loop, no array walk,
   no per-instruction bookkeeping. Only instructions that can raise
   record where they are: memory accesses on their out-of-range slow
   path, div/mod just before dividing. The chain's one exception
   handler reconstructs the interpreter's exact state from that; pure
   register moves pay nothing.
   Terminators ignore [kont] and leave the block through [leave] (or
   trap). [len] is the full block length (what a completed block
   retires). Register indices come out of the decoder already
   validated to [0, 15], so the register file is accessed unsafely;
   every memory access, update order, and masking step mirrors
   [Cpu.execute] exactly. *)
let compile_instr c regs mem valid instr ~k ~len ~at ~next ~kont =
  let sp = sp_index in
  (* Guest loads and stores are inlined over the backing bytes: the
     closure burns in [data]/[base]/[size] (all immutable for the
     segment's lifetime) and does its own range check; anything out of
     range takes the [Memory] slow path, which raises the exact fault
     the interpreter would. Only those slow paths call [here] — the
     in-range fast path cannot raise. *)
  let data = Memory.bytes mem and settled = Memory.settled_pages mem in
  let mbase = Memory.base mem in
  let msize = Memory.size mem in
  let here st ~stack =
    st.st_k <- k;
    st.st_pc <- at;
    st.st_stack <- stack
  in
  match instr with
  | Isa.Nop -> kont (* retires with the block; position [k] needs no code at all *)
  | Isa.Halt ->
    fun st ->
      st.st_retired <- st.st_base + len;
      st.st_pc <- at;
      st.st_trap <- Some Halt_trap
  | Isa.Mov (rd, Isa.Imm w) ->
    fun st ->
      Array.unsafe_set regs rd w;
      kont st
  | Isa.Mov (rd, Isa.Reg rs) ->
    fun st ->
      Array.unsafe_set regs rd (Array.unsafe_get regs rs);
      kont st
  | Isa.Load (rd, rs, off) ->
    fun st ->
      let addr = mask (Array.unsafe_get regs rs + off) in
      let o = addr - mbase in
      if o >= 0 && o + 4 <= msize then
        Array.unsafe_set regs rd (Int32.to_int (Bytes.get_int32_le data o) land 0xFFFFFFFF)
      else begin
        here st ~stack:false;
        Array.unsafe_set regs rd (Memory.load_word mem addr)
      end;
      kont st
  | Isa.Store (rd, off, rs) ->
    fun st ->
      let addr = mask (Array.unsafe_get regs rd + off) in
      let o = addr - mbase in
      if o >= 0 && o + 4 <= msize then begin
        Bytes.set_int32_le data o (Int32.of_int (Array.unsafe_get regs rs));
        note_store mem settled o 4
      end
      else begin
        here st ~stack:false;
        Memory.store_word mem addr (Array.unsafe_get regs rs)
      end;
      if !valid then kont st
      else begin
        here st ~stack:false;
        raise_notrace Invalidated
      end
  | Isa.Loadb (rd, rs, off) ->
    fun st ->
      let addr = mask (Array.unsafe_get regs rs + off) in
      let o = addr - mbase in
      if o >= 0 && o < msize then
        Array.unsafe_set regs rd (Char.code (Bytes.unsafe_get data o))
      else begin
        here st ~stack:false;
        Array.unsafe_set regs rd (Memory.load_byte mem addr)
      end;
      kont st
  | Isa.Storeb (rd, off, rs) ->
    fun st ->
      let addr = mask (Array.unsafe_get regs rd + off) in
      let o = addr - mbase in
      if o >= 0 && o < msize then begin
        Bytes.unsafe_set data o (Char.unsafe_chr (Array.unsafe_get regs rs land 0xFF));
        note_store mem settled o 1
      end
      else begin
        here st ~stack:false;
        Memory.store_byte mem addr (Array.unsafe_get regs rs)
      end;
      if !valid then kont st
      else begin
        here st ~stack:false;
        raise_notrace Invalidated
      end
  | Isa.Binop (op, rd, rs, o) -> (
    match (op, o) with
    | Isa.Add, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (add (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Add, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd
          (add (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st
    | Isa.Sub, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (sub (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Sub, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd
          (sub (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st
    | Isa.Mul, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (mul (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Mul, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd
          (mul (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st
    | Isa.Div, Isa.Imm w ->
      fun st ->
        here st ~stack:false;
        Array.unsafe_set regs rd (div (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Div, Isa.Reg rt ->
      fun st ->
        here st ~stack:false;
        Array.unsafe_set regs rd
          (div (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st
    | Isa.Mod, Isa.Imm w ->
      fun st ->
        here st ~stack:false;
        Array.unsafe_set regs rd (rem (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Mod, Isa.Reg rt ->
      fun st ->
        here st ~stack:false;
        Array.unsafe_set regs rd
          (rem (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st
    | Isa.And, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs land w);
        kont st
    | Isa.And, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs land Array.unsafe_get regs rt);
        kont st
    | Isa.Or, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs lor w);
        kont st
    | Isa.Or, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs lor Array.unsafe_get regs rt);
        kont st
    | Isa.Xor, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs lxor w);
        kont st
    | Isa.Xor, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs lxor Array.unsafe_get regs rt);
        kont st
    | Isa.Shl, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (shl (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Shl, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd
          (shl (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st
    | Isa.Shr, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (shr (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Shr, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd
          (shr (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st
    | Isa.Sar, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (sar (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Sar, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd
          (sar (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st)
  | Isa.Setcc (cond, rd, rs, Isa.Imm w) -> (
    (* Specialized per condition, as [Br] is below. *)
    let set st t =
      Array.unsafe_set regs rd (Bool.to_int t);
      kont st
    in
    match cond with
    | Isa.Eq -> fun st -> set st (Array.unsafe_get regs rs = w)
    | Isa.Ne -> fun st -> set st (Array.unsafe_get regs rs <> w)
    | Isa.Lt -> fun st -> set st (lt_signed (Array.unsafe_get regs rs) w)
    | Isa.Le -> fun st -> set st (not (lt_signed w (Array.unsafe_get regs rs)))
    | Isa.Gt -> fun st -> set st (lt_signed w (Array.unsafe_get regs rs))
    | Isa.Ge -> fun st -> set st (not (lt_signed (Array.unsafe_get regs rs) w))
    | Isa.Ltu -> fun st -> set st (Array.unsafe_get regs rs < w)
    | Isa.Leu -> fun st -> set st (Array.unsafe_get regs rs <= w)
    | Isa.Gtu -> fun st -> set st (Array.unsafe_get regs rs > w)
    | Isa.Geu -> fun st -> set st (Array.unsafe_get regs rs >= w))
  | Isa.Setcc (cond, rd, rs, Isa.Reg rt) -> (
    let set st t =
      Array.unsafe_set regs rd (Bool.to_int t);
      kont st
    in
    match cond with
    | Isa.Eq -> fun st -> set st (Array.unsafe_get regs rs = Array.unsafe_get regs rt)
    | Isa.Ne -> fun st -> set st (Array.unsafe_get regs rs <> Array.unsafe_get regs rt)
    | Isa.Lt ->
      fun st -> set st (lt_signed (Array.unsafe_get regs rs) (Array.unsafe_get regs rt))
    | Isa.Le ->
      fun st ->
        set st (not (lt_signed (Array.unsafe_get regs rt) (Array.unsafe_get regs rs)))
    | Isa.Gt ->
      fun st -> set st (lt_signed (Array.unsafe_get regs rt) (Array.unsafe_get regs rs))
    | Isa.Ge ->
      fun st ->
        set st (not (lt_signed (Array.unsafe_get regs rs) (Array.unsafe_get regs rt)))
    | Isa.Ltu -> fun st -> set st (Array.unsafe_get regs rs < Array.unsafe_get regs rt)
    | Isa.Leu -> fun st -> set st (Array.unsafe_get regs rs <= Array.unsafe_get regs rt)
    | Isa.Gtu -> fun st -> set st (Array.unsafe_get regs rs > Array.unsafe_get regs rt)
    | Isa.Geu -> fun st -> set st (Array.unsafe_get regs rs >= Array.unsafe_get regs rt))
  | Isa.Br (cond, rs, rt, target) -> (
    (* The block's hottest terminator (every loop backedge): the
       condition is specialized at compile time so taking the branch
       costs two register loads and a compare, and each side leaves
       through its own link. *)
    let taken = ref unlinked and fall = ref unlinked in
    let take st t = if t then leave c st taken ~len target else leave c st fall ~len next in
    match cond with
    | Isa.Eq -> fun st -> take st (Array.unsafe_get regs rs = Array.unsafe_get regs rt)
    | Isa.Ne -> fun st -> take st (Array.unsafe_get regs rs <> Array.unsafe_get regs rt)
    | Isa.Lt ->
      fun st -> take st (lt_signed (Array.unsafe_get regs rs) (Array.unsafe_get regs rt))
    | Isa.Le ->
      fun st ->
        take st (not (lt_signed (Array.unsafe_get regs rt) (Array.unsafe_get regs rs)))
    | Isa.Gt ->
      fun st -> take st (lt_signed (Array.unsafe_get regs rt) (Array.unsafe_get regs rs))
    | Isa.Ge ->
      fun st ->
        take st (not (lt_signed (Array.unsafe_get regs rs) (Array.unsafe_get regs rt)))
    | Isa.Ltu ->
      fun st -> take st (Array.unsafe_get regs rs < Array.unsafe_get regs rt)
    | Isa.Leu ->
      fun st -> take st (Array.unsafe_get regs rs <= Array.unsafe_get regs rt)
    | Isa.Gtu ->
      fun st -> take st (Array.unsafe_get regs rs > Array.unsafe_get regs rt)
    | Isa.Geu ->
      fun st -> take st (Array.unsafe_get regs rs >= Array.unsafe_get regs rt))
  | Isa.Jmp target ->
    let link = ref unlinked in
    fun st -> leave c st link ~len target
  | Isa.Jmpr rs ->
    let link = ref unlinked in
    fun st -> leave c st link ~len (Array.unsafe_get regs rs)
  | Isa.Call target ->
    let rnext = mask next and link = ref unlinked in
    fun st ->
      let nsp = sub (Array.unsafe_get regs sp) 4 in
      let o = nsp - mbase in
      if o >= 0 && o + 4 <= msize then begin
        Bytes.set_int32_le data o (Int32.of_int rnext);
        note_store mem settled o 4
      end
      else begin
        here st ~stack:true;
        Memory.store_word mem nsp rnext
      end;
      Array.unsafe_set regs sp nsp;
      leave c st link ~len target
  | Isa.Callr rs ->
    let rnext = mask next and link = ref unlinked in
    fun st ->
      let nsp = sub (Array.unsafe_get regs sp) 4 in
      let o = nsp - mbase in
      if o >= 0 && o + 4 <= msize then begin
        Bytes.set_int32_le data o (Int32.of_int rnext);
        note_store mem settled o 4
      end
      else begin
        here st ~stack:true;
        Memory.store_word mem nsp rnext
      end;
      Array.unsafe_set regs sp nsp;
      (* Read the target after the sp update, as the interpreter does:
         [callr r13] must jump to the new stack pointer. *)
      leave c st link ~len (Array.unsafe_get regs rs)
  | Isa.Ret ->
    let link = ref unlinked in
    fun st ->
      let osp = Array.unsafe_get regs sp in
      let o = osp - mbase in
      let target =
        if o >= 0 && o + 4 <= msize then
          Int32.to_int (Bytes.get_int32_le data o) land 0xFFFFFFFF
        else begin
          here st ~stack:true;
          Memory.load_word mem osp
        end
      in
      Array.unsafe_set regs sp (add osp 4);
      leave c st link ~len target
  | Isa.Push rs ->
    fun st ->
      let nsp = sub (Array.unsafe_get regs sp) 4 in
      let o = nsp - mbase in
      if o >= 0 && o + 4 <= msize then begin
        Bytes.set_int32_le data o (Int32.of_int (Array.unsafe_get regs rs));
        note_store mem settled o 4
      end
      else begin
        here st ~stack:true;
        Memory.store_word mem nsp (Array.unsafe_get regs rs)
      end;
      Array.unsafe_set regs sp nsp;
      if !valid then kont st
      else begin
        here st ~stack:true;
        raise_notrace Invalidated
      end
  | Isa.Pop rd ->
    fun st ->
      let osp = Array.unsafe_get regs sp in
      let o = osp - mbase in
      if o >= 0 && o + 4 <= msize then
        Array.unsafe_set regs rd (Int32.to_int (Bytes.get_int32_le data o) land 0xFFFFFFFF)
      else begin
        here st ~stack:true;
        Array.unsafe_set regs rd (Memory.load_word mem osp)
      end;
      (* After the destination write, as the interpreter does: [pop r13]
         ends with sp+4, not the popped value. *)
      Array.unsafe_set regs sp (add osp 4);
      kont st
  | Isa.Syscall ->
    fun st ->
      st.st_retired <- st.st_base + len;
      st.st_pc <- next;
      st.st_trap <- Some Syscall_trap

(* The operand staging the mini-C code generator emits for every
   binary operator:

     push a; X; mov b, a; pop a; [op a, a, b]

   where X puts the right operand in a: [mov a, #w], [ld a, [rs+off]]
   or [ldb a, [rs+off]]. One closure runs the four instructions, and
   the operator when one follows ([Setcc], or a [Binop] other than
   div and mod, which can trap), specialized at compile time. The push
   still stores a and does its page bookkeeping; the pop loads
   nothing, since it would read back the word just pushed: a keeps its
   value throughout, and b receives X's. The early exits are
   [Cpu.step]'s: a faulting push retires nothing of the sequence, a
   push into the running block retires alone and resumes through the
   dispatcher, and a faulting X retires the push only, leaving a and b
   as they were. Neither a nor b may be the stack pointer. *)
let staged_operand ~a ~b = function
  | Isa.Mov (d, Isa.Imm _) | Isa.Load (d, _, _) | Isa.Loadb (d, _, _) ->
    d = a && a <> b && a <> sp_index && b <> sp_index
  | _ -> false

(* The operator that consumes the staged pair, when the next
   instruction is one. *)
let staging_tail ~a ~b = function
  | (_, (Isa.Binop (op, d, s, Isa.Reg t) as tail)) :: rest
    when d = a && s = a && t = b && op <> Isa.Div && op <> Isa.Mod ->
    (Some tail, rest)
  | (_, (Isa.Setcc (_, d, s, Isa.Reg t) as tail)) :: rest when d = a && s = a && t = b ->
    (Some tail, rest)
  | rest -> (None, rest)

(* The staging sequence whose push is instruction [k] of its block, at
   [at]; [kont] is the rest of the block. *)
let compile_staging regs mem valid ~k ~at ~a ~b ~operand ~tail ~kont =
  let data = Memory.bytes mem and settled = Memory.settled_pages mem in
  let mbase = Memory.base mem and msize = Memory.size mem in
  (* X is an immediate (width 0) or a load of [width] bytes. *)
  let width, rs, off =
    match operand with
    | Isa.Mov (_, Isa.Imm w) -> (0, 0, w)
    | Isa.Load (_, rs, off) -> (4, rs, off)
    | Isa.Loadb (_, rs, off) -> (1, rs, off)
    | _ -> invalid_arg "Block.compile_staging: not a staged operand"
  in
  (* Where the sequence raises: at the push ([j] = 0) or at X. *)
  let stop st j ~stack =
    st.st_k <- k + j;
    st.st_pc <- at + (j * Isa.instr_size);
    st.st_stack <- stack
  in
  (* The four instructions; returns the operand, now in b. *)
  let[@inline] stage st =
    let saved = Array.unsafe_get regs a in
    let nsp = sub (Array.unsafe_get regs sp_index) 4 in
    let o = nsp - mbase in
    if o >= 0 && o + 4 <= msize then begin
      Bytes.set_int32_le data o (Int32.of_int saved);
      note_store mem settled o 4
    end
    else begin
      stop st 0 ~stack:true;
      Memory.store_word mem nsp saved
    end;
    Array.unsafe_set regs sp_index nsp;
    if not !valid then begin
      stop st 0 ~stack:true;
      raise_notrace Invalidated
    end;
    let v =
      if width = 0 then off
      else begin
        let addr = mask (Array.unsafe_get regs rs + off) in
        let o = addr - mbase in
        if width = 4 then
          if o >= 0 && o + 4 <= msize then
            Int32.to_int (Bytes.get_int32_le data o) land 0xFFFFFFFF
          else begin
            stop st 1 ~stack:false;
            Memory.load_word mem addr
          end
        else if o >= 0 && o < msize then Char.code (Bytes.unsafe_get data o)
        else begin
          stop st 1 ~stack:false;
          Memory.load_byte mem addr
        end
      end
    in
    Array.unsafe_set regs b v;
    Array.unsafe_set regs sp_index (mask (nsp + 4));
    v
  in
  (* The operator's left operand is a, which [stage] leaves alone, so it
     may be read before or after it. *)
  let set st x =
    Array.unsafe_set regs a x;
    kont st
  in
  let test st t = set st (Bool.to_int t) in
  match tail with
  | None ->
    fun st ->
      ignore (stage st);
      kont st
  | Some (Isa.Binop (Isa.Add, _, _, _)) ->
    fun st -> set st (add (Array.unsafe_get regs a) (stage st))
  | Some (Isa.Binop (Isa.Sub, _, _, _)) ->
    fun st -> set st (sub (Array.unsafe_get regs a) (stage st))
  | Some (Isa.Binop (Isa.Mul, _, _, _)) ->
    fun st -> set st (mul (Array.unsafe_get regs a) (stage st))
  | Some (Isa.Binop (Isa.And, _, _, _)) ->
    fun st -> set st (Array.unsafe_get regs a land stage st)
  | Some (Isa.Binop (Isa.Or, _, _, _)) ->
    fun st -> set st (Array.unsafe_get regs a lor stage st)
  | Some (Isa.Binop (Isa.Xor, _, _, _)) ->
    fun st -> set st (Array.unsafe_get regs a lxor stage st)
  | Some (Isa.Binop (Isa.Shl, _, _, _)) ->
    fun st -> set st (shl (Array.unsafe_get regs a) (stage st))
  | Some (Isa.Binop (Isa.Shr, _, _, _)) ->
    fun st -> set st (shr (Array.unsafe_get regs a) (stage st))
  | Some (Isa.Binop (Isa.Sar, _, _, _)) ->
    fun st -> set st (sar (Array.unsafe_get regs a) (stage st))
  | Some (Isa.Setcc (Isa.Eq, _, _, _)) ->
    fun st -> test st (Array.unsafe_get regs a = stage st)
  | Some (Isa.Setcc (Isa.Ne, _, _, _)) ->
    fun st -> test st (Array.unsafe_get regs a <> stage st)
  | Some (Isa.Setcc (Isa.Lt, _, _, _)) ->
    fun st -> test st (lt_signed (Array.unsafe_get regs a) (stage st))
  | Some (Isa.Setcc (Isa.Le, _, _, _)) ->
    fun st -> test st (not (lt_signed (stage st) (Array.unsafe_get regs a)))
  | Some (Isa.Setcc (Isa.Gt, _, _, _)) ->
    fun st -> test st (lt_signed (stage st) (Array.unsafe_get regs a))
  | Some (Isa.Setcc (Isa.Ge, _, _, _)) ->
    fun st -> test st (not (lt_signed (Array.unsafe_get regs a) (stage st)))
  | Some (Isa.Setcc (Isa.Ltu, _, _, _)) ->
    fun st -> test st (Array.unsafe_get regs a < stage st)
  | Some (Isa.Setcc (Isa.Leu, _, _, _)) ->
    fun st -> test st (Array.unsafe_get regs a <= stage st)
  | Some (Isa.Setcc (Isa.Gtu, _, _, _)) ->
    fun st -> test st (Array.unsafe_get regs a > stage st)
  | Some (Isa.Setcc (Isa.Geu, _, _, _)) ->
    fun st -> test st (Array.unsafe_get regs a >= stage st)
  | Some _ -> invalid_arg "Block.compile_staging: not a staging operator"

(* Walk the decoder forward from the entry until the block closes:
   first control transfer (kept, as the block's last instruction), tag
   change, decode error, fetch fault, or the span cap. *)
let discover mem ~entry_off =
  let base = Memory.base mem in
  let rec go acc k block_tag =
    if k >= Memory.max_block_slots then List.rev acc
    else begin
      let at = base + entry_off + (k * Isa.instr_size) in
      match Memory.fetch mem at with
      | exception Memory.Fault _ -> List.rev acc
      | Error _ -> List.rev acc
      | Ok (tag, instr) ->
        if k > 0 && tag <> block_tag then List.rev acc
        else if is_terminator instr then List.rev ((tag, instr) :: acc)
        else go ((tag, instr) :: acc) (k + 1) (if k = 0 then tag else block_tag)
    end
  in
  go [] 0 0

(* Register [cb] over its span and return the stored option. *)
let register c ~slot ~slots cb =
  let r = Some cb in
  Memory.register_block c.mem ~slot ~slots ~valid:cb.c_valid (Compiled r);
  r

let compile c ~slot =
  let entry_off = slot * Isa.instr_size in
  let entry_addr = Memory.base c.mem + entry_off in
  let valid = ref true in
  match discover c.mem ~entry_off with
  | [] ->
    (* Nothing decodes at the entry; register a one-slot span anyway so
       a store that rewrites these bytes forces a recompile. [find]
       never returns a block of length 0. *)
    register c ~slot ~slots:1 { unlinked with c_valid = valid; c_regs = c.regs }
  | (c_tag, _) :: _ as instrs ->
    let len = List.length instrs in
    (* A block that ran off its end without a terminator (cap, tag
       change, decode error ahead) leaves for the slot after it. *)
    let fin =
      let link = ref unlinked and fallthrough = entry_addr + (len * Isa.instr_size) in
      fun st -> leave c st link ~len fallthrough
    in
    (* Build the chain back to front so each op captures its
       continuation directly. *)
    let rec build k = function
      | [] -> fin
      | (_, Isa.Push a) :: (_, operand) :: (_, Isa.Mov (b, Isa.Reg a')) :: (_, Isa.Pop a'')
        :: rest
        when a' = a && a'' = a && staged_operand ~a ~b operand ->
        let tail, rest = staging_tail ~a ~b rest in
        let kont = build (k + if Option.is_none tail then 4 else 5) rest in
        compile_staging c.regs c.mem valid ~k ~at:(entry_addr + (k * Isa.instr_size)) ~a ~b
          ~operand ~tail ~kont
      | (_, instr) :: rest ->
        let kont = build (k + 1) rest in
        let at = entry_addr + (k * Isa.instr_size) in
        compile_instr c c.regs c.mem valid instr ~k ~len ~at ~next:(at + Isa.instr_size)
          ~kont
    in
    c.compiled_blocks <- c.compiled_blocks + 1;
    register c ~slot ~slots:len
      {
        c_pc = entry_addr;
        c_tag;
        c_len = len;
        c_valid = valid;
        c_regs = c.regs;
        c_run = build 0 instrs;
      }

(* One exception handler covers the whole chain: the instruction that
   raised recorded its index, pc and kind before raising. *)
let exec cb st =
  st.st_trap <- None;
  st.st_base <- 0;
  try cb.c_run st with
  | Memory.Fault { addr; access } ->
    (* The faulting instruction retires nothing and the pc parks on it,
       exactly as [Cpu.step] leaves things. *)
    let fault = if st.st_stack then Stack_fault { addr } else Segfault { addr; access } in
    st.st_retired <- st.st_base + st.st_k;
    st.st_trap <- Some (Fault_trap fault)
  | Division_by_zero ->
    st.st_retired <- st.st_base + st.st_k;
    st.st_trap <- Some (Fault_trap (Division_fault { addr = st.st_pc }))
  | Invalidated ->
    (* The store itself retired normally; resume after it through the
       dispatcher so rewritten bytes are freshly decoded. *)
    st.st_retired <- st.st_base + st.st_k + 1;
    st.st_pc <- st.st_pc + Isa.instr_size

(* Dispatch: return a block runnable from [pc] within [remaining] fuel,
   compiling on a miss, and point the pending exit's link at it. [None]
   sends the caller to the stepping interpreter for one instruction —
   unaligned or out-of-range pcs, undecodable entries, hoisted-tag
   mismatches (the single step raises the precise
   [Bad_tag]/[Bad_instruction]/fault), and blocks longer than the
   remaining fuel (the monitor's signal slicing counts on [run] never
   overrunning its fuel). *)
let find c ~pc ~remaining =
  let link = c.pending in
  c.pending <- c.idle;
  let off = pc - Memory.base c.mem in
  if
    off < 0
    || off + Isa.instr_size > Memory.size c.mem
    || off land (Isa.instr_size - 1) <> 0
  then None
  else begin
    let slot = off lsr 3 in
    (* The registry drops an entry the moment it is invalidated, so
       anything found is live; it is ours unless another CPU on the
       same segment compiled it against its own registers. *)
    let cached, r =
      match Memory.block_at c.mem ~slot with
      | Compiled (Some cb as r) when cb.c_regs == c.regs -> (true, r)
      | _ -> (false, compile c ~slot)
    in
    match r with
    | Some cb when cb.c_len > 0 && cb.c_tag = c.expected_tag && cb.c_len <= remaining ->
      if cached then c.hits <- c.hits + 1;
      link := cb;
      r
    | _ -> None
  end
