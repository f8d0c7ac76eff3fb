(* The fault/trap types live in [Block] (which sits below this module
   in the dependency order); the equations keep [Cpu.Segfault] etc.
   valid for every existing user. *)
type fault = Block.fault =
  | Segfault of { addr : int; access : Memory.access }
  | Bad_tag of { addr : int; found : int; expected : int }
  | Bad_instruction of { addr : int }
  | Division_fault of { addr : int }
  | Stack_fault of { addr : int }

type trap = Block.trap = Syscall_trap | Halt_trap | Fault_trap of fault

type outcome = Trapped of trap | Out_of_fuel

type t = {
  memory : Memory.t;
  regs : int array;
  mutable pc : int;
  mutable retired : int;
  expected_tag : int;
  mutable blocks : Block.cache option;  (* lazily created on first block run *)
}

let sp_index = 13

let fp_index = 12

let create ?(expected_tag = 0) memory ~pc ~sp =
  let regs = Array.make 16 0 in
  regs.(sp_index) <- Word.mask sp;
  { memory; regs; pc; retired = 0; expected_tag; blocks = None }

let memory t = t.memory

let pc t = t.pc

let set_pc t pc = t.pc <- Word.mask pc

let check_reg i = if i < 0 || i > 15 then invalid_arg "Cpu.reg: index out of range"

let reg t i =
  check_reg i;
  t.regs.(i)

let set_reg t i w =
  check_reg i;
  t.regs.(i) <- Word.mask w

let instructions_retired t = t.retired

let expected_tag t = t.expected_tag

type snapshot = { snap_regs : int array; snap_pc : int; snap_retired : int }

let snapshot t =
  { snap_regs = Array.copy t.regs; snap_pc = t.pc; snap_retired = t.retired }

let restore t snap =
  Array.blit snap.snap_regs 0 t.regs 0 16;
  t.pc <- snap.snap_pc;
  t.retired <- snap.snap_retired

let operand_value t = function Isa.Reg r -> t.regs.(r) | Isa.Imm w -> w

(* Execute one already-decoded instruction. Factored out of [step] so
   the hot path allocates nothing on normal advancement. *)
let execute t instr next =
  match instr with
      | Isa.Nop ->
        t.pc <- next;
        None
      | Isa.Halt -> Some Halt_trap
      | Isa.Mov (rd, o) ->
        t.regs.(rd) <- operand_value t o;
        t.pc <- next;
        None
      | Isa.Load (rd, rs, off) ->
        t.regs.(rd) <- Memory.load_word t.memory (Word.mask (t.regs.(rs) + off));
        t.pc <- next;
        None
      | Isa.Store (rd, off, rs) ->
        Memory.store_word t.memory (Word.mask (t.regs.(rd) + off)) t.regs.(rs);
        t.pc <- next;
        None
      | Isa.Loadb (rd, rs, off) ->
        t.regs.(rd) <- Memory.load_byte t.memory (Word.mask (t.regs.(rs) + off));
        t.pc <- next;
        None
      | Isa.Storeb (rd, off, rs) ->
        Memory.store_byte t.memory (Word.mask (t.regs.(rd) + off)) t.regs.(rs);
        t.pc <- next;
        None
      | Isa.Binop (op, rd, rs, o) ->
        t.regs.(rd) <- Isa.eval_binop op t.regs.(rs) (operand_value t o);
        t.pc <- next;
        None
      | Isa.Setcc (cond, rd, rs, o) ->
        t.regs.(rd) <- (if Isa.eval_cond cond t.regs.(rs) (operand_value t o) then 1 else 0);
        t.pc <- next;
        None
      | Isa.Br (cond, rs, rt, target) ->
        t.pc <- (if Isa.eval_cond cond t.regs.(rs) t.regs.(rt) then target else next);
        None
      | Isa.Jmp target ->
        t.pc <- target;
        None
      | Isa.Jmpr rs ->
        t.pc <- t.regs.(rs);
        None
      | Isa.Call target ->
        let sp = Word.sub t.regs.(sp_index) 4 in
        Memory.store_word t.memory sp (Word.mask next);
        t.regs.(sp_index) <- sp;
        t.pc <- target;
        None
      | Isa.Callr rs ->
        let sp = Word.sub t.regs.(sp_index) 4 in
        Memory.store_word t.memory sp (Word.mask next);
        t.regs.(sp_index) <- sp;
        t.pc <- t.regs.(rs);
        None
      | Isa.Ret ->
        let sp = t.regs.(sp_index) in
        let target = Memory.load_word t.memory sp in
        t.regs.(sp_index) <- Word.add sp 4;
        t.pc <- target;
        None
      | Isa.Push rs ->
        let sp = Word.sub t.regs.(sp_index) 4 in
        Memory.store_word t.memory sp t.regs.(rs);
        t.regs.(sp_index) <- sp;
        t.pc <- next;
        None
      | Isa.Pop rd ->
        let sp = t.regs.(sp_index) in
        t.regs.(rd) <- Memory.load_word t.memory sp;
        t.regs.(sp_index) <- Word.add sp 4;
        t.pc <- next;
        None
  | Isa.Syscall ->
    t.pc <- next;
    Some Syscall_trap

let step t =
  let at = t.pc in
  match Memory.fetch t.memory at with
  | exception Memory.Fault { addr; access } -> Some (Fault_trap (Segfault { addr; access }))
  | Error _ -> Some (Fault_trap (Bad_instruction { addr = at }))
  | Ok (tag, instr) ->
    if tag <> t.expected_tag then
      Some (Fault_trap (Bad_tag { addr = at; found = tag; expected = t.expected_tag }))
    else begin
      t.retired <- t.retired + 1;
      match execute t instr (at + Isa.instr_size) with
      | exception Memory.Fault { addr; access } ->
        t.retired <- t.retired - 1;
        let fault =
          match instr with
          | Isa.Push _ | Isa.Pop _ | Isa.Call _ | Isa.Callr _ | Isa.Ret ->
            Stack_fault { addr }
          | Isa.Nop | Isa.Halt | Isa.Mov _ | Isa.Load _ | Isa.Store _ | Isa.Loadb _
          | Isa.Storeb _ | Isa.Binop _ | Isa.Setcc _ | Isa.Br _ | Isa.Jmp _
          | Isa.Jmpr _ | Isa.Syscall ->
            Segfault { addr; access }
        in
        Some (Fault_trap fault)
      | exception Division_by_zero ->
        t.retired <- t.retired - 1;
        Some (Fault_trap (Division_fault { addr = at }))
      | result -> result
    end

let run_stepping t ~fuel =
  let rec loop remaining =
    if remaining <= 0 then Out_of_fuel
    else begin
      match step t with None -> loop (remaining - 1) | Some trap -> Trapped trap
    end
  in
  loop fuel

let block_cache t =
  match t.blocks with
  | Some c -> c
  | None ->
    let c = Block.create t.memory t.regs ~expected_tag:t.expected_tag in
    t.blocks <- Some c;
    c

(* Block-engine run loop: execute a chain of compiled blocks when one
   is dispatchable from the current pc within the remaining fuel, and
   fall back to the stepping interpreter for exactly one instruction
   otherwise (unaligned pc, undecodable or wrong-tag entry — the step
   raises the precise fault — or a block longer than the fuel left, so
   a sliced [run ~fuel] retires exactly [fuel] instructions before
   reporting [Out_of_fuel]). The pc may have moved since the last
   chain returned here, so no exit is pending on entry. *)
let run_blocks t ~fuel =
  let cache = block_cache t in
  let st = Block.scratch cache in
  Block.drop_pending cache;
  let rec loop remaining =
    if remaining <= 0 then Out_of_fuel
    else begin
      match Block.find cache ~pc:t.pc ~remaining with
      | None -> (
        match step t with None -> loop (remaining - 1) | Some trap -> Trapped trap)
      | Some cb ->
        st.Block.st_budget <- remaining;
        Block.exec cb st;
        t.retired <- t.retired + st.Block.st_retired;
        t.pc <- st.Block.st_pc;
        (match st.Block.st_trap with
        | None -> loop (remaining - st.Block.st_retired)
        | Some trap -> Trapped trap)
    end
  in
  loop fuel

let run t ~fuel =
  match Memory.engine t.memory with
  | Memory.Block -> run_blocks t ~fuel
  | Memory.Reference -> run_stepping t ~fuel

let block_stats t =
  match t.blocks with
  | None -> (0, 0, Memory.block_invalidations t.memory)
  | Some c ->
    (Block.compiled_blocks c, Block.hits c, Memory.block_invalidations t.memory)

let pp_fault ppf = function
  | Segfault { addr; access } ->
    let access_name =
      match access with
      | Memory.Read -> "read"
      | Memory.Write -> "write"
      | Memory.Execute -> "execute"
    in
    Format.fprintf ppf "segfault (%s at 0x%08X)" access_name addr
  | Bad_tag { addr; found; expected } ->
    Format.fprintf ppf "bad instruction tag at 0x%08X (found %d, expected %d)" addr found
      expected
  | Bad_instruction { addr } -> Format.fprintf ppf "illegal instruction at 0x%08X" addr
  | Division_fault { addr } -> Format.fprintf ppf "division by zero at 0x%08X" addr
  | Stack_fault { addr } -> Format.fprintf ppf "stack fault at 0x%08X" addr

let pp_trap ppf = function
  | Syscall_trap -> Format.pp_print_string ppf "syscall"
  | Halt_trap -> Format.pp_print_string ppf "halt"
  | Fault_trap fault -> Format.fprintf ppf "fault: %a" pp_fault fault
