type item = { instr : Isa.t; relocate : bool }

type t = {
  code : item array;
  data : Bytes.t;
  bss_size : int;
  entry_offset : int;
  symbols : (string * int) list;
}

let align16 n = (n + 15) land lnot 15

let data_offset t = align16 (Array.length t.code * Isa.instr_size)

let image_size t = data_offset t + Bytes.length t.data + t.bss_size

let symbol t name = List.assoc name t.symbols

type layout = {
  base : int;
  code_start : int;
  data_start : int;
  bss_end : int;
  stack_top : int;
  abs_symbols : (string * int) list;
}

type loaded = { cpu : Cpu.t; memory : Memory.t; layout : layout }

let rebase base instr =
  let shift w = Word.add w base in
  match instr with
  | Isa.Mov (rd, Isa.Imm w) -> Isa.Mov (rd, Isa.Imm (shift w))
  | Isa.Binop (op, rd, rs, Isa.Imm w) -> Isa.Binop (op, rd, rs, Isa.Imm (shift w))
  | Isa.Setcc (c, rd, rs, Isa.Imm w) -> Isa.Setcc (c, rd, rs, Isa.Imm (shift w))
  | Isa.Br (c, rs, rt, target) -> Isa.Br (c, rs, rt, shift target)
  | Isa.Jmp target -> Isa.Jmp (shift target)
  | Isa.Call target -> Isa.Call (shift target)
  | Isa.Nop | Isa.Halt | Isa.Mov _ | Isa.Load _ | Isa.Store _ | Isa.Loadb _
  | Isa.Storeb _ | Isa.Binop _ | Isa.Setcc _ | Isa.Jmpr _ | Isa.Callr _ | Isa.Ret
  | Isa.Push _ | Isa.Pop _ | Isa.Syscall ->
    invalid_arg "Image.load: relocation mark on an instruction without an address field"

let load ?(stack_size = 16 * 1024) t ~base ~size ~tag =
  let needed = image_size t + stack_size in
  if needed > size then
    invalid_arg
      (Printf.sprintf "Image.load: image needs %d bytes but segment has %d" needed size);
  let memory = Memory.create ~base ~size in
  Array.iteri
    (fun i { instr; relocate } ->
      let instr = if relocate then rebase base instr else instr in
      let encoded = Isa.encode ~tag instr in
      Memory.store_bytes memory ~addr:(base + (i * Isa.instr_size)) encoded)
    t.code;
  let data_start = base + data_offset t in
  Memory.store_bytes memory ~addr:data_start t.data;
  let bss_end = data_start + Bytes.length t.data + t.bss_size in
  (* Word-align the stack top. *)
  let stack_top = (base + size) land lnot 3 in
  let layout =
    {
      base;
      code_start = base;
      data_start;
      bss_end;
      stack_top;
      abs_symbols = List.map (fun (name, off) -> (name, base + off)) t.symbols;
    }
  in
  let cpu = Cpu.create ~expected_tag:tag memory ~pc:(base + t.entry_offset) ~sp:stack_top in
  { cpu; memory; layout }

let abs_symbol loaded name = List.assoc name loaded.layout.abs_symbols

type snapshot = { snap_cpu : Cpu.snapshot; snap_memory : Memory.snapshot }

let snapshot { cpu; memory; _ } =
  { snap_cpu = Cpu.snapshot cpu; snap_memory = Memory.snapshot memory }

(* Memory first: it refuses a superseded snapshot before anything
   moves. *)
let restore { cpu; memory; _ } snap =
  Memory.restore memory snap.snap_memory;
  Cpu.restore cpu snap.snap_cpu
