(* Performance-PR guarantees: the basic-block compiler above the
   stepping interpreter is semantically invisible, both share one exact
   instruction fetch, and the block registry stays page-granular.

   - A randomized fetch differential steps generated programs
     (including self-modifying stores into executed code and
     wrongly-tagged injected words) and compares [Memory.fetch], faults
     included, with a test-local byte-at-a-time decode at every pc they
     visit and at every offset of the segment's first and last 16
     bytes; a run from a pc whose window crosses either end of the
     segment traps at the first unmapped byte under every engine.
   - A sliced-run differential drives the same generated programs
     through [Cpu.run] under the reference and block engines with
     randomized fuel slices, so block boundaries, mid-block fuel
     exhaustion and mid-block faults are all crossed and compared
     state-for-state — also across a [Memory.restore].
   - Explicit self-modifying-code tests prove precise invalidation on
     guest and host stores, and that injected code with a wrong
     instruction tag still faults — under every engine.
   - Page-directory tests: a block straddling a 4 KiB page boundary is
     invalidated by a one-byte store into either page, wrong-tag code
     in a segment's last page faults, a restore that rewrites a code
     page retires the blocks compiled from it, a restore that rewrites
     only data pages keeps the compiled blocks, and the served config4
     deployment keeps its block registry within a few pages.
   - Chained-block tests check each guard on a block exit's link: a
     link into a block that a host store or a restore retired is not
     followed, a warmed chain stops at every fuel budget exactly where
     the reference engine does, and a warmed chained run allocates
     nothing.
   - Fused-staging tests compare each early exit of the closure that
     runs the code generator's operand staging with the reference
     engine (a faulting push, a push into the running block, a faulting
     operand load), and check that a compiled store retires a block
     compiled on a page that was already dirty. The generated programs
     contain staging sequences too.
   - qcheck properties pin the block registry's invalidation contract
     (a store intersecting a registered span flips its validity cell),
     the sliced-run equivalence, and incremental checkpoints, one per
     segment, against a full-copy model that also offers each segment
     superseded and foreign snapshots.
   - A pinned regression asserts the bench report's demand/monitor
     counters equal constants the fast paths must never move. *)

open Nv_vm
module Prng = Nv_util.Prng

(* ------------------------------------------------------------------ *)
(* Fetch against a byte-at-a-time oracle                               *)
(* ------------------------------------------------------------------ *)

let base = 0x10000

let seg_size = 0x4000

let code_len = 48 (* instructions *)

let data_base = base + (code_len * Isa.instr_size)

let data_size = 0x1000

let gen_operand prng =
  if Prng.bool prng then Isa.Reg (Prng.int prng 8)
  else Isa.Imm (1 + Prng.int prng 64)

let binops =
  [| Isa.Add; Isa.Sub; Isa.Mul; Isa.Div; Isa.Mod; Isa.And; Isa.Or; Isa.Xor;
     Isa.Shl; Isa.Shr; Isa.Sar |]

let conds =
  [| Isa.Eq; Isa.Ne; Isa.Lt; Isa.Le; Isa.Gt; Isa.Ge; Isa.Ltu; Isa.Leu; Isa.Gtu;
     Isa.Geu |]

(* Register conventions of the generated programs: r0-r7 scratch
   values, r8/r9 pointers into the data region, r10 a pointer into the
   code region (the self-modifying-store target), r13 the stack
   pointer. *)
let gen_instr prng =
  let r () = Prng.int prng 8 in
  let data_reg () = 8 + Prng.int prng 2 in
  let small_off () = Prng.int prng 64 in
  let code_target () = base + (Isa.instr_size * Prng.int prng code_len) in
  match Prng.int prng 100 with
  | n when n < 18 -> Isa.Mov (r (), Isa.Imm (Prng.int prng 256))
  | n when n < 24 ->
    Isa.Mov (data_reg (), Isa.Imm (data_base + Prng.int prng (data_size - 128)))
  | n when n < 28 ->
    (* Re-aim the self-modifying pointer at some instruction slot. *)
    Isa.Mov (10, Isa.Imm (code_target ()))
  | n when n < 44 -> Isa.Binop (Prng.pick prng binops, r (), r (), gen_operand prng)
  | n when n < 50 -> Isa.Setcc (Prng.pick prng conds, r (), r (), gen_operand prng)
  | n when n < 58 -> Isa.Load (r (), data_reg (), small_off ())
  | n when n < 66 -> Isa.Store (data_reg (), small_off (), r ())
  | n when n < 70 -> Isa.Loadb (r (), data_reg (), small_off ())
  | n when n < 74 -> Isa.Storeb (data_reg (), small_off (), r ())
  | n when n < 80 -> Isa.Br (Prng.pick prng conds, r (), r (), code_target ())
  | n when n < 83 -> Isa.Jmp (code_target ())
  | n when n < 87 -> Isa.Push (r ())
  | n when n < 90 -> Isa.Pop (r ())
  | n when n < 94 ->
    (* Self-modifying store into the code region via r10. *)
    Isa.Store (10, 0, r ())
  | n when n < 96 -> Isa.Call (code_target ())
  | n when n < 97 -> Isa.Ret
  | n when n < 98 -> Isa.Jmpr (r ())
  | _ -> Isa.Syscall

(* The operand staging the mini-C code generator emits for every binary
   operator, [push a; X; mov b, a; pop a; op a, a, b], which the block
   compiler runs as one closure. Registers, X and the tail are random,
   so some draws break the pattern (a = b, a div/mod or unrelated tail,
   no tail); X's base register is sometimes a, b or r13, and its offset
   sometimes lands outside the segment, so X faults after the push
   retired. A leading [mov r13, #...] may put sp at the segment start
   (the push faults) or inside the code region (the push rewrites code,
   the running block's included). *)
let gen_staging prng =
  let r () = Prng.int prng 8 in
  let a = r () and b = r () in
  let base_reg () =
    match Prng.int prng 5 with
    | 0 -> a
    | 1 -> b
    | 2 -> Cpu.sp_index
    | _ -> 8 + Prng.int prng 2
  in
  let offset () =
    match Prng.int prng 4 with
    | 0 -> seg_size + Prng.int prng 16
    | 1 -> -base - Prng.int prng 16
    | _ -> Prng.int prng 64
  in
  let operand =
    match Prng.int prng 3 with
    | 0 -> Isa.Mov (a, Isa.Imm (Prng.int prng 256))
    | 1 -> Isa.Load (a, base_reg (), offset ())
    | _ -> Isa.Loadb (a, base_reg (), offset ())
  in
  let sp =
    match Prng.int prng 8 with
    | 0 -> [ Isa.Mov (Cpu.sp_index, Isa.Imm base) ]
    | 1 ->
      let word = Prng.int prng (2 * code_len) in
      [ Isa.Mov (Cpu.sp_index, Isa.Imm (base + 4 + (4 * word))) ]
    | _ -> []
  in
  let tail =
    match Prng.int prng 4 with
    | 0 -> [ Isa.Binop (Prng.pick prng binops, a, a, Isa.Reg b) ]
    | 1 -> [ Isa.Setcc (Prng.pick prng conds, a, a, Isa.Reg b) ]
    | 2 -> []
    | _ -> [ gen_instr prng ]
  in
  sp @ [ Isa.Push a; operand; Isa.Mov (b, Isa.Reg a); Isa.Pop a ] @ tail

(* [code_len] instructions: single ones from [gen_instr], and staging
   sequences (cut short at the end). *)
let gen_program prng =
  let rec fill acc n =
    if n >= code_len then Array.sub (Array.of_list (List.rev acc)) 0 code_len
    else begin
      let instrs = if Prng.int prng 12 = 0 then gen_staging prng else [ gen_instr prng ] in
      fill (List.rev_append instrs acc) (n + List.length instrs)
    end
  in
  fill [] 0

let build_cpu ~engine program =
  let memory = Memory.create ~base ~size:seg_size in
  Array.iteri
    (fun i instr ->
      Memory.store_bytes memory
        ~addr:(base + (i * Isa.instr_size))
        (Isa.encode ~tag:0 instr))
    program;
  Memory.set_engine memory engine;
  let cpu = Cpu.create memory ~pc:base ~sp:(base + seg_size) in
  Cpu.set_reg cpu 8 (data_base + 64);
  Cpu.set_reg cpu 9 (data_base + 512);
  Cpu.set_reg cpu 10 (base + (8 * Isa.instr_size));
  (cpu, memory)

let trap_to_string = function
  | None -> "running"
  | Some trap -> Format.asprintf "%a" Cpu.pp_trap trap

let check_lockstep_state ~seed ~step block reference =
  Alcotest.(check int)
    (Printf.sprintf "seed %d step %d: pc" seed step)
    (Cpu.pc reference) (Cpu.pc block);
  for r = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "seed %d step %d: r%d" seed step r)
      (Cpu.reg reference r) (Cpu.reg block r)
  done;
  Alcotest.(check int)
    (Printf.sprintf "seed %d step %d: retired" seed step)
    (Cpu.instructions_retired reference)
    (Cpu.instructions_retired block)

(* The byte-at-a-time fetch [Memory.fetch] replaced, kept here as its
   oracle: check each byte of the window in turn (the first unmapped
   one faults, with [Execute] access), copy the bytes out and decode
   the copy. *)
let fetch_bytewise memory addr =
  let b = Bytes.create Isa.instr_size in
  for i = 0 to Isa.instr_size - 1 do
    if not (Memory.in_range memory (addr + i)) then
      raise (Memory.Fault { addr = addr + i; access = Memory.Execute });
    Bytes.set b i (Char.chr (Memory.load_byte memory (addr + i)))
  done;
  Isa.decode b

let fetch_to_string fetch memory addr =
  match fetch memory addr with
  | exception Memory.Fault { addr; access } ->
    Printf.sprintf "fault at 0x%X (%s)" addr
      (match access with
      | Memory.Read -> "read"
      | Memory.Write -> "write"
      | Memory.Execute -> "execute")
  | Ok (tag, instr) -> Format.asprintf "tag %d: %a" tag Isa.pp instr
  | Error (Isa.Bad_opcode n) -> Printf.sprintf "bad opcode %d" n
  | Error (Isa.Bad_selector n) -> Printf.sprintf "bad selector %d" n
  | Error (Isa.Bad_register n) -> Printf.sprintf "bad register %d" n

let check_fetch what memory addr =
  Alcotest.(check string)
    (Printf.sprintf "%s: fetch at 0x%X" what addr)
    (fetch_to_string fetch_bytewise memory addr)
    (fetch_to_string Memory.fetch memory addr)

(* Every offset of the segment's first and last 16 bytes, aligned or
   not, and the 16 unmapped bytes beside each end. *)
let check_fetch_edges what memory =
  let seg_end = Memory.base memory + Memory.size memory in
  for o = -16 to 15 do
    check_fetch what memory (Memory.base memory + o);
    check_fetch what memory (seg_end + o)
  done

(* Step a generated program (self-modifying stores, wrong-tag words and
   wild [jmpr] targets included) and compare [Memory.fetch] with the
   oracle at every pc it visits, and at the segment edges before and
   after the run. The last 16 bytes start out random, so the edge
   sweep also decodes wrong tags and bad opcodes. *)
let run_fetch_differential ~seed ~steps =
  let prng = Prng.create ~seed in
  let program = gen_program prng in
  let cpu, memory = build_cpu ~engine:Memory.Block program in
  Memory.store_bytes memory
    ~addr:(base + seg_size - 16)
    (Bytes.init 16 (fun _ -> Char.chr (Prng.int prng 256)));
  let what = Printf.sprintf "seed %d" seed in
  check_fetch_edges what memory;
  let rec go step =
    if step < steps then begin
      check_fetch (Printf.sprintf "seed %d step %d" seed step) memory (Cpu.pc cpu);
      match Cpu.step cpu with
      | None | Some Cpu.Syscall_trap -> go (step + 1)
      | Some Cpu.Halt_trap | Some (Cpu.Fault_trap _) -> ()
    end
  in
  go 0;
  check_fetch_edges what memory

let test_fetch_matches_bytewise () =
  for seed = 1 to 40 do
    run_fetch_differential ~seed ~steps:600
  done

(* ------------------------------------------------------------------ *)
(* Sliced-run differential: reference vs block                         *)
(* ------------------------------------------------------------------ *)

(* Drive [Cpu.run] rather than [Cpu.step], since the block engine only
   engages through [run]. Fuel is sliced randomly (1..9 instructions),
   so slice boundaries constantly land mid-block, forcing the block
   dispatcher into its stepping fallback; generated programs also store
   into their own code through r10 (with arbitrary register values, so
   the rewritten word's tag byte is usually wrong — exercising
   wrong-tag injection against compiled blocks) and fault routinely
   (jmpr through small scratch values). Every slice must leave both
   engines in bit-identical architectural state.

   With [~restore], each machine is checkpointed on its own segment
   before the first slice and both are rolled back once, at a random
   slice or when the run first stops, then run on. Each restore
   rewrites only the pages its machine dirtied, and must retire the
   compiled blocks on them (the program may have rewritten its own code
   since the checkpoint) for the block machine to keep agreeing with
   the reference. *)
let outcome_to_string = function
  | Cpu.Trapped trap -> trap_to_string (Some trap)
  | Cpu.Out_of_fuel -> "out of fuel"

let run_differential_engines ?(restore = false) ~seed ~slices () =
  let prng = Prng.create ~seed in
  let program = gen_program prng in
  let ref_cpu, ref_mem = build_cpu ~engine:Memory.Reference program in
  let bl_cpu, bl_mem = build_cpu ~engine:Memory.Block program in
  let checkpoints =
    List.map
      (fun (cpu, mem) -> (cpu, mem, Cpu.snapshot cpu, Memory.snapshot mem))
      [ (ref_cpu, ref_mem); (bl_cpu, bl_mem) ]
  in
  let restore_at = if restore then Prng.int prng slices else -1 in
  let restored = ref (not restore) in
  let roll_back () =
    restored := true;
    List.iter
      (fun (cpu, mem, cpu_snap, mem_snap) ->
        Cpu.restore cpu cpu_snap;
        Memory.restore mem mem_snap)
      checkpoints
  in
  let rec go slice =
    if slice < slices then begin
      if slice = restore_at && not !restored then roll_back ();
      let fuel = 1 + Prng.int prng 9 in
      let ro = Cpu.run ref_cpu ~fuel in
      let bo = Cpu.run bl_cpu ~fuel in
      Alcotest.(check string)
        (Printf.sprintf "seed %d slice %d: block outcome" seed slice)
        (outcome_to_string ro) (outcome_to_string bo);
      check_lockstep_state ~seed ~step:slice bl_cpu ref_cpu;
      match ro with
      | Cpu.Out_of_fuel | Cpu.Trapped Cpu.Syscall_trap -> go (slice + 1)
      | Cpu.Trapped Cpu.Halt_trap | Cpu.Trapped (Cpu.Fault_trap _) ->
        if not !restored then begin
          roll_back ();
          go (slice + 1)
        end
    end
  in
  go 0;
  let dump m = Bytes.to_string (Memory.load_bytes m ~addr:base ~len:seg_size) in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: block memory identical" seed)
    true
    (String.equal (dump ref_mem) (dump bl_mem))

let test_differential_engines () =
  for seed = 100 to 140 do
    run_differential_engines ~seed ~slices:200 ()
  done

(* ------------------------------------------------------------------ *)
(* Self-modifying code: precise invalidation                           *)
(* ------------------------------------------------------------------ *)

let le_word b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF

(* A guest program that executes an instruction (compiling its block
   under the block engine), overwrites that instruction with its own
   stores, jumps back, and must observe the new instruction. A stale
   block would loop forever. The replacement is encoded with
   [patch_tag], so the same program doubles as the code-injection
   probe: a wrong tag must fault exactly as under the stepping
   interpreter. *)
let self_modifying_source ~patch_tag =
  let patch = Isa.encode ~tag:patch_tag (Isa.Mov (3, Isa.Imm 42)) in
  Printf.sprintf
    {|
      la r1, patch
      mov r4, #42
    patch:
      mov r3, #1
      breq r3, r4, done
      mov r2, #%d
      st [r1], r2
      mov r2, #%d
      st [r1+4], r2
      jmp patch
    done:
      halt
    |}
    (le_word patch 0) (le_word patch 4)

let all_engines = [ Memory.Reference; Memory.Block ]

let load_source ?(tag = 0) ~engine source =
  let loaded = Image.load (Asm.assemble source) ~base:0x1000 ~size:0x10000 ~tag in
  Memory.set_engine loaded.Image.memory engine;
  loaded

let test_smc_guest_store_invalidates () =
  List.iter
    (fun engine ->
      let loaded = load_source ~engine (self_modifying_source ~patch_tag:0) in
      (match Cpu.run loaded.Image.cpu ~fuel:1000 with
      | Cpu.Trapped Cpu.Halt_trap -> ()
      | Cpu.Trapped trap -> Alcotest.failf "unexpected trap: %a" Cpu.pp_trap trap
      | Cpu.Out_of_fuel -> Alcotest.fail "stale code: patched loop never exited");
      Alcotest.(check int) "patched instruction executed" 42 (Cpu.reg loaded.Image.cpu 3))
    all_engines

let test_smc_injected_wrong_tag_faults () =
  (* Variant expects tag 1; the self-patch writes a tag-0 instruction
     (the attacker does not know the tag), so re-fetching the patched
     slot must raise Bad_tag — identically under every engine. *)
  List.iter
    (fun engine ->
      let loaded = load_source ~tag:1 ~engine (self_modifying_source ~patch_tag:0) in
      match Cpu.run loaded.Image.cpu ~fuel:1000 with
      | Cpu.Trapped (Cpu.Fault_trap (Cpu.Bad_tag { found = 0; expected = 1; _ })) -> ()
      | Cpu.Trapped trap -> Alcotest.failf "expected Bad_tag, got %a" Cpu.pp_trap trap
      | Cpu.Out_of_fuel -> Alcotest.fail "expected Bad_tag, ran out of fuel")
    all_engines

let test_smc_host_store_invalidates () =
  (* Compile the block by running to halt, then overwrite the first
     instruction from the host side and re-run. *)
  let loaded = load_source ~engine:Memory.Block "mov r1, #1\nhalt" in
  let { Image.cpu; memory; layout } = loaded in
  (match Cpu.run cpu ~fuel:10 with
  | Cpu.Trapped Cpu.Halt_trap -> ()
  | _ -> Alcotest.fail "first run should halt");
  Alcotest.(check int) "original value" 1 (Cpu.reg cpu 1);
  Memory.store_bytes memory ~addr:layout.Image.code_start
    (Isa.encode ~tag:0 (Isa.Mov (1, Isa.Imm 2)));
  Cpu.set_pc cpu layout.Image.code_start;
  (match Cpu.run cpu ~fuel:10 with
  | Cpu.Trapped Cpu.Halt_trap -> ()
  | _ -> Alcotest.fail "second run should halt");
  Alcotest.(check int) "patched value observed" 2 (Cpu.reg cpu 1)

(* ------------------------------------------------------------------ *)
(* Fetch at the segment edges                                          *)
(* ------------------------------------------------------------------ *)

(* A run from a pc whose instruction window is not fully mapped traps
   at the first unmapped byte, with [Execute] access, under every
   engine: from 4 bytes before the end and from the end itself at the
   end, and from 8 bytes before the base at that address. It must
   never let an OCaml exception out of [Cpu.run]. *)
let test_fetch_at_segment_edges () =
  let seg_base = 0x1000 and size = 0x10000 in
  let seg_end = seg_base + size in
  List.iter
    (fun engine ->
      List.iter
        (fun (pc, addr) ->
          let memory = Memory.create ~base:seg_base ~size in
          Memory.set_engine memory engine;
          let cpu = Cpu.create memory ~pc ~sp:seg_end in
          let what = Printf.sprintf "%s, pc 0x%X" (Memory.engine_to_string engine) pc in
          match Cpu.run cpu ~fuel:10 with
          | Cpu.Trapped (Cpu.Fault_trap (Cpu.Segfault { addr = a; access = Memory.Execute }))
            ->
            Alcotest.(check int) (what ^ ": fault address") addr a;
            Alcotest.(check int) (what ^ ": pc stays") pc (Cpu.pc cpu);
            Alcotest.(check int) (what ^ ": nothing retired") 0 (Cpu.instructions_retired cpu)
          | o -> Alcotest.failf "%s: expected an execute segfault, got %s" what
                   (outcome_to_string o))
        [ (seg_end - 4, seg_end); (seg_end, seg_end); (seg_base - 8, seg_base - 8) ])
    all_engines

(* ------------------------------------------------------------------ *)
(* Page directory                                                      *)
(* ------------------------------------------------------------------ *)

let page_bytes = 4096

(* Five [mov rN, #N] and a halt compiled as one block whose entry sits
   four slots before the first page boundary, so its span covers two
   pages. A one-byte store of a new immediate (byte 4 of the encoding)
   into either page must retire the block, and the re-run must see the
   patched instruction. *)
let test_page_straddling_block_invalidation () =
  List.iter
    (fun k ->
      let memory = Memory.create ~base ~size:seg_size in
      Memory.set_engine memory Memory.Block;
      let entry = base + page_bytes - (4 * Isa.instr_size) in
      let program = Array.init 5 (fun i -> Isa.Mov (i + 1, Isa.Imm (i + 1))) in
      Array.iteri
        (fun i instr ->
          Memory.store_bytes memory
            ~addr:(entry + (i * Isa.instr_size))
            (Isa.encode ~tag:0 instr))
        (Array.append program [| Isa.Halt |]);
      let cpu = Cpu.create memory ~pc:entry ~sp:(base + seg_size) in
      let run () =
        Cpu.set_pc cpu entry;
        match Cpu.run cpu ~fuel:100 with
        | Cpu.Trapped Cpu.Halt_trap -> ()
        | o -> Alcotest.failf "expected halt, got %s" (outcome_to_string o)
      in
      run ();
      let which = Printf.sprintf "store into instruction %d" k in
      Alcotest.(check (triple int int int))
        (which ^ ": one block over two pages") (1, 0, 0) (Cpu.block_stats cpu);
      Alcotest.(check int) (which ^ ": pages allocated") 2 (Memory.decoded_pages memory);
      Memory.store_byte memory (entry + (k * Isa.instr_size) + 4) 42;
      let _, _, invalidations = Cpu.block_stats cpu in
      Alcotest.(check int) (which ^ ": block invalidated") 1 invalidations;
      run ();
      Alcotest.(check int) (which ^ ": patched value") 42 (Cpu.reg cpu (k + 1));
      let compiled, _, _ = Cpu.block_stats cpu in
      Alcotest.(check int) (which ^ ": recompiled") 2 compiled)
    [ 0; 4 ] (* instruction 0 is on the first page, instruction 4 on the second *)

(* A segment whose size is not a whole number of pages: its last page
   is partly mapped. Run tag-1 code ending at the very last byte, then
   overwrite it with tag-0 code from the host; the re-run must fault
   with [Bad_tag] under the default engine, exactly where the stepping
   interpreter would. *)
let test_last_page_wrong_tag_faults () =
  let size = (3 * page_bytes) + 0x100 in
  let memory = Memory.create ~base ~size in
  let entry = base + size - (2 * Isa.instr_size) in
  Memory.store_bytes memory ~addr:entry (Isa.encode ~tag:1 (Isa.Mov (1, Isa.Imm 1)));
  Memory.store_bytes memory ~addr:(entry + Isa.instr_size) (Isa.encode ~tag:1 Isa.Halt);
  let cpu = Cpu.create ~expected_tag:1 memory ~pc:entry ~sp:(base + size) in
  (match Cpu.run cpu ~fuel:10 with
  | Cpu.Trapped Cpu.Halt_trap -> ()
  | o -> Alcotest.failf "expected halt, got %s" (outcome_to_string o));
  Memory.store_bytes memory ~addr:entry (Isa.encode ~tag:0 (Isa.Mov (1, Isa.Imm 2)));
  Cpu.set_pc cpu entry;
  let retired = Cpu.instructions_retired cpu in
  match Cpu.run cpu ~fuel:10 with
  | Cpu.Trapped (Cpu.Fault_trap (Cpu.Bad_tag { addr; found = 0; expected = 1 })) ->
    Alcotest.(check int) "fault address" entry addr;
    Alcotest.(check int) "the fault retires nothing" retired (Cpu.instructions_retired cpu);
    Alcotest.(check int) "register untouched" 1 (Cpu.reg cpu 1)
  | o -> Alcotest.failf "expected Bad_tag, got %s" (outcome_to_string o)

(* Checkpoint a one-block program, patch it from the host and run the
   patched block, then roll back: the re-run must execute the
   checkpointed bytes, so [restore] has to retire the compiled patched
   block, not just drop the pages holding it. *)
let test_restore_retires_compiled_blocks () =
  let loaded = load_source ~engine:Memory.Block "mov r1, #1\nhalt" in
  let { Image.cpu; memory; layout } = loaded in
  let cpu_snap = Cpu.snapshot cpu and mem_snap = Memory.snapshot memory in
  let run_to_halt () =
    match Cpu.run cpu ~fuel:10 with
    | Cpu.Trapped Cpu.Halt_trap -> Cpu.reg cpu 1
    | o -> Alcotest.failf "expected halt, got %s" (outcome_to_string o)
  in
  Alcotest.(check int) "original code" 1 (run_to_halt ());
  Memory.store_bytes memory ~addr:layout.Image.code_start
    (Isa.encode ~tag:0 (Isa.Mov (1, Isa.Imm 2)));
  Cpu.set_pc cpu layout.Image.code_start;
  Alcotest.(check int) "patched code" 2 (run_to_halt ());
  Cpu.restore cpu cpu_snap;
  Memory.restore memory mem_snap;
  Alcotest.(check int) "no decoded pages after restore" 0 (Memory.decoded_pages memory);
  Alcotest.(check int) "checkpointed code after restore" 1 (run_to_halt ())

(* A rollback rewrites only the pages that changed since the checkpoint.
   This program sits on page 0 and stores only to page 4, so its
   compiled block survives the restore and the re-run reuses it on the
   rolled-back data: it reads 0 again and ends with the same
   registers. *)
let test_blocks_survive_data_rollback () =
  let loaded =
    load_source ~engine:Memory.Block
      "mov r2, #0x5000\nld r1, [r2]\nadd r1, r1, #1\nst [r2], r1\nhalt"
  in
  let { Image.cpu; memory; _ } = loaded in
  let cpu_snap = Cpu.snapshot cpu and mem_snap = Memory.snapshot memory in
  let run_to_halt () =
    match Cpu.run cpu ~fuel:10 with
    | Cpu.Trapped Cpu.Halt_trap -> Array.init 16 (Cpu.reg cpu)
    | o -> Alcotest.failf "expected halt, got %s" (outcome_to_string o)
  in
  let first = run_to_halt () in
  let compiled, _, _ = Cpu.block_stats cpu in
  let invalidations = Memory.block_invalidations memory in
  Cpu.restore cpu cpu_snap;
  Memory.restore memory mem_snap;
  Alcotest.(check int) "no block retired by the restore" invalidations
    (Memory.block_invalidations memory);
  Alcotest.(check bool) "decoded pages survive" true (Memory.decoded_pages memory > 0);
  Alcotest.(check (array int)) "same registers on the re-run" first (run_to_halt ());
  let recompiled, _, _ = Cpu.block_stats cpu in
  Alcotest.(check int) "the re-run compiles nothing" compiled recompiled

(* The block registry follows the code that runs, not the 1 MiB
   segment: once the config4 server has served requests and parked on
   accept again, each variant's blocks span at most 6 pages (about
   17 KB of code runs). *)
let test_served_footprint_pages () =
  match Nv_httpd.Deploy.build Nv_httpd.Deploy.Two_variant_uid with
  | Error e -> Alcotest.fail e
  | Ok sys ->
    for _ = 1 to 3 do
      match Nv_core.Nsystem.serve sys (Nv_httpd.Http.get "/") with
      | Nv_core.Nsystem.Served _ -> ()
      | Nv_core.Nsystem.Stopped _ -> Alcotest.fail "request not served"
    done;
    let monitor = Nv_core.Nsystem.monitor sys in
    for i = 0 to Nv_core.Monitor.variant_count monitor - 1 do
      let pages = Memory.decoded_pages (Nv_core.Monitor.loaded monitor i).Image.memory in
      if pages > 6 then Alcotest.failf "variant %d: blocks span %d pages" i pages
    done

(* ------------------------------------------------------------------ *)
(* Chained blocks: the guards on every link                            *)
(* ------------------------------------------------------------------ *)

(* One loop whose iterations link every exit: the entry block ends
   [jmp body], and [body]'s branch leads back to [loop] or falls through
   to [halt]. The 512 [nop]s never run; they put [body] on page 1, with
   the loop on page 0, so a store or a rollback can retire [body] while
   the page-0 blocks keep their links to it. With [~calls], each
   iteration also makes a [call]/[ret] round trip through [bump]. *)
let chain_source ?(calls = false) ~iterations () =
  let call = if calls then "call bump" else "" in
  let padding = String.concat "\n" (List.init 512 (fun _ -> "nop")) in
  Printf.sprintf
    {|
      mov r1, #0
      mov r2, #%d
      mov r5, #0
      jmp body
    loop:
      add r1, r1, #1
      %s
      jmp body
    bump:
      add r6, r6, #1
      ret
      %s
    body:
      mov r3, #1
      add r5, r5, r3
      brlt r1, r2, loop
      halt
    |}
    iterations call padding

(* Run from the entry to the halt and return r5, the sum [body] keeps. *)
let run_chain { Image.cpu; layout; _ } =
  Cpu.set_pc cpu layout.Image.code_start;
  match Cpu.run cpu ~fuel:1000 with
  | Cpu.Trapped Cpu.Halt_trap -> Cpu.reg cpu 5
  | o -> Alcotest.failf "expected halt, got %s" (outcome_to_string o)

(* Make [body] add 2 per iteration instead of 1. *)
let patch_body loaded =
  Memory.store_bytes loaded.Image.memory
    ~addr:(Image.abs_symbol loaded "body")
    (Isa.encode ~tag:0 (Isa.Mov (3, Isa.Imm 2)))

(* The page-0 blocks link to the [body] block a host store retires: the
   re-run must not follow those links into it. *)
let test_chain_patched_successor () =
  List.iter
    (fun engine ->
      let loaded = load_source ~engine (chain_source ~iterations:3 ()) in
      Alcotest.(check int) "original body" 4 (run_chain loaded);
      patch_body loaded;
      Alcotest.(check int) "patched body" 8 (run_chain loaded))
    all_engines

(* The same through [Memory.restore]: the rollback rewrites page 1 only,
   so page 0 keeps its blocks and their links to the patched [body]
   block the restore retired. *)
let test_chain_links_across_restore () =
  List.iter
    (fun engine ->
      let loaded = load_source ~engine (chain_source ~iterations:3 ()) in
      let memory = loaded.Image.memory in
      let snap = Memory.snapshot memory in
      patch_body loaded;
      Alcotest.(check int) "patched body" 8 (run_chain loaded);
      Memory.restore memory snap;
      if engine = Memory.Block then
        Alcotest.(check int) "page 0 keeps its blocks" 1 (Memory.decoded_pages memory);
      Alcotest.(check int) "checkpointed body" 4 (run_chain loaded))
    all_engines

(* With every link warmed, a run of any fuel must stop where the
   reference engine stops: a link is followed only when its block fits
   in the fuel left. *)
let test_chain_every_fuel_budget () =
  let source = chain_source ~iterations:3 () in
  let block = load_source ~engine:Memory.Block source in
  let reference = load_source ~engine:Memory.Reference source in
  let bl = block.Image.cpu and rf = reference.Image.cpu in
  let bl_start = Cpu.snapshot bl and rf_start = Cpu.snapshot rf in
  Alcotest.(check int) "block run" 4 (run_chain block);
  Alcotest.(check int) "reference run" 4 (run_chain reference);
  let retired = Cpu.instructions_retired in
  for fuel = 1 to retired rf do
    Cpu.restore bl bl_start;
    Cpu.restore rf rf_start;
    let bo = Cpu.run bl ~fuel and ro = Cpu.run rf ~fuel in
    let at what = Printf.sprintf "fuel %d: %s" fuel what in
    Alcotest.(check string) (at "outcome") (outcome_to_string ro) (outcome_to_string bo);
    Alcotest.(check int) (at "retired") (retired rf) (retired bl);
    Alcotest.(check int) (at "pc") (Cpu.pc rf) (Cpu.pc bl)
  done

(* Dispatch and link bookkeeping allocate nothing: a warmed run of about
   400k block entries allocates only its [Trapped] result and the
   [Gc.minor_words] boxes. *)
let test_chain_allocates_nothing () =
  let loaded =
    load_source ~engine:Memory.Block (chain_source ~calls:true ~iterations:100_000 ())
  in
  let cpu = loaded.Image.cpu in
  let start = Cpu.snapshot cpu in
  let run () =
    Cpu.restore cpu start;
    Cpu.run cpu ~fuel:1_000_000
  in
  ignore (run ());
  let before = Gc.minor_words () in
  let outcome = run () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check string) "outcome" "halt" (outcome_to_string outcome);
  Alcotest.(check int) "retired" 800_008 (Cpu.instructions_retired cpu);
  if words > 16. then Alcotest.failf "a warmed chained run allocated %.0f words" words

(* ------------------------------------------------------------------ *)
(* Fused operand staging: every early exit                             *)
(* ------------------------------------------------------------------ *)

(* Run [program] from its first instruction under both engines after
   [setup], and require the same outcome, pc, r0-r15, retired count and
   memory. Returns the block engine's CPU and segment. *)
let fused_run ~what ?(setup = ignore) program =
  let run engine =
    let cpu, memory = build_cpu ~engine program in
    setup cpu;
    (outcome_to_string (Cpu.run cpu ~fuel:100), cpu, memory)
  in
  let ro, rc, rm = run Memory.Reference and bo, bc, bm = run Memory.Block in
  Alcotest.(check string) (what ^ ": outcome") ro bo;
  check_lockstep_state ~seed:0 ~step:0 bc rc;
  let dump m = Memory.load_bytes m ~addr:base ~len:seg_size in
  Alcotest.(check bool) (what ^ ": memory") true (Bytes.equal (dump rm) (dump bm));
  (bo, bc, bm)

(* Where the staging sequence's push stores, with sp at the segment
   top as [build_cpu] leaves it. *)
let pushed_at = base + seg_size - 4

(* A push that faults retires nothing of the sequence: sp points at the
   segment start, so the push's word would sit just below it. *)
let test_fused_push_faults () =
  let outcome, cpu, _ =
    fused_run ~what:"faulting push"
      [|
        Isa.Mov (Cpu.sp_index, Isa.Imm base); Isa.Mov (1, Isa.Imm 7);
        Isa.Mov (2, Isa.Imm 9);
        Isa.Push 1; Isa.Load (1, 8, 0); Isa.Mov (2, Isa.Reg 1); Isa.Pop 1;
        Isa.Binop (Isa.Add, 1, 1, Isa.Reg 2); Isa.Halt;
      |]
  in
  Alcotest.(check string) "stack fault"
    (Printf.sprintf "fault: stack fault at 0x%08X" (base - 4))
    outcome;
  Alcotest.(check int) "the push retires nothing" 3 (Cpu.instructions_retired cpu);
  Alcotest.(check int) "pc on the push" (base + (3 * Isa.instr_size)) (Cpu.pc cpu);
  Alcotest.(check int) "sp unchanged" base (Cpu.reg cpu Cpu.sp_index);
  Alcotest.(check (pair int int)) "a and b unchanged" (7, 9) (Cpu.reg cpu 1, Cpu.reg cpu 2)

(* A push into the running block retires alone and resumes through the
   dispatcher: sp is set so the push rewrites the first word of X with
   the pushed 0, which decodes as a tag-0 [nop]. The re-decoded
   sequence then moves a's 0, not X's load, into b. *)
let test_fused_push_rewrites_block () =
  let x_at = base + (3 * Isa.instr_size) in
  let outcome, cpu, memory =
    fused_run ~what:"push into the running block"
      [|
        Isa.Mov (Cpu.sp_index, Isa.Imm (x_at + 4)); Isa.Mov (1, Isa.Imm 0); Isa.Push 1;
        Isa.Load (1, 8, 0); Isa.Mov (2, Isa.Reg 1); Isa.Pop 1;
        Isa.Binop (Isa.Add, 1, 1, Isa.Reg 2); Isa.Halt;
      |]
      ~setup:(fun cpu -> Memory.store_word (Cpu.memory cpu) (data_base + 64) 5)
  in
  Alcotest.(check string) "halts" "halt" outcome;
  Alcotest.(check int) "the pushed word rewrote X" 0 (Memory.load_word memory x_at);
  Alcotest.(check (pair int int))
    "b took a, not the load" (0, 0)
    (Cpu.reg cpu 1, Cpu.reg cpu 2);
  let compiled, _, invalidations = Cpu.block_stats cpu in
  Alcotest.(check (pair int int))
    "recompiled after the push" (2, 1) (compiled, invalidations)

(* An operand load that faults retires the push: sp is decremented and
   the pushed word is in memory, while a and b keep their values. *)
let test_fused_operand_faults () =
  let outcome, cpu, memory =
    fused_run ~what:"faulting operand"
      [|
        Isa.Mov (1, Isa.Imm 7); Isa.Mov (2, Isa.Imm 9); Isa.Mov (3, Isa.Imm 0); Isa.Push 1;
        Isa.Load (1, 3, 0); Isa.Mov (2, Isa.Reg 1); Isa.Pop 1;
        Isa.Setcc (Isa.Lt, 1, 1, Isa.Reg 2); Isa.Halt;
      |]
  in
  Alcotest.(check string) "segfault" "fault: segfault (read at 0x00000000)" outcome;
  Alcotest.(check int) "the push retired" 4 (Cpu.instructions_retired cpu);
  Alcotest.(check int) "pc on the load" (base + (4 * Isa.instr_size)) (Cpu.pc cpu);
  Alcotest.(check int) "sp decremented" pushed_at (Cpu.reg cpu Cpu.sp_index);
  Alcotest.(check int) "pushed word" 7 (Memory.load_word memory pushed_at);
  Alcotest.(check (pair int int)) "a and b unchanged" (7, 9) (Cpu.reg cpu 1, Cpu.reg cpu 2)

(* A compiled store must retire a block compiled on a page that was
   already dirty: the host wrote the code, so page 0 is dirty with no
   block registry (a store there has nothing to do) until [patch]'s
   block registers. The guest then rewrites [patch] and jumps back to
   that same entry, which must run the new instruction. *)
let test_store_retires_block_on_dirty_page () =
  List.iter
    (fun engine ->
      let loaded =
        load_source ~engine
          (Printf.sprintf
             {|
               la r1, patch
               mov r4, #42
               jmp patch
             patch:
               mov r3, #1
               breq r3, r4, done
               mov r2, #%d
               st [r1], r2
               mov r2, #%d
               st [r1+4], r2
               jmp patch
             done:
               halt
             |}
             (le_word (Isa.encode ~tag:0 (Isa.Mov (3, Isa.Imm 42))) 0)
             (le_word (Isa.encode ~tag:0 (Isa.Mov (3, Isa.Imm 42))) 4))
      in
      let what = Memory.engine_to_string engine in
      (match Cpu.run loaded.Image.cpu ~fuel:1000 with
      | Cpu.Trapped Cpu.Halt_trap -> ()
      | o -> Alcotest.failf "%s: expected halt, got %s" what (outcome_to_string o));
      Alcotest.(check int)
        (what ^ ": patched instruction ran")
        42 (Cpu.reg loaded.Image.cpu 3))
    all_engines

(* ------------------------------------------------------------------ *)
(* qcheck properties: block-registry invalidation and run equivalence  *)
(* ------------------------------------------------------------------ *)

(* A store intersecting a registered block's slot span must flip the
   block's shared validity cell (and count an invalidation); a store
   anywhere else must leave it alone. This is the whole contract
   between [Memory]'s store path and the block compiler — if it holds,
   a compiled block can never execute stale bytes. *)
type Memory.block_code += Probe

let prop_store_invalidates_registered_span =
  let slots = seg_size / Isa.instr_size in
  QCheck.Test.make ~name:"store into a registered span invalidates the block"
    ~count:1000
    QCheck.(
      quad
        (int_bound (slots - Memory.max_block_slots - 1))
        (int_range 1 Memory.max_block_slots)
        (int_bound (seg_size - 5))
        bool)
    (fun (slot, span, store_off, word) ->
      let memory = Memory.create ~base ~size:seg_size in
      let valid = ref true in
      Memory.register_block memory ~slot ~slots:span ~valid Probe;
      let len = if word then 4 else 1 in
      if word then Memory.store_word memory (base + store_off) 0xDEAD
      else Memory.store_byte memory (base + store_off) 0xAD;
      let lo = store_off / Isa.instr_size in
      let hi = (store_off + len - 1) / Isa.instr_size in
      let intersects = hi >= slot && lo < slot + span in
      !valid = not intersects
      && Memory.block_invalidations memory = (if intersects then 1 else 0))

(* The sliced-run differential as a property over the program seed:
   whatever program the seed generates — including mid-block faults,
   fuel slices ending inside a block, and self-modifying stores — the
   two engines stay state-identical. *)
let prop_engines_agree_under_slicing =
  QCheck.Test.make ~name:"reference/block agree under random fuel slicing" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      run_differential_engines ~seed ~slices:80 ();
      true)

(* The same, rolled back once mid-run with [Memory.restore]. *)
let prop_engines_agree_across_restore =
  QCheck.Test.make ~name:"reference/block agree across Memory.restore" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      run_differential_engines ~restore:true ~seed ~slices:80 ();
      true)

(* ------------------------------------------------------------------ *)
(* qcheck property: checkpoints against a full-copy model              *)
(* ------------------------------------------------------------------ *)

(* Two segments of one size, with a partial last page, share one base,
   so each could take the other's snapshot for its own. Each has a
   [Bytes] model that every operation updates by full copies; after
   every operation both segments must equal their models. Incremental
   checkpoints are then invisible: a snapshot that missed a dirtied page
   or a restore that skipped a changed one shows up as a byte
   difference, and a compiled block that survived a rollback of its
   code shows up when the guest re-runs. A segment keeps one
   checkpoint: restoring any snapshot but its latest (an older one, or
   the other segment's) must raise and leave the segment as it was, and
   a fresh segment must refuse every snapshot. *)
let ck_size = (3 * page_bytes) + 100

(* The guest: one store of each kind the block compiler inlines, each
   through its own pointer so each can dirty a page no other touches.
   [st] and [stb] store into data; the second [st] rewrites the [stb]
   offset inside its own running block; [push] and [call] store through
   two stack pointers. [at] is its code offset. *)
let guest_code at =
  let code = base + at in
  [
    Isa.Store (1, 0, 2); Isa.Storeb (5, 5, 2); Isa.Store (3, 0, 4); Isa.Push 2;
    Isa.Mov (Cpu.sp_index, Isa.Reg 6); Isa.Call (code + (7 * Isa.instr_size)); Isa.Halt;
    Isa.Halt;
  ]
  |> List.map (Isa.encode ~tag:0)
  |> Bytes.concat Bytes.empty

(* Where the guest's code can sit: page 0, straddling the first page
   edge, and the end of the partial last page. *)
let guest_sites = [| 0; page_bytes - 24; ck_size - 64 |]

type guest = {
  g_site : int;
  g_write : bool;  (* store the code first; otherwise run what is there *)
  g_word : int;  (* segment offsets the pointers hold *)
  g_byte : int;
  g_push_sp : int;
  g_call_sp : int;
  g_value : int;
  g_offset : int;  (* the [stb] offset the guest writes into its code *)
}

type ck_op =
  | Store_byte of int * int * int  (* segment, offset, value *)
  | Store_word of int * int * int
  | Store_cstring of int * int * string
  | Store_bytes of int * int * int * int  (* segment, offset, length, fill seed *)
  | Guest of int * guest
  | Snapshot of int
  | Restore of int * int
      (* segment, and 0 for its latest snapshot or 1 + the index of any
         earlier snapshot, newest first *)

let ck_op_to_string = function
  | Store_byte (s, o, v) -> Printf.sprintf "store_byte %d @%d %d" s o v
  | Store_word (s, o, v) -> Printf.sprintf "store_word %d @%d %d" s o v
  | Store_cstring (s, o, str) -> Printf.sprintf "store_cstring %d @%d %S" s o str
  | Store_bytes (s, o, n, seed) ->
    Printf.sprintf "store_bytes %d @%d len %d seed %d" s o n seed
  | Guest (s, g) ->
    Printf.sprintf "guest %d at %d%s st @%d stb @%d push @%d call @%d value %d offset %d" s
      g.g_site
      (if g.g_write then " (written)" else "")
      g.g_word g.g_byte g.g_push_sp g.g_call_sp g.g_value g.g_offset
  | Snapshot s -> Printf.sprintf "snapshot %d" s
  | Restore (s, 0) -> Printf.sprintf "restore %d <- its latest" s
  | Restore (s, i) -> Printf.sprintf "restore %d <- #%d" s (i - 1)

let ck_op_gen =
  let open QCheck.Gen in
  (* Offsets cluster around page edges, where page-granular bookkeeping
     is most likely to be off by one. *)
  let offset ~room =
    let last = ck_size - room in
    oneof
      [
        int_bound last;
        map2
          (fun p d -> max 0 (min last ((p * page_bytes) + d - 16)))
          (int_bound 3) (int_bound 32);
      ]
  in
  let seg = int_bound 1 and word = int_bound 0x7FFFFFFF in
  let stack_pointer = map (fun o -> 4 + (o land lnot 3)) (offset ~room:4) in
  let guest =
    map
      (fun (((site, write), (word, byte)), ((push_sp, call_sp), (value, offset))) ->
        {
          g_site = guest_sites.(site);
          g_write = write;
          g_word = word;
          g_byte = byte;
          g_push_sp = push_sp;
          g_call_sp = call_sp;
          g_value = value;
          g_offset = offset;
        })
      (pair
         (pair (pair (int_bound 2) bool) (pair (offset ~room:4) (offset ~room:64)))
         (pair (pair stack_pointer stack_pointer) (pair (int_bound 0xFFFF) (int_bound 63))))
  in
  frequency
    [
      (3, map3 (fun s o v -> Store_byte (s, o, v)) seg (offset ~room:1) (int_bound 255));
      (3, map3 (fun s o v -> Store_word (s, o, v)) seg (offset ~room:4) word);
      ( 2,
        seg >>= fun s ->
        string_size ~gen:(char_range 'a' 'z') (int_bound 40) >>= fun str ->
        map (fun o -> Store_cstring (s, o, str)) (offset ~room:(String.length str + 1)) );
      ( 2,
        seg >>= fun s ->
        int_bound 9000 >>= fun n ->
        map2 (fun o seed -> Store_bytes (s, o, n, seed)) (offset ~room:n) (int_bound 255) );
      (4, map2 (fun s g -> Guest (s, g)) seg guest);
      (3, map (fun s -> Snapshot s) seg);
      (2, map (fun s -> Restore (s, 0)) seg);
      (2, map2 (fun s i -> Restore (s, 1 + i)) seg (int_bound 50));
    ]

(* Run one guest on [cpu] (block engine) and on a fresh reference
   segment holding the model's bytes; both must agree, and the
   reference segment's bytes become the new model. *)
let contents memory = Memory.load_bytes memory ~addr:base ~len:ck_size

let run_guest cpu model g =
  let code = base + g.g_site in
  let oracle_mem = Memory.create ~base ~size:ck_size in
  Memory.set_engine oracle_mem Memory.Reference;
  Memory.store_bytes oracle_mem ~addr:base model;
  let oracle = Cpu.create oracle_mem ~pc:code ~sp:(base + g.g_push_sp) in
  List.iter
    (fun c ->
      for r = 0 to 15 do
        Cpu.set_reg c r 0
      done;
      Cpu.set_reg c 1 (base + g.g_word);
      Cpu.set_reg c 2 g.g_value;
      Cpu.set_reg c 3 (code + Isa.instr_size + 4);
      Cpu.set_reg c 4 g.g_offset;
      Cpu.set_reg c 5 (base + g.g_byte);
      Cpu.set_reg c 6 (base + g.g_call_sp);
      Cpu.set_reg c Cpu.sp_index (base + g.g_push_sp);
      Cpu.set_pc c code)
    [ cpu; oracle ];
  let expected = outcome_to_string (Cpu.run oracle ~fuel:64) in
  let got = outcome_to_string (Cpu.run cpu ~fuel:64) in
  if got <> expected then QCheck.Test.fail_reportf "guest: %s, reference: %s" got expected;
  if Cpu.pc cpu <> Cpu.pc oracle then QCheck.Test.fail_reportf "guest: pc differs";
  for r = 0 to 15 do
    if Cpu.reg cpu r <> Cpu.reg oracle r then
      QCheck.Test.fail_reportf "guest: r%d differs" r
  done;
  contents oracle_mem

let rejects memory snap =
  match Memory.restore memory snap with
  | () -> false
  | exception Invalid_argument _ -> true

let prop_checkpoints_match_model =
  QCheck.Test.make ~name:"checkpoints match a full-copy model" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map ck_op_to_string ops))
       QCheck.Gen.(list_size (int_range 1 40) ck_op_gen))
    (fun ops ->
      let segs =
        Array.init 2 (fun _ ->
            let m = Memory.create ~base ~size:ck_size in
            Memory.set_engine m Memory.Block;
            m)
      in
      let cpus = Array.map (fun m -> Cpu.create m ~pc:base ~sp:(base + ck_size)) segs in
      let models = Array.init 2 (fun _ -> Bytes.make ck_size '\000') in
      (* Every snapshot taken, newest first, with its model;
         [latest.(s)] is segment [s]'s newest, the one it can
         restore. *)
      let snaps = ref [] and latest = Array.make 2 None in
      let check after =
        Array.iteri
          (fun s m ->
            if not (Bytes.equal (contents m) models.(s)) then
              QCheck.Test.fail_reportf "segment %d differs from its model after %s" s after)
          segs
      in
      let restore s ((snap, model) as taken) =
        match latest.(s) with
        | Some newest when newest == taken ->
          Memory.restore segs.(s) snap;
          models.(s) <- Bytes.copy model
        | _ ->
          if not (rejects segs.(s) snap) then
            QCheck.Test.fail_reportf "segment %d restored a snapshot other than its latest" s
      in
      List.iter
        (fun op ->
          (match op with
          | Store_byte (s, o, v) ->
            Memory.store_byte segs.(s) (base + o) v;
            Bytes.set models.(s) o (Char.chr v)
          | Store_word (s, o, v) ->
            Memory.store_word segs.(s) (base + o) v;
            Bytes.set_int32_le models.(s) o (Int32.of_int v)
          | Store_cstring (s, o, str) ->
            Memory.store_cstring segs.(s) ~addr:(base + o) str;
            Bytes.blit_string (str ^ "\000") 0 models.(s) o (String.length str + 1)
          | Store_bytes (s, o, n, seed) ->
            let data = Bytes.init n (fun i -> Char.chr ((seed + (i * 7)) land 0xFF)) in
            Memory.store_bytes segs.(s) ~addr:(base + o) data;
            Bytes.blit data 0 models.(s) o n
          | Guest (s, g) ->
            if g.g_write then begin
              let code = guest_code g.g_site in
              Memory.store_bytes segs.(s) ~addr:(base + g.g_site) code;
              Bytes.blit code 0 models.(s) g.g_site (Bytes.length code)
            end;
            models.(s) <- run_guest cpus.(s) models.(s) g
          | Snapshot s ->
            let taken = (Memory.snapshot segs.(s), Bytes.copy models.(s)) in
            snaps := taken :: !snaps;
            latest.(s) <- Some taken
          | Restore (s, 0) -> Option.iter (restore s) latest.(s)
          | Restore (s, i) -> (
            match !snaps with
            | [] -> ()
            | l -> restore s (List.nth l ((i - 1) mod List.length l))));
          check (ck_op_to_string op))
        ops;
      let fresh = Memory.create ~base ~size:ck_size in
      let rejected = List.for_all (fun (snap, _) -> rejects fresh snap) !snaps in
      check "the rejected restores";
      rejected && Bytes.equal (contents fresh) (Bytes.make ck_size '\000'))

(* ------------------------------------------------------------------ *)
(* Pinned bench counters                                               *)
(* ------------------------------------------------------------------ *)

(* These constants are the demand/monitor numbers of the bench report
   (12 requests per configuration). The fast paths must not move them:
   they count guest-visible work (instructions, rendezvous, checks), not
   host time. *)
let pinned_bench config ~instructions ~demand_rendezvous ~monitor_rendezvous
    ~checks_performed =
  match Nv_httpd.Deploy.build config with
  | Error e -> Alcotest.fail e
  | Ok sys -> (
    match Nv_workload.Measure.profile ~requests:12 sys with
    | Error e -> Alcotest.fail e
    | Ok samples ->
      let steady = Array.sub samples 1 (Array.length samples - 1) in
      let demand = Nv_workload.Measure.mean_demand steady in
      Alcotest.(check int)
        "demand instructions" instructions demand.Nv_workload.Measure.instructions;
      Alcotest.(check int)
        "demand rendezvous" demand_rendezvous demand.Nv_workload.Measure.rendezvous;
      let reg = Nv_core.Nsystem.metrics sys in
      let counter name =
        Option.value ~default:0 (Nv_util.Metrics.find_counter reg name)
      in
      Alcotest.(check int)
        "monitor.rendezvous" monitor_rendezvous (counter "monitor.rendezvous");
      Alcotest.(check int)
        "monitor.checks.performed" checks_performed
        (counter "monitor.checks.performed");
      Alcotest.(check int) "monitor.checks.failed" 0 (counter "monitor.checks.failed"))

let test_pinned_two_variant_address () =
  pinned_bench Nv_httpd.Deploy.Two_variant_address ~instructions:13498
    ~demand_rendezvous:20 ~monitor_rendezvous:252 ~checks_performed:806

let test_pinned_two_variant_uid () =
  pinned_bench Nv_httpd.Deploy.Two_variant_uid ~instructions:13504
    ~demand_rendezvous:21 ~monitor_rendezvous:267 ~checks_performed:872

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "nv_perf"
    [
      ( "differential",
        [
          Alcotest.test_case "fetch vs byte-at-a-time decode (randomized)" `Quick
            test_fetch_matches_bytewise;
          Alcotest.test_case "reference vs block, sliced runs" `Quick
            test_differential_engines;
        ] );
      ( "fetch",
        [ Alcotest.test_case "faults at the segment edges" `Quick test_fetch_at_segment_edges ]
      );
      ( "block properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_store_invalidates_registered_span; prop_engines_agree_under_slicing;
            prop_engines_agree_across_restore; prop_checkpoints_match_model;
          ] );
      ( "page directory",
        [
          Alcotest.test_case "block straddling a page boundary" `Quick
            test_page_straddling_block_invalidation;
          Alcotest.test_case "wrong-tag code in the last page" `Quick
            test_last_page_wrong_tag_faults;
          Alcotest.test_case "restore retires compiled blocks" `Quick
            test_restore_retires_compiled_blocks;
          Alcotest.test_case "served config4 footprint" `Quick test_served_footprint_pages;
          Alcotest.test_case "blocks survive a data-only rollback" `Quick
            test_blocks_survive_data_rollback;
        ] );
      ( "chained blocks",
        [
          Alcotest.test_case "patched successor" `Quick test_chain_patched_successor;
          Alcotest.test_case "links across a restore" `Quick
            test_chain_links_across_restore;
          Alcotest.test_case "every fuel budget" `Quick test_chain_every_fuel_budget;
          Alcotest.test_case "warmed chained run allocates nothing" `Quick
            test_chain_allocates_nothing;
        ] );
      ( "fused staging",
        [
          Alcotest.test_case "faulting push retires nothing" `Quick test_fused_push_faults;
          Alcotest.test_case "push into the running block" `Quick
            test_fused_push_rewrites_block;
          Alcotest.test_case "faulting operand retires the push" `Quick
            test_fused_operand_faults;
          Alcotest.test_case "store retires a block on a dirty page" `Quick
            test_store_retires_block_on_dirty_page;
        ] );
      ( "self-modifying code",
        [
          Alcotest.test_case "guest store invalidates decode cache" `Quick
            test_smc_guest_store_invalidates;
          Alcotest.test_case "injected wrong-tag code still faults" `Quick
            test_smc_injected_wrong_tag_faults;
          Alcotest.test_case "host store invalidates decode cache" `Quick
            test_smc_host_store_invalidates;
        ] );
      ( "pinned bench counters",
        [
          Alcotest.test_case "config3 (address partition)" `Quick
            test_pinned_two_variant_address;
          Alcotest.test_case "config4 (uid diversity)" `Quick
            test_pinned_two_variant_uid;
        ] );
    ]
