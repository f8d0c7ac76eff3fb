(* Performance-PR guarantees: the execution tiers above the reference
   decoder — the decode cache [Cpu.step] fetches through and the
   basic-block compiler — are semantically invisible, and their decoded
   state stays page-granular.

   - A randomized differential test runs generated programs (including
     self-modifying stores into executed code and wrongly-tagged
     injected words) through [Cpu.step] on a block-engine segment (the
     decode-cache fetch path) and on the reference decoder in lockstep
     and asserts identical registers, traps, retired counts, and memory
     contents.
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
     in a segment's last page faults, restore drops every page and
     retires the block the dispatcher last ran, and the served config4
     deployment keeps its decoded state within a few pages.
   - qcheck properties pin the block registry's invalidation contract
     (a store intersecting a registered span flips its validity cell)
     and the sliced-run equivalence.
   - A pinned regression asserts the bench report's demand/monitor
     counters are byte-identical to the committed BENCH_results.json
     baseline. *)

open Nv_vm
module Prng = Nv_util.Prng

(* ------------------------------------------------------------------ *)
(* Differential: decode-cache stepping vs reference interpreter        *)
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

let check_lockstep_state ~seed ~step cached reference =
  Alcotest.(check int)
    (Printf.sprintf "seed %d step %d: pc" seed step)
    (Cpu.pc reference) (Cpu.pc cached);
  for r = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "seed %d step %d: r%d" seed step r)
      (Cpu.reg reference r) (Cpu.reg cached r)
  done;
  Alcotest.(check int)
    (Printf.sprintf "seed %d step %d: retired" seed step)
    (Cpu.instructions_retired reference)
    (Cpu.instructions_retired cached)

let run_differential ~seed ~steps =
  let prng = Prng.create ~seed in
  let program = Array.init code_len (fun _ -> gen_instr prng) in
  (* [Cpu.step] fetches through the decode cache on a block-engine
     segment: the interpreter the block engine falls back to. *)
  let cached_cpu, cached_mem = build_cpu ~engine:Memory.Block program in
  let ref_cpu, ref_mem = build_cpu ~engine:Memory.Reference program in
  let rec go step =
    if step < steps then begin
      let ct = Cpu.step cached_cpu in
      let rt = Cpu.step ref_cpu in
      Alcotest.(check string)
        (Printf.sprintf "seed %d step %d: trap" seed step)
        (trap_to_string rt) (trap_to_string ct);
      check_lockstep_state ~seed ~step cached_cpu ref_cpu;
      match ct with
      | None | Some Cpu.Syscall_trap -> go (step + 1)
      | Some Cpu.Halt_trap | Some (Cpu.Fault_trap _) -> ()
    end
  in
  go 0;
  let dump m = Bytes.to_string (Memory.load_bytes m ~addr:base ~len:seg_size) in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: memory identical" seed)
    true
    (String.equal (dump cached_mem) (dump ref_mem))

let test_differential_random_programs () =
  for seed = 1 to 40 do
    run_differential ~seed ~steps:600
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

   With [~restore], both machines are checkpointed before the first
   slice and rolled back once, at a random slice or when the run first
   stops, then run on: the block engine must drop every compiled block
   and decoded page with the rollback (the program may have rewritten
   its own code since the checkpoint) and still agree with the
   reference. *)
let outcome_to_string = function
  | Cpu.Trapped trap -> trap_to_string (Some trap)
  | Cpu.Out_of_fuel -> "out of fuel"

let run_differential_engines ?(restore = false) ~seed ~slices () =
  let prng = Prng.create ~seed in
  let program = Array.init code_len (fun _ -> gen_instr prng) in
  let ref_cpu, ref_mem = build_cpu ~engine:Memory.Reference program in
  let bl_cpu, bl_mem = build_cpu ~engine:Memory.Block program in
  let checkpoint = (Cpu.snapshot ref_cpu, Memory.snapshot ref_mem) in
  let restore_at = if restore then Prng.int prng slices else -1 in
  let restored = ref (not restore) in
  let roll_back () =
    restored := true;
    let cpu_snap, mem_snap = checkpoint in
    List.iter
      (fun (cpu, mem) ->
        Cpu.restore cpu cpu_snap;
        Memory.restore mem mem_snap;
        Alcotest.(check int)
          (Printf.sprintf "seed %d: restore drops every decoded page" seed)
          0 (Memory.decoded_pages mem))
      [ (ref_cpu, ref_mem); (bl_cpu, bl_mem) ]
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

(* A guest program that executes an instruction (filling the decode
   cache), overwrites that instruction with its own stores, jumps back,
   and must observe the new instruction. A stale cache would loop
   forever. The replacement is encoded with [patch_tag], so the same
   program doubles as the code-injection probe: a wrong tag must fault
   exactly as without the cache. *)
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
      | Cpu.Out_of_fuel -> Alcotest.fail "stale decode cache: patched loop never exited");
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
  (* Warm the cache by running to halt, then overwrite the first
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
   patched block (it is now the dispatcher's last-block memo), then roll
   back: the re-run must execute the checkpointed bytes, so [restore]
   has to retire the block the memo still points at, not just drop the
   pages holding it. *)
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

(* Decoded state follows the code that runs, not the 1 MiB segment: once
   the config4 server has served requests and parked on accept again,
   each variant's decoded state spans at most 6 pages (about 17 KB of
   code runs). *)
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
      if pages > 6 then Alcotest.failf "variant %d: decoded state spans %d pages" i pages
    done

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
(* Pinned bench counters                                               *)
(* ------------------------------------------------------------------ *)

(* These constants are the demand/monitor numbers of the committed
   BENCH_results.json (bench report, 12 requests per configuration).
   The fast path must not move them: they count guest-visible work
   (instructions, rendezvous, checks), not host time. *)
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
          Alcotest.test_case "cached vs reference interpreter (randomized)" `Quick
            test_differential_random_programs;
          Alcotest.test_case "reference vs block, sliced runs" `Quick
            test_differential_engines;
        ] );
      ( "block properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_store_invalidates_registered_span; prop_engines_agree_under_slicing;
            prop_engines_agree_across_restore;
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
