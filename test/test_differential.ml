(* Monitor-level differential suite for the execution engines.

   The contract under test: a monitor whose variants run on the
   reference decoder and one whose variants run on the block compiler
   are bit-identical — identical outcomes, alarms, final
   registers/memory, and metric values — for every program, including
   ones that raise alarms mid-run and ones with pending signal
   deliveries. test_perf.ml compares the engines on a bare CPU; this
   suite compares them through the syscall rendezvous, signals,
   rollback, the case-study server and the supervisor. Both systems name their
   engine explicitly; everywhere else a segment runs the block engine,
   so suites like this one are where the reference engine runs. *)

module Alarm = Nv_core.Alarm
module Monitor = Nv_core.Monitor
module Nsystem = Nv_core.Nsystem
module Supervisor = Nv_core.Supervisor
module Variation = Nv_core.Variation
module Deploy = Nv_httpd.Deploy
module Http = Nv_httpd.Http
module Payloads = Nv_attacks.Payloads
module Arrivals = Nv_sim.Arrivals
module Measure = Nv_workload.Measure
module Openload = Nv_workload.Openload
module Cpu = Nv_vm.Cpu
module Memory = Nv_vm.Memory
module Image = Nv_vm.Image
module Isa = Nv_vm.Isa
module Word = Nv_vm.Word
module Metrics = Nv_util.Metrics
module Prng = Nv_util.Prng

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let outcome_str = function
  | Monitor.Exited n -> Printf.sprintf "exited %d" n
  | Monitor.Alarm reason -> Format.asprintf "alarm %a" Alarm.pp reason
  | Monitor.Blocked_on_accept -> "blocked-on-accept"
  | Monitor.Out_of_fuel -> "out-of-fuel"

(* Everything observable about a system: per-variant pc, registers,
   retired count, a digest of the whole memory segment, and the full
   metric registry rendered to text (sorted, so registration order is
   irrelevant). *)
let fingerprint sys =
  let monitor = Nsystem.monitor sys in
  let b = Buffer.create 1024 in
  for i = 0 to Monitor.variant_count monitor - 1 do
    let { Image.cpu; memory; _ } = Monitor.loaded monitor i in
    Buffer.add_string b
      (Printf.sprintf "v%d pc=%d retired=%d regs=" i (Cpu.pc cpu)
         (Cpu.instructions_retired cpu));
    for r = 0 to 15 do
      Buffer.add_string b (Printf.sprintf "%d," (Cpu.reg cpu r))
    done;
    let base = Memory.base memory and size = Memory.size memory in
    Buffer.add_string b
      (Printf.sprintf " mem=%s\n"
         (Digest.to_hex (Digest.bytes (Memory.load_bytes memory ~addr:base ~len:size))));
  done;
  Buffer.add_string b (Metrics.to_text (Nsystem.metrics sys));
  Buffer.contents b

let runs_on engine sys =
  let monitor = Nsystem.monitor sys in
  List.for_all
    (fun i -> Memory.engine (Monitor.loaded monitor i).Image.memory = engine)
    (List.init (Monitor.variant_count monitor) Fun.id)

(* Build the same system twice — reference and block engine — drive
   both with [drive] (which returns a transcript of what it observed),
   and require transcript + fingerprint equality. *)
let assert_equivalent ~what ~build ~drive =
  let ref_sys = build ~engine:Memory.Reference in
  let block_sys = build ~engine:Memory.Block in
  Alcotest.(check bool) (what ^ ": engines") true
    (runs_on Memory.Reference ref_sys && runs_on Memory.Block block_sys);
  let ref_log = drive ref_sys in
  let block_log = drive block_sys in
  Alcotest.(check string) (what ^ ": transcript") ref_log block_log;
  Alcotest.(check string) (what ^ ": final state") (fingerprint ref_sys)
    (fingerprint block_sys)

(* ------------------------------------------------------------------ *)
(* Random raw-instruction programs                                     *)
(* ------------------------------------------------------------------ *)

(* A generator in the spirit of test_perf's: arbitrary register
   arithmetic, memory traffic through relocated data pointers, wild
   branches, and frequent syscalls with numbers drawn from the whole
   ABI (including UID-returning and detection calls, so data-diverse
   variations legitimately alarm). Every program ends in exit(0); most
   stop earlier by trapping or alarming. All deterministic per seed. *)
let gen_image prng =
  let ncode = 64 in
  let isz = Isa.instr_size in
  let data_size = 256 and bss_size = 256 in
  let code = Array.make ncode { Image.instr = Isa.Nop; relocate = false } in
  (* data_offset = code bytes rounded up to 16 (Image.data_offset). *)
  let data_off = (((ncode * isz) + 15) / 16) * 16 in
  let plain instr = { Image.instr; relocate = false } in
  let reloc instr = { Image.instr; relocate = true } in
  let reg () = Prng.int prng 8 in
  let binops = [| Isa.Add; Isa.Sub; Isa.Mul; Isa.And; Isa.Or; Isa.Xor |] in
  let conds = [| Isa.Eq; Isa.Ne; Isa.Lt; Isa.Ge; Isa.Ltu; Isa.Geu |] in
  let syscalls = [| 0; 1; 2; 3; 4; 5; 6; 7; 9; 13; 15; 20; 21; 22; 24; 27 |] in
  let code_target () = Word.mask (Prng.int prng ncode * isz) in
  let data_target () = Word.mask (data_off + Prng.int prng (data_size + bss_size - 8)) in
  let i = ref 0 in
  let emit item = if !i < ncode - 2 then begin code.(!i) <- item; incr i end in
  while !i < ncode - 2 do
    match Prng.int prng 100 with
    | n when n < 22 ->
      emit (plain (Isa.Mov (reg (), Isa.Imm (Word.mask (Prng.int prng 4096)))))
    | n when n < 34 ->
      emit
        (plain
           (Isa.Binop (Prng.pick prng binops, reg (), reg (), Isa.Reg (reg ()))))
    | n when n < 40 ->
      emit (plain (Isa.Setcc (Prng.pick prng conds, reg (), reg (), Isa.Reg (reg ()))))
    | n when n < 50 ->
      (* Valid data pointer into r8/r9, then a load or store off it. *)
      let p = 8 + Prng.int prng 2 in
      emit (reloc (Isa.Mov (p, Isa.Imm (data_target ()))));
      if Prng.bool prng then emit (plain (Isa.Load (reg (), p, Prng.int prng 8)))
      else emit (plain (Isa.Store (p, Prng.int prng 8, reg ())))
    | n when n < 58 ->
      let c = Prng.pick prng conds in
      let a = reg () and b = reg () in
      emit (reloc (Isa.Br (c, a, b, code_target ())))
    | n when n < 62 -> emit (reloc (Isa.Jmp (code_target ())))
    | n when n < 68 ->
      if Prng.bool prng then emit (plain (Isa.Push (reg ())))
      else emit (plain (Isa.Pop (reg ())))
    | n when n < 80 ->
      (* Syscall group: number in r0, one plausible argument in r1. *)
      emit (plain (Isa.Mov (0, Isa.Imm (Word.mask (Prng.pick prng syscalls)))));
      emit (plain (Isa.Mov (1, Isa.Imm (Word.mask (Prng.int prng 8)))));
      emit (plain Isa.Syscall)
    | _ -> emit (plain Isa.Nop)
  done;
  (* Epilogue: exit(0). *)
  code.(ncode - 2) <- plain (Isa.Mov (0, Isa.Imm 0));
  code.(ncode - 1) <- plain Isa.Syscall;
  (* The epilogue leaves r1 as-is: variants whose r1 diverged exit with
     different statuses -> a deterministic Exit_mismatch alarm. *)
  {
    Image.code;
    data = Bytes.make data_size '\x2A';
    bss_size;
    entry_offset = 0;
    symbols = [];
  }

let random_variations =
  [|
    Variation.replicated;
    Variation.address_partition;
    Variation.uid_diversity;
    Variation.uid_diversity_n 3;
  |]

let drive_to_rest fuel sys =
  (* Run; on accept-block, feed one client request and continue (at
     most twice) so server-ish random programs get exercised past
     their accept. *)
  let b = Buffer.create 64 in
  let rec go tries =
    match Nsystem.run ~fuel sys with
    | Monitor.Blocked_on_accept when tries > 0 ->
      Buffer.add_string b "blocked;";
      let conn = Nsystem.connect sys in
      Nv_os.Socket.client_send conn "ping";
      Nv_os.Socket.client_close conn;
      go (tries - 1)
    | outcome -> Buffer.add_string b (outcome_str outcome)
  in
  go 2;
  Buffer.contents b

let test_random_programs () =
  for seed = 1 to 40 do
    let image = gen_image (Prng.create ~seed) in
    let variation = random_variations.(seed mod Array.length random_variations) in
    assert_equivalent
      ~what:(Printf.sprintf "random seed %d" seed)
      ~build:(fun ~engine ->
        Nsystem.of_one_image ~engine ~segment_size:(1 lsl 17) ~variation image)
      ~drive:(drive_to_rest 30_000)
  done

let test_random_programs_fuel_slices () =
  (* Same comparison but stepping each system in small fuel slices:
     release boundaries land mid-program, so the Out_of_fuel path and
     resumability must also be engine-independent. *)
  for seed = 41 to 52 do
    let image = gen_image (Prng.create ~seed) in
    let variation = random_variations.(seed mod Array.length random_variations) in
    assert_equivalent
      ~what:(Printf.sprintf "fuel-sliced seed %d" seed)
      ~build:(fun ~engine ->
        Nsystem.of_one_image ~engine ~segment_size:(1 lsl 17) ~variation image)
      ~drive:(fun sys ->
        let b = Buffer.create 64 in
        for _ = 1 to 6 do
          Buffer.add_string b (outcome_str (Nsystem.run ~fuel:701 sys));
          Buffer.add_char b ';'
        done;
        Buffer.contents b)
  done

(* ------------------------------------------------------------------ *)
(* Mini-C programs: signals, alarms, 4 variants                        *)
(* ------------------------------------------------------------------ *)

let compile source = Nv_minic.Codegen.compile_source (Nv_minic.Runtime.with_runtime source)

let build_minic ?(variation = Variation.uid_diversity) source ~engine =
  Nsystem.of_one_image ~engine ~segment_size:(1 lsl 17) ~variation (compile source)

let signal_program =
  {|int sigcount = 0;
    int on_signal(void) {
      sigcount = sigcount + 1;
      return 0;
    }
    int main(void) {
      int fd = sys_accept(3);
      sys_close(fd);
      uid_t me = getuid();
      if (seteuid(me) != 0) { return 9; }
      int spin = 0;
      while (spin < 300) { spin++; }
      return sigcount;
    }|}

let divergent_signal_program =
  (* getpwnam parses per-variant unshared files of different lengths,
     so Immediate delivery can land at different logical points and
     raise the paper's false detection — which must be raised (or not)
     identically under both engines. *)
  {|int sigcount = 0;
    int on_signal(void) {
      sigcount = sigcount + 1;
      return 0;
    }
    int main(void) {
      int fd = sys_accept(3);
      sys_close(fd);
      uid_t www = getpwnam_uid("www");
      int snapshot = sigcount;
      if (cond_chk(snapshot == 0)) {
        if (seteuid(www) != 0) { return 0; }
        return 0;
      }
      return 1;
    }|}

let bad_handler_program =
  {|int bad_handler(void) {
      sys_close(0);
      return 0;
    }
    int main(void) {
      int fd = sys_accept(3);
      sys_close(fd);
      int spin = 0;
      while (spin < 500) { spin++; }
      return 0;
    }|}

let drive_signal ~handler ~mode sys =
  match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> (
    match Monitor.post_signal (Nsystem.monitor sys) ~handler ~mode with
    | Error e -> "post failed: " ^ e
    | Ok () ->
      let conn = Nsystem.connect sys in
      Nv_os.Socket.client_send conn "x";
      Nv_os.Socket.client_close conn;
      Printf.sprintf "%s pending=%b"
        (outcome_str (Nsystem.run sys))
        (Monitor.signal_pending (Nsystem.monitor sys)))
  | outcome -> "no accept: " ^ outcome_str outcome

let test_signal_at_rendezvous () =
  assert_equivalent ~what:"signal at-rendezvous"
    ~build:(build_minic signal_program)
    ~drive:(drive_signal ~handler:"on_signal" ~mode:Monitor.At_rendezvous)

let test_signal_immediate_sweep () =
  (* Sweep the delivery point across the run: deliveries land inside
     different releases, including mid-block in the aligned program
     (no alarm) and at drift points in the divergent one (alarm). *)
  List.iter
    (fun after ->
      assert_equivalent
        ~what:(Printf.sprintf "signal immediate after=%d" after)
        ~build:(build_minic signal_program)
        ~drive:
          (drive_signal ~handler:"on_signal"
             ~mode:(Monitor.Immediate { after_instructions = after })))
    [ 50; 137; 200; 500; 1000; 2500 ]

let test_signal_divergent_sweep () =
  List.iter
    (fun after ->
      assert_equivalent
        ~what:(Printf.sprintf "divergent signal after=%d" after)
        ~build:(build_minic divergent_signal_program)
        ~drive:
          (drive_signal ~handler:"on_signal"
             ~mode:(Monitor.Immediate { after_instructions = after })))
    [ 100; 600; 1100; 1600; 2100; 2600; 3100; 3600 ]

let test_signal_delivery_failure () =
  (* The handler traps during delivery: the Alarm_exn is raised inside
     a variant's release, exercising the captured-exception path
     (lowest index first). *)
  List.iter
    (fun mode ->
      assert_equivalent ~what:"failing handler"
        ~build:(build_minic bad_handler_program)
        ~drive:(drive_signal ~handler:"bad_handler" ~mode))
    [ Monitor.At_rendezvous; Monitor.Immediate { after_instructions = 120 } ]

let uid_dance_4v =
  {|int main(void) {
      uid_t me = getuid();
      if (seteuid(me) != 0) { return 9; }
      uid_t now = geteuid();
      if (cc_eq(me, now) == 0) { return 8; }
      uid_t www = getpwnam_uid("www");
      if (seteuid(www) != 0) { return 7; }
      return 0;
    }|}

let test_four_variants () =
  assert_equivalent ~what:"4-variant uid dance"
    ~build:(build_minic ~variation:(Variation.uid_diversity_n 4) uid_dance_4v)
    ~drive:(fun sys -> outcome_str (Nsystem.run sys))

(* ------------------------------------------------------------------ *)
(* Credential reads and detection calls                                *)
(* ------------------------------------------------------------------ *)

(* A long stretch of credential reads and detection calls (getuid,
   geteuid, cc_eq) between two calls that change state (seteuid, exit).
   The tests below keep the names they had when such stretches were
   cross-checked lazily. *)
let relaxed_stretch_program =
  {|int main(void) {
      uid_t me = getuid();
      int i = 0;
      while (i < 40) {
        uid_t e = geteuid();
        if (cc_eq(me, e) == 0) { return 8; }
        i++;
      }
      if (seteuid(me) != 0) { return 9; }
      return 0;
    }|}

let test_relaxed_metrics () =
  (* Every call in the stretch is its own rendezvous, under both
     engines, and the lazy cross-check's metrics are gone. *)
  assert_equivalent ~what:"relaxed metrics"
    ~build:(build_minic relaxed_stretch_program)
    ~drive:(fun sys ->
      let outcome = outcome_str (Nsystem.run sys) in
      let metrics = Nsystem.metrics sys in
      let stats = Monitor.stats (Nsystem.monitor sys) in
      let calls name = Metrics.find_counter metrics ("monitor.calls." ^ name) in
      (* getuid + 40*(geteuid, cc_eq) = 81 rendezvous. *)
      Alcotest.(check (option int)) "getuid rendezvous" (Some 1) (calls "getuid");
      Alcotest.(check (option int)) "geteuid rendezvous" (Some 40) (calls "geteuid");
      Alcotest.(check (option int)) "cc_eq rendezvous" (Some 40) (calls "cc_eq");
      Alcotest.(check int) "st_relaxed_checks is always 0" 0 stats.Monitor.st_relaxed_checks;
      Alcotest.(check (option int)) "monitor.relaxed_checks not registered" None
        (Metrics.find_counter metrics "monitor.relaxed_checks");
      Alcotest.(check bool) "deferred_batch_size histogram not registered" false
        (match Metrics.Json.member "histograms" (Metrics.to_json_value metrics) with
        | Some h -> Metrics.Json.member "monitor.deferred_batch_size" h <> None
        | None -> false);
      Printf.sprintf "%s rendezvous=%d" outcome stats.Monitor.st_rendezvous)

let test_relaxed_divergence_alarms () =
  (* A detection call whose arguments disagree alarms with the same
     class and payload under both engines. Comparing the raw
     (reexpressed, variant-diverse) UID against a constant makes the
     cond_chk booleans disagree: variant 0 is the identity
     reexpression (me = 0, root) while variant 1 sees me XOR'd. *)
  let source =
    {|int main(void) {
        uid_t me = getuid();
        if (cond_chk(me == 0)) { return 1; }
        return 0;
      }|}
  in
  assert_equivalent ~what:"relaxed divergence"
    ~build:(build_minic source)
    ~drive:(fun sys ->
      match Nsystem.run sys with
      | Monitor.Alarm (Alarm.Cond_mismatch { values }) ->
        Printf.sprintf "cond-mismatch %s"
          (String.concat ","
             (Array.to_list (Array.map string_of_int values)))
      | outcome -> Alcotest.failf "expected Cond_mismatch, got %s" (outcome_str outcome))

let test_rollback_resets_relaxed_state () =
  (* Fuel exhaustion mid-stretch leaves arrivals parked; restore must
     clear them (and drop compiled blocks on the pages it rewrites) so the
     replay after rollback is bit-identical under either engine. *)
  assert_equivalent ~what:"rollback mid-relaxed-stretch"
    ~build:(build_minic relaxed_stretch_program)
    ~drive:(fun sys ->
      let monitor = Nsystem.monitor sys in
      let snap = Monitor.snapshot monitor in
      let b = Buffer.create 128 in
      (* Step in slices small enough to stop inside the loop. *)
      for _ = 1 to 3 do
        Buffer.add_string b (outcome_str (Nsystem.run ~fuel:97 sys));
        Buffer.add_char b ';'
      done;
      Buffer.add_string b
        (Printf.sprintf "dropped=%d;" (Monitor.restore monitor snap));
      Buffer.add_string b (outcome_str (Nsystem.run sys));
      Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* The case-study server                                               *)
(* ------------------------------------------------------------------ *)

let test_httpd_serving () =
  assert_equivalent ~what:"httpd two-variant-uid"
    ~build:(fun ~engine ->
      match Deploy.build ~engine Deploy.Two_variant_uid with
      | Ok sys -> sys
      | Error e -> Alcotest.fail e)
    ~drive:(fun sys ->
      let b = Buffer.create 4096 in
      List.iter
        (fun url ->
          match Nsystem.serve sys (Http.get url) with
          | Nsystem.Served response -> Buffer.add_string b response
          | Nsystem.Stopped outcome -> Buffer.add_string b (outcome_str outcome))
        [ "/index.html"; "/"; "/missing.html" ];
      Buffer.contents b)

let test_supervisor_recovery () =
  (* The recovery supervisor rolls the monitor back mid-service, so the
     block engine's compiled code must be retired with the restored
     memory. The full recovery matrix lives in test_supervisor.ml; this
     is the engines' own smoke: attack absorbed, self-healed,
     identically under both. *)
  assert_equivalent ~what:"supervisor recovery"
    ~build:(fun ~engine ->
      match
        Deploy.build ~engine ~recover:Supervisor.default_config Deploy.Two_variant_uid
      with
      | Ok sys -> sys
      | Error e -> Alcotest.fail e)
    ~drive:(fun sys ->
      let b = Buffer.create 4096 in
      let serve req =
        match Nsystem.serve sys req with
        | Nsystem.Served response -> "served:" ^ String.escaped response
        | Nsystem.Stopped outcome -> "stopped:" ^ outcome_str outcome
      in
      let sup = Option.get (Nsystem.supervisor sys) in
      let baseline = serve (Http.get "/") in
      Buffer.add_string b baseline;
      Buffer.add_string b (serve (Http.get (Payloads.null_overflow_url ())));
      Alcotest.(check int) "attack absorbed" 1 (Supervisor.recoveries sup);
      let healed = serve (Http.get "/") in
      Alcotest.(check string) "self-healed to baseline" baseline healed;
      Buffer.add_string b healed;
      Buffer.add_string b
        (Printf.sprintf "recoveries=%d" (Supervisor.recoveries sup));
      Buffer.contents b)

let test_openload_identical () =
  (* The fleet tier profiles a replica (Measure drives the deployed
     system through the monitor) and extrapolates an open-loop SLO
     report: the report must be bit-identical whichever engine that
     replica ran on. *)
  let spec =
    {
      Openload.replicas = 2;
      arrival = Arrivals.Poisson { rate = 150.0 };
      duration_s = 1.0;
      users = 2_000;
      attacks_per_10k = 5;
    }
  in
  let run engine =
    match Deploy.build ~engine Deploy.Two_variant_uid with
    | Error e -> Alcotest.failf "deploy failed: %s" e
    | Ok sys -> (
      Alcotest.(check bool) "engine" true (runs_on engine sys);
      match Measure.profile ~requests:4 ~seed:11 sys with
      | Error e -> Alcotest.failf "profile failed: %s" e
      | Ok samples ->
        let samples = Array.sub samples 1 (Array.length samples - 1) in
        Openload.run ~seed:11 ~variants:2 ~samples spec)
  in
  Alcotest.(check bool) "identical SLO reports" true
    (run Memory.Reference = run Memory.Block)

let () =
  Alcotest.run "nv_differential"
    [
      ( "differential",
        [
          Alcotest.test_case "random programs" `Quick test_random_programs;
          Alcotest.test_case "random programs, fuel-sliced" `Quick
            test_random_programs_fuel_slices;
          Alcotest.test_case "signal at-rendezvous" `Quick test_signal_at_rendezvous;
          Alcotest.test_case "signal immediate sweep" `Quick test_signal_immediate_sweep;
          Alcotest.test_case "divergent signal sweep" `Quick test_signal_divergent_sweep;
          Alcotest.test_case "signal delivery failure" `Quick test_signal_delivery_failure;
          Alcotest.test_case "four variants" `Quick test_four_variants;
          Alcotest.test_case "relaxed metrics" `Quick test_relaxed_metrics;
          Alcotest.test_case "relaxed divergence" `Quick test_relaxed_divergence_alarms;
          Alcotest.test_case "rollback mid-relaxed-stretch" `Quick
            test_rollback_resets_relaxed_state;
          Alcotest.test_case "httpd serving" `Quick test_httpd_serving;
          Alcotest.test_case "supervisor recovery" `Quick test_supervisor_recovery;
          Alcotest.test_case "openload seq==par" `Quick test_openload_identical;
        ] );
    ]
