(* Recovery-layer suite: snapshot/rollback correctness, the
   supervisor's checkpoint/budget discipline, recovered attack
   verdicts, and the fault-injection campaign.

   The headline test is the pinned self-healing scenario from the
   recovery design: an attacked httpd raises an alarm, the supervisor
   rolls back to the last accept-boundary checkpoint, the attack
   connection is dropped, and at least one subsequent benign request is
   served byte-identically to the pre-attack baseline, with
   [supervisor.recoveries] = 1. Every scenario is driven differentially
   under the reference and block engines (the test_differential.ml
   pattern): transcripts and full fingerprints — including the
   supervisor's metrics — must be bit-identical under both. *)

module Alarm = Nv_core.Alarm
module Monitor = Nv_core.Monitor
module Nsystem = Nv_core.Nsystem
module Supervisor = Nv_core.Supervisor
module Deploy = Nv_httpd.Deploy
module Http = Nv_httpd.Http
module Campaign = Nv_attacks.Campaign
module Faultgen = Nv_attacks.Faultgen
module Payloads = Nv_attacks.Payloads
module Cpu = Nv_vm.Cpu
module Memory = Nv_vm.Memory
module Image = Nv_vm.Image
module Metrics = Nv_util.Metrics
module Kernel = Nv_os.Kernel
module Vfs = Nv_os.Vfs

(* ------------------------------------------------------------------ *)
(* Harness (mirrors test_differential.ml)                              *)
(* ------------------------------------------------------------------ *)

let outcome_str = function
  | Monitor.Exited n -> Printf.sprintf "exited %d" n
  | Monitor.Alarm reason -> Format.asprintf "alarm %a" Alarm.pp reason
  | Monitor.Blocked_on_accept -> "blocked-on-accept"
  | Monitor.Out_of_fuel -> "out-of-fuel"

let serve_str = function
  | Nsystem.Served response -> "served:" ^ String.escaped response
  | Nsystem.Stopped outcome -> "stopped:" ^ outcome_str outcome

(* Per-variant CPU/memory state only — what snapshot/restore must roll
   back. Metrics are deliberately excluded here because they are
   monotonic across rollbacks. *)
let variant_state sys =
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
         (Digest.to_hex (Digest.bytes (Memory.load_bytes memory ~addr:base ~len:size))))
  done;
  Buffer.contents b

let fingerprint sys = variant_state sys ^ Metrics.to_text (Nsystem.metrics sys)

let runs_on engine sys =
  let monitor = Nsystem.monitor sys in
  List.for_all
    (fun i -> Memory.engine (Monitor.loaded monitor i).Image.memory = engine)
    (List.init (Monitor.variant_count monitor) Fun.id)

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

let build_deploy ?engine ?recover () =
  match Deploy.build ?engine ?recover Deploy.Two_variant_uid with
  | Ok sys -> sys
  | Error e -> Alcotest.fail e

let supervisor_of sys = Option.get (Nsystem.supervisor sys)
let benign = Http.get "/"
let attack_request = Http.get (Payloads.null_overflow_url ())

let expect_200 what = function
  | Nsystem.Served raw -> (
    match Http.parse_response raw with
    | Ok { Http.status = 200; _ } -> raw
    | Ok { Http.status; _ } -> Alcotest.failf "%s: status %d" what status
    | Error e -> Alcotest.failf "%s: bad response: %s" what e)
  | Nsystem.Stopped outcome -> Alcotest.failf "%s: %s" what (outcome_str outcome)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore units                                            *)
(* ------------------------------------------------------------------ *)

let test_snapshot_replay () =
  (* A checkpoint taken at an accept park can be restored repeatedly,
     and each replay of the same request is byte-identical: CPU,
     memory, kernel (fds, VFS, log file) all roll back. *)
  let sys = build_deploy () in
  let monitor = Nsystem.monitor sys in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | outcome -> Alcotest.failf "expected accept park, got %s" (outcome_str outcome));
  let snap = Monitor.snapshot monitor in
  let state0 = variant_state sys in
  let first = expect_200 "first serve" (Nsystem.serve sys benign) in
  Alcotest.(check bool) "serving changed variant state" true
    (variant_state sys <> state0);
  Alcotest.(check int) "no live connections at park" 0 (Monitor.restore monitor snap);
  Alcotest.(check string) "variant state rolled back" state0 (variant_state sys);
  let again = expect_200 "replayed serve" (Nsystem.serve sys benign) in
  Alcotest.(check string) "replay is byte-identical" first again;
  (* The same snapshot is restorable a second time. *)
  ignore (Monitor.restore monitor snap : int);
  let third = expect_200 "second replay" (Nsystem.serve sys benign) in
  Alcotest.(check string) "second replay identical" first third

let test_snapshot_preserves_metrics () =
  (* Counters are monotonic: restore must not rewind the registry. *)
  let sys = build_deploy () in
  let monitor = Nsystem.monitor sys in
  ignore (Nsystem.run sys : Monitor.outcome);
  let snap = Monitor.snapshot monitor in
  ignore (expect_200 "serve" (Nsystem.serve sys benign));
  let retired_before = Metrics.find_counter (Nsystem.metrics sys) "vm.instructions" in
  ignore (Monitor.restore monitor snap : int);
  let retired_after = Metrics.find_counter (Nsystem.metrics sys) "vm.instructions" in
  Alcotest.(check bool) "instruction counter not rolled back" true
    (retired_before = retired_after && retired_before <> Some 0)

let test_only_latest_snapshot_restores () =
  (* Each variant keeps one checkpoint, and every snapshot replaces it.
     Restoring a superseded snapshot raises before anything moves: no
     variant's registers or memory, no file and no descriptor. The
     latest one restores, any number of times. *)
  let sys = build_deploy () in
  let monitor = Nsystem.monitor sys and kernel = Nsystem.kernel sys in
  let path = "/var/log/httpd.log" in
  let log () =
    match Vfs.contents (Kernel.vfs kernel) ~path with
    | Ok c -> c
    | Error _ -> Alcotest.failf "%s missing" path
  in
  ignore (expect_200 "first serve" (Nsystem.serve sys benign));
  let superseded = Monitor.snapshot monitor in
  ignore (expect_200 "second serve" (Nsystem.serve sys benign));
  let latest = Monitor.snapshot monitor in
  let at_latest = variant_state sys and log_at_latest = log () in
  ignore (expect_200 "docs serve" (Nsystem.serve sys (Http.get "/docs.html")));
  (* A descriptor opened since, and read into: a kernel rollback would
     free it. *)
  let fd = Kernel.sys_open kernel ~path ~flags:0 in
  ignore (Kernel.sys_read kernel ~fd ~len:4);
  let state = variant_state sys and contents = log () in
  (match Monitor.restore monitor superseded with
  | _ -> Alcotest.fail "a superseded snapshot was restored"
  | exception Invalid_argument _ -> ());
  Alcotest.(check string) "registers and memory untouched" state (variant_state sys);
  Alcotest.(check string) "log untouched" contents (log ());
  (match Kernel.sys_read kernel ~fd ~len:4 with
  | 4, Kernel.Shared_data data ->
    Alcotest.(check string) "descriptor open at its position" (String.sub contents 4 4) data
  | _ -> Alcotest.fail "the descriptor was closed");
  for _ = 1 to 2 do
    ignore (Monitor.restore monitor latest : int);
    Alcotest.(check string) "rolled back to the latest" at_latest (variant_state sys);
    Alcotest.(check string) "log rolled back" log_at_latest (log ())
  done

(* The words [f] allocates: minor words, read with [Gc.minor_words]
   ([Gc.counters] under-counts them on OCaml 5.1), and the major words
   allocated directly, major - promoted, so a promoted block is not
   counted twice. A 4 KiB page buffer is always a major block. *)
let allocation f =
  let words () =
    let _, promoted, major = Gc.counters () in
    (Gc.minor_words (), major -. promoted)
  in
  let minor0, major0 = words () in
  f ();
  let minor1, major1 = words () in
  (minor1 -. minor0, major1 -. major0)

let test_checkpoint_copies_dirty_pages () =
  (* A checkpoint after one served request copies the few pages the
     request dirtied, not the two 1 MiB segments: it must allocate less
     than a sixteenth of them. *)
  let sys = build_deploy () in
  let monitor = Nsystem.monitor sys in
  ignore (expect_200 "first serve" (Nsystem.serve sys benign));
  ignore (expect_200 "second serve" (Nsystem.serve sys benign));
  ignore (Monitor.snapshot monitor : Monitor.snapshot);
  ignore (expect_200 "docs serve" (Nsystem.serve sys (Http.get "/docs.html")));
  let minor, major =
    allocation (fun () -> ignore (Monitor.snapshot monitor : Monitor.snapshot))
  in
  let words = minor +. major in
  let segment_bytes =
    List.init (Monitor.variant_count monitor) (fun i ->
        Memory.size (Monitor.loaded monitor i).Image.memory)
    |> List.fold_left ( + ) 0
  in
  let bound = segment_bytes / (Sys.word_size / 8) / 16 in
  if words >= float_of_int bound then
    Alcotest.failf "checkpoint allocated %.0f words, bound %d" words bound

let test_warmed_memory_snapshot_allocates_nothing () =
  (* Once every page it copies has a buffer of its own, a snapshot
     copies into the buffers in place and takes its token from a
     counter. A thousand snapshots, each after stores to four pages,
     allocate fewer words than snapshots (the difference is the
     counters' own boxes), so none allocates a word. *)
  let base = 0x10000 and pages = 4 in
  let memory = Memory.create ~base ~size:(pages lsl Memory.page_shift) in
  let dirty k =
    for p = 0 to pages - 1 do
      Memory.store_word memory (base + (p lsl Memory.page_shift) + 8) k
    done
  in
  dirty 0;
  ignore (Memory.snapshot memory : Memory.snapshot);
  let snapshots = 1000 in
  let minor, major =
    allocation (fun () ->
        for k = 1 to snapshots do
          dirty k;
          ignore (Memory.snapshot memory : Memory.snapshot)
        done)
  in
  if minor +. major >= float_of_int snapshots then
    Alcotest.failf "%d snapshots allocated %.0f words" snapshots (minor +. major)

let test_warmed_checkpoint_allocates_no_page () =
  (* As the supervisor does at each accept: serve, then checkpoint. The
     pages a request dirtied are copied into their own buffers, so once
     warmed a whole-monitor checkpoint allocates no major word and
     fewer minor words than one page: its records, each CPU's registers
     and the kernel's files by reference. *)
  let sys = build_deploy () in
  let monitor = Nsystem.monitor sys in
  let checkpoint () = ignore (Monitor.snapshot monitor : Monitor.snapshot) in
  checkpoint ();
  List.iter
    (fun path ->
      ignore (expect_200 path (Nsystem.serve sys (Http.get path)));
      checkpoint ())
    [ "/"; "/docs.html"; "/" ];
  ignore (expect_200 "last serve" (Nsystem.serve sys benign));
  let minor, major = allocation checkpoint in
  Alcotest.(check (float 0.)) "major words" 0. major;
  if minor >= 512. then Alcotest.failf "checkpoint allocated %.0f words" minor

(* ------------------------------------------------------------------ *)
(* The supervisor                                                      *)
(* ------------------------------------------------------------------ *)

let test_config_validation () =
  let monitor_of sys = Nsystem.monitor sys in
  let sys = build_deploy () in
  let check_invalid what config =
    Alcotest.(check bool) what true
      (try
         ignore (Supervisor.create ~config (monitor_of sys) : Supervisor.t);
         false
       with Invalid_argument _ -> true)
  in
  check_invalid "zero interval"
    { Supervisor.default_config with checkpoint_interval = 0 };
  check_invalid "negative budget" { Supervisor.default_config with max_recoveries = -1 };
  check_invalid "zero window" { Supervisor.default_config with recovery_window = 0 }

(* The pinned integration scenario, driven under both engines. *)
let test_attack_recovery_integration () =
  assert_equivalent ~what:"null-overflow recovery"
    ~build:(fun ~engine -> build_deploy ~engine ~recover:Supervisor.default_config ())
    ~drive:(fun sys ->
      let b = Buffer.create 4096 in
      let record tag s = Buffer.add_string b (Printf.sprintf "%s=%s\n" tag s) in
      let sup = supervisor_of sys in
      let baseline = expect_200 "pre-attack benign" (Nsystem.serve sys benign) in
      record "benign" (String.escaped baseline);
      Alcotest.(check int) "no recovery yet" 0 (Supervisor.recoveries sup);
      record "attack" (serve_str (Nsystem.serve sys attack_request));
      record "traversal" (serve_str (Nsystem.serve sys (Http.get Payloads.traversal_url)));
      (* The attack raised exactly one alarm; the supervisor absorbed
         it, dropping the connection that carried the overflow. *)
      Alcotest.(check int) "one recovery" 1 (Supervisor.recoveries sup);
      Alcotest.(check bool) "attack connection dropped" true
        (Supervisor.dropped_connections sup >= 1);
      Alcotest.(check (option int)) "supervisor.recoveries metric" (Some 1)
        (Metrics.find_counter (Nsystem.metrics sys) "supervisor.recoveries");
      Alcotest.(check bool) "budget not exhausted" false (Supervisor.exhausted sup);
      Alcotest.(check bool) "alarm recorded" true (Supervisor.last_alarm sup <> None);
      (* Self-healing: the next benign request is served exactly as
         before the attack. *)
      let after = expect_200 "post-recovery benign" (Nsystem.serve sys benign) in
      Alcotest.(check string) "post-recovery response intact" baseline after;
      record "recoveries" (string_of_int (Supervisor.recoveries sup));
      record "dropped" (string_of_int (Supervisor.dropped_connections sup));
      record "checkpoints" (string_of_int (Supervisor.checkpoints sup));
      Buffer.contents b)

let test_budget_exhaustion () =
  assert_equivalent ~what:"budget exhaustion"
    ~build:(fun ~engine ->
      build_deploy ~engine
        ~recover:{ Supervisor.default_config with max_recoveries = 2 }
        ())
    ~drive:(fun sys ->
      let b = Buffer.create 4096 in
      let record tag s = Buffer.add_string b (Printf.sprintf "%s=%s\n" tag s) in
      let sup = supervisor_of sys in
      ignore (expect_200 "benign" (Nsystem.serve sys benign));
      (* Two attacks are absorbed; the third exceeds the budget and the
         supervisor degrades to the paper's fail-stop. *)
      for i = 1 to 2 do
        record
          (Printf.sprintf "attack%d" i)
          (serve_str (Nsystem.serve sys attack_request));
        Alcotest.(check int) "recovery count" i (Supervisor.recoveries sup)
      done;
      (match Nsystem.serve sys attack_request with
      | Nsystem.Stopped (Monitor.Alarm reason) ->
        record "attack3" (Format.asprintf "failstop %a" Alarm.pp reason)
      | other -> Alcotest.failf "expected fail-stop, got %s" (serve_str other));
      Alcotest.(check bool) "exhausted" true (Supervisor.exhausted sup);
      Alcotest.(check int) "recoveries capped" 2 (Supervisor.recoveries sup);
      Alcotest.(check (option int)) "supervisor.failstop metric" (Some 1)
        (Metrics.find_counter (Nsystem.metrics sys) "supervisor.failstop");
      (* Once exhausted the supervisor stays fail-stop. *)
      record "after" (outcome_str (Nsystem.run sys));
      Alcotest.(check bool) "still exhausted" true (Supervisor.exhausted sup);
      Buffer.contents b)

let test_window_purges_budget () =
  (* A tiny recovery window: each attack's rollback stamp has aged out
     of the window by the time the next attack lands (a request is many
     rendezvous long), so a 1-recovery budget keeps absorbing. *)
  let sys =
    build_deploy
      ~recover:{ Supervisor.checkpoint_interval = 1; max_recoveries = 1; recovery_window = 2 }
      ()
  in
  let sup = supervisor_of sys in
  let baseline = expect_200 "benign" (Nsystem.serve sys benign) in
  for i = 1 to 3 do
    (match Nsystem.serve sys attack_request with
    | Nsystem.Served _ -> ()
    | Nsystem.Stopped outcome ->
      Alcotest.failf "attack %d not absorbed: %s" i (outcome_str outcome));
    Alcotest.(check int) "recoveries" i (Supervisor.recoveries sup)
  done;
  Alcotest.(check bool) "never exhausted" false (Supervisor.exhausted sup);
  Alcotest.(check string) "still serving" baseline
    (expect_200 "post" (Nsystem.serve sys benign))

let test_window_prunes_recovery_log () =
  (* Four absorbed attacks, each followed by a benign request. The
     first run's window spans the whole run, so its log holds every
     rollback's rendezvous stamp; the second run's window reaches back
     past the third rollback but not the second, so only the last two
     records may survive, oldest first. *)
  let stamps ~window =
    let sys =
      build_deploy
        ~recover:
          { Supervisor.checkpoint_interval = 1; max_recoveries = 100; recovery_window = window }
        ()
    in
    let sup = supervisor_of sys in
    for i = 1 to 4 do
      (match Nsystem.serve sys attack_request with
      | Nsystem.Served _ -> ()
      | Nsystem.Stopped outcome ->
        Alcotest.failf "attack %d not absorbed: %s" i (outcome_str outcome));
      ignore (expect_200 "benign" (Nsystem.serve sys benign))
    done;
    Alcotest.(check int) "every recovery counted" 4 (Supervisor.recoveries sup);
    List.map (fun r -> r.Supervisor.rr_rendezvous) (Supervisor.recovery_log sup)
  in
  match stamps ~window:max_int with
  | [ _; r2; r3; r4 ] ->
    Alcotest.(check (list int))
      "records inside the window, newest last" [ r3; r4 ]
      (stamps ~window:(r4 - r2))
  | all -> Alcotest.failf "expected 4 logged recoveries, got %d" (List.length all)

let test_zero_budget_is_failstop () =
  (* max_recoveries = 0: the very first alarm surfaces, exactly like an
     unsupervised monitor. *)
  let sys =
    build_deploy
      ~recover:{ Supervisor.default_config with max_recoveries = 0 }
      ()
  in
  let sup = supervisor_of sys in
  ignore (expect_200 "benign" (Nsystem.serve sys benign));
  (match Nsystem.serve sys attack_request with
  | Nsystem.Stopped (Monitor.Alarm _) -> ()
  | other -> Alcotest.failf "expected alarm, got %s" (serve_str other));
  Alcotest.(check int) "no recoveries" 0 (Supervisor.recoveries sup);
  Alcotest.(check bool) "exhausted immediately" true (Supervisor.exhausted sup)

let test_rollback_to_initial () =
  (* A huge checkpoint interval leaves only the initial (pre-run entry)
     checkpoint: recovery restarts the server from scratch — startup
     code reruns, the log file is re-emptied — and serving resumes. *)
  assert_equivalent ~what:"rollback to initial"
    ~build:(fun ~engine ->
      build_deploy ~engine
        ~recover:{ Supervisor.default_config with checkpoint_interval = 1_000_000 }
        ())
    ~drive:(fun sys ->
      let b = Buffer.create 4096 in
      let sup = supervisor_of sys in
      let baseline = expect_200 "benign" (Nsystem.serve sys benign) in
      Buffer.add_string b (String.escaped baseline);
      Buffer.add_string b (serve_str (Nsystem.serve sys attack_request));
      Alcotest.(check int) "one recovery" 1 (Supervisor.recoveries sup);
      Alcotest.(check int) "only the initial checkpoint" 1 (Supervisor.checkpoints sup);
      (* The restored world is the boot world, so the next response
         matches the very first request since boot. *)
      let after = expect_200 "post" (Nsystem.serve sys benign) in
      Alcotest.(check string) "reboot-identical response" baseline after;
      Buffer.add_string b (String.escaped after);
      Buffer.contents b)

let test_out_of_fuel_passthrough () =
  let sys = build_deploy ~recover:Supervisor.default_config () in
  match Nsystem.run ~fuel:5 sys with
  | Monitor.Out_of_fuel -> ()
  | outcome -> Alcotest.failf "expected out-of-fuel, got %s" (outcome_str outcome)

(* ------------------------------------------------------------------ *)
(* Campaign verdicts under recovery                                    *)
(* ------------------------------------------------------------------ *)

let find_attack name =
  match Campaign.find name with
  | Some a -> a
  | None -> Alcotest.failf "attack %s not registered" name

let test_run_attack_recovered () =
  let attack = find_attack "uid-null-overflow" in
  match
    Campaign.run_attack ~recover:Supervisor.default_config attack
      Deploy.Two_variant_uid
  with
  | Ok (Campaign.Recovered { recoveries; last_alarm }) ->
    Alcotest.(check bool) "at least one rollback" true (recoveries >= 1);
    Alcotest.(check bool) "alarm retained" true (last_alarm <> None);
    Alcotest.(check string) "label" "RECOVERED"
      (Campaign.verdict_label (Campaign.Recovered { recoveries; last_alarm }))
  | Ok verdict -> Alcotest.failf "expected RECOVERED, got %s" (Campaign.verdict_label verdict)
  | Error e -> Alcotest.fail e

(* A fault written while the server is parked on accept lands before
   the checkpoint taken at that park, so the rollback keeps it: the
   monitor detected it, but the UID is not intact. *)
let test_run_attack_parked_fault_detected () =
  let attack = find_attack "uid-bit-set-low" in
  match
    Campaign.run_attack ~recover:Supervisor.default_config attack
      Deploy.Two_variant_uid
  with
  | Ok (Campaign.Detected (Alarm.Arg_mismatch { syscall; _ }))
    when syscall = Nv_os.Syscall.sys_cc_eq ->
    ()
  | Ok verdict ->
    Alcotest.failf "expected a cc_eq argument mismatch, got %a" Campaign.pp_verdict verdict
  | Error e -> Alcotest.fail e

(* A supervisor changes how a detected attack ends, never whether the
   attacker won undetected. *)
let test_recover_keeps_undetected_cells () =
  let undetected matrix =
    List.map
      (fun (a, c, v) -> (a.Campaign.name, Deploy.name c, Campaign.verdict_label v))
      (Campaign.undetected_cells matrix)
  in
  Alcotest.(check (list (triple string string string)))
    "undetected cells"
    (undetected (Campaign.run_matrix ()))
    (undetected (Campaign.run_matrix ~recover:Supervisor.default_config ()))

let test_run_attack_benign_not_recovered () =
  (* The control row must stay "no effect" even with a supervisor: no
     alarm, no rollback, no RECOVERED upgrade. *)
  let attack = find_attack "baseline-request" in
  match
    Campaign.run_attack ~recover:Supervisor.default_config attack
      Deploy.Two_variant_uid
  with
  | Ok Campaign.No_effect -> ()
  | Ok verdict -> Alcotest.failf "expected no effect, got %s" (Campaign.verdict_label verdict)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_faultgen_describe () =
  List.iter
    (fun (fault, needle) ->
      let s = Faultgen.describe fault in
      Alcotest.(check bool) ("describe: " ^ s) true
        (String.length s > 0 && contains s needle))
    [
      (Faultgen.Flip_register { variant = 1; reg = 4; bit = 7 }, "r4");
      (Faultgen.Flip_memory_bit { variant = 0; offset = 12; bit = 3 }, "byte 12");
      (Faultgen.Corrupt_syscall_arg { variant = 1; bit = 0 }, "syscall");
      (Faultgen.Drop_input_byte { variant = 0; index = 2 }, "byte 2");
    ]

let test_faultgen_inject_validation () =
  let sys = build_deploy () in
  ignore (Nsystem.run sys : Monitor.outcome);
  let check_invalid what fault =
    Alcotest.(check bool) what true
      (try
         Faultgen.inject sys fault;
         false
       with Invalid_argument _ -> true)
  in
  check_invalid "variant out of range"
    (Faultgen.Flip_register { variant = 2; reg = 0; bit = 0 });
  check_invalid "register out of range"
    (Faultgen.Flip_register { variant = 0; reg = 16; bit = 0 });
  check_invalid "register bit out of range"
    (Faultgen.Flip_register { variant = 0; reg = 0; bit = 32 });
  check_invalid "memory bit out of range"
    (Faultgen.Flip_memory_bit { variant = 0; offset = 0; bit = 8 });
  check_invalid "negative offset"
    (Faultgen.Flip_memory_bit { variant = 0; offset = -1; bit = 0 });
  check_invalid "negative input index"
    (Faultgen.Drop_input_byte { variant = 0; index = -1 })

let test_syscall_arg_fault_detected () =
  (* Without a supervisor a corrupted pending-syscall argument is an
     Arg divergence at the next rendezvous: fail-stop. *)
  let sys = build_deploy () in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | outcome -> Alcotest.failf "expected park, got %s" (outcome_str outcome));
  Faultgen.inject sys (Faultgen.Corrupt_syscall_arg { variant = 0; bit = 3 });
  match Nsystem.serve sys benign with
  | Nsystem.Stopped (Monitor.Alarm _) -> ()
  | other -> Alcotest.failf "expected alarm, got %s" (serve_str other)

let test_syscall_arg_fault_recovered () =
  (* With a supervisor the same fault is absorbed: the alarm fires at
     the accept rendezvous itself, before the pending connection is
     accepted, so the rollback restores the register, keeps the
     connection queued, and the request is then served normally. *)
  let sys = build_deploy ~recover:Supervisor.default_config () in
  let sup = supervisor_of sys in
  let baseline = expect_200 "benign" (Nsystem.serve sys benign) in
  ignore (Nsystem.run sys : Monitor.outcome);
  Faultgen.inject sys (Faultgen.Corrupt_syscall_arg { variant = 0; bit = 3 });
  let response = expect_200 "faulted serve" (Nsystem.serve sys benign) in
  Alcotest.(check string) "served correctly after rollback" baseline response;
  Alcotest.(check int) "one recovery" 1 (Supervisor.recoveries sup);
  Alcotest.(check int) "queued connection survived rollback" 0
    (Supervisor.dropped_connections sup)

let report_str r =
  Format.asprintf "%a" Faultgen.pp_report r

let test_faultgen_campaign_deterministic () =
  (* The default PRNG campaign is reproducible and its counts are
     consistent. *)
  let run () =
    match
      Faultgen.run_campaign ~seed:7 ~recover:Supervisor.default_config
        Deploy.Two_variant_uid
    with
    | Ok report -> report
    | Error e -> Alcotest.fail e
  in
  let first = run () in
  Alcotest.(check string) "same seed reproduces" (report_str first) (report_str (run ()));
  Alcotest.(check bool) "faults were injected" true (first.Faultgen.injected >= 1);
  Alcotest.(check int) "counts add up" first.Faultgen.injected
    (first.Faultgen.recovered + first.Faultgen.failstop + first.Faultgen.clean
   + first.Faultgen.corrupted + first.Faultgen.crashed);
  Alcotest.(check int) "nothing crashed" 0 first.Faultgen.crashed

let test_faultgen_explicit_faults () =
  (* A hand-picked always-diverging fault list under recovery: every
     fault is detected and absorbed. *)
  match
    Faultgen.run_campaign
      ~faults:
        [
          Faultgen.Corrupt_syscall_arg { variant = 0; bit = 2 };
          Faultgen.Corrupt_syscall_arg { variant = 1; bit = 5 };
        ]
      ~recover:Supervisor.default_config Deploy.Two_variant_uid
  with
  | Error e -> Alcotest.fail e
  | Ok report ->
    Alcotest.(check int) "injected" 2 report.Faultgen.injected;
    Alcotest.(check int) "recovered" 2 report.Faultgen.recovered

let test_faultgen_without_supervisor_failstops () =
  (* The same diverging fault with no supervisor: the campaign records
     a fail-stop and ends. *)
  match
    Faultgen.run_campaign
      ~faults:[ Faultgen.Corrupt_syscall_arg { variant = 0; bit = 2 } ]
      Deploy.Two_variant_uid
  with
  | Error e -> Alcotest.fail e
  | Ok report ->
    Alcotest.(check int) "injected" 1 report.Faultgen.injected;
    Alcotest.(check int) "failstop" 1 report.Faultgen.failstop;
    Alcotest.(check int) "recovered" 0 report.Faultgen.recovered

let () =
  Alcotest.run "nv_supervisor"
    [
      ( "snapshot",
        [
          Alcotest.test_case "replay determinism" `Quick test_snapshot_replay;
          Alcotest.test_case "metrics monotonic" `Quick test_snapshot_preserves_metrics;
          Alcotest.test_case "checkpoint copies dirty pages" `Quick
            test_checkpoint_copies_dirty_pages;
          Alcotest.test_case "warmed checkpoint allocates no page" `Quick
            test_warmed_checkpoint_allocates_no_page;
          Alcotest.test_case "only the latest snapshot restores" `Quick
            test_only_latest_snapshot_restores;
          Alcotest.test_case "warmed memory snapshot allocates nothing" `Quick
            test_warmed_memory_snapshot_allocates_nothing;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "attack recovery (pinned)" `Quick
            test_attack_recovery_integration;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "window purges budget" `Quick test_window_purges_budget;
          Alcotest.test_case "window prunes recovery log" `Quick
            test_window_prunes_recovery_log;
          Alcotest.test_case "zero budget is fail-stop" `Quick test_zero_budget_is_failstop;
          Alcotest.test_case "rollback to initial" `Quick test_rollback_to_initial;
          Alcotest.test_case "out-of-fuel passthrough" `Quick test_out_of_fuel_passthrough;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "null-overflow recovered" `Quick test_run_attack_recovered;
          Alcotest.test_case "baseline stays no-effect" `Quick
            test_run_attack_benign_not_recovered;
          Alcotest.test_case "parked fault stays detected" `Quick
            test_run_attack_parked_fault_detected;
          Alcotest.test_case "recovery keeps undetected cells" `Quick
            test_recover_keeps_undetected_cells;
        ] );
      ( "faultgen",
        [
          Alcotest.test_case "describe" `Quick test_faultgen_describe;
          Alcotest.test_case "inject validation" `Quick test_faultgen_inject_validation;
          Alcotest.test_case "syscall-arg fault detected" `Quick
            test_syscall_arg_fault_detected;
          Alcotest.test_case "syscall-arg fault recovered" `Quick
            test_syscall_arg_fault_recovered;
          Alcotest.test_case "campaign deterministic" `Quick
            test_faultgen_campaign_deterministic;
          Alcotest.test_case "explicit faults recovered" `Quick
            test_faultgen_explicit_faults;
          Alcotest.test_case "no supervisor fail-stops" `Quick
            test_faultgen_without_supervisor_failstops;
        ] );
    ]
