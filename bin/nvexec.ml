(* nvexec: run a mini-C program as an N-variant system.

   The moral equivalent of the paper's `nvexec prog1 prog2` launcher
   (Section 3.1), except the variants are generated automatically from
   one source file by the UID transformer. *)

open Cmdliner

let variations =
  [
    ("single", Nv_core.Variation.single);
    ("replicated", Nv_core.Variation.replicated);
    ("address-partition", Nv_core.Variation.address_partition);
    ("instruction-tagging", Nv_core.Variation.instruction_tagging);
    ("uid-diversity", Nv_core.Variation.uid_diversity);
    ("full-diversity", Nv_core.Variation.full_diversity);
    ("uid-diversity-3", Nv_core.Variation.uid_diversity_n 3);
    ("uid-diversity-4", Nv_core.Variation.uid_diversity_n 4);
    ("full-diversity-3", Nv_core.Variation.full_diversity_n 3);
    ("full-diversity-4", Nv_core.Variation.full_diversity_n 4);
    ("seeded-diversity-3", Nv_core.Variation.seeded_diversity ~seed:0xB007 3);
    ("rotation-diversity-3", Nv_core.Variation.rotation_diversity 3);
    ("add-diversity-3", Nv_core.Variation.add_diversity 3);
  ]

let variation_arg =
  let doc =
    Printf.sprintf "Variation to deploy: %s."
      (String.concat ", " (List.map fst variations))
  in
  Arg.(
    value
    & opt (enum variations) Nv_core.Variation.uid_diversity
    & info [ "v"; "variation" ] ~docv:"VARIATION" ~doc)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mc" ~doc:"mini-C source file")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Enable the flight recorder and print the coordinator ring (every \
           syscall rendezvous, dispatch note and alarm) when the run ends.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable the flight recorder and write the whole session (one lane \
           per variant, plus coordinator and kernel lanes) to $(docv) as \
           Chrome trace-event JSON, loadable in Perfetto or \
           chrome://tracing. If the run raised an alarm, the forensics \
           bundle (alarm class, per-variant registers, credential \
           snapshots, ring tails) is attached under a top-level \
           $(b,forensics) key.")

let fuel_arg =
  Arg.(
    value & opt int 50_000_000
    & info [ "fuel" ] ~docv:"N" ~doc:"Guest instruction budget across all variants.")

let no_runtime_arg =
  Arg.(
    value & flag
    & info [ "no-runtime" ] ~doc:"Do not prepend the mini-C runtime library.")

let metrics_arg =
  Arg.(
    value
    & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:
          "Dump the system's metrics registry to stderr before exiting, as \
           $(b,text) (one metric per line) or $(b,json).")

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("reference", Nv_vm.Memory.Reference); ("block", Nv_vm.Memory.Block);
           ])
        Nv_vm.Memory.Block
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution tier for every variant: $(b,block) (basic-block \
           superinstruction compiler, single-stepping where no block is \
           dispatchable) or $(b,reference) (that single-stepping interpreter \
           alone, the differential oracle). Both are \
           observationally identical — same outcomes, alarms and instruction \
           counts — so pinning a tier is for differential debugging and \
           performance comparison. Defaults to $(b,block).")

let recover_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "recover" ] ~docv:"N"
        ~doc:
          "Attach a recovery supervisor: on an alarm, roll the variants and \
           kernel back to the last accept-boundary checkpoint, drop the \
           offending connection and resume, allowing at most $(docv) \
           rollbacks per budget window before degrading to fail-stop.")

let mode_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("cc-calls", Nv_transform.Uid_transform.Cc_calls);
             ("user-space", Nv_transform.Uid_transform.User_space);
           ])
        Nv_transform.Uid_transform.Cc_calls
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Comparison exposure mode: cc-calls (detection syscalls) or user-space.")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run variation file trace trace_out fuel no_runtime mode metrics engine recover =
  let source = read_file file in
  let source = if no_runtime then source else Nv_minic.Runtime.with_runtime source in
  match Nv_transform.Uid_transform.transform_source ~mode ~variation source with
  | Error message ->
    Printf.eprintf "nvexec: %s\n" message;
    exit 2
  | Ok (images, report) -> (
    Format.printf "variation: %a; transformation: %a@." Nv_core.Variation.pp variation
      Nv_transform.Uid_transform.pp_report report;
    let recover =
      Option.map
        (fun n -> { Nv_core.Supervisor.default_config with max_recoveries = n })
        recover
    in
    let sys = Nv_core.Nsystem.create ~engine ?recover ~variation images in
    let monitor = Nv_core.Nsystem.monitor sys in
    let session = Nv_core.Monitor.trace_session monitor in
    if trace || trace_out <> None then Nv_util.Trace.set_enabled session true;
    let dump_trace () =
      if trace then
        List.iter
          (fun ring ->
            if Nv_util.Trace.ring_name ring = "coordinator" then
              List.iter
                (fun e ->
                  Format.printf "%a@."
                    (Nv_util.Trace.pp_event ~syscall_name:Nv_os.Syscall.name)
                    e)
                (Nv_util.Trace.events ring))
          (Nv_util.Trace.rings session);
      match trace_out with
      | None -> ()
      | Some path ->
        let extra =
          match Nv_core.Monitor.forensics monitor with
          | Some bundle -> [ ("forensics", bundle) ]
          | None -> []
        in
        let json =
          Nv_util.Trace.to_chrome ~syscall_name:Nv_os.Syscall.name ~extra session
        in
        let oc = open_out path in
        output_string oc (Nv_util.Metrics.Json.to_string json);
        output_char oc '\n';
        close_out oc
    in
    let dump_metrics () =
      (match Nv_core.Nsystem.supervisor sys with
      | Some sup when Nv_core.Supervisor.recoveries sup > 0 ->
        Format.printf "[supervisor: %d recoveries, %d connections dropped%s]@."
          (Nv_core.Supervisor.recoveries sup)
          (Nv_core.Supervisor.dropped_connections sup)
          (if Nv_core.Supervisor.exhausted sup then "; budget exhausted" else "")
      | Some _ | None -> ());
      match metrics with
      | None -> ()
      | Some format ->
        Nv_util.Metrics.dump ~format (Nv_core.Nsystem.metrics sys) stderr
    in
    match Nv_core.Nsystem.run ~fuel sys with
    | Nv_core.Monitor.Exited status ->
      let kernel = Nv_core.Nsystem.kernel sys in
      print_string (Nv_os.Kernel.stdout_contents kernel);
      prerr_string (Nv_os.Kernel.stderr_contents kernel);
      Format.printf "[exited %d; %d instructions; %d rendezvous]@." status
        (Nv_core.Monitor.instructions_retired monitor)
        (Nv_core.Monitor.rendezvous_count monitor);
      dump_trace ();
      dump_metrics ();
      exit (if status land 0xFF = status then status else 1)
    | Nv_core.Monitor.Alarm reason ->
      Format.printf "ALARM: %a@." Nv_core.Alarm.pp reason;
      dump_trace ();
      dump_metrics ();
      exit 3
    | Nv_core.Monitor.Blocked_on_accept ->
      print_endline "server blocked on accept with no client; stopping";
      dump_trace ();
      dump_metrics ();
      exit 4
    | Nv_core.Monitor.Out_of_fuel ->
      print_endline "out of fuel";
      dump_trace ();
      dump_metrics ();
      exit 5)

let cmd =
  let doc = "run a mini-C program as an N-variant system" in
  Cmd.v
    (Cmd.info "nvexec" ~doc)
    Term.(
      const run $ variation_arg $ file_arg $ trace_arg $ trace_out_arg $ fuel_arg
      $ no_runtime_arg $ mode_arg $ metrics_arg $ engine_arg
      $ recover_arg)

let () = exit (Cmd.eval cmd)
