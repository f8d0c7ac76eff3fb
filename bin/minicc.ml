(* minicc: the mini-C compiler driver.

   Compile, inspect (AST / disassembly / transformed variant source /
   inferred UID variables), or run a program as one variant through the
   monitor, on the simulated kernel with a small /etc world. *)

open Cmdliner

type action = Run | Dump_ast | Dump_asm | Variant_source | Infer_uids

let action_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("run", Run); ("ast", Dump_ast); ("asm", Dump_asm);
             ("variant-source", Variant_source); ("infer-uids", Infer_uids);
           ])
        Run
    & info [ "a"; "action" ] ~docv:"ACTION"
        ~doc:
          "run | ast (pretty-printed parse) | asm (disassembly) | variant-source \
           (UID-transformed source for variant 1) | infer-uids (dataflow inference of \
           UID-typed ints)")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mc" ~doc:"mini-C source file")

let no_runtime_arg =
  Arg.(value & flag & info [ "no-runtime" ] ~doc:"Do not prepend the runtime library.")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let with_source file no_runtime =
  let source = read_file file in
  if no_runtime then source else Nv_minic.Runtime.with_runtime source

let standard_world () =
  let vfs = Nv_os.Vfs.create () in
  Nv_os.Vfs.mkdir_p vfs "/etc";
  Nv_os.Vfs.install vfs ~path:"/etc/passwd" (Nv_os.Passwd.serialize Nv_os.Passwd.sample);
  Nv_os.Vfs.install vfs ~path:"/etc/group"
    (Nv_os.Passwd.serialize_group Nv_os.Passwd.sample_groups);
  vfs

let run action file no_runtime =
  let source = with_source file no_runtime in
  match action with
  | Dump_ast -> (
    match Nv_minic.Parser.parse source with
    | ast -> print_string (Nv_minic.Pretty.program ast)
    | exception Nv_minic.Parser.Error { line; message } ->
      Printf.eprintf "%s:%d: %s\n" file line message;
      exit 2
    | exception Nv_minic.Lexer.Error { line; message } ->
      Printf.eprintf "%s:%d: %s\n" file line message;
      exit 2)
  | Dump_asm -> (
    match Nv_minic.Codegen.compile_source source with
    | image ->
      let loaded = Nv_vm.Image.load image ~base:0x10000 ~size:(1 lsl 20) ~tag:0 in
      print_string
        (Nv_vm.Disasm.region loaded.Nv_vm.Image.memory
           ~start:loaded.Nv_vm.Image.layout.Nv_vm.Image.code_start
           ~count:(Array.length image.Nv_vm.Image.code))
    | exception Nv_minic.Codegen.Error message ->
      Printf.eprintf "%s: %s\n" file message;
      exit 2)
  | Variant_source -> (
    match
      Nv_transform.Uid_transform.variant_source
        ~f:(Nv_core.Reexpression.uid_for_variant 1) source
    with
    | Ok text -> print_string text
    | Error message ->
      Printf.eprintf "%s: %s\n" file message;
      exit 2)
  | Infer_uids -> (
    match Nv_minic.Parser.parse source with
    | ast ->
      let inferred = Nv_minic.Uid_infer.infer ast in
      if inferred = [] then print_endline "no additional UID variables inferred"
      else
        List.iter
          (fun { Nv_minic.Uid_infer.scope; name } ->
            match scope with
            | None -> Printf.printf "global %s\n" name
            | Some f -> Printf.printf "%s: %s\n" f name)
          inferred
    | exception Nv_minic.Parser.Error { line; message } ->
      Printf.eprintf "%s:%d: %s\n" file line message;
      exit 2)
  | Run -> (
    match Nv_minic.Codegen.compile_source source with
    | exception Nv_minic.Codegen.Error message ->
      Printf.eprintf "%s: %s\n" file message;
      exit 2
    | image -> (
      let sys =
        Nv_core.Nsystem.of_one_image ~vfs:(standard_world ())
          ~variation:Nv_core.Variation.single image
      in
      match Nv_core.Nsystem.run ~fuel:10_000_000 sys with
      | Nv_core.Monitor.Exited status ->
        let kernel = Nv_core.Nsystem.kernel sys in
        print_string (Nv_os.Kernel.stdout_contents kernel);
        prerr_string (Nv_os.Kernel.stderr_contents kernel);
        exit (status land 0xFF)
      | Nv_core.Monitor.Alarm (Nv_core.Alarm.Variant_fault { fault; _ }) ->
        Format.eprintf "fault: %a@." Nv_vm.Cpu.pp_fault fault;
        exit 139
      | Nv_core.Monitor.Alarm reason ->
        Format.eprintf "alarm: %a@." Nv_core.Alarm.pp reason;
        exit 3
      | Nv_core.Monitor.Blocked_on_accept ->
        prerr_endline "blocked on accept with no client";
        exit 4
      | Nv_core.Monitor.Out_of_fuel ->
        prerr_endline "out of fuel";
        exit 5))

let cmd =
  let doc = "compile, inspect, or run mini-C programs" in
  Cmd.v (Cmd.info "minicc" ~doc) Term.(const run $ action_arg $ file_arg $ no_runtime_arg)

let () = exit (Cmd.eval cmd)
