module Word = Nv_vm.Word
module Cpu = Nv_vm.Cpu
module Image = Nv_vm.Image
module Memory = Nv_vm.Memory
module Monitor = Nv_core.Monitor
module Nsystem = Nv_core.Nsystem
module Supervisor = Nv_core.Supervisor
module Prng = Nv_util.Prng
module Deploy = Nv_httpd.Deploy
module Http = Nv_httpd.Http

type fault =
  | Flip_register of { variant : int; reg : int; bit : int }
  | Flip_memory_bit of { variant : int; offset : int; bit : int }
  | Corrupt_syscall_arg of { variant : int; bit : int }
  | Drop_input_byte of { variant : int; index : int }

let describe = function
  | Flip_register { variant; reg; bit } ->
    Printf.sprintf "flip bit %d of r%d in variant %d" bit reg variant
  | Flip_memory_bit { variant; offset; bit } ->
    Printf.sprintf "flip bit %d of data byte %d in variant %d" bit offset variant
  | Corrupt_syscall_arg { variant; bit } ->
    Printf.sprintf "flip bit %d of variant %d's pending syscall argument" bit variant
  | Drop_input_byte { variant; index } ->
    Printf.sprintf "drop input byte %d from variant %d's next read" index variant

let check_variant sys variant =
  let n = Monitor.variant_count (Nsystem.monitor sys) in
  if variant < 0 || variant >= n then invalid_arg "Faultgen.inject: variant out of range"

let flip_register sys ~variant ~reg ~bit =
  if reg < 0 || reg > 15 then invalid_arg "Faultgen.inject: register out of range";
  if bit < 0 || bit > 31 then invalid_arg "Faultgen.inject: bit out of range";
  let cpu = (Monitor.loaded (Nsystem.monitor sys) variant).Image.cpu in
  Cpu.set_reg cpu reg (Word.mask (Cpu.reg cpu reg lxor (1 lsl bit)))

(* The byte offset is folded into the variant's initialized-data + bss
   region, so the flip lands in state the guest actually uses (globals)
   rather than dead stack or code; flipping code would mostly produce
   tag faults, which exercise nothing beyond the decoder. *)
let flip_memory_bit sys ~variant ~offset ~bit =
  if bit < 0 || bit > 7 then invalid_arg "Faultgen.inject: memory bit out of range";
  if offset < 0 then invalid_arg "Faultgen.inject: offset must be >= 0";
  let loaded = Monitor.loaded (Nsystem.monitor sys) variant in
  let layout = loaded.Image.layout in
  let data_size = layout.Image.bss_end - layout.Image.data_start in
  if data_size <= 0 then invalid_arg "Faultgen.inject: variant has no data region";
  let addr = layout.Image.data_start + (offset mod data_size) in
  let byte = Memory.load_byte loaded.Image.memory addr in
  Memory.store_byte loaded.Image.memory addr (byte lxor (1 lsl bit))

(* While the system is parked on accept every variant's pc has been
   rewound to the syscall instruction, so r1 holds the first argument
   of the call about to re-execute; corrupting it in one variant is an
   argument divergence the monitor must catch at the next rendezvous. *)
let corrupt_syscall_arg sys ~variant ~bit = flip_register sys ~variant ~reg:1 ~bit

let drop_input_byte sys ~variant ~index =
  if index < 0 then invalid_arg "Faultgen.inject: index must be >= 0";
  let monitor = Nsystem.monitor sys in
  let armed = ref true in
  Monitor.set_input_fault monitor
    (Some
       (fun ~variant:v bytes ->
         if !armed && v = variant && String.length bytes > index then begin
           armed := false;
           String.sub bytes 0 index
           ^ String.sub bytes (index + 1) (String.length bytes - index - 1)
         end
         else bytes))

let inject sys fault =
  (match fault with
  | Flip_register { variant; _ }
  | Flip_memory_bit { variant; _ }
  | Corrupt_syscall_arg { variant; _ }
  | Drop_input_byte { variant; _ } -> check_variant sys variant);
  match fault with
  | Flip_register { variant; reg; bit } -> flip_register sys ~variant ~reg ~bit
  | Flip_memory_bit { variant; offset; bit } -> flip_memory_bit sys ~variant ~offset ~bit
  | Corrupt_syscall_arg { variant; bit } -> corrupt_syscall_arg sys ~variant ~bit
  | Drop_input_byte { variant; index } -> drop_input_byte sys ~variant ~index

let random_fault prng ~variants =
  if variants < 1 then invalid_arg "Faultgen.random_fault: need at least one variant";
  let variant = Prng.int prng variants in
  match Prng.int prng 4 with
  | 0 -> Flip_register { variant; reg = Prng.int prng 16; bit = Prng.int prng 32 }
  | 1 -> Flip_memory_bit { variant; offset = Prng.int prng 4096; bit = Prng.int prng 8 }
  | 2 -> Corrupt_syscall_arg { variant; bit = Prng.int prng 32 }
  | _ -> Drop_input_byte { variant; index = Prng.int prng 16 }

type report = {
  injected : int;
  recovered : int;
  failstop : int;
  clean : int;
  corrupted : int;
  crashed : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "%d faults injected: %d recovered, %d fail-stop, %d clean, %d corrupted, %d crashed"
    r.injected r.recovered r.failstop r.clean r.corrupted r.crashed

let recoveries_of sys =
  match Nsystem.supervisor sys with Some s -> Supervisor.recoveries s | None -> 0

let probe = Http.get "/"

let run_campaign ?(seed = 42) ?faults ?recover config =
  match Deploy.build ?recover config with
  | Error message -> Error ("build failed: " ^ message)
  | Ok sys -> (
    (* Pin the healthy response before any fault, on the same system,
       so "clean" and "served correctly after recovery" mean
       byte-identical to this. *)
    match Nsystem.serve sys probe with
    | Nsystem.Stopped _ -> Error "baseline request did not complete"
    | Nsystem.Served baseline ->
      let faults =
        match faults with
        | Some fs -> fs
        | None ->
          let prng = Prng.create ~seed in
          let variants = Monitor.variant_count (Nsystem.monitor sys) in
          List.init 12 (fun _ -> random_fault prng ~variants)
      in
      let report =
        ref { injected = 0; recovered = 0; failstop = 0; clean = 0; corrupted = 0; crashed = 0 }
      in
      let bump f = report := f !report in
      (* Each fault: inject while parked, probe once, classify against
         the baseline; a recovery must additionally serve a subsequent
         benign request byte-identically. Fail-stop and crashes are
         terminal — the system cannot absorb further faults. *)
      let rec go = function
        | [] -> Ok !report
        | fault :: rest -> (
          bump (fun r -> { r with injected = r.injected + 1 });
          let before = recoveries_of sys in
          (match Nsystem.run sys with
          | Monitor.Blocked_on_accept -> inject sys fault
          | Monitor.Alarm _ | Monitor.Exited _ | Monitor.Out_of_fuel -> ());
          let outcome = Nsystem.serve sys probe in
          Monitor.set_input_fault (Nsystem.monitor sys) None;
          match outcome with
          | Nsystem.Stopped (Monitor.Alarm _) ->
            bump (fun r -> { r with failstop = r.failstop + 1 });
            Ok !report
          | Nsystem.Stopped _ ->
            bump (fun r -> { r with crashed = r.crashed + 1 });
            Ok !report
          | Nsystem.Served response ->
            if recoveries_of sys > before then begin
              match Nsystem.serve sys probe with
              | Nsystem.Served after when after = baseline ->
                bump (fun r -> { r with recovered = r.recovered + 1 });
                go rest
              | Nsystem.Served _ | Nsystem.Stopped _ ->
                bump (fun r -> { r with corrupted = r.corrupted + 1 });
                Ok !report
            end
            else if response = baseline then begin
              bump (fun r -> { r with clean = r.clean + 1 });
              go rest
            end
            else begin
              bump (fun r -> { r with corrupted = r.corrupted + 1 });
              go rest
            end)
      in
      go faults)
