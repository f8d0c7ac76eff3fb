module Cpu = Nv_vm.Cpu
module Word = Nv_vm.Word
module Memory = Nv_vm.Memory
module Image = Nv_vm.Image
module Kernel = Nv_os.Kernel
module Cred = Nv_os.Cred
module Syscall = Nv_os.Syscall
module Metrics = Nv_util.Metrics
module Trace = Nv_util.Trace

type outcome = Exited of int | Alarm of Alarm.reason | Blocked_on_accept | Out_of_fuel

type event = { ev_syscall : int; ev_note : string }

type signal_mode = Immediate of { after_instructions : int } | At_rendezvous

type pending_signal = {
  handler : string;
  mode : signal_mode;
  baselines : int array;  (* instructions retired per variant at post time *)
  delivered : bool array;
}

(* Why a variant stopped running and handed control back to the
   coordinator. [A_syscall] (parked at a syscall trap) is the only
   arrival that persists across [run] calls: the call has not been
   dispatched yet, so the variant must not be resumed past it. *)
type arrival =
  | A_syscall
  | A_fault of Cpu.fault
  | A_halt
  | A_fuel
  | A_raised of exn * Printexc.raw_backtrace

type t = {
  kernel : Kernel.t;
  variation : Variation.t;
  variants : Image.loaded array;
  mutable tracer : (event -> unit) option;
  mutable signal : pending_signal option;
  (* Fault-injection hook: perturb the replicated bytes a shared read
     delivers to one variant (coordinator-only, like the tracer). *)
  mutable input_fault : (variant:int -> string -> string) option;
  metrics : Metrics.t;
  calls_scope : Metrics.scope;
  latency_scope : Metrics.scope;
  alarms_scope : Metrics.scope;
  rendezvous_c : Metrics.counter;
  checks_performed : Metrics.counter;
  checks_failed : Metrics.counter;
  input_bytes_replicated_c : Metrics.counter;
  output_writes_checked_c : Metrics.counter;
  signals_delivered_c : Metrics.counter;
  mutable last_rendezvous_instr : int;
  (* Why each variant last stopped; [None] once it may run again. *)
  arrivals : arrival option array;
  (* Hot-path caches: metric handles resolved per syscall number on
     first use (no hashtable lookup per rendezvous thereafter) and a
     scratch array reused by the canon_* argument checks. *)
  calls_by_number : Metrics.counter option array;
  latency_by_number : Metrics.histogram option array;
  canon_scratch : int array;
  (* Flight recorder: one ring per variant plus a coordinator ring for
     rendezvous/alarm events. Disabled by default; every
     recording site is gated on one atomic load. *)
  trace : Trace.t;
  trace_variants : Trace.ring array;
  trace_coord : Trace.ring;
  mutable forensics : Metrics.Json.value option;
}

(* One slot per syscall number; numbers outside the table fall back to
   a by-name lookup (they only occur on unknown-syscall attacks). *)
let syscall_slots = 32

let create ?engine ?(segment_size = Variation.default_segment_size) ~kernel
    ~variation images =
  let n = Variation.count variation in
  if Array.length images <> n then
    invalid_arg "Monitor.create: need exactly one image per variant";
  if Kernel.variants kernel <> n then
    invalid_arg "Monitor.create: kernel variant count mismatch";
  List.iter (Kernel.register_unshared kernel) variation.Variation.unshared_paths;
  let variants =
    Array.mapi
      (fun i image ->
        let spec = variation.Variation.variants.(i) in
        let loaded =
          Image.load ~stack_size:(64 * 1024) image ~base:spec.Variation.base
            ~size:segment_size ~tag:spec.Variation.tag
        in
        (* Every variant runs the same execution tier; unset, segments
           keep their creation default, the block engine. *)
        Option.iter (Memory.set_engine loaded.Image.memory) engine;
        loaded)
      images
  in
  let metrics = Kernel.metrics kernel in
  let scope = Metrics.scope metrics "monitor" in
  let checks_scope = Metrics.sub scope "checks" in
  (* Chrome-export lanes: tid 0..n-1 = variants, n = coordinator,
     n+1 = kernel dispatch, timestamped by the total retired-instruction
     clock. *)
  let trace = Trace.create () in
  let trace_variants =
    Array.init n (fun i ->
        Trace.ring trace ~name:(Printf.sprintf "variant %d" i) ~pid:0 ~tid:i)
  in
  let trace_coord = Trace.ring trace ~name:"coordinator" ~pid:0 ~tid:n in
  let kernel_ring = Trace.ring trace ~name:"kernel" ~pid:0 ~tid:(n + 1) in
  Kernel.set_trace kernel ~ring:kernel_ring
    ~clock:(fun () ->
      Array.fold_left (fun acc v -> acc + Cpu.instructions_retired v.Image.cpu) 0 variants);
  {
    kernel;
    variation;
    variants;
    tracer = None;
    signal = None;
    input_fault = None;
    metrics;
    calls_scope = Metrics.sub scope "calls";
    latency_scope = Metrics.sub scope "latency_instr";
    alarms_scope = Metrics.sub scope "alarms";
    rendezvous_c = Metrics.counter scope "rendezvous";
    checks_performed = Metrics.counter checks_scope "performed";
    checks_failed = Metrics.counter checks_scope "failed";
    input_bytes_replicated_c = Metrics.counter scope "input_bytes_replicated";
    output_writes_checked_c = Metrics.counter scope "output_writes_checked";
    signals_delivered_c = Metrics.counter scope "signals_delivered";
    last_rendezvous_instr = 0;
    arrivals = Array.make n None;
    calls_by_number = Array.make syscall_slots None;
    latency_by_number = Array.make syscall_slots None;
    canon_scratch = Array.make n 0;
    trace;
    trace_variants;
    trace_coord;
    forensics = None;
  }

(* Lazy per-number resolution keeps metric registration identical to
   the by-name path: a counter exists only once its syscall occurs. *)
let call_counter t n =
  if n >= 0 && n < syscall_slots then begin
    match t.calls_by_number.(n) with
    | Some c -> c
    | None ->
      let c = Metrics.counter t.calls_scope (Syscall.name n) in
      t.calls_by_number.(n) <- Some c;
      c
  end
  else Metrics.counter t.calls_scope (Syscall.name n)

let latency_histogram t n =
  if n >= 0 && n < syscall_slots then begin
    match t.latency_by_number.(n) with
    | Some h -> h
    | None ->
      let h = Metrics.histogram t.latency_scope (Syscall.name n) in
      t.latency_by_number.(n) <- Some h;
      h
  end
  else Metrics.histogram t.latency_scope (Syscall.name n)

let kernel t = t.kernel

let parallel _ = false

let variation t = t.variation

let variant_count t = Array.length t.variants

let loaded t i = t.variants.(i)

let metrics t = t.metrics

let instructions_retired t =
  Array.fold_left (fun acc v -> acc + Cpu.instructions_retired v.Image.cpu) 0 t.variants

let rendezvous_count t = Metrics.counter_value t.rendezvous_c

type stats = {
  st_rendezvous : int;
  st_instructions : int array;
  st_calls : (string * int) list;
  st_checks_performed : int;
  st_checks_failed : int;
  st_input_bytes_replicated : int;
  st_output_writes_checked : int;
  st_signals_delivered : int;
  st_relaxed_checks : int;
}

let stats t =
  {
    st_rendezvous = Metrics.counter_value t.rendezvous_c;
    st_instructions =
      Array.map (fun v -> Cpu.instructions_retired v.Image.cpu) t.variants;
    st_calls = Metrics.counters_under t.metrics ~prefix:"monitor.calls.";
    st_checks_performed = Metrics.counter_value t.checks_performed;
    st_checks_failed = Metrics.counter_value t.checks_failed;
    st_input_bytes_replicated = Metrics.counter_value t.input_bytes_replicated_c;
    st_output_writes_checked = Metrics.counter_value t.output_writes_checked_c;
    st_signals_delivered = Metrics.counter_value t.signals_delivered_c;
    st_relaxed_checks = 0;
  }

let set_tracer t f = t.tracer <- Some f

let set_input_fault t f = t.input_fault <- f

let trace_session t = t.trace

let forensics t = t.forensics

let all_equal arr = Array.for_all (fun x -> x = arr.(0)) arr

(* The alarm raised as soon as checking fails; carries no resources. *)
exception Alarm_exn of Alarm.reason

(* A variant handed the kernel a bad pointer: equivalent to the fault
   the hardware would raise on copy_from_user. *)
exception Marshal_fault of { variant : int; fault : Cpu.fault }

(* Every equivalence check passes through here so the checks.performed /
   checks.failed pair stays consistent with the alarm stream. *)
let check t ~fail cond =
  Metrics.incr t.checks_performed;
  if not cond then begin
    Metrics.incr t.checks_failed;
    raise (Alarm_exn (fail ()))
  end

let uid_spec t i = t.variation.Variation.variants.(i).Variation.uid

(* FNV-1a, 32-bit: content digest for string-divergence diagnostics
   (never the raw bytes — they may hold secrets). *)
let fnv1a s =
  let h = ref 0x811C9DC5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF)
    s;
  !h

(* ------------------------------------------------------------------ *)
(* Trapped registers and guest memory                                  *)
(* ------------------------------------------------------------------ *)

(* The guest ABI: the call number in r0, arguments [0..4] in r1..r5,
   the result back in r0. *)
let arg_reg index = index + 1

let arg t i index = Cpu.reg t.variants.(i).Image.cpu (arg_reg index)

(* Longest path the kernel reads from guest memory. *)
let max_path = 4096

(* Every access to variant [i]'s memory on the kernel's behalf goes
   through here, so a bad pointer is always that variant's own fault. *)
let in_guest t i f =
  try f t.variants.(i).Image.memory
  with Memory.Fault { addr; access } ->
    raise (Marshal_fault { variant = i; fault = Cpu.Segfault { addr; access } })

(* [len] bytes at [addr], in one copy. *)
let load_chunk t i ~addr ~len =
  if len <= 0 then ""
  else
    (* [load_bytes] returns a fresh buffer that nothing else holds, so
       it is never mutated after this conversion. *)
    Bytes.unsafe_to_string (in_guest t i (fun m -> Memory.load_bytes m ~addr ~len))

(* Whether every other variant holds variant 0's [chunk] at segment
   offset [off] (where a shared write's buffers all sit), compared in
   place. Every buffer is range checked, in index order, before any is
   compared, so a bad pointer is its variant's fault even when an
   earlier variant's bytes differ. An empty chunk reads nothing. *)
let shared_chunk_agrees t ~off chunk =
  let len = String.length chunk and n = Array.length t.variants in
  let check m = Memory.check_span m ~addr:(Memory.base m + off) ~len Memory.Read in
  let equal m = Memory.equal_bytes m ~addr:(Memory.base m + off) chunk in
  len = 0
  || begin
       for i = 1 to n - 1 do
         in_guest t i check
       done;
       let i = ref 1 in
       while !i < n && in_guest t !i equal do
         incr i
       done;
       !i = n
     end

let store_chunk t i ~addr chunk =
  if String.length chunk > 0 then
    (* [store_bytes] only reads its source, so the chunk is not mutated
       and one kernel chunk can be stored into every variant. *)
    in_guest t i (fun m -> Memory.store_bytes m ~addr (Bytes.unsafe_of_string chunk))

(* ------------------------------------------------------------------ *)
(* Argument canonicalization                                           *)
(* ------------------------------------------------------------------ *)

(* Each agreement check writes every variant's register [reg], mapped
   by [canonical], into the reused [canon_scratch] array (no allocation
   on the all-agree path); the scratch is only copied out when a
   mismatch alarm needs it. *)
let scratch_agrees t ~reg canonical =
  let scratch = t.canon_scratch in
  for i = 0 to Array.length scratch - 1 do
    scratch.(i) <- canonical i (Cpu.reg t.variants.(i).Image.cpu reg)
  done;
  let ok = ref true in
  for i = 1 to Array.length scratch - 1 do
    if scratch.(i) <> scratch.(0) then ok := false
  done;
  !ok

(* Argument [index] of each variant, mapped by [canonical], must agree;
   returns the agreed value. *)
let canon t ~syscall ~index canonical =
  check t
    ~fail:(fun () ->
      Alarm.Arg_mismatch { syscall; arg_index = index; values = Array.copy t.canon_scratch })
    (scratch_agrees t ~reg:(arg_reg index) canonical);
  t.canon_scratch.(0)

let raw _ w = w

(* Raw register argument: must be identical. *)
let canon_int t ~syscall ~index = canon t ~syscall ~index raw

(* UID argument: apply each variant's inverse reexpression, then check
   the canonical values agree (Section 3.5). *)
let canon_uid t ~syscall ~index =
  canon t ~syscall ~index (fun i w -> (uid_spec t i).Reexpression.decode w)

(* Pointer argument: must canonicalize to the same segment offset,
   which is returned. Each variant keeps its own address,
   [arg t i index], its segment's base plus that offset. *)
let canon_ptr t ~syscall ~index =
  let offset i addr = in_guest t i (fun m -> Memory.to_offset m addr) in
  canon t ~syscall ~index offset

(* NUL-terminated string argument: contents must be identical. The
   failure diagnostic carries per-variant lengths and content digests
   so divergent contents are distinguishable from divergent lengths. *)
let canon_string t ~syscall ~index =
  ignore (canon_ptr t ~syscall ~index);
  let strings =
    Array.init (Array.length t.variants) (fun i ->
        let addr = arg t i index in
        in_guest t i (fun m -> Memory.load_cstring m ~addr ~max_len:max_path))
  in
  check t
    ~fail:(fun () ->
      Alarm.String_mismatch
        {
          syscall;
          arg_index = index;
          lengths = Array.map String.length strings;
          digests = Array.map fnv1a strings;
        })
    (all_equal strings);
  strings.(0)

(* Variant [i]'s syscall slice in the flight recorder: entered with its
   raw argument words before dispatch, exited with the result it gets.
   Stamped with the variant's own retired count, like its quanta. *)
let trace_enter t =
  if Trace.enabled t.trace then
    Array.iteri
      (fun i v ->
        let cpu = v.Image.cpu in
        Trace.record t.trace_variants.(i) ~ts:(Cpu.instructions_retired cpu)
          (Trace.Syscall_enter { number = Cpu.reg cpu 0; args = Array.init 5 (arg t i) }))
      t.variants

let trace_exit t ~syscall i result =
  if Trace.enabled t.trace then
    Trace.record t.trace_variants.(i)
      ~ts:(Cpu.instructions_retired t.variants.(i).Image.cpu)
      (Trace.Syscall_exit { number = syscall; result })

let set_result t ~syscall i result =
  Cpu.set_reg t.variants.(i).Image.cpu 0 result;
  trace_exit t ~syscall i result

(* Variant [i] gets [result_of i]. *)
let deliver t ~syscall result_of =
  for i = 0 to Array.length t.variants - 1 do
    set_result t ~syscall i (result_of i)
  done

let deliver_same t ~syscall result =
  for i = 0 to Array.length t.variants - 1 do
    set_result t ~syscall i result
  done

(* Dispatch-time breadcrumbs go two ways: the legacy [set_tracer]
   callback and, when the flight recorder is on, a [Note] in the
   coordinator ring. Both run while every variant is parked, stamped
   with the retired total. Callers format a note only when
   [notes_wanted] holds: with neither reader, the rendezvous path
   builds no strings. *)
let notes_wanted t = Trace.enabled t.trace || Option.is_some t.tracer

let trace t ~syscall text =
  (if Trace.enabled t.trace then
     Trace.note t.trace_coord ~ts:(instructions_retired t)
       (Printf.sprintf "[%s] %s" (Syscall.name syscall) text));
  match t.tracer with None -> () | Some f -> f { ev_syscall = syscall; ev_note = text }

(* ------------------------------------------------------------------ *)
(* Rendezvous dispatch                                                 *)
(* ------------------------------------------------------------------ *)

(* Returns [None] to keep running, [Some outcome] to stop. [now_instr]
   is the caller's already-computed total of retired instructions, so
   the dispatch path does not re-fold over the variants. *)
let dispatch t ~now_instr =
  let syscall = Cpu.reg t.variants.(0).Image.cpu 0 in
  if Trace.enabled t.trace then
    Trace.record t.trace_coord ~ts:now_instr (Trace.Rendezvous { number = syscall });
  Metrics.incr (call_counter t syscall);
  (* Per-syscall rendezvous latency, measured in retired guest
     instructions (all variants) since the previous rendezvous. *)
  Metrics.observe
    (latency_histogram t syscall)
    (float_of_int (now_instr - t.last_rendezvous_instr));
  t.last_rendezvous_instr <- now_instr;
  let k = t.kernel in
  let n_variants = Array.length t.variants in
  let continue_ = None in
  match syscall with
  | n when n = Syscall.sys_exit ->
    let statuses = Array.init n_variants (fun i -> Word.to_signed (arg t i 0)) in
    check t ~fail:(fun () -> Alarm.Exit_mismatch { statuses }) (all_equal statuses);
    if notes_wanted t then
      trace t ~syscall (Printf.sprintf "exit(%d) checked across variants" statuses.(0));
    ignore (Kernel.sys_exit k ~status:statuses.(0));
    Some (Exited statuses.(0))
  | n when n = Syscall.sys_read ->
    let fd = Word.to_signed (canon_int t ~syscall ~index:0) in
    (* For unshared descriptors each variant performs its own read on
       its own diversified file (Section 3.4), so buffer pointers are
       not required to canonicalize to the same offset — content
       lengths differ legitimately, and so may derived pointers. *)
    if not (Kernel.fd_is_unshared k ~fd) then ignore (canon_ptr t ~syscall ~index:1);
    let len = Word.to_signed (canon_int t ~syscall ~index:2) in
    let count, data = Kernel.sys_read k ~fd ~len in
    (* Variant [i]'s chunk: its own copy of an unshared file, or the one
       shared chunk, which fault injection may perturb per variant. *)
    let chunks =
      match data with
      | Kernel.Per_variant chunks ->
        if notes_wanted t then
          trace t ~syscall
            (Printf.sprintf "read(%d): unshared file, each variant reads its own copy" fd);
        chunks
      | Kernel.Shared_data bytes -> (
        Metrics.add t.input_bytes_replicated_c (Int.max 0 count);
        match t.input_fault with
        | Some perturb when count > 0 ->
          if notes_wanted t then
            trace t ~syscall
              (Printf.sprintf "read(%d): %d bytes replicated with fault injection" fd count);
          Array.init n_variants (fun i -> perturb ~variant:i bytes)
        | Some _ | None ->
          if notes_wanted t then
            trace t ~syscall
              (Printf.sprintf "read(%d): performed once, %d bytes replicated to all variants"
                 fd count);
          Array.make n_variants bytes)
    in
    Array.iteri (fun i chunk -> store_chunk t i ~addr:(arg t i 1) chunk) chunks;
    deliver t ~syscall (fun i ->
        if count < 0 then Word.of_signed count else String.length chunks.(i));
    continue_
  | n when n = Syscall.sys_write ->
    let fd = Word.to_signed (canon_int t ~syscall ~index:0) in
    if Kernel.fd_is_unshared k ~fd then begin
      (* An unshared descriptor's variants each write their own copy, so
         neither the buffer nor the length need agree. *)
      let chunks =
        Array.init n_variants (fun i ->
            load_chunk t i ~addr:(arg t i 1) ~len:(Word.to_signed (arg t i 2)))
      in
      if notes_wanted t then
        trace t ~syscall "write: unshared file, each variant writes its own copy";
      deliver_same t ~syscall (Word.of_signed (Kernel.sys_write k ~fd ~data:(Kernel.Per_variant chunks)))
    end
    else begin
      (* A shared descriptor's buffer pointers and lengths must agree,
         so that the bytes compared below are the call's. *)
      let off = canon_ptr t ~syscall ~index:1 in
      let len = Word.to_signed (canon_int t ~syscall ~index:2) in
      let chunk = load_chunk t 0 ~addr:(arg t 0 1) ~len in
      let same = shared_chunk_agrees t ~off chunk in
      if not same then
        Logs.warn ~src:Nv_util.Logsrc.monitor (fun m -> m "output divergence on fd %d" fd);
      check t ~fail:(fun () -> Alarm.Output_mismatch { syscall; fd }) same;
      Metrics.incr t.output_writes_checked_c;
      if notes_wanted t then
        trace t ~syscall
          (Printf.sprintf "write(%d): bytes checked equal, performed once" fd);
      deliver_same t ~syscall (Word.of_signed (Kernel.sys_write k ~fd ~data:(Kernel.Shared_data chunk)))
    end;
    continue_
  | n when n = Syscall.sys_open ->
    let path = canon_string t ~syscall ~index:0 in
    let flags = Word.to_signed (canon_int t ~syscall ~index:1) in
    if notes_wanted t then
      trace t ~syscall
        (if Kernel.is_unshared k path then
           Printf.sprintf "open(%S): unshared, variant i gets %s-i" path path
         else Printf.sprintf "open(%S): shared descriptor" path);
    deliver_same t ~syscall (Word.of_signed (Kernel.sys_open k ~path ~flags));
    continue_
  | n when n = Syscall.sys_close ->
    let fd = Word.to_signed (canon_int t ~syscall ~index:0) in
    deliver_same t ~syscall (Word.of_signed (Kernel.sys_close k ~fd));
    continue_
  | n when n = Syscall.sys_accept ->
    (* The listening-fd argument is checked across variants like any
       other descriptor argument — a corrupted fd in one variant is a
       divergence, not something to silently ignore. *)
    let listen_fd = Word.to_signed (canon_int t ~syscall ~index:0) in
    let fd = Kernel.sys_accept k ~fd:listen_fd in
    if fd = Kernel.eagain then begin
      (* Parked: each pc is rewound onto its [syscall] instruction, so
         the call is re-issued once a connection arrives; this slice
         closes here and the retry opens its own. *)
      Array.iteri
        (fun i v ->
          let cpu = v.Image.cpu in
          Cpu.set_pc cpu (Cpu.pc cpu - Nv_vm.Isa.instr_size);
          trace_exit t ~syscall i fd)
        t.variants;
      Some Blocked_on_accept
    end
    else begin
      if notes_wanted t then
        trace t ~syscall
          (Printf.sprintf "accept(%d) -> fd %d for all variants" listen_fd fd);
      deliver_same t ~syscall (Word.of_signed fd);
      continue_
    end
  | n when n = Syscall.sys_getuid || n = Syscall.sys_geteuid || n = Syscall.sys_getgid
           || n = Syscall.sys_getegid ->
    let canonical =
      if n = Syscall.sys_getuid then Kernel.sys_getuid k
      else if n = Syscall.sys_geteuid then Kernel.sys_geteuid k
      else if n = Syscall.sys_getgid then Kernel.sys_getgid k
      else Kernel.sys_getegid k
    in
    if notes_wanted t then
      trace t ~syscall
        (Format.asprintf "%s -> canonical %a, reexpressed per variant" (Syscall.name n)
           Word.pp canonical);
    deliver t ~syscall (fun i -> (uid_spec t i).Reexpression.encode canonical);
    continue_
  | n when n = Syscall.sys_setuid || n = Syscall.sys_seteuid || n = Syscall.sys_setgid
           || n = Syscall.sys_setegid ->
    let canonical = canon_uid t ~syscall ~index:0 in
    let result =
      if n = Syscall.sys_setuid then Kernel.sys_setuid k ~uid:canonical
      else if n = Syscall.sys_seteuid then Kernel.sys_seteuid k ~uid:canonical
      else if n = Syscall.sys_setgid then Kernel.sys_setgid k ~gid:canonical
      else Kernel.sys_setegid k ~gid:canonical
    in
    if notes_wanted t then
      trace t ~syscall
        (Format.asprintf "%s: R_i^-1 applied, canonical %a agreed, performed once"
           (Syscall.name n) Word.pp canonical);
    deliver_same t ~syscall (Word.of_signed result);
    continue_
  | n when n = Syscall.sys_uid_value ->
    (* Table 2: compare across variants (post-inverse), return the
       passed (still reexpressed) value to each variant. *)
    let canonical = canon_uid t ~syscall ~index:0 in
    if notes_wanted t then
      trace t ~syscall
        (Format.asprintf "uid_value: canonical %a equivalent in all variants" Word.pp
           canonical);
    deliver t ~syscall (fun i -> arg t i 0);
    continue_
  | n when n = Syscall.sys_cond_chk ->
    (* Table 2: condition values are plain booleans, identical in all
       variants or the variants are taking different paths. *)
    check t
      ~fail:(fun () -> Alarm.Cond_mismatch { values = Array.copy t.canon_scratch })
      (scratch_agrees t ~reg:(arg_reg 0) raw);
    let value = t.canon_scratch.(0) in
    if notes_wanted t then
      trace t ~syscall (Printf.sprintf "cond_chk(%d): paths agree" value);
    deliver_same t ~syscall value;
    continue_
  | n when Syscall.is_detection_call n ->
    (* cc_eq .. cc_geq: both UID arguments are decoded and checked,
       then the comparison is computed once on canonical values. *)
    let a = canon_uid t ~syscall ~index:0 in
    let b = canon_uid t ~syscall ~index:1 in
    let result =
      if n = Syscall.sys_cc_eq then a = b
      else if n = Syscall.sys_cc_neq then a <> b
      else if n = Syscall.sys_cc_lt then Word.lt_unsigned a b
      else if n = Syscall.sys_cc_leq then not (Word.lt_unsigned b a)
      else if n = Syscall.sys_cc_gt then Word.lt_unsigned b a
      else not (Word.lt_unsigned a b)
    in
    if notes_wanted t then
      trace t ~syscall
        (Format.asprintf "%s(%a, %a) = %b on canonical values" (Syscall.name n) Word.pp a
           Word.pp b result);
    deliver_same t ~syscall (if result then 1 else 0);
    continue_
  | _ ->
    if notes_wanted t then
      trace t ~syscall "unknown syscall: -1 to all variants";
    deliver_same t ~syscall (Word.of_signed (-1));
    continue_

(* ------------------------------------------------------------------ *)
(* Asynchronous event delivery                                         *)
(* ------------------------------------------------------------------ *)

(* The handler "returns" by jumping to this unmapped, recognizable
   address; the resulting execute fault marks completion. *)
let signal_return_address = 0xFFFFFFF4

let post_signal t ~handler ~mode =
  if t.signal <> None then Error "a signal is already pending"
  else if
    Array.exists
      (fun v -> not (List.mem_assoc handler v.Image.layout.Image.abs_symbols))
      t.variants
  then Error (Printf.sprintf "handler %S is not defined in every variant" handler)
  else begin
    t.signal <-
      Some
        {
          handler;
          mode;
          baselines = Array.map (fun v -> Cpu.instructions_retired v.Image.cpu) t.variants;
          delivered = Array.map (fun _ -> false) t.variants;
        };
    Ok ()
  end

let signal_pending t = t.signal <> None

(* Run the handler to completion in variant [i] as a synchronous
   subroutine, preserving the interrupted context. *)
let deliver_signal t i ~handler =
  let v = t.variants.(i) in
  let cpu = v.Image.cpu in
  (* Recorded at the injection point, before the handler runs: a
     failed delivery still leaves its attempt in the flight recorder. *)
  (if Trace.enabled t.trace then
     let immediate =
       match t.signal with Some { mode = Immediate _; _ } -> true | Some _ | None -> false
     in
     Trace.record t.trace_variants.(i) ~ts:(Cpu.instructions_retired cpu)
       (Trace.Signal { handler; immediate }));
  let failed detail =
    raise (Alarm_exn (Alarm.Signal_delivery_failed { variant = i; detail }))
  in
  let saved_regs = Array.init 16 (Cpu.reg cpu) in
  let saved_pc = Cpu.pc cpu in
  (match
     let sp = Word.sub (Cpu.reg cpu Cpu.sp_index) 4 in
     Memory.store_word v.Image.memory sp signal_return_address;
     Cpu.set_reg cpu Cpu.sp_index sp;
     Cpu.set_pc cpu (Image.abs_symbol v handler)
   with
  | () -> ()
  | exception Memory.Fault _ -> failed "no stack space for the handler frame"
  | exception Not_found -> failed "handler symbol vanished");
  (match Cpu.run cpu ~fuel:1_000_000 with
  | Cpu.Trapped (Cpu.Fault_trap (Cpu.Segfault { addr; access = Memory.Execute }))
    when addr = signal_return_address ->
    ()
  | Cpu.Trapped Cpu.Syscall_trap -> failed "handler made a system call"
  | Cpu.Trapped trap -> failed (Format.asprintf "handler trapped: %a" Cpu.pp_trap trap)
  | Cpu.Out_of_fuel -> failed "handler did not terminate");
  Array.iteri (fun r value -> Cpu.set_reg cpu r value) saved_regs;
  Cpu.set_pc cpu saved_pc

(* Deliver the pending signal [s] to variant [i]; the signal is retired
   once every variant has it. *)
let deliver_pending t s i =
  deliver_signal t i ~handler:s.handler;
  s.delivered.(i) <- true;
  Metrics.incr t.signals_delivered_c;
  if Array.for_all Fun.id s.delivered then t.signal <- None

(* Run variant [i] to its next trap, honouring a pending Immediate
   signal: once the variant crosses its delivery threshold, the handler
   is injected and execution continues. *)
let run_variant_to_trap t i ~fuel =
  let cpu = t.variants.(i).Image.cpu in
  let rec go fuel =
    if fuel <= 0 then Cpu.Out_of_fuel
    else begin
      match t.signal with
      | Some ({ mode = Immediate { after_instructions }; _ } as s)
        when not s.delivered.(i) -> (
        let due = s.baselines.(i) + after_instructions - Cpu.instructions_retired cpu in
        if due <= 0 then begin
          deliver_pending t s i;
          go fuel
        end
        else begin
          match Cpu.run cpu ~fuel:(Int.min due fuel) with
          | Cpu.Out_of_fuel when due <= fuel ->
            (* Reached the delivery point without trapping. *)
            deliver_pending t s i;
            go (fuel - due)
          | outcome -> outcome
        end)
      | Some _ | None -> Cpu.run cpu ~fuel
    end
  in
  go fuel

(* One quantum of variant [i]: run to its next trap, at most [fuel]
   instructions, and report why it stopped. *)
let run_quantum t i ~fuel =
  let cpu = t.variants.(i).Image.cpu in
  if Trace.enabled t.trace then
    Trace.record t.trace_variants.(i) ~ts:(Cpu.instructions_retired cpu) Trace.Quantum_begin;
  let arrival =
    match run_variant_to_trap t i ~fuel with
    | Cpu.Out_of_fuel -> A_fuel
    | Cpu.Trapped Cpu.Halt_trap -> A_halt
    | Cpu.Trapped (Cpu.Fault_trap fault) -> A_fault fault
    | Cpu.Trapped Cpu.Syscall_trap -> A_syscall
    | exception e -> A_raised (e, Printexc.get_raw_backtrace ())
  in
  (if Trace.enabled t.trace then
     let retired = Cpu.instructions_retired cpu in
     Trace.record t.trace_variants.(i) ~ts:retired (Trace.Quantum_end { retired }));
  arrival

(* ------------------------------------------------------------------ *)
(* Lockstep execution                                                  *)
(* ------------------------------------------------------------------ *)

(* How many trailing events of each ring a forensics bundle keeps. *)
let forensics_tail = 32

(* The alarm post-mortem: alarm class and payload, rendezvous count,
   the canonical kernel credentials plus each variant's reexpressed
   view of them, every variant's register file / pc / retired count,
   and the tail of every flight-recorder ring. Built on the
   coordinator while every variant is parked. *)
let build_forensics t reason =
  let open Metrics.Json in
  let num i = Num (float_of_int i) in
  let hex v = Str (Printf.sprintf "0x%08X" v) in
  let cred = Kernel.cred t.kernel in
  let cred_json =
    Obj
      [
        ("ruid", num cred.Cred.ruid);
        ("euid", num cred.Cred.euid);
        ("rgid", num cred.Cred.rgid);
        ("egid", num cred.Cred.egid);
      ]
  in
  let variant_json i v =
    let cpu = v.Image.cpu in
    let spec = uid_spec t i in
    Obj
      [
        ("variant", num i);
        ("pc", hex (Cpu.pc cpu));
        ("instructions_retired", num (Cpu.instructions_retired cpu));
        ("registers", List (List.init 16 (fun r -> hex (Cpu.reg cpu r))));
        ( "credentials_reexpressed",
          Obj
            [
              ("ruid", num (spec.Reexpression.encode cred.Cred.ruid));
              ("euid", num (spec.Reexpression.encode cred.Cred.euid));
            ] );
      ]
  in
  Obj
    [
      ("alarm", Alarm.to_json reason);
      ("rendezvous", num (Metrics.counter_value t.rendezvous_c));
      ("instructions_retired", num (instructions_retired t));
      ("credentials", cred_json);
      ("variants", List (Array.to_list (Array.mapi variant_json t.variants)));
      ( "rings",
        List
          (List.map
             (Trace.ring_events_json ~syscall_name:Syscall.name ~last:forensics_tail)
             (Trace.rings t.trace)) );
    ]

(* Every alarm leaving [run] passes through here so the per-reason
   alarm counters and the forensics post-mortem cover all production
   sites. *)
let alarmed t reason =
  Metrics.incr (Metrics.counter t.alarms_scope (Alarm.short_label reason));
  if Trace.enabled t.trace then
    Trace.record t.trace_coord ~ts:(instructions_retired t)
      (Trace.Alarm { label = Alarm.short_label reason });
  t.forensics <- Some (build_forensics t reason);
  Logs.info ~src:Nv_util.Logsrc.monitor (fun m -> m "alarm: %a" Alarm.pp reason);
  Alarm reason

(* Every variant is parked at a syscall. A pending [At_rendezvous]
   signal is delivered first: every variant is at an equivalent point
   (trapped, pc already past the syscall instruction, trap context
   preserved by the synchronous handler run), so handlers execute in
   lockstep. Then the variants must agree on the call, and [dispatch]
   performs it. Raises [Alarm_exn] on divergence and [Marshal_fault] on
   a bad pointer argument. *)
let rendezvous t =
  Metrics.incr t.rendezvous_c;
  (match t.signal with
  | Some ({ mode = At_rendezvous; _ } as s) ->
    Array.iteri (fun i _ -> if not s.delivered.(i) then deliver_pending t s i) t.variants
  | Some _ | None -> ());
  trace_enter t;
  check t
    ~fail:(fun () -> Alarm.Syscall_mismatch { numbers = Array.copy t.canon_scratch })
    (scratch_agrees t ~reg:0 raw);
  dispatch t ~now_instr:(instructions_retired t)

(* The run loop. Per round, every variant without a parked arrival runs
   one quantum to its next trap, in index order; the coordinator then
   handles exceptional arrivals in deterministic (lowest-index) order
   and, once every variant is parked at a syscall, holds the
   rendezvous.

   [A_syscall] arrivals persist across [run] calls — the parked call
   has not been dispatched, so the variant must not be resumed past
   it; all other arrivals are transient. *)
let run ?(fuel = 50_000_000) t =
  let deadline = instructions_retired t + fuel in
  let n = Array.length t.variants in
  let finish outcome =
    if Trace.enabled t.trace then Trace.publish t.trace t.metrics;
    outcome
  in
  let rec loop () =
    let remaining = deadline - instructions_retired t in
    if remaining <= 0 then finish Out_of_fuel
    else begin
      for i = 0 to n - 1 do
        if t.arrivals.(i) = None then t.arrivals.(i) <- Some (run_quantum t i ~fuel:remaining)
      done;
      let view =
        Array.map (function Some a -> a | None -> assert false) t.arrivals
      in
      for i = 0 to n - 1 do
        match t.arrivals.(i) with
        | Some A_syscall -> ()
        | Some _ | None -> t.arrivals.(i) <- None
      done;
      (* Deterministic failure order: the lowest variant index wins. *)
      let first_raised = ref None in
      Array.iter
        (fun a ->
          match (a, !first_raised) with
          | (A_raised (e, bt), None) -> first_raised := Some (e, bt)
          | _ -> ())
        view;
      match !first_raised with
      | Some (Alarm_exn reason, _) -> finish (alarmed t reason)
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
        if Array.exists (function A_fuel -> true | _ -> false) view then
          finish Out_of_fuel
        else begin
          (* Faults and halts are alarm states. *)
          let alarm = ref None in
          Array.iteri
            (fun i a ->
              if !alarm = None then begin
                match a with
                | A_fault fault ->
                  alarm := Some (Alarm.Variant_fault { variant = i; fault })
                | A_halt -> alarm := Some (Alarm.Variant_halted { variant = i })
                | A_syscall | A_fuel | A_raised _ -> ()
              end)
            view;
          match !alarm with
          | Some reason -> finish (alarmed t reason)
          | None -> (
            match rendezvous t with
            | None ->
              Array.fill t.arrivals 0 n None;
              loop ()
            | Some outcome ->
              Array.fill t.arrivals 0 n None;
              finish outcome
            | exception Alarm_exn reason -> finish (alarmed t reason)
            | exception Marshal_fault { variant; fault } ->
              finish (alarmed t (Alarm.Variant_fault { variant; fault })))
        end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_images : Image.snapshot array;
  snap_kernel : Kernel.snapshot;
}

let snapshot t =
  {
    snap_images = Array.map Image.snapshot t.variants;
    snap_kernel = Kernel.snapshot t.kernel;
  }

let restore t snap =
  Array.iteri (fun i s -> Image.restore t.variants.(i) s) snap.snap_images;
  let dropped = Kernel.restore t.kernel snap.snap_kernel in
  (* A pending signal references pre-rollback execution baselines; it
     cannot survive the rollback. *)
  t.signal <- None;
  (* A parked arrival references execution the rollback just erased:
     every variant runs again from the checkpoint. *)
  Array.fill t.arrivals 0 (Array.length t.arrivals) None;
  (* The retired-instruction totals just jumped backwards with the CPU
     restore; re-anchor the latency baseline so the next rendezvous
     does not observe a negative interval. *)
  t.last_rendezvous_instr <- instructions_retired t;
  dropped
