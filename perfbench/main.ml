(* Served-request benchmark of the monitored case-study server.

   One process drives one closed-loop client against a [Deploy]ed
   N-variant httpd: the next request is sent only once the previous
   response is in and the server is parked on [accept] again. Every
   benign response is compared byte for byte with the response built
   from [Site.content]; every attack must be absorbed by exactly one
   supervisor recovery without leaking the shadow file. The workload
   seed draws the request paths and places the attacks.

   [--trace 0] prints the end-to-end metrics, measured with no tracer
   installed. A short reference pass after every request measures how
   much other tenants of the host slow the process down; the timed
   metrics come from the windows the passes found quiet, scaled to the
   reference speed. [--trace 1] is the separate per-layer run: exact counts
   over a fixed number of requests, host time per rendezvous interval
   from a [Monitor.set_tracer] callback, and direct timings of the
   layers the serve path crosses. The harness only uses the system's
   public interface. The last line of standard output is one JSON
   object: [correct], [attempted], [failed] and [metrics]. See
   README.md. *)

module Nsystem = Nv_core.Nsystem
module Monitor = Nv_core.Monitor
module Supervisor = Nv_core.Supervisor
module Deploy = Nv_httpd.Deploy
module Site = Nv_httpd.Site
module Http = Nv_httpd.Http
module Kernel = Nv_os.Kernel
module Socket = Nv_os.Socket
module Syscall = Nv_os.Syscall
module Metrics = Nv_util.Metrics
module Prng = Nv_util.Prng

(* ------------------------------------------------------------------ *)
(* Clocks and samples                                                  *)
(* ------------------------------------------------------------------ *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let percentile xs p = if Array.length xs = 0 then 0. else Nv_util.Stats.percentile xs p

let median xs = percentile xs 50.

(* Median wall time, in seconds, of [reps] calls of [f]. *)
let time_median ~reps f =
  median
    (Array.init reps (fun _ ->
         let t0 = now_ns () in
         ignore (Sys.opaque_identity (f ()));
         since_s t0))

module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* The reference loop. A tiny register machine of the benchmark's own,
   independent of the system under test, runs a fixed program of loads,
   stores, arithmetic and a counted branch over a 4 KiB memory, the
   instruction mix of the guest interpreter, then copies and compares
   4 KiB, as the byte path does. It allocates nothing, so its time does
   not depend on the program's heap. *)
module Probe = struct
  let iterations = 640

  (* Four ints per instruction: opcode, a, b, c. *)
  let code =
    [|
      1; 1; 0; 0 (* 0: mov r1, #0 *);
      1; 2; 0; iterations (* 1: mov r2, #iterations *);
      2; 1; 1; 1 (* 2: add r1, r1, #1 *);
      4; 3; 1; 0 (* 3: ld r3, [r1] *);
      3; 3; 3; 1 (* 4: add r3, r3, r1 *);
      5; 3; 1; 0 (* 5: st [r1], r3 *);
      6; 4; 3; 0xFF (* 6: and r4, r3, #0xFF *);
      7; 1; 2; 2 (* 7: brlt r1, r2, 2 *);
      0; 0; 0; 0 (* 8: halt *);
    |]

  let regs = Array.make 8 0
  let mem = Bytes.make 4096 '\000'
  let copy = Bytes.make 4096 '\000'

  let rec step pc =
    let i = 4 * pc in
    let a = code.(i + 1) and b = code.(i + 2) and c = code.(i + 3) in
    match code.(i) with
    | 1 -> regs.(a) <- c; step (pc + 1)
    | 2 -> regs.(a) <- regs.(b) + c; step (pc + 1)
    | 3 -> regs.(a) <- regs.(b) + regs.(c); step (pc + 1)
    | 4 -> regs.(a) <- Char.code (Bytes.get mem (7 * regs.(b) land 4095)); step (pc + 1)
    | 5 -> Bytes.set mem (7 * regs.(b) land 4095) (Char.unsafe_chr (regs.(a) land 0xFF)); step (pc + 1)
    | 6 -> regs.(a) <- regs.(b) land c; step (pc + 1)
    | 7 -> step (if regs.(a) < regs.(b) then c else pc + 1)
    | _ -> ()

  let pass () =
    step 0;
    Bytes.blit mem 0 copy 0 4096;
    if not (Bytes.equal mem copy) then assert false

  (* Nanoseconds one pass takes. An untimed pass first brings its code
     and data back into the caches, so that the timed one does not
     depend on what the program left there. *)
  let time () =
    pass ();
    let t0 = now_ns () in
    pass ();
    now_ns () - t0

  (* What one pass takes on an idle host of the machine type the
     benchmark was written on (Intel Xeon, 2 vCPU): the speed all
     reported times are scaled to. *)
  let reference_ns = 10_000.
end

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  config : Deploy.config;
  paths : string array;  (** the mix; repeats weight it *)
  copies : int;  (** copies of the mix per window *)
  attacks : int;  (** null-overflow attacks per window *)
  recover : Supervisor.config option;
}

(* Checkpoint at every accept boundary, with the restart budget raised
   as [nvexec --recover N] does, so that a run never fail-stops. *)
let recover_config = { Supervisor.default_config with max_recoveries = max_int }

let workloads =
  [
    (* The paper's traffic on its UID variation: guest execution and
       per-rendezvous monitor work dominate, the byte path is light. *)
    {
      name = "mix_2v";
      config = Deploy.Two_variant_uid;
      paths = Site.request_mix;
      copies = 8;
      attacks = 0;
      recover = None;
    };
    (* Streamed responses replicated to and compared across four
       variants: the byte path and its scaling with N. *)
    {
      name = "large_4v";
      config = Deploy.Composed_four;
      paths = [| "/large.html"; "/docs.html" |];
      copies = 48;
      attacks = 0;
      recover = None;
    };
    (* Checkpoint at every accept and rollback on one attack in 97
       requests: the write-heavy use of variant memory. *)
    {
      name = "recover_2v";
      config = Deploy.Two_variant_uid;
      paths = Site.request_mix;
      copies = 8;
      attacks = 1;
      recover = Some recover_config;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Requests and their expected responses                               *)
(* ------------------------------------------------------------------ *)

type request = {
  bytes : string;
  expected : string option;  (** [None] for an attack *)
}

(* The server sends the length of its first read as Content-Length and
   then streams the rest of the file, so a file longer than one read
   carries a short Content-Length. *)
let server_read_size = 4095

let expected_response path =
  let name = if path = "/" then "index.html" else String.sub path 1 (String.length path - 1) in
  let file = List.find (fun f -> f.Site.name = name) Site.files in
  Printf.sprintf "HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s"
    (min file.Site.size server_read_size)
    (Site.content file)

let benign path = { bytes = Http.get path; expected = Some (expected_response path) }

let attack = { bytes = Http.get (Nv_attacks.Payloads.null_overflow_url ()); expected = None }

(* A window is [copies] of the mix plus the workload's attacks, in an
   order the seed shuffles afresh for every window: each window does
   the same work, so window rates differ only by how fast it ran. *)
type stream = { prng : Prng.t; pool : request array; mutable next : int }

let stream_of_pool pool ~seed = { prng = Prng.create ~seed; pool; next = 0 }

let stream w ~seed =
  let mix = Array.map benign w.paths in
  stream_of_pool ~seed
    (Array.concat (List.init w.copies (fun _ -> mix) @ [ Array.make w.attacks attack ]))

let window s = Array.length s.pool

let next s =
  if s.next = 0 then
    for i = window s - 1 downto 1 do
      let j = Prng.int s.prng (i + 1) in
      let x = s.pool.(i) in
      s.pool.(i) <- s.pool.(j);
      s.pool.(j) <- x
    done;
  let req = s.pool.(s.next) in
  s.next <- (s.next + 1) mod window s;
  req

(* ------------------------------------------------------------------ *)
(* Serving and checking                                                *)
(* ------------------------------------------------------------------ *)

let recoveries sys =
  match Nsystem.supervisor sys with Some s -> Supervisor.recoveries s | None -> 0

(* One client interaction against a server parked on accept: the same
   steps as [Nsystem.serve] minus its initial park check. *)
let exchange sys bytes =
  let conn = Nsystem.connect sys in
  Socket.client_send conn bytes;
  Socket.client_close conn;
  let outcome = Nsystem.run sys in
  (outcome, Socket.client_recv conn)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

type verdict = Served | Absorbed | Failed | Stopped

let judge req ~absorbed (outcome, response) =
  match outcome with
  | Monitor.Blocked_on_accept -> (
    match req.expected with
    | Some expected -> if absorbed = 0 && String.equal response expected then Served else Failed
    | None ->
      if absorbed = 1 && not (contains response Nv_attacks.Payloads.shadow_marker) then
        Absorbed
      else Failed)
  | Monitor.Exited _ | Monitor.Alarm _ | Monitor.Out_of_fuel -> Stopped

type run = {
  mutable sys : Nsystem.t;
  stream : stream;
  mutable attempted : int;
  mutable failed : int;
  mutable stopped : bool;
}

let fresh sys stream = { sys; stream; attempted = 0; failed = 0; stopped = false }

(* Serve one request and tally its verdict; returns the verdict and
   the wall time of the interaction in milliseconds. *)
let serve ?(exchange = exchange) r =
  let req = next r.stream in
  let before = recoveries r.sys in
  let t0 = now_ns () in
  let result = exchange r.sys req.bytes in
  let ms = float_of_int (now_ns () - t0) *. 1e-6 in
  let verdict = judge req ~absorbed:(recoveries r.sys - before) result in
  r.attempted <- r.attempted + 1;
  (match verdict with
  | Served | Absorbed -> ()
  | Failed -> r.failed <- r.failed + 1
  | Stopped ->
    r.failed <- r.failed + 1;
    r.stopped <- true);
  (verdict, ms)

(* The guest appends one line per request to its access log, and the
   VFS appends by copying the whole file. Rotating the log after every
   window, as logrotate would, keeps the per-request cost stationary
   over a run of any length. *)
let rotate_log sys =
  ignore (Nv_os.Vfs.set_contents (Kernel.vfs (Nsystem.kernel sys)) ~path:"/var/log/httpd.log" "")

type window = {
  wall : float;  (** seconds, reference passes excluded *)
  cpu : float;  (** process CPU seconds, reference passes excluded *)
  sent : int;  (** requests *)
  served : int;  (** benign requests answered correctly *)
  first : int;  (** index of its first latency sample *)
  slowdown : float;  (** median reference pass ÷ [Probe.reference_ns]; 1 when not probed *)
}

type loop = {
  requests : int;  (** all requests sent *)
  wall_s : float;
  windows : window array;
  latency_ms : float array;  (** per served request, in window order *)
  attack_ms : float array;  (** per absorbed attack *)
}

(* Median of [n] reference passes, as a slowdown. *)
let slowdown_of passes n =
  let sorted = Array.sub passes 0 n in
  Array.sort compare sorted;
  float_of_int sorted.(n / 2) /. Probe.reference_ns

(* Serve whole windows until [seconds] have passed, calling [between]
   after each window, outside its timing. With [~probe:true] a
   reference pass follows every request, outside the request's time
   and the window's. *)
let measure ?exchange ?(between = ignore) ?(probe = false) r ~seconds =
  let latency = Samples.create () and attacks = Samples.create () in
  let windows = ref [] and requests = ref 0 in
  let passes = Array.make (window r.stream) 0 in
  let t_start = now_ns () in
  let t_end = t_start + int_of_float (seconds *. 1e9) in
  while now_ns () < t_end && not r.stopped do
    let w0 = now_ns () and c0 = cpu_s () and first = latency.Samples.len in
    let sent = ref 0 and passes_ns = ref 0 in
    while !sent < window r.stream && not r.stopped do
      (match serve ?exchange r with
      | Served, ms -> Samples.add latency ms
      | Absorbed, ms -> Samples.add attacks ms
      | (Failed | Stopped), _ -> ());
      if probe then begin
        let t0 = now_ns () in
        passes.(!sent) <- Probe.time ();
        passes_ns := !passes_ns + (now_ns () - t0)
      end;
      incr sent
    done;
    rotate_log r.sys;
    let excluded = float_of_int !passes_ns *. 1e-9 in
    let wall = since_s w0 -. excluded and cpu = cpu_s () -. c0 -. excluded in
    let slowdown = if probe then slowdown_of passes !sent else 1. in
    windows :=
      { wall; cpu; sent = !sent; served = latency.Samples.len - first; first; slowdown }
      :: !windows;
    requests := !requests + !sent;
    between ()
  done;
  {
    requests = !requests;
    wall_s = since_s t_start;
    windows = Array.of_list (List.rev !windows);
    latency_ms = Samples.to_array latency;
    attack_ms = Samples.to_array attacks;
  }

type summary = {
  rate : float;  (** served requests per second *)
  p50_ms : float;
  p99_ms : float;
  cpu_ms : float;  (** process CPU per request *)
  picked : int;  (** windows *)
  samples : int;  (** latency samples *)
}

(* How the server's time grows with the reference pass's: across the
   windows of contended runs, as about this power of it. The pass runs
   at a higher rate of instructions per cycle than the server, so a
   tenant on the same core slows it more. *)
let sensitivity = 0.75

(* The timed metrics over [picked] windows, each of whose times is
   divided by its slowdown to the power [sensitivity] when [scaled].
   The rate is the median of the windows' rates. *)
let summarize ~scaled l picked =
  let s w = if scaled then w.slowdown ** sensitivity else 1. in
  let latency =
    Array.concat
      (Array.to_list
         (Array.map
            (fun w -> Array.map (fun ms -> ms /. s w) (Array.sub l.latency_ms w.first w.served))
            picked))
  in
  let sum f = Array.fold_left (fun acc w -> acc +. f w) 0. picked in
  {
    rate = median (Array.map (fun w -> float_of_int w.served *. s w /. w.wall) picked);
    p50_ms = median latency;
    p99_ms = percentile latency 99.;
    cpu_ms = 1e3 *. sum (fun w -> w.cpu /. s w) /. sum (fun w -> float_of_int w.sent);
    picked = Array.length picked;
    samples = Array.length latency;
  }

(* The fastest tenth of the windows by wall time. *)
let fastest_share = 0.1

let fastest l =
  let ws = Array.copy l.windows in
  Array.sort (fun a b -> Float.compare a.wall b.wall) ws;
  let k = min (Array.length ws) (max 1 (int_of_float (fastest_share *. float_of_int (Array.length ws)))) in
  summarize ~scaled:false l (Array.sub ws 0 k)

(* The quiet windows: those whose slowdown is within [quiet_margin] of
   the run's quietest, taken as the 5th percentile of the windows'
   slowdowns, and at least the quietest tenth. Selecting by the
   reference passes rather than by the windows' own times keeps the
   windows with a major collection in their fair share. *)
let quiet_margin = 0.1

let quiet_windows l =
  let ws = Array.copy l.windows in
  Array.sort (fun a b -> Float.compare a.slowdown b.slowdown) ws;
  let floor = percentile (Array.map (fun w -> w.slowdown) ws) 5. in
  let within = Array.fold_left (fun n w -> if w.slowdown <= floor *. (1. +. quiet_margin) then n + 1 else n) 0 ws in
  Array.sub ws 0 (min (Array.length ws) (max within (max 1 (Array.length ws / 10))))

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* [Deploy.build] plus the first [Nsystem.run] to the accept park
   (which includes the guest's passwd parse). *)
let setup w =
  let t0 = now_ns () in
  let sys =
    match Deploy.build ?recover:w.recover w.config with
    | Ok sys -> sys
    | Error e -> fail "%s: build failed: %s" w.name e
  in
  let t1 = now_ns () in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> fail "%s: server did not park on accept" w.name);
  let t2 = now_ns () in
  (sys, float_of_int (t2 - t0) *. 1e-9, float_of_int (t2 - t1) *. 1e-9)

let start w ~seed =
  let sys, total, start = setup w in
  (fresh sys (stream w ~seed), total, start)

(* ------------------------------------------------------------------ *)
(* Exact counts over a fixed number of requests                        *)
(* ------------------------------------------------------------------ *)

let count_windows = 10

let counter sys name = Option.value ~default:0 (Metrics.find_counter (Nsystem.metrics sys) name)

let batch_histogram sys =
  Metrics.histogram (Metrics.scope (Nsystem.metrics sys) "monitor") "deferred_batch_size"

let block_stats sys =
  let m = Nsystem.monitor sys in
  let total = ref (0, 0, 0) in
  for i = 0 to Monitor.variant_count m - 1 do
    let c, h, v = Nv_vm.Cpu.block_stats (Monitor.loaded m i).Nv_vm.Image.cpu in
    let c0, h0, v0 = !total in
    total := (c0 + c, h0 + h, v0 + v)
  done;
  !total

type counts = {
  instructions : int;
  rendezvous : int;
  relaxed : int;
  checks : int;
  input_bytes : int;
  output_writes : int;
  batch_count : int;
  batch_sum : float;
  syscalls : int;
  shared_in : int;
  shared_out : int;
  unshared : int;
  checkpoints : int;
  recovered : int;
  blocks : int * int * int;
}

let counts sys =
  let m = Nsystem.monitor sys in
  let st = Monitor.stats m in
  let h = batch_histogram sys in
  {
    instructions = Monitor.instructions_retired m;
    rendezvous = st.Monitor.st_rendezvous;
    relaxed = st.Monitor.st_relaxed_checks;
    checks = st.Monitor.st_checks_performed;
    input_bytes = st.Monitor.st_input_bytes_replicated;
    output_writes = st.Monitor.st_output_writes_checked;
    batch_count = Metrics.histogram_count h;
    batch_sum = Metrics.histogram_sum h;
    syscalls = counter sys "kernel.syscalls";
    shared_in = counter sys "kernel.io.shared_bytes_in";
    shared_out = counter sys "kernel.io.shared_bytes_out";
    unshared = counter sys "kernel.io.unshared_bytes_in" + counter sys "kernel.io.unshared_bytes_out";
    checkpoints = counter sys "supervisor.checkpoints";
    recovered = counter sys "supervisor.recoveries";
    blocks = block_stats sys;
  }

(* Serve [count_windows] windows and return the per-request counts; for
   a fixed seed they repeat exactly. *)
let count_pass r =
  let a = counts r.sys in
  let requests = count_windows * window r.stream in
  for i = 1 to requests do
    if not r.stopped then ignore (serve r);
    if i mod window r.stream = 0 then rotate_log r.sys
  done;
  let b = counts r.sys in
  let per x y = float_of_int (y - x) /. float_of_int requests in
  let c0, h0, v0 = a.blocks and c1, h1, v1 = b.blocks in
  let dispatches = c1 - c0 + (h1 - h0) in
  [
    ("vm.instr_per_req", per a.instructions b.instructions, "count");
    ( "vm.block_hit_ratio",
      (if dispatches = 0 then 0. else float_of_int (h1 - h0) /. float_of_int dispatches),
      "ratio" );
    ("vm.block_invalidations_per_req", per v0 v1, "count");
    ("mon.full_rdv_per_req", per (a.rendezvous - a.relaxed) (b.rendezvous - b.relaxed), "count");
    ("mon.relaxed_per_req", per a.relaxed b.relaxed, "count");
    ("mon.checks_per_req", per a.checks b.checks, "count");
    ( "mon.deferred_batch_mean",
      (let n = b.batch_count - a.batch_count in
       if n = 0 then 0. else (b.batch_sum -. a.batch_sum) /. float_of_int n),
      "count" );
    ("mon.input_bytes_per_req", per a.input_bytes b.input_bytes, "B");
    ("mon.output_writes_per_req", per a.output_writes b.output_writes, "count");
    ("kernel.syscalls_per_req", per a.syscalls b.syscalls, "count");
    ("kernel.shared_bytes_in_per_req", per a.shared_in b.shared_in, "B");
    ("kernel.shared_bytes_out_per_req", per a.shared_out b.shared_out, "B");
    ("kernel.unshared_bytes_per_req", per a.unshared b.unshared, "B");
    ("sup.checkpoints_per_req", per a.checkpoints b.checkpoints, "count");
    ("sup.recoveries", float_of_int (b.recovered - a.recovered), "count");
  ]

(* The exact counts the self-test requires to repeat bit for bit. *)
let exact_names =
  [
    "vm.instr_per_req";
    "mon.full_rdv_per_req";
    "mon.relaxed_per_req";
    "kernel.syscalls_per_req";
    "sup.recoveries";
  ]

(* ------------------------------------------------------------------ *)
(* Traced serving: host time per rendezvous interval                   *)
(* ------------------------------------------------------------------ *)

let slots = Monitor.syscall_slots

(* The rendezvous the transformed server reaches on its serve path.
   [close] and the accept that parks do not call the tracer: their time
   falls into the next interval and the tail respectively. *)
let rdv_names = [ "accept"; "read"; "open"; "write"; "seteuid"; "geteuid"; "cc_eq"; "cc_neq" ]

type tracer = {
  mutable last : int;
  rdv_ns : int array;  (** by syscall number; closed by that syscall *)
  rdv_count : int array;
  mutable tail_ns : int;  (** last rendezvous to the return of [Nsystem.run] *)
  mutable run_ns : int;
  mutable io_ns : int;
}

(* Each interval runs from the previous tracer callback (or the start
   of [Nsystem.run]) to this one, so it covers the guest run of that
   quantum, the check and the kernel call before it. *)
let install_tracer sys =
  let tr =
    {
      last = 0;
      rdv_ns = Array.make slots 0;
      rdv_count = Array.make slots 0;
      tail_ns = 0;
      run_ns = 0;
      io_ns = 0;
    }
  in
  Monitor.set_tracer (Nsystem.monitor sys) (fun ev ->
      let now = now_ns () in
      let n = ev.Monitor.ev_syscall in
      if n >= 0 && n < slots then begin
        tr.rdv_ns.(n) <- tr.rdv_ns.(n) + (now - tr.last);
        tr.rdv_count.(n) <- tr.rdv_count.(n) + 1
      end;
      tr.last <- now);
  tr

let traced_exchange tr sys bytes =
  let t0 = now_ns () in
  let conn = Nsystem.connect sys in
  Socket.client_send conn bytes;
  Socket.client_close conn;
  let t1 = now_ns () in
  tr.last <- t1;
  let outcome = Nsystem.run sys in
  let t2 = now_ns () in
  tr.tail_ns <- tr.tail_ns + (t2 - tr.last);
  let response = Socket.client_recv conn in
  let t3 = now_ns () in
  tr.run_ns <- tr.run_ns + (t2 - t1);
  tr.io_ns <- tr.io_ns + (t1 - t0) + (t3 - t2);
  (outcome, response)

(* ------------------------------------------------------------------ *)
(* Direct layer timings                                                *)
(* ------------------------------------------------------------------ *)

(* The hostperf interpreter loop, run by [Cpu.run] at the default
   engine. *)
let interp_program =
  {|
      .data
      cell: .word 0
      .text
      la r6, cell
      mov r1, #0
      mov r2, #150000
    loop:
      add r1, r1, #1
      ld r3, [r6]
      add r3, r3, r1
      st [r6], r3
      and r4, r3, #0xFF
      brlt r1, r2, loop
      halt
    |}

let interp_mips () =
  let image = Nv_vm.Asm.assemble interp_program in
  median
    (Array.init 9 (fun _ ->
         let loaded = Nv_vm.Image.load image ~base:0x1000 ~size:(1 lsl 20) ~tag:0 in
         let cpu = loaded.Nv_vm.Image.cpu in
         let t0 = now_ns () in
         (match Nv_vm.Cpu.run cpu ~fuel:10_000_000 with
         | Nv_vm.Cpu.Trapped Nv_vm.Cpu.Halt_trap -> ()
         | _ -> fail "interpreter loop did not halt");
         float_of_int (Nv_vm.Cpu.instructions_retired cpu) /. since_s t0 /. 1e6))

(* Mean µs to open, read in 4095-byte chunks and close one of the
   workload's files, on a private kernel over an installed site. *)
let file_read_us w =
  let variation = Deploy.variation w.config in
  let vfs = Nsystem.standard_vfs ~variation () in
  Site.install vfs;
  let k = Kernel.create ~variants:1 vfs in
  let files =
    List.sort_uniq compare
      (List.map (fun p -> if p = "/" then "/var/www/index.html" else "/var/www" ^ p) (Array.to_list w.paths))
  in
  let read_all path =
    let fd = Kernel.sys_open k ~path ~flags:0 in
    if fd < 0 then fail "cannot open %s" path;
    let rec go () = if fst (Kernel.sys_read k ~fd ~len:server_read_size) > 0 then go () in
    go ();
    ignore (Kernel.sys_close k ~fd)
  in
  let reps = 200 in
  time_median ~reps:15 (fun () ->
      for _ = 1 to reps do
        List.iter read_all files
      done)
  *. 1e6 /. float_of_int (reps * List.length files)

(* Checkpoint pieces on the parked system: every variant image, the
   kernel, and a whole-monitor restore to the current state. *)
let snapshot_us sys =
  let m = Nsystem.monitor sys in
  let loaded = List.init (Monitor.variant_count m) (Monitor.loaded m) in
  let image = time_median ~reps:21 (fun () -> List.map Nv_vm.Image.snapshot loaded) in
  let kernel = time_median ~reps:201 (fun () -> Kernel.snapshot (Nsystem.kernel sys)) in
  let snap = Monitor.snapshot m in
  let restore = time_median ~reps:21 (fun () -> Monitor.restore m snap) in
  (image *. 1e6, kernel *. 1e6, restore *. 1e6)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let print_result ~correct r metrics =
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    r.attempted r.failed
    (String.concat ", " (List.map metric metrics))

let print_metrics metrics =
  List.iter (fun (name, value, unit) -> Printf.printf "  %-34s %14.6g  %s\n" name value unit) metrics

let environment w ~seed ~seconds ~trace sys =
  let env name =
    match Sys.getenv_opt name with
    | Some v ->
      Printf.eprintf "perfbench: warning: %s=%s is set; measuring with it\n%!" name v;
      v
    | None -> "unset"
  in
  let nv_engine = env "NV_ENGINE" and nv_parallel = env "NV_PARALLEL" in
  let m = Nsystem.monitor sys in
  Printf.printf
    "perfbench %s seed=%d seconds=%g trace=%d config=%s variants=%d\n\
     env: engine=%s parallel=%b nproc=%d ocaml=%s NV_ENGINE=%s NV_PARALLEL=%s\n"
    w.name seed seconds trace (Deploy.name w.config) (Monitor.variant_count m)
    (Nv_vm.Memory.engine_to_string (Nv_vm.Memory.engine (Monitor.loaded m 0).Nv_vm.Image.memory))
    (Monitor.parallel m)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version nv_engine nv_parallel

(* ------------------------------------------------------------------ *)
(* The two runs                                                        *)
(* ------------------------------------------------------------------ *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let warm_up r =
  for _ = 1 to window r.stream do
    if not r.stopped then ignore (serve r)
  done;
  rotate_log r.sys

(* The slowdown of the host right now: the median of [n] reference
   passes. *)
let slowdown_now n = slowdown_of (Array.init n (fun _ -> Probe.time ())) n

(* The supervisor keeps a record of every recovery, forensics bundle
   and all, so the heap of a [recover_2v] server grows through a run,
   and every major collection, several per request there, marks more of
   it. Replacing the server with a fresh, warmed-up one every
   [restart_every] windows, outside the timing, keeps the per-request
   cost of every workload the same over a run of any length. *)
let restart_every = 16

(* Each restart is a timed set-up, between two sets of reference
   passes; [setup_s] is the median time of the quietest quarter of them,
   by the slower of their two slowdowns. It is not scaled: allocating
   and faulting in fresh variant memory dominates it, and how much it
   slows under contention bears no steady relation to the pass. *)
let setup_passes = 15

(* The quietest quarter of (slowdown, seconds) set-ups. *)
let quietest_setups ts =
  let ts = Array.of_list ts in
  Array.sort compare ts;
  Array.sub ts 0 (max 1 (Array.length ts / 4))

let timed_setup w =
  let before = slowdown_now setup_passes in
  let sys, total, _ = setup w in
  (sys, (Float.max before (slowdown_now setup_passes), total))

let end_to_end w ~seed ~seconds =
  let sys, first = timed_setup w in
  let r = fresh sys (stream w ~seed) in
  environment w ~seed ~seconds ~trace:0 r.sys;
  warm_up r;
  let setups = ref [ first ] and windows = ref 0 in
  let between () =
    incr windows;
    if !windows mod restart_every = 0 then begin
      let sys, timed = timed_setup w in
      setups := timed :: !setups;
      r.sys <- sys;
      warm_up r
    end
  in
  let l = measure ~between ~probe:true r ~seconds in
  let quiet = quiet_windows l in
  let f = summarize ~scaled:true l quiet in
  let metrics =
    [
      ("req_per_s", f.rate, "req/s");
      ("latency_p50_ms", f.p50_ms, "ms");
      ("latency_p99_ms", f.p99_ms, "ms");
      ("cpu_ms_per_req", f.cpu_ms, "ms");
      ("setup_s", median (Array.map snd (quietest_setups !setups)), "s");
      ("peak_heap_mb", peak_heap_mb (), "MB");
    ]
  in
  let slowdowns = Array.map (fun w -> w.slowdown) l.windows in
  Printf.printf
    "samples: %d requests in %.2f s (%d attacks absorbed); %d windows of %d, timed over the %d quiet \
     ones (%d latency samples); %d set-ups\n"
    l.requests l.wall_s (Array.length l.attack_ms) (Array.length l.windows) (window r.stream) f.picked
    f.samples (List.length !setups);
  Printf.printf "reference pass: slowdown p10 %.4f, p50 %.4f, p90 %.4f\n" (percentile slowdowns 10.)
    (median slowdowns) (percentile slowdowns 90.);
  let line name x =
    Printf.printf "%-24s %9.1f req/s, p50 %.4f ms, p99 %.4f ms, cpu %.4f ms\n" name x.rate x.p50_ms
      x.p99_ms x.cpu_ms
  in
  line "raw, all windows:" (summarize ~scaled:false l l.windows);
  line "raw, quiet windows:" (summarize ~scaled:false l quiet);
  line "raw, fastest tenth:" (fastest l);
  Printf.printf "raw setup: %.6f s over all\n" (median (Array.of_list (List.map snd !setups)));
  Printf.printf "  %-34s %14.6g  ratio  (%d of %d)\n" "failed_frac"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  print_metrics metrics;
  (r, metrics, true)

let per_layer w ~seed ~seconds =
  let r, _, _ = start w ~seed in
  let start_s = median (Array.init 5 (fun _ -> let _, _, s = setup w in s)) in
  environment w ~seed ~seconds ~trace:1 r.sys;
  let reps = 3 in
  let source = Nv_httpd.Httpd_source.source () in
  let compile_s = time_median ~reps (fun () -> Nv_minic.Codegen.compile_source source) in
  let transform_s = time_median ~reps (fun () -> Deploy.transform_report ()) in
  let vfs_s =
    time_median ~reps (fun () ->
        let vfs = Nsystem.standard_vfs ~variation:(Deploy.variation w.config) () in
        Site.install vfs)
  in
  let counted = count_pass r in
  let sys = r.sys in
  (* Untraced half: the base for the trace overhead, guest MIPS and
     allocation. *)
  let instr0 = Monitor.instructions_retired (Nsystem.monitor sys) in
  let gc0 = Gc.quick_stat () in
  let plain = measure r ~seconds:(seconds /. 2.) in
  let gc1 = Gc.quick_stat () in
  let instr = Monitor.instructions_retired (Nsystem.monitor sys) - instr0 in
  (* Traced half. *)
  let tr = install_tracer sys in
  let traced = measure ~exchange:(traced_exchange tr) r ~seconds:(seconds /. 2.) in
  let image_us, kernel_us, restore_us = snapshot_us sys in
  let n = float_of_int (max 1 traced.requests) in
  let us ns = float_of_int ns *. 1e-3 /. n in
  let wall_us = traced.wall_s *. 1e6 /. n in
  let rdv_rows =
    List.concat_map
      (fun name ->
        let i = List.find (fun i -> Syscall.name i = name) (List.init slots Fun.id) in
        [
          (Printf.sprintf "rdv.%s.us_per_req" name, us tr.rdv_ns.(i), "us");
          (Printf.sprintf "rdv.%s.count_per_req" name, float_of_int tr.rdv_count.(i) /. n, "count");
        ])
      rdv_names
  in
  let layer_rows =
    List.filter_map
      (fun i ->
        if tr.rdv_count.(i) = 0 then None
        else Some (Printf.sprintf "rdv.%s" (Syscall.name i), us tr.rdv_ns.(i)))
      (List.init slots Fun.id)
    @ [ ("rdv.tail", us tr.tail_ns); ("client.io", us tr.io_ns) ]
  in
  let accounted = List.fold_left (fun acc (_, v) -> acc +. v) 0. layer_rows in
  let coverage = accounted /. wall_us in
  let plain_rate = (fastest plain).rate and traced_rate = (fastest traced).rate in
  let per_req x = x /. float_of_int (max 1 plain.requests) in
  let metrics =
    [
      ("serve.run_us", us tr.run_ns, "us");
      ("client.io_us", us tr.io_ns, "us");
    ]
    @ List.filter (fun (name, _, _) -> String.starts_with ~prefix:"vm." name) counted
    @ [
        ("vm.guest_mips", float_of_int instr /. plain.wall_s /. 1e6, "MIPS");
        ("vm.interp_mips", interp_mips (), "MIPS");
      ]
    @ List.filter (fun (name, _, _) -> String.starts_with ~prefix:"mon." name) counted
    @ rdv_rows
    @ [ ("rdv.tail.us_per_req", us tr.tail_ns, "us") ]
    @ List.filter (fun (name, _, _) -> String.starts_with ~prefix:"kernel." name) counted
    @ [ ("kernel.file_read_us", file_read_us w, "us") ]
    @ List.filter (fun (name, _, _) -> String.starts_with ~prefix:"sup." name) counted
    @ [
        ("sup.image_snapshot_us", image_us, "us");
        ("sup.kernel_snapshot_us", kernel_us, "us");
        ("sup.restore_us", restore_us, "us");
        ("sup.rollback_ms_p50", median plain.attack_ms, "ms");
        ("gc.minor_words_per_req", per_req (gc1.Gc.minor_words -. gc0.Gc.minor_words), "words");
        ("gc.major_words_per_req", per_req (gc1.Gc.major_words -. gc0.Gc.major_words), "words");
        ( "gc.major_collections_per_kreq",
          1000. *. per_req (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)),
          "count" );
        ("setup.compile_s", compile_s, "s");
        ("setup.transform_s", transform_s, "s");
        ("setup.vfs_s", vfs_s, "s");
        ("setup.start_s", start_s, "s");
        ("trace.overhead_frac", (traced_rate /. plain_rate) -. 1., "ratio");
        ("trace.coverage_frac", coverage, "ratio");
      ]
  in
  Printf.printf
    "samples: %d counted requests; untraced %d requests in %.2f s; traced %d requests in %.2f s\n"
    (count_windows * window r.stream) plain.requests plain.wall_s traced.requests traced.wall_s;
  Printf.printf "layer table (traced, per request; %.1f us wall):\n" wall_us;
  List.iter
    (fun (name, v) -> Printf.printf "  %-22s %10.2f us  %5.1f%%\n" name v (100. *. v /. wall_us))
    layer_rows;
  Printf.printf "  %-22s %10.2f us  %5.1f%%  (harness between requests)\n" "unaccounted"
    (wall_us -. accounted)
    (100. *. (1. -. coverage));
  let covered = coverage >= 0.95 in
  if not covered then Printf.printf "coverage check FAILED: %.1f%% < 95%%\n" (100. *. coverage);
  (match Nv_vm.Memory.engine (Monitor.loaded (Nsystem.monitor sys) 0).Nv_vm.Image.memory with
  | Nv_vm.Memory.Block -> ()
  | _ -> print_endline "note: block stats read 0 because the default engine is not block");
  print_metrics metrics;
  (r, metrics, covered)

(* ------------------------------------------------------------------ *)
(* Self-test                                                           *)
(* ------------------------------------------------------------------ *)

(* For each workload: two fresh systems on one seed give bit-identical
   exact counts, and a corrupted expected body is counted as failed. *)
let selftest () =
  let ok = ref true in
  let check what cond =
    Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") what;
    if not cond then ok := false
  in
  List.iter
    (fun w ->
      let exact () =
        let sys, _, _ = setup w in
        let r = fresh sys (stream w ~seed:7) in
        let c = count_pass r in
        check (Printf.sprintf "%s: %d requests, none failed" w.name r.attempted) (r.failed = 0);
        List.filter (fun (name, _, _) -> List.mem name exact_names) c
      in
      let first = exact () and second = exact () in
      List.iter2
        (fun (name, a, _) (_, b, _) ->
          check (Printf.sprintf "%s: %s repeats exactly (%.17g)" w.name name a) (a = b))
        first second;
      let sys, _, _ = setup w in
      let corrupt path =
        let req = benign path in
        let b = Bytes.of_string (Option.get req.expected) in
        let i = Bytes.length b - 2 in
        Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
        { req with expected = Some (Bytes.to_string b) }
      in
      let r = fresh sys (stream_of_pool ~seed:7 (Array.map corrupt w.paths)) in
      for _ = 1 to 5 do
        ignore (serve r)
      done;
      check (Printf.sprintf "%s: corrupted expected bodies count as failed" w.name) (r.failed = 5))
    workloads;
  if !ok then print_endline "selftest passed" else (print_endline "selftest FAILED"; exit 1)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of mix_2v, large_4v, recover_2v");
      ("--seed", Arg.Set_int seed, "N workload seed (request paths and attack placement)");
      ("--seconds", Arg.Set_float seconds, "S length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer run (1)");
      ("--selftest", Arg.Set self, " exact-count and corrupted-body checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then selftest ()
  else begin
    let w =
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | Some w -> w
      | None -> fail "unknown workload %S" !workload
    in
    if !seconds <= 0. then fail "--seconds must be positive";
    let r, metrics, measured =
      match !trace with
      | 0 -> end_to_end w ~seed:!seed ~seconds:!seconds
      | 1 -> per_layer w ~seed:!seed ~seconds:!seconds
      | t -> fail "--trace must be 0 or 1, not %d" t
    in
    let correct = r.failed = 0 && measured in
    print_result ~correct r metrics;
    if not correct then exit 1
  end
