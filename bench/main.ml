(* The benchmark / experiment harness.

   Every table and figure of the paper's evaluation has (a) a report
   generator that regenerates the artifact from this reproduction, and
   (b) a Bechamel micro-benchmark measuring its harness kernel.

     dune exec bench/main.exe              all reports (Tables 1-3,
                                           Figures 1-2, X1-X3)
     dune exec bench/main.exe -- table3    one report
     dune exec bench/main.exe -- micro     Bechamel measurements *)

module Word = Nv_vm.Word
module Variation = Nv_core.Variation
module Reexpression = Nv_core.Reexpression
module Monitor = Nv_core.Monitor
module Nsystem = Nv_core.Nsystem
module Deploy = Nv_httpd.Deploy
module Ut = Nv_transform.Uid_transform

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

module Json = Nv_util.Metrics.Json

(* BENCH_results.json is shared by the deterministic [bench] and
   [matrix] reports and the wall-clock [hostperf] report: each updates
   its own top-level keys and preserves the others', so one file
   carries the pinned counters, the detection-coverage table and the
   perf trajectory. *)
let read_json_obj path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.of_string s with Ok (Json.Obj fields) -> fields | Ok _ | Error _ -> []
  end
  else []

let update_json_obj path updates =
  let keep =
    List.filter (fun (k, _) -> not (List.mem_assoc k updates)) (read_json_obj path)
  in
  let oc = open_out path in
  output_string oc (Json.to_string (Json.Obj (keep @ updates)));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Table 1: reexpression functions and their properties                *)
(* ------------------------------------------------------------------ *)

let report_table1 () =
  section "Table 1: Reexpression Functions";
  Nv_util.Tablefmt.print
    ~align:[| Nv_util.Tablefmt.Left; Nv_util.Tablefmt.Left; Nv_util.Tablefmt.Left;
              Nv_util.Tablefmt.Left |]
    ~header:[ "Variation"; "Target Type"; "Reexpression"; "Inverse" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.Reexpression.variation;
             r.Reexpression.target_type;
             r.Reexpression.r0 ^ " ; " ^ r.Reexpression.r1;
             r.Reexpression.r0_inv ^ " ; " ^ r.Reexpression.r1_inv;
           ])
         Reexpression.table1)
    ();
  (* Verify the UID row's two obligations at many points. *)
  let prng = Nv_util.Prng.create ~seed:2008 in
  let r0 = Reexpression.uid_for_variant 0 in
  let r1 = Reexpression.uid_for_variant 1 in
  let trials = 100_000 in
  let inverse_ok = ref 0 and disjoint_ok = ref 0 in
  for _ = 1 to trials do
    let x = Word.mask (Int64.to_int (Nv_util.Prng.bits64 prng)) in
    if Reexpression.inverse_holds r0 x && Reexpression.inverse_holds r1 x then
      incr inverse_ok;
    if Reexpression.disjoint_at r0 r1 x then incr disjoint_ok
  done;
  Printf.printf
    "UID variation properties over %d random words: inverse %d/%d, disjointness %d/%d\n"
    trials !inverse_ok trials !disjoint_ok trials;
  let stored0 = r0.Reexpression.encode 33 lxor 0x80000000 in
  let stored1 = r1.Reexpression.encode 33 lxor 0x80000000 in
  Printf.printf
    "known weakness: flipping only bit 31 of both stored values decodes to 0x%08X in \
     both variants (undetectable)\n"
    (r0.Reexpression.decode stored0);
  assert (r0.Reexpression.decode stored0 = r1.Reexpression.decode stored1);
  (* The portfolio: every shipped variation passes the machine-checked
     witnesses — inverse + declared form per variant, all-pairs
     disjointness across variants. *)
  print_newline ();
  Printf.printf "portfolio witnesses (selfcheck per variant, all-pairs disjointness):\n";
  List.iter
    (fun (name, v) ->
      let specs =
        Array.map (fun s -> s.Variation.uid) v.Variation.variants
      in
      Array.iter
        (fun spec ->
          match Reexpression.selfcheck spec with
          | Ok () -> ()
          | Error x -> failwith (Printf.sprintf "%s: selfcheck failed at 0x%08X" name x))
        specs;
      (match Reexpression.all_pairs_disjoint specs with
      | Ok () -> ()
      | Error (i, j, _) ->
        failwith (Printf.sprintf "%s: variants %d/%d not disjoint" name i j));
      Printf.printf "  %-22s %d variants: inverse OK, all pairs PROVEN disjoint\n" name
        (Variation.count v))
    Variation.portfolio;
  (* And the regression the per-variant keys fix: the pre-fix shared
     key loses disjointness for the (1, 2) pair. *)
  (match
     Reexpression.all_pairs_disjoint
       (Array.map (fun s -> s.Variation.uid) (Variation.shared_key 3).Variation.variants)
   with
  | Error (1, 2, Some x) ->
    Printf.printf
      "  %-22s REFUTED: pre-fix shared key collides on pair (1,2) at 0x%08X\n"
      "uid-shared-key-3" x
  | _ -> failwith "shared_key 3 unexpectedly passed the disjointness witness")

(* ------------------------------------------------------------------ *)
(* Table 2: detection system calls                                     *)
(* ------------------------------------------------------------------ *)

let table2_demo_source =
  {|int main(void) {
      uid_t me = getuid();
      uid_t checked = uid_value(me);
      int same_path = cond_chk(1);
      if (cc_eq(me, checked) == 0) { return 1; }
      if (cc_neq(me, checked) == 1) { return 2; }
      if (cc_lt(me, checked) == 1) { return 3; }
      if (cc_leq(me, checked) == 0) { return 4; }
      if (cc_gt(me, checked) == 1) { return 5; }
      if (cc_geq(me, checked) == 0) { return 6; }
      if (same_path == 0) { return 7; }
      return 0;
    }|}

let run_table2_demo () =
  let sys =
    Nsystem.of_one_image ~variation:Variation.uid_diversity
      (Nv_minic.Codegen.compile_source table2_demo_source)
  in
  let events = ref [] in
  Monitor.set_tracer (Nsystem.monitor sys) (fun e ->
      if Nv_os.Syscall.is_detection_call e.Monitor.ev_syscall then
        events := (Nv_os.Syscall.name e.Monitor.ev_syscall, e.Monitor.ev_note) :: !events);
  let outcome = Nsystem.run sys in
  (outcome, List.rev !events)

let report_table2 () =
  section "Table 2: Detection System Calls";
  Nv_util.Tablefmt.print
    ~align:[| Nv_util.Tablefmt.Left; Nv_util.Tablefmt.Left |]
    ~header:[ "Function Signature"; "Description" ]
    ~rows:
      [
        [ "uid_t uid_value(uid_t)";
          "Compares parameter value (across variants) and returns passed value." ];
        [ "bool cond_chk(bool)"; "Checks conditional value given between variants is the same." ];
        [ "bool cc_eq(uid_t, uid_t) .. cc_geq"; "Compares parameters and returns the truth value." ];
      ]
    ();
  let outcome, events = run_table2_demo () in
  Printf.printf "live demo under the 2-variant UID variation (exit %s):\n"
    (match outcome with
    | Monitor.Exited n -> string_of_int n
    | Monitor.Alarm r -> "ALARM " ^ Nv_core.Alarm.to_string r
    | _ -> "?");
  List.iter (fun (name, note) -> Printf.printf "  %-10s %s\n" name note) events

(* ------------------------------------------------------------------ *)
(* Table 3: performance                                                *)
(* ------------------------------------------------------------------ *)

let report_table3 () =
  section "Table 3: Performance Results (simulated testbed)";
  match Nv_workload.Table3.run ~requests:40 () with
  | Error e -> Printf.printf "FAILED: %s\n" e
  | Ok rows ->
    print_string (Nv_workload.Table3.render rows);
    print_newline ();
    print_endline "Shape comparison against the published Table 3 (relative to config1 or";
    print_endline "config3, as the paper reports):";
    let cell config f =
      let row = List.find (fun r -> r.Nv_workload.Table3.config = config) rows in
      f row.Nv_workload.Table3.cell
    in
    let ratios label ours paper =
      Printf.printf "  %-42s ours %+6.1f%%  paper %+6.1f%%\n" label (100. *. ours)
        (100. *. paper)
    in
    let sat c = cell c (fun x -> x.Nv_workload.Table3.sat.Nv_workload.Webbench.throughput_kb_s) in
    let unsat c = cell c (fun x -> x.Nv_workload.Table3.unsat.Nv_workload.Webbench.throughput_kb_s) in
    let lat_sat c = cell c (fun x -> x.Nv_workload.Table3.sat.Nv_workload.Webbench.latency_ms) in
    let lat_unsat c = cell c (fun x -> x.Nv_workload.Table3.unsat.Nv_workload.Webbench.latency_ms) in
    let c1 = Deploy.Unmodified_single and c2 = Deploy.Transformed_single in
    let c3 = Deploy.Two_variant_address and c4 = Deploy.Two_variant_uid in
    ratios "config2 vs 1, unsat throughput" ((unsat c2 -. unsat c1) /. unsat c1) (-0.037);
    ratios "config3 vs 1, unsat throughput" ((unsat c3 -. unsat c1) /. unsat c1) (-0.122);
    ratios "config3 vs 1, unsat latency" ((lat_unsat c3 -. lat_unsat c1) /. lat_unsat c1) 0.129;
    ratios "config3 vs 1, sat throughput" ((sat c3 -. sat c1) /. sat c1) (-0.563);
    ratios "config3 vs 1, sat latency" ((lat_sat c3 -. lat_sat c1) /. lat_sat c1) 1.289;
    ratios "config4 vs 3, unsat throughput" ((unsat c4 -. unsat c3) /. unsat c3) (-0.011);
    ratios "config4 vs 3, sat throughput" ((sat c4 -. sat c3) /. sat c3) (-0.045);
    ratios "config4 vs 3, sat latency" ((lat_sat c4 -. lat_sat c3) /. lat_sat c3) 0.030

(* ------------------------------------------------------------------ *)
(* Figure 1: two-variant address partitioning                          *)
(* ------------------------------------------------------------------ *)

let figure1_attack_source =
  Printf.sprintf "int main(void) { int *p = (int*)0x%X; return *p; }"
    (Variation.low_base + 64)

let run_figure1 () =
  let image = Nv_minic.Codegen.compile_source figure1_attack_source in
  let benign =
    Nsystem.run (Nsystem.of_one_image ~variation:Variation.single image)
  in
  let partitioned =
    Nsystem.run (Nsystem.of_one_image ~variation:Variation.address_partition image)
  in
  (benign, partitioned)

let report_figure1 () =
  section "Figure 1: Two-Variant Address Partitioning";
  Printf.printf
    "attack input: dereference of the absolute address 0x%08X (valid in variant 0's \
     partition only)\n"
    (Variation.low_base + 64);
  let benign, partitioned = run_figure1 () in
  (match benign with
  | Monitor.Exited _ ->
    Printf.printf
      "  single process      : proceeds (the injected address is dereferenced) - attack \
       lands\n"
  | _ -> Printf.printf "  single process      : unexpected\n");
  match partitioned with
  | Monitor.Alarm reason ->
    Printf.printf "  2-variant partition : ALARM - %s\n" (Nv_core.Alarm.to_string reason)
  | _ -> Printf.printf "  2-variant partition : unexpected\n"

(* ------------------------------------------------------------------ *)
(* Figure 2: data diversity at the interpreter boundaries              *)
(* ------------------------------------------------------------------ *)

let run_figure2 collect =
  match Deploy.build Deploy.Two_variant_uid with
  | Error e -> failwith e
  | Ok sys ->
    Monitor.set_tracer (Nsystem.monitor sys) collect;
    (match Nsystem.serve sys (Nv_httpd.Http.get "/") with
    | Nsystem.Served _ -> ()
    | Nsystem.Stopped _ -> failwith "figure2: serving failed");
    sys

let report_figure2 () =
  section "Figure 2: N-Variant System with Data Diversity (request trace)";
  print_endline
    "one request through the case-study server under the UID variation;\n\
     every rendezvous shows the canonicalization the monitor performed:";
  let events = ref [] in
  let sys = run_figure2 (fun e -> events := e :: !events) in
  let interesting = [ "open"; "read"; "seteuid"; "geteuid"; "cc_eq"; "write"; "uid_value" ] in
  List.iteri
    (fun i e ->
      let name = Nv_os.Syscall.name e.Monitor.ev_syscall in
      if List.mem name interesting && i < 40 then
        Printf.printf "  [%s] %s\n" name e.Monitor.ev_note)
    (List.rev !events);
  let stats = Monitor.stats (Nsystem.monitor sys) in
  Printf.printf
    "monitor counters: %d rendezvous; %s instructions; %d input bytes replicated; %d \
     output writes checked\n"
    stats.Monitor.st_rendezvous
    (String.concat "+"
       (Array.to_list (Array.map string_of_int stats.Monitor.st_instructions)))
    stats.Monitor.st_input_bytes_replicated stats.Monitor.st_output_writes_checked

(* ------------------------------------------------------------------ *)
(* X1: transformation change counts (the paper's 73 Apache changes)    *)
(* ------------------------------------------------------------------ *)

let report_changes () =
  section "X1: Source Transformation Change Counts (vs. the paper's Apache study)";
  match Deploy.transform_report () with
  | Error e -> Printf.printf "FAILED: %s\n" e
  | Ok r ->
    Nv_util.Tablefmt.print
      ~header:[ "category"; "this server"; "paper (Apache)" ]
      ~rows:
        [
          [ "reexpressed UID constants"; string_of_int r.Ut.constants; "15" ];
          [ "uid_value exposures"; string_of_int r.Ut.uid_value_calls; "16" ];
          [ "comparison exposures (cc_*)"; string_of_int r.Ut.cc_calls; "22" ];
          [ "conditional checks (cond_chk)"; string_of_int r.Ut.cond_chks; "20" ];
          [ "log scrubs"; string_of_int r.Ut.log_scrubs; "1 (manual)" ];
          [ "total"; string_of_int (Ut.total_changes r); "73" ];
        ]
      ();
    print_endline
      "(our server is ~20x smaller than Apache; the point is the same categories\n\
       appear, found fully automatically)"

(* ------------------------------------------------------------------ *)
(* X2: attack matrix                                                   *)
(* ------------------------------------------------------------------ *)

let report_matrix ?(path = "BENCH_results.json") () =
  section "X2: Attack Class x Configuration Detection Matrix";
  let matrix = Nv_attacks.Campaign.run_matrix () in
  print_string (Nv_attacks.Campaign.render_matrix matrix);
  print_endline
    "expected story: UID corruption defeats every deployment except the diversified\n\
     ones; the bit-31 row reproduces the paper's admitted reexpression-key escape\n\
     (closed by the rotation component of composed3/composed4); the guessed-key row\n\
     escalates wherever non-zero variants share one fixed key (config4's published\n\
     key, sharedkey3's pre-fix bug) and is caught by per-variant and per-boot keys;\n\
     the zero-injection row defeats bare rotations (rotonly3) but no composition;\n\
     code injection is stopped by the address partition.";
  let composed_undetected =
    List.filter
      (fun (_, config, _) ->
        List.mem config [ Deploy.Composed_three; Deploy.Composed_four ])
      (Nv_attacks.Campaign.undetected_cells matrix)
  in
  Printf.printf "undetected cells in the composed3/composed4 columns: %d\n"
    (List.length composed_undetected);
  update_json_obj path
    [ ("attack_matrix", Nv_attacks.Campaign.matrix_json matrix) ];
  Printf.printf "attack_matrix written to %s\n" path;
  section "X2b: Same Matrix Under the Recovery Supervisor";
  let recovered =
    Nv_attacks.Campaign.run_matrix ~recover:Nv_core.Supervisor.default_config ()
  in
  print_string (Nv_attacks.Campaign.render_matrix recovered);
  print_endline
    "recovered-vs-halted: every DETECTED cell above should flip to RECOVERED -\n\
     the supervisor rolls back to the last accept-boundary checkpoint, drops the\n\
     attack connection and keeps serving instead of fail-stopping. Faults written\n\
     while the server is parked stay DETECTED: the checkpoint already holds them."

(* ------------------------------------------------------------------ *)
(* X3: ablation - cc_* syscalls vs user-space comparisons              *)
(* ------------------------------------------------------------------ *)

let profile_mode mode =
  match Deploy.build ~mode Deploy.Two_variant_uid with
  | Error e -> Error e
  | Ok sys -> (
    match Nv_workload.Measure.profile ~requests:30 sys with
    | Error e -> Error e
    | Ok samples ->
      let steady = Array.sub samples 1 (Array.length samples - 1) in
      Ok
        ( Nv_workload.Measure.mean_demand steady,
          Nv_workload.Webbench.run ~variants:2 ~samples:steady Nv_workload.Webbench.saturated
        ))

(* How quickly is the null-overflow corruption detected in each mode?
   Measured in syscall rendezvous between the corrupting request's
   arrival and the alarm. *)
let detection_latency mode =
  match Deploy.build ~mode Deploy.Two_variant_uid with
  | Error e -> Error e
  | Ok sys -> (
    match Nsystem.run sys with
    | Monitor.Blocked_on_accept -> (
      let monitor = Nsystem.monitor sys in
      let before = Monitor.rendezvous_count monitor in
      let conn = Nsystem.connect sys in
      Nv_os.Socket.client_send conn
        (Nv_httpd.Http.get ("/" ^ String.make 63 'A'));
      Nv_os.Socket.client_close conn;
      match Nsystem.run sys with
      | Monitor.Alarm reason ->
        Ok (Monitor.rendezvous_count monitor - before, Nv_core.Alarm.short_label reason)
      | _ -> Error "overflow not detected")
    | _ -> Error "server did not start")

let report_ablation () =
  section "X3: Ablation - detection syscalls (cc_*) vs user-space comparisons";
  (match (detection_latency Ut.Cc_calls, detection_latency Ut.User_space) with
  | Ok (n_cc, _), Ok (n_us, _) ->
    Printf.printf
      "detection latency of the UID null-overflow (rendezvous from request to alarm):\n\
      \  cc_* mode: %d    user-space mode: %d\n\n"
      n_cc n_us
  | Error e, _ | _, Error e -> Printf.printf "latency measurement failed: %s\n" e);
  match (profile_mode Ut.Cc_calls, profile_mode Ut.User_space) with
  | Ok (d_cc, r_cc), Ok (d_us, r_us) ->
    Nv_util.Tablefmt.print
      ~header:[ "mode"; "rendezvous/req"; "sat KB/s"; "sat ms" ]
      ~rows:
        [
          [
            "cc_* syscalls (paper design)";
            string_of_int d_cc.Nv_workload.Measure.rendezvous;
            Printf.sprintf "%.0f" r_cc.Nv_workload.Webbench.throughput_kb_s;
            Printf.sprintf "%.2f" r_cc.Nv_workload.Webbench.latency_ms;
          ];
          [
            "user-space (reversed operators)";
            string_of_int d_us.Nv_workload.Measure.rendezvous;
            Printf.sprintf "%.0f" r_us.Nv_workload.Webbench.throughput_kb_s;
            Printf.sprintf "%.2f" r_us.Nv_workload.Webbench.latency_ms;
          ];
        ]
      ();
    print_endline
      "the user-space mode trades a few syscalls per request for coarser detection:\n\
       corrupted comparisons only surface at the next real UID-bearing kernel call\n\
       (Section 5's discussion of detection precision vs. cost)."
  | Error e, _ | _, Error e -> Printf.printf "FAILED: %s\n" e

(* ------------------------------------------------------------------ *)
(* BENCH_results.json: machine-readable per-configuration results      *)
(* ------------------------------------------------------------------ *)

let json_of_webbench (r : Nv_workload.Webbench.result) =
  Json.Obj
    [
      ("requests", Json.Num (float_of_int r.Nv_workload.Webbench.requests_completed));
      ("throughput_kb_s", Json.Num r.Nv_workload.Webbench.throughput_kb_s);
      ("latency_ms", Json.Num r.Nv_workload.Webbench.latency_ms);
      ("latency_p50_ms", Json.Num r.Nv_workload.Webbench.latency_p50_ms);
      ("latency_p99_ms", Json.Num r.Nv_workload.Webbench.latency_p99_ms);
      ("cpu_utilization", Json.Num r.Nv_workload.Webbench.cpu_utilization);
      ("rendezvous", Json.Num (float_of_int r.Nv_workload.Webbench.rendezvous_total));
    ]

let bench_requests = 12

(* ------------------------------------------------------------------ *)
(* fleet: open-loop serving at a million-user population               *)
(* ------------------------------------------------------------------ *)

let fleet_users = 1_000_000

let fleet_seed = 11

let fleet_replicas = 8

let fleet_spec arrival =
  {
    Nv_workload.Openload.replicas = fleet_replicas;
    arrival;
    duration_s = 30.0;
    users = fleet_users;
    attacks_per_10k = 2;
  }

let fleet_arrivals =
  let rate = 2000.0 in
  [
    Nv_sim.Arrivals.Poisson { rate };
    Nv_sim.Arrivals.Bursty { rate; burst_mean = 16.0; intra_gap_s = 0.0005 };
    Nv_sim.Arrivals.Diurnal { rate; amplitude = 0.6; period_s = 15.0 };
  ]

let json_of_fleet (result : Nv_workload.Openload.result) =
  let r = result.Nv_workload.Openload.fleet in
  let num n = Json.Num (float_of_int n) in
  Json.Obj
    [
      ("model", Json.Str r.Nv_sim.Fleet.model);
      ("arrivals", num r.Nv_sim.Fleet.arrivals);
      ("completed", num r.Nv_sim.Fleet.completed);
      ("rejected", num r.Nv_sim.Fleet.rejected);
      ("dropped", num r.Nv_sim.Fleet.dropped);
      ("in_flight", num r.Nv_sim.Fleet.in_flight);
      ("alarms", num r.Nv_sim.Fleet.alarms);
      ("recoveries", num r.Nv_sim.Fleet.recoveries);
      ("failstops", num r.Nv_sim.Fleet.failstops);
      ("pool_hits", num r.Nv_sim.Fleet.pool_hits);
      ("pool_misses", num r.Nv_sim.Fleet.pool_misses);
      ("goodput_rps", Json.Num r.Nv_sim.Fleet.goodput_rps);
      ("goodput_kb_s", Json.Num (r.Nv_sim.Fleet.goodput_bytes_per_s /. 1024.0));
      ("latency_mean_ms", Json.Num r.Nv_sim.Fleet.latency_mean_ms);
      ("latency_p50_ms", Json.Num r.Nv_sim.Fleet.latency_p50_ms);
      ("latency_p99_ms", Json.Num r.Nv_sim.Fleet.latency_p99_ms);
      ("latency_p999_ms", Json.Num r.Nv_sim.Fleet.latency_p999_ms);
      ("availability", Json.Num r.Nv_sim.Fleet.availability);
      ("error_budget_used", Json.Num r.Nv_sim.Fleet.error_budget_used);
      ("uid_lookups", num result.Nv_workload.Openload.lookups);
      ( "comparisons_per_lookup",
        Json.Num result.Nv_workload.Openload.comparisons_per_lookup );
    ]

let report_fleet ?(path = "BENCH_results.json") () =
  section
    (Printf.sprintf "FLEET: open-loop serving, %d N-variant replicas, %d-user population"
       fleet_replicas fleet_users);
  match Deploy.build Deploy.Two_variant_uid with
  | Error e -> Printf.printf "  FAILED (%s)\n" e
  | Ok sys -> (
    match Nv_workload.Measure.profile ~requests:bench_requests ~seed:fleet_seed sys with
    | Error e -> Printf.printf "  profile FAILED (%s)\n" e
    | Ok samples ->
      let samples = Array.sub samples 1 (Array.length samples - 1) in
      let variants = Variation.count (Deploy.variation Deploy.Two_variant_uid) in
      let population =
        Nv_workload.Openload.population ~seed:fleet_seed ~users:fleet_users ()
      in
      let entries = Nv_workload.Openload.entries population in
      let sizes =
        Nv_workload.Openload.passwd_world ~entries
          ~variation:(Deploy.variation Deploy.Two_variant_uid)
      in
      Printf.printf "  unshared variant files:";
      Array.iteri (fun i n -> Printf.printf " /etc/passwd-%d %d B" i n) sizes;
      print_newline ();
      let rows =
        List.map
          (fun arrival ->
            let result =
              Nv_workload.Openload.run ~seed:fleet_seed ~population ~variants ~samples
                (fleet_spec arrival)
            in
            let r = result.Nv_workload.Openload.fleet in
            Printf.printf
              "  %-8s %6d reqs: p50 %.2f ms, p99 %.2f ms, p999 %.2f ms, %.0f req/s, \
               avail %.5f, budget %.2f, %.1f cmp/lookup\n"
              r.Nv_sim.Fleet.model r.Nv_sim.Fleet.arrivals r.Nv_sim.Fleet.latency_p50_ms
              r.Nv_sim.Fleet.latency_p99_ms r.Nv_sim.Fleet.latency_p999_ms
              r.Nv_sim.Fleet.goodput_rps r.Nv_sim.Fleet.availability
              r.Nv_sim.Fleet.error_budget_used
              result.Nv_workload.Openload.comparisons_per_lookup;
            json_of_fleet result)
          fleet_arrivals
      in
      update_json_obj path
        [
          ( "fleet",
            Json.Obj
              [
                ("population", Json.Num (float_of_int (List.length entries)));
                ("replicas", Json.Num (float_of_int fleet_replicas));
                ( "variant_file_bytes",
                  Json.List
                    (Array.to_list (Array.map (fun n -> Json.Num (float_of_int n)) sizes))
                );
                ("rows", Json.List rows);
              ] );
        ];
      Printf.printf "wrote %s (fleet rows)\n" path)

let bench_config config =
  match Deploy.build config with
  | Error e -> Error e
  | Ok sys -> (
    match Nv_workload.Measure.profile ~requests:bench_requests sys with
    | Error e -> Error e
    | Ok samples ->
      (* Monitor/kernel counters accumulated over the profiled requests
         (real guest execution, not the queueing simulation). *)
      let reg = Nsystem.metrics sys in
      let counter name =
        Json.Num
          (float_of_int (Option.value ~default:0 (Nv_util.Metrics.find_counter reg name)))
      in
      let variants = Nv_core.Variation.count (Deploy.variation config) in
      let steady = Array.sub samples 1 (Array.length samples - 1) in
      let demand = Nv_workload.Measure.mean_demand steady in
      let unsat =
        Nv_workload.Webbench.run ~variants ~samples:steady Nv_workload.Webbench.unsaturated
      in
      let sat =
        Nv_workload.Webbench.run ~variants ~samples:steady Nv_workload.Webbench.saturated
      in
      Ok
        ( unsat,
          sat,
          Json.Obj
            [
              ("config", Json.Str (Deploy.name config));
              ("description", Json.Str (Deploy.description config));
              ("variants", Json.Num (float_of_int variants));
              ("requests_profiled", Json.Num (float_of_int bench_requests));
              ( "demand",
                Json.Obj
                  [
                    ( "instructions",
                      Json.Num (float_of_int demand.Nv_workload.Measure.instructions) );
                    ( "rendezvous",
                      Json.Num (float_of_int demand.Nv_workload.Measure.rendezvous) );
                    ( "response_bytes",
                      Json.Num (float_of_int demand.Nv_workload.Measure.response_bytes) );
                  ] );
              ( "monitor",
                Json.Obj
                  [
                    ("rendezvous", counter "monitor.rendezvous");
                    ("checks_performed", counter "monitor.checks.performed");
                    ("checks_failed", counter "monitor.checks.failed");
                    ("kernel_syscalls", counter "kernel.syscalls");
                    ("input_bytes_replicated", counter "monitor.input_bytes_replicated");
                    ("output_writes_checked", counter "monitor.output_writes_checked");
                  ] );
              ("unsaturated", json_of_webbench unsat);
              ("saturated", json_of_webbench sat);
              ("metrics", Nv_util.Metrics.to_json_value reg);
            ] ))

let report_bench ?(path = "BENCH_results.json") () =
  section "BENCH: per-configuration results (JSON)";
  (* The four configurations are independent systems, measured
     concurrently over the host's cores. bench_config is pure in the
     host world (each call builds its own system), so the results are
     the ones a sequential loop would print. *)
  let cells = Nv_util.Par.map_array bench_config (Array.of_list Deploy.all) in
  let configs =
    List.filter_map
      (fun (config, cell) ->
        match cell with
        | Error e ->
          Printf.printf "  %s: FAILED (%s)\n" (Deploy.name config) e;
          None
        | Ok (unsat, sat, json) ->
          Printf.printf "  %s: unsat %s | sat %s\n" (Deploy.name config)
            (Format.asprintf "%a" Nv_workload.Webbench.pp_result unsat)
            (Format.asprintf "%a" Nv_workload.Webbench.pp_result sat);
          Some json)
      (List.combine Deploy.all (Array.to_list cells))
  in
  update_json_obj path
    [
      ("source", Json.Str "nvariant bench harness");
      ("requests_per_config", Json.Num (float_of_int bench_requests));
      ("configurations", Json.List configs);
    ];
  Printf.printf "wrote %s (%d configurations)\n" path (List.length configs);
  (* The acceptance row for fleet-scale serving rides along with bench. *)
  report_fleet ~path ()

(* ------------------------------------------------------------------ *)
(* hostperf: host wall-clock guest-MIPS                                *)
(* ------------------------------------------------------------------ *)

(* Unlike every other report, hostperf measures the *host* cost of
   running the guest: wall-clock guest-MIPS of the two execution
   tiers — the basic-block compiler and the reference engine, which is
   the stepping interpreter the block engine falls back to — on a pure
   interpreter microbench. The served rate of the monitored server is
   perfbench's [vm.guest_mips]. *)

let hostperf_loop_iters = 150_000

(* Each iteration crosses blocks the way the served code does: a
   [call]/[ret] pair, a two-way branch on the running sum's parity
   (odd, odd, even, even; r0 stays 0) and a [jmp]. That is 4.5 blocks
   of 3.2 instructions per iteration, where a one-block loop would
   never leave its block. [bump] stages its addition the way the mini-C
   code generator stages every binary operator (push, load, move, pop,
   add), which the block engine runs as one fused closure. *)
let hostperf_program =
  Printf.sprintf
    {|
      .data
      cell: .word 0
      .text
      la r6, cell
      mov r1, #0
      mov r2, #%d
    loop:
      add r1, r1, #1
      call bump
      and r4, r3, #1
      breq r4, r0, even
      add r5, r5, r3
      jmp next
    even:
      sub r5, r5, r1
    next:
      brlt r1, r2, loop
      halt
    bump:
      mov r3, r1
      push r3
      ld r3, [r6]
      mov r7, r3
      pop r3
      add r3, r3, r7
      st [r6], r3
      ret
    |}
    hostperf_loop_iters

let mips instructions seconds = float_of_int instructions /. max seconds 1e-9 /. 1e6

(* Best of [reps] runs, to shed warm-up and scheduler noise. Also
   returns the block engine's (compiled, hits, invalidations) counters
   from the last run — all zero under the reference engine. *)
let interp_hostperf ~engine ~reps () =
  let image = Nv_vm.Asm.assemble hostperf_program in
  let instructions = ref 0 in
  let best = ref 0. in
  let stats = ref (0, 0, 0) in
  for _ = 1 to reps do
    let loaded = Nv_vm.Image.load image ~base:0x1000 ~size:(1 lsl 20) ~tag:0 in
    let cpu = loaded.Nv_vm.Image.cpu in
    Nv_vm.Memory.set_engine loaded.Nv_vm.Image.memory engine;
    let t0 = Unix.gettimeofday () in
    (match Nv_vm.Cpu.run cpu ~fuel:10_000_000 with
    | Nv_vm.Cpu.Trapped Nv_vm.Cpu.Halt_trap -> ()
    | _ -> failwith "hostperf: interpreter microbench did not halt");
    let dt = Unix.gettimeofday () -. t0 in
    instructions := Nv_vm.Cpu.instructions_retired cpu;
    stats := Nv_vm.Cpu.block_stats cpu;
    best := Float.max !best (mips !instructions dt)
  done;
  (!instructions, !best, !stats)

let report_hostperf ?(path = "BENCH_results.json") () =
  section "HOSTPERF: host wall-clock guest-MIPS (interpreter microbench)";
  let interp_instr, interp_ref, _ =
    interp_hostperf ~engine:Nv_vm.Memory.Reference ~reps:3 ()
  in
  let block_instr, interp_block, (block_compiled, block_hits, block_invalidations) =
    interp_hostperf ~engine:Nv_vm.Memory.Block ~reps:3 ()
  in
  (* Both tiers must retire the identical instruction stream; a drift
     here means the block engine changed observable semantics. *)
  if block_instr <> interp_instr then
    failwith
      (Printf.sprintf
         "hostperf: engines disagree on retired instructions (%d reference, %d block)"
         interp_instr block_instr);
  let interp_speedup = interp_block /. interp_ref in
  Nv_util.Tablefmt.print
    ~header:
      [
        "configuration"; "guest instructions"; "reference MIPS"; "block MIPS";
        "block vs reference";
      ]
    ~rows:
      [
        [
          "interpreter microbench"; string_of_int interp_instr;
          Printf.sprintf "%.2f" interp_ref; Printf.sprintf "%.2f" interp_block;
          Printf.sprintf "%.2fx" interp_speedup;
        ];
      ]
    ();
  Printf.printf
    "block engine vs. its stepping fallback (the reference engine): %.2fx on the \
     microbench (target > 1x); %d blocks compiled, %d cache hits, %d invalidations\n"
    interp_speedup block_compiled block_hits block_invalidations;
  update_json_obj path
    [
      ( "hostperf",
        Json.Obj
          [
            ( "block",
              Json.Obj
                [
                  ("instructions", Json.Num (float_of_int block_instr));
                  ("mips", Json.Num interp_block);
                  ("reference_mips", Json.Num interp_ref);
                  ("speedup_vs_reference", Json.Num interp_speedup);
                  ("compiled_blocks", Json.Num (float_of_int block_compiled));
                  ("block_hits", Json.Num (float_of_int block_hits));
                  ("invalidations", Json.Num (float_of_int block_invalidations));
                ] );
          ] );
    ];
  Printf.printf "updated %s (hostperf)\n" path

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let table3_samples =
    lazy
      (match Deploy.build Deploy.Two_variant_uid with
      | Error e -> failwith e
      | Ok sys -> (
        match Nv_workload.Measure.profile ~requests:10 sys with
        | Error e -> failwith e
        | Ok samples -> samples))
  in
  let figure2_system =
    lazy (match Deploy.build Deploy.Two_variant_uid with Ok s -> s | Error e -> failwith e)
  in
  let httpd_tprog =
    lazy
      (match
         Nv_minic.Typecheck.check (Nv_minic.Parser.parse (Nv_httpd.Httpd_source.source ()))
       with
      | Ok t -> t
      | Error _ -> failwith "typecheck failed")
  in
  [
    Test.make ~name:"table1/reexpression-properties"
      (Staged.stage (fun () ->
           let r0 = Reexpression.uid_for_variant 0 in
           let r1 = Reexpression.uid_for_variant 1 in
           for x = 0 to 4095 do
             assert (Reexpression.inverse_holds r1 x);
             assert (Reexpression.disjoint_at r0 r1 x)
           done));
    Test.make ~name:"table2/detection-syscall-roundtrip"
      (Staged.stage (fun () ->
           match run_table2_demo () with
           | Monitor.Exited 0, _ -> ()
           | _ -> failwith "table2 demo failed"));
    Test.make ~name:"table3/webbench-simulation"
      (Staged.stage (fun () ->
           let samples = Lazy.force table3_samples in
           ignore
             (Nv_workload.Webbench.run ~variants:2 ~samples Nv_workload.Webbench.saturated)));
    Test.make ~name:"figure1/address-partition-detection"
      (Staged.stage (fun () ->
           match run_figure1 () with
           | _, Monitor.Alarm _ -> ()
           | _ -> failwith "figure1 attack not detected"));
    Test.make ~name:"figure2/monitored-request"
      (Staged.stage (fun () ->
           let sys = Lazy.force figure2_system in
           match Nsystem.serve sys (Nv_httpd.Http.get "/") with
           | Nsystem.Served _ -> ()
           | Nsystem.Stopped _ -> failwith "serve failed"));
    Test.make ~name:"x1/httpd-transformation"
      (Staged.stage (fun () ->
           let t = Lazy.force httpd_tprog in
           let instrumented, _ = Ut.instrument t in
           ignore (Ut.reexpress ~f:(Reexpression.uid_for_variant 1) instrumented)));
    Test.make ~name:"x2/uid-overflow-detection"
      (Staged.stage (fun () ->
           let attack = Option.get (Nv_attacks.Campaign.find "uid-null-overflow") in
           match Nv_attacks.Campaign.run_attack attack Deploy.Two_variant_uid with
           | Ok (Nv_attacks.Campaign.Detected _) -> ()
           | _ -> failwith "x2 cell changed"));
    Test.make ~name:"x3/user-space-mode-roundtrip"
      (Staged.stage (fun () ->
           let t = Lazy.force httpd_tprog in
           let instrumented, _ = Ut.instrument ~mode:Ut.User_space t in
           ignore (Ut.reexpress ~mode:Ut.User_space ~f:(Reexpression.uid_for_variant 1) instrumented)));
  ]

let run_micro () =
  section "Bechamel micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let tests = bechamel_tests () in
  let results =
    List.map
      (fun test ->
        let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
        let ols =
          Analyze.all
            (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
            instance raw
        in
        (test, ols))
      tests
  in
  Nv_util.Tablefmt.print
    ~header:[ "experiment harness"; "time per run" ]
    ~rows:
      (List.concat_map
         (fun (_test, ols) ->
           Hashtbl.fold
             (fun name result acc ->
               let estimate =
                 match Analyze.OLS.estimates result with
                 | Some (x :: _) ->
                   if x > 1e9 then Printf.sprintf "%.2f s" (x /. 1e9)
                   else if x > 1e6 then Printf.sprintf "%.2f ms" (x /. 1e6)
                   else if x > 1e3 then Printf.sprintf "%.2f us" (x /. 1e3)
                   else Printf.sprintf "%.0f ns" x
                 | Some [] | None -> "n/a"
               in
               [ name; estimate ] :: acc)
             ols [])
         results)
    ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let reports =
  [
    ("table1", report_table1);
    ("table2", report_table2);
    ("table3", report_table3);
    ("figure1", report_figure1);
    ("figure2", report_figure2);
    ("table-changes", report_changes);
    ("matrix", fun () -> report_matrix ());
    ("ablation", report_ablation);
    ("bench", fun () -> report_bench ());
    ("fleet", fun () -> report_fleet ());
    ("hostperf", fun () -> report_hostperf ());
  ]

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] ->
    List.iter (fun (_, f) -> f ()) reports;
    run_micro ()
  | [ _; "micro" ] -> run_micro ()
  | [ _; "bench"; path ] -> report_bench ~path ()
  | [ _; "fleet"; path ] -> report_fleet ~path ()
  | [ _; "hostperf"; path ] -> report_hostperf ~path ()
  | [ _; "matrix"; path ] -> report_matrix ~path ()
  | [ _; name ] -> (
    match List.assoc_opt name reports with
    | Some f -> f ()
    | None ->
      Printf.eprintf "unknown report %S; available: %s, micro, all\n" name
        (String.concat ", " (List.map fst reports));
      exit 2)
  | _ ->
    prerr_endline
      "usage: main.exe [report|micro|all] | bench [path] | fleet [path] | hostperf \
       [path] | matrix [path]";
    exit 2
