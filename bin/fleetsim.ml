(* fleetsim: open-loop fleet serving simulation.

   Builds one of the Table 3 server configurations, measures its real
   per-request demands, then replays them through the simulated load
   balancer (Nv_sim.Fleet) at fleet scale: open-loop arrivals, keep-alive
   connection pools, Supervisor-fed replica health, and a million-entry
   passwd population behind indexed UID lookups. *)

open Cmdliner

let configs = List.map (fun c -> (Nv_httpd.Deploy.name c, c)) Nv_httpd.Deploy.all

let config_arg =
  let doc =
    Printf.sprintf "Server configuration to profile: %s."
      (String.concat ", " (List.map fst configs))
  in
  Arg.(
    value
    & opt (enum configs) Nv_httpd.Deploy.Two_variant_uid
    & info [ "config" ] ~docv:"CONFIG" ~doc)

let replicas_arg =
  Arg.(value & opt int 4 & info [ "replicas" ] ~docv:"N" ~doc:"Replicas behind the balancer.")

let rate_arg =
  Arg.(
    value & opt float 400.0
    & info [ "rate" ] ~docv:"REQ/S" ~doc:"Long-run open-loop arrival rate.")

let arrival_arg =
  Arg.(
    value
    & opt (enum [ ("poisson", `Poisson); ("bursty", `Bursty); ("diurnal", `Diurnal) ]) `Poisson
    & info [ "arrival" ] ~docv:"MODEL"
        ~doc:"Arrival process: $(b,poisson), $(b,bursty) or $(b,diurnal).")

let burst_mean_arg =
  Arg.(
    value & opt float 16.0
    & info [ "burst-mean" ] ~docv:"N" ~doc:"Mean burst size for the bursty model.")

let amplitude_arg =
  Arg.(
    value & opt float 0.6
    & info [ "amplitude" ] ~docv:"A"
        ~doc:"Day/night swing for the diurnal model, in [0,1].")

let duration_arg =
  Arg.(value & opt float 20.0 & info [ "duration" ] ~docv:"S" ~doc:"Simulated horizon in seconds.")

let users_arg =
  Arg.(
    value & opt int 1_000_000
    & info [ "users" ] ~docv:"N"
        ~doc:"Synthetic passwd population authenticated per request via the indexed lookup.")

let guest_users_arg =
  Arg.(
    value & opt int 0
    & info [ "guest-users" ] ~docv:"N"
        ~doc:
          "Extra passwd entries installed in the profiled server's own world (kept \
           small: the guest rescans /etc/passwd at startup).")

let attacks_arg =
  Arg.(
    value & opt int 0
    & info [ "attacks-per-10k" ] ~docv:"N"
        ~doc:"Attack requests per 10000, each raising a divergence alarm at its replica.")

let seed_arg = Arg.(value & opt int 11 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("reference", Nv_vm.Memory.Reference); ("block", Nv_vm.Memory.Block);
           ])
        (Nv_vm.Memory.default_engine ())
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution tier the profiled server runs under: $(b,block) or \
           $(b,reference). The fleet report derives from engine-independent \
           instruction counts, so this only changes profiling wall-clock \
           time. Defaults to $(b,NV_ENGINE), falling back to $(b,block).")

let metrics_arg =
  Arg.(
    value
    & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:"Dump the fleet engine's metrics registry to stderr before exiting.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable the fleet flight recorder and write the session to $(docv) \
           as Chrome trace-event JSON (one process row per replica plus the \
           balancer, timestamped in simulated microseconds), loadable in \
           Perfetto or chrome://tracing.")

let log_level_arg =
  let levels =
    [
      ("quiet", None);
      ("error", Some Logs.Error);
      ("warning", Some Logs.Warning);
      ("info", Some Logs.Info);
      ("debug", Some Logs.Debug);
    ]
  in
  Arg.(
    value
    & opt (enum levels) (Some Logs.Warning)
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Verbosity of the structured log sources (nv.fleet replica health \
           and fail-stops, nv.engine event exceptions, nv.supervisor \
           rollbacks): $(b,quiet), $(b,error), $(b,warning), $(b,info) or \
           $(b,debug). $(b,warning) (the default) reports replica fail-stops; \
           $(b,info) adds recovery detail.")

let run config replicas rate arrival burst_mean amplitude duration users guest_users
    attacks seed engine metrics trace_out log_level =
  (match log_level with
  | None -> ()
  | Some level -> Nv_util.Logsrc.setup ~level ());
  let arrival =
    match arrival with
    | `Poisson -> Nv_sim.Arrivals.Poisson { rate }
    | `Bursty -> Nv_sim.Arrivals.Bursty { rate; burst_mean; intra_gap_s = 0.0005 }
    | `Diurnal ->
      Nv_sim.Arrivals.Diurnal { rate; amplitude; period_s = duration /. 2.0 }
  in
  let built = Nv_httpd.Deploy.build ~engine ~users:guest_users config in
  match built with
  | Error message ->
    Printf.eprintf "fleetsim: %s\n" message;
    exit 2
  | Ok sys -> (
    match Nv_workload.Measure.profile ~requests:12 ~seed sys with
    | Error message ->
      Printf.eprintf "fleetsim: profile failed: %s\n" message;
      exit 2
    | Ok samples ->
      (* Drop the startup-heavy first request for steady-state demands. *)
      let samples = Array.sub samples 1 (Array.length samples - 1) in
      let variants =
        Nv_core.Variation.count (Nv_httpd.Deploy.variation config)
      in
      let spec =
        {
          Nv_workload.Openload.replicas;
          arrival;
          duration_s = duration;
          users;
          attacks_per_10k = attacks;
        }
      in
      let registry = Nv_util.Metrics.create () in
      let entries = Nv_workload.Openload.population ~seed ~users () in
      let trace =
        Option.map
          (fun _ ->
            let session = Nv_util.Trace.create () in
            Nv_util.Trace.set_enabled session true;
            session)
          trace_out
      in
      let result =
        Nv_workload.Openload.run ~seed ~metrics:registry ?trace ~entries ~variants
          ~samples spec
      in
      (match (trace_out, trace) with
      | Some path, Some session ->
        let oc = open_out path in
        output_string oc (Nv_util.Metrics.Json.to_string (Nv_util.Trace.to_chrome session));
        output_char oc '\n';
        close_out oc
      | _ -> ());
      let _vfs, sizes =
        Nv_workload.Openload.passwd_world ~entries
          ~variation:(Nv_httpd.Deploy.variation config)
      in
      let r = result.Nv_workload.Openload.fleet in
      Format.printf "fleet: %d replicas, %s arrivals at %.0f req/s, %.1f s horizon (%s)@."
        replicas r.Nv_sim.Fleet.model rate duration (Nv_httpd.Deploy.name config);
      Format.printf "population: %d passwd entries; unshared variant files:%t@."
        result.Nv_workload.Openload.population (fun ppf ->
          Array.iteri (fun i n -> Format.fprintf ppf " /etc/passwd-%d=%dB" i n) sizes);
      Format.printf "demand: %.3f ms/request mean over %d measured samples@."
        (1000.0 *. result.Nv_workload.Openload.mean_service_s)
        (Array.length samples);
      Format.printf
        "traffic: %d arrivals, %d completed, %d rejected, %d dropped, %d in flight@."
        r.Nv_sim.Fleet.arrivals r.Nv_sim.Fleet.completed r.Nv_sim.Fleet.rejected
        r.Nv_sim.Fleet.dropped r.Nv_sim.Fleet.in_flight;
      Format.printf "latency: p50 %.2f ms, p99 %.2f ms, p999 %.2f ms (mean %.2f ms)@."
        r.Nv_sim.Fleet.latency_p50_ms r.Nv_sim.Fleet.latency_p99_ms
        r.Nv_sim.Fleet.latency_p999_ms r.Nv_sim.Fleet.latency_mean_ms;
      Format.printf "goodput: %.1f req/s, %.1f KB/s@." r.Nv_sim.Fleet.goodput_rps
        (r.Nv_sim.Fleet.goodput_bytes_per_s /. 1024.0);
      Format.printf
        "slo: availability %.5f, error budget used %.2f; %d alarms, %d recoveries, %d \
         fail-stops@."
        r.Nv_sim.Fleet.availability r.Nv_sim.Fleet.error_budget_used
        r.Nv_sim.Fleet.alarms r.Nv_sim.Fleet.recoveries r.Nv_sim.Fleet.failstops;
      Format.printf "pool: %d hits, %d misses; uid lookups: %d at %.1f comparisons each@."
        r.Nv_sim.Fleet.pool_hits r.Nv_sim.Fleet.pool_misses
        result.Nv_workload.Openload.lookups
        result.Nv_workload.Openload.comparisons_per_lookup;
      (match metrics with
      | None -> ()
      | Some format -> Nv_util.Metrics.dump ~format registry stderr);
      exit 0)

let cmd =
  let doc = "simulate a fleet of N-variant replicas under open-loop load" in
  Cmd.v
    (Cmd.info "fleetsim" ~doc)
    Term.(
      const run $ config_arg $ replicas_arg $ rate_arg $ arrival_arg $ burst_mean_arg
      $ amplitude_arg $ duration_arg $ users_arg $ guest_users_arg $ attacks_arg
      $ seed_arg $ engine_arg $ metrics_arg $ trace_out_arg
      $ log_level_arg)

let () = exit (Cmd.eval cmd)
