(* Fleet tier: open-loop arrivals, load-balanced N-variant replicas,
   health-check drain / re-add, and the end-to-end Openload driver. *)

module Arrivals = Nv_sim.Arrivals
module Fleet = Nv_sim.Fleet
module Prng = Nv_util.Prng
module Deploy = Nv_httpd.Deploy
module Measure = Nv_workload.Measure
module Openload = Nv_workload.Openload
module Memory = Nv_vm.Memory

let models =
  [
    Arrivals.Poisson { rate = 250.0 };
    Arrivals.Bursty { rate = 250.0; burst_mean = 8.0; intra_gap_s = 0.0004 };
    Arrivals.Diurnal { rate = 250.0; amplitude = 0.5; period_s = 10.0 };
  ]

let times ~seed ~n model =
  let gen = Arrivals.create ~seed model in
  let rec go now acc k =
    if k = 0 then List.rev acc
    else
      let next = Arrivals.next gen ~now in
      go next (next :: acc) (k - 1)
  in
  go 0.0 [] n

(* ------------------------------------------------------------------ *)
(* Arrival generators                                                  *)
(* ------------------------------------------------------------------ *)

let test_arrivals_deterministic () =
  List.iter
    (fun model ->
      let a = times ~seed:42 ~n:500 model in
      let b = times ~seed:42 ~n:500 model in
      Alcotest.(check (list (float 0.0)))
        (Arrivals.model_name model ^ " same seed, same arrivals")
        a b;
      let c = times ~seed:43 ~n:500 model in
      Alcotest.(check bool)
        (Arrivals.model_name model ^ " different seed differs")
        true (a <> c))
    models

let test_arrivals_monotone () =
  List.iter
    (fun model ->
      let ts = times ~seed:7 ~n:2000 model in
      let ok =
        fst
          (List.fold_left
             (fun (ok, prev) t -> (ok && t > prev, t))
             (true, -1.0) ts)
      in
      Alcotest.(check bool)
        (Arrivals.model_name model ^ " strictly increasing")
        true ok)
    models

let test_arrivals_rate () =
  (* Long-run throughput of every model should track the configured
     rate: 5000 arrivals at 250 req/s should span ~20 s. *)
  List.iter
    (fun model ->
      let ts = times ~seed:11 ~n:5000 model in
      let span = List.nth ts 4999 in
      let rate = 5000.0 /. span in
      let name = Arrivals.model_name model in
      if rate < 200.0 || rate > 312.0 then
        Alcotest.failf "%s long-run rate %.1f req/s not near 250" name rate)
    models

(* ------------------------------------------------------------------ *)
(* Fleet balancer                                                      *)
(* ------------------------------------------------------------------ *)

let steady_stream ?(attack_at = max_int) ~seed () =
  let prng = Prng.create ~seed in
  let n = ref 0 in
  fun () ->
    incr n;
    {
      Fleet.service_s = 0.002 +. Prng.float prng 0.002;
      response_bytes = 200 + Prng.int prng 800;
      attack = !n = attack_at;
    }

let small_config =
  {
    Fleet.default with
    Fleet.replicas = 3;
    cores = 2;
    arrival = Arrivals.Poisson { rate = 500.0 };
    duration_s = 4.0;
    seed = 5;
  }

let test_conservation () =
  let report = Fleet.run small_config ~next_request:(steady_stream ~seed:5 ()) in
  Alcotest.(check int)
    "arrivals = completed + rejected + dropped + in_flight"
    report.Fleet.arrivals
    (report.Fleet.completed + report.Fleet.rejected + report.Fleet.dropped
   + report.Fleet.in_flight);
  Alcotest.(check bool) "served something" true (report.Fleet.completed > 1000);
  Alcotest.(check bool)
    "availability within [0,1]" true
    (report.Fleet.availability >= 0.0 && report.Fleet.availability <= 1.0);
  Array.iteri
    (fun i u ->
      if u < 0.0 || u > 1.0 +. 1e-9 then
        Alcotest.failf "replica %d utilization %f outside [0,1]" i u)
    report.Fleet.replica_utilization

let test_same_seed_same_report () =
  let a = Fleet.run small_config ~next_request:(steady_stream ~seed:5 ()) in
  let b = Fleet.run small_config ~next_request:(steady_stream ~seed:5 ()) in
  Alcotest.(check bool) "bit-identical reports" true (a = b)

let test_recovery_then_up () =
  (* Within the recovery budget an alarm drains the replica and brings
     it back after the pause: recovering -> up, no fail-stop. *)
  let config = { small_config with Fleet.duration_s = 2.0 } in
  let report =
    Fleet.run config ~next_request:(steady_stream ~attack_at:40 ~seed:5 ())
  in
  Alcotest.(check int) "one alarm" 1 report.Fleet.alarms;
  Alcotest.(check int) "one recovery" 1 report.Fleet.recoveries;
  Alcotest.(check int) "no fail-stop" 0 report.Fleet.failstops;
  match report.Fleet.transitions with
  | (t1, r1, "recovering") :: (t2, r2, "up") :: [] ->
    Alcotest.(check int) "same replica" r1 r2;
    Alcotest.(check bool) "pause elapsed" true
      (t2 -. t1 >= config.Fleet.recovery_pause_s -. 1e-9)
  | ts ->
    Alcotest.failf "unexpected transitions: %s"
      (String.concat "; "
         (List.map (fun (t, r, s) -> Printf.sprintf "%.3f r%d %s" t r s) ts))

let test_failstop_drain_and_readd () =
  (* With a zero recovery budget the first alarm fail-stops the replica:
     the balancer drains it, restarts it, walks it through probation
     probes, and only then re-admits it. Meanwhile the other replicas
     keep serving. *)
  let config =
    {
      small_config with
      Fleet.duration_s = 3.0;
      max_recoveries = 0;
      restart_s = 0.5;
      probe_interval_s = 0.05;
      probe_successes = 3;
    }
  in
  let report =
    Fleet.run config ~next_request:(steady_stream ~attack_at:40 ~seed:5 ())
  in
  Alcotest.(check int) "one alarm" 1 report.Fleet.alarms;
  Alcotest.(check int) "one fail-stop" 1 report.Fleet.failstops;
  Alcotest.(check int) "no soft recovery" 0 report.Fleet.recoveries;
  Alcotest.(check int) "probation probes ran" 3 report.Fleet.probes;
  Alcotest.(check bool) "alarm dropped live connections" true
    (report.Fleet.dropped >= 1);
  (match report.Fleet.transitions with
  | (t_down, r1, "down") :: (t_prob, r2, "probation") :: (t_up, r3, "up") :: []
    ->
    Alcotest.(check int) "same replica down->probation" r1 r2;
    Alcotest.(check int) "same replica probation->up" r2 r3;
    Alcotest.(check bool) "restart delay elapsed" true
      (t_prob -. t_down >= config.Fleet.restart_s -. 1e-9);
    Alcotest.(check bool) "probe phase elapsed" true
      (t_up -. t_prob
      >= (float_of_int config.Fleet.probe_successes
         *. config.Fleet.probe_interval_s)
         -. 1e-9);
    (* The drained replica took no traffic while down; the fleet did. *)
    let served_elsewhere =
      Array.to_list report.Fleet.replica_completed
      |> List.filteri (fun i _ -> i <> r1)
      |> List.fold_left ( + ) 0
    in
    Alcotest.(check bool) "other replicas served during the outage" true
      (served_elsewhere > 100);
    Alcotest.(check bool) "re-added replica served again" true
      (report.Fleet.replica_completed.(r1) > 0)
  | ts ->
    Alcotest.failf "unexpected transitions: %s"
      (String.concat "; "
         (List.map (fun (t, r, s) -> Printf.sprintf "%.3f r%d %s" t r s) ts)));
  Alcotest.(check int)
    "conservation holds across the outage" report.Fleet.arrivals
    (report.Fleet.completed + report.Fleet.rejected + report.Fleet.dropped
   + report.Fleet.in_flight)

let test_rejects_bad_config () =
  let bad = { small_config with Fleet.replicas = 0 } in
  Alcotest.check_raises "zero replicas rejected"
    (Invalid_argument "Fleet: replicas must be >= 1") (fun () ->
      ignore (Fleet.run bad ~next_request:(steady_stream ~seed:1 ())))

(* ------------------------------------------------------------------ *)
(* Diversified passwd worlds                                           *)
(* ------------------------------------------------------------------ *)

let test_passwd_world_follows_variation () =
  (* Regression: passwd_world used to encode every copy with the
     hardcoded default key family, so a seeded or rotated deployment
     got unshared files its own variants could not decode. The copies
     must come from the deployed variation's per-variant specs. *)
  let entries = Openload.population ~seed:5 ~users:20 () in
  let contents variation i =
    let vfs, _ = Openload.passwd_world ~entries ~variation in
    match Nv_os.Vfs.contents vfs ~path:(Printf.sprintf "/etc/passwd-%d" i) with
    | Ok s -> s
    | Error _ -> Alcotest.failf "missing /etc/passwd-%d" i
  in
  let default = Deploy.variation Deploy.Two_variant_uid in
  let seeded = Deploy.variation Deploy.Seeded_three in
  let _, sizes = Openload.passwd_world ~entries ~variation:seeded in
  Alcotest.(check int) "one copy per variant" 3 (Array.length sizes);
  Alcotest.(check string) "variant 0 is the identity in both deployments"
    (contents default 0) (contents seeded 0);
  Alcotest.(check bool) "variant 1 follows the deployed key, not the default" true
    (contents default 1 <> contents seeded 1);
  Alcotest.(check bool) "seeded variants pairwise distinct" true
    (contents seeded 1 <> contents seeded 2)

(* ------------------------------------------------------------------ *)
(* Openload end-to-end                                                 *)
(* ------------------------------------------------------------------ *)

let openload_spec =
  {
    Openload.replicas = 3;
    arrival = Arrivals.Poisson { rate = 200.0 };
    duration_s = 2.0;
    users = 4_000;
    attacks_per_10k = 5;
  }

let run_openload ?engine () =
  match Deploy.build ?engine Deploy.Two_variant_uid with
  | Error e -> Alcotest.failf "deploy failed: %s" e
  | Ok sys -> (
    match Measure.profile ~requests:4 ~seed:9 sys with
    | Error e -> Alcotest.failf "profile failed: %s" e
    | Ok samples ->
      let samples = Array.sub samples 1 (Array.length samples - 1) in
      Openload.run ~seed:9 ~variants:2 ~samples openload_spec)

let test_openload_engines_identical () =
  (* The fleet SLO report must be bit-identical whichever engine the
     profiled replica ran on. *)
  let reference = run_openload ~engine:Memory.Reference () in
  let block = run_openload ~engine:Memory.Block () in
  Alcotest.(check bool) "identical results" true (reference = block);
  Alcotest.(check int)
    "one lookup per arrival" block.Openload.fleet.Fleet.arrivals
    block.Openload.lookups

let test_openload_sublinear_lookups () =
  let result = run_openload () in
  let n = float_of_int result.Openload.population in
  let bound = (2.0 *. (log n /. log 2.0)) +. 4.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f comparisons/lookup within 2 log2 n + 4 = %.1f"
       result.Openload.comparisons_per_lookup bound)
    true
    (result.Openload.comparisons_per_lookup <= bound);
  Alcotest.(check bool) "population = samples + users" true
    (result.Openload.population > openload_spec.Openload.users)

let () =
  Alcotest.run "fleet"
    [
      ( "arrivals",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_arrivals_deterministic;
          Alcotest.test_case "strictly increasing" `Quick test_arrivals_monotone;
          Alcotest.test_case "long-run rate" `Quick test_arrivals_rate;
        ] );
      ( "balancer",
        [
          Alcotest.test_case "request conservation" `Quick test_conservation;
          Alcotest.test_case "same seed, same report" `Quick
            test_same_seed_same_report;
          Alcotest.test_case "alarm within budget recovers" `Quick
            test_recovery_then_up;
          Alcotest.test_case "fail-stop drains and re-adds" `Quick
            test_failstop_drain_and_readd;
          Alcotest.test_case "rejects bad config" `Quick test_rejects_bad_config;
        ] );
      ( "openload",
        [
          Alcotest.test_case "passwd world follows variation" `Quick
            test_passwd_world_follows_variation;
          Alcotest.test_case "seq and par runs identical" `Quick
            test_openload_engines_identical;
          Alcotest.test_case "indexed lookups stay sublinear" `Quick
            test_openload_sublinear_lookups;
        ] );
    ]
