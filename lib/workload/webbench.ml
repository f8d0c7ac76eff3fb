module Engine = Nv_sim.Engine
module Resource = Nv_sim.Resource
module Metrics = Nv_util.Metrics

type load = { clients : int; duration_s : float }

let unsaturated = { clients = 1; duration_s = 30.0 }

let saturated = { clients = 15; duration_s = 30.0 }

type result = {
  requests_completed : int;
  throughput_kb_s : float;
  latency_ms : float;
  latency_p50_ms : float;
  latency_p99_ms : float;
  cpu_utilization : float;
  rendezvous_total : int;
}

let pp_result ppf r =
  Format.fprintf ppf
    "%d reqs, %.0f KB/s, %.2f ms mean (%.2f ms p50, %.2f ms p99), cpu %.0f%%, %d rendezvous"
    r.requests_completed r.throughput_kb_s r.latency_ms r.latency_p50_ms r.latency_p99_ms
    (100.0 *. r.cpu_utilization) r.rendezvous_total

let run ?(seed = 11) ~variants ~samples load =
  let cost = Cost_model.default in
  if Array.length samples = 0 then invalid_arg "Webbench.run: no samples";
  if load.clients < 1 then invalid_arg "Webbench.run: need at least one client";
  let engine = Engine.create () in
  let cpu = Resource.create engine ~name:"cpu" ~capacity:1 in
  let nic = Resource.create engine ~name:"nic" ~capacity:1 in
  let prng = Nv_util.Prng.create ~seed in
  (* Single accounting path for request latencies: the metrics timer's
     histogram is both the exported metric and the source of the
     mean/p50/p99 summary below (the old side list double-tracked the
     same durations and could drift from the exported numbers). *)
  let latency_timer =
    Metrics.timer
      (Metrics.scope (Engine.metrics engine) "workload")
      "request_latency_s"
      ~clock:(fun () -> Engine.now engine)
  in
  let bytes_out = ref 0 in
  let rendezvous_total = ref 0 in
  (* The single horizon predicate: an instant is in the measurement
     window iff it is strictly before the horizon. Used both for
     issuing new requests and for counting completions, so the two
     can never disagree. ([Engine.run ~until] additionally guarantees
     no event fires after the horizon.) *)
  let in_window time = time < load.duration_s in
  let next_sample =
    let cursor = ref (Nv_util.Prng.int prng (Array.length samples)) in
    fun () ->
      let s = samples.(!cursor mod Array.length samples) in
      incr cursor;
      s
  in
  let rec client_loop () =
    if in_window (Engine.now engine) then begin
      let sample = next_sample () in
      let stop_timer = Metrics.start latency_timer in
      (* Request travels to the server. *)
      Engine.schedule_after engine ~delay:(cost.Cost_model.rtt_s /. 2.0) (fun () ->
          let demand =
            Cost_model.cpu_seconds cost ~instructions:sample.Measure.instructions
              ~rendezvous:sample.Measure.rendezvous ~variants
          in
          Resource.serve cpu ~duration:demand (fun () ->
              let wire =
                Cost_model.wire_seconds cost ~bytes:sample.Measure.response_bytes
              in
              Resource.serve nic ~duration:wire (fun () ->
                  Engine.schedule_after engine ~delay:(cost.Cost_model.rtt_s /. 2.0)
                    (fun () ->
                      if in_window (Engine.now engine) then begin
                        bytes_out := !bytes_out + sample.Measure.response_bytes;
                        rendezvous_total := !rendezvous_total + sample.Measure.rendezvous;
                        stop_timer ()
                      end;
                      client_loop ()))))
    end
  in
  for _ = 1 to load.clients do
    (* Slightly stagger client start-up, as real engines do. *)
    Engine.schedule_after engine
      ~delay:(Nv_util.Prng.float prng 0.002)
      client_loop
  done;
  Engine.run ~until:load.duration_s engine;
  let hist = Metrics.timer_histogram latency_timer in
  let completed = Metrics.histogram_count hist in
  let latency_ms =
    if completed = 0 then 0.0
    else 1000.0 *. Metrics.histogram_sum hist /. float_of_int completed
  in
  let latency_p50_ms = 1000.0 *. Metrics.histogram_percentile hist 50.0 in
  let latency_p99_ms = 1000.0 *. Metrics.histogram_percentile hist 99.0 in
  {
    requests_completed = completed;
    throughput_kb_s = float_of_int !bytes_out /. 1024.0 /. load.duration_s;
    latency_ms;
    latency_p50_ms;
    latency_p99_ms;
    cpu_utilization = Resource.utilization cpu;
    rendezvous_total = !rendezvous_total;
  }
