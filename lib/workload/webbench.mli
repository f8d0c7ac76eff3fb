(** The WebBench-style closed-loop load generator over the
    discrete-event simulator (Table 3's measurement harness).

    Each simulated client repeatedly issues a request and waits for the
    full response before issuing the next (closed loop, zero think
    time, like WebBench's client engines). A request's lifecycle:
    half-RTT to the server, FIFO service on the single server CPU for
    its measured demand, transmission of the response through the
    shared NIC, half-RTT back. The paper's two operating points are 1
    client (unsaturated) and 15 clients — 3 machines x 5 engines
    (saturated). *)

type load = {
  clients : int;
  duration_s : float;  (** measurement window in simulated seconds *)
}

val unsaturated : load
(** 1 client, 30 simulated seconds. *)

val saturated : load
(** 15 clients, 30 simulated seconds. *)

type result = {
  requests_completed : int;
  throughput_kb_s : float;  (** response payload KB per second *)
  latency_ms : float;  (** mean request latency *)
  latency_p50_ms : float;
  latency_p99_ms : float;
  cpu_utilization : float;
  rendezvous_total : int;
      (** monitor rendezvous cost of the completed requests (sum of
          each request's measured rendezvous count) *)
}

val pp_result : Format.formatter -> result -> unit

val run :
  ?seed:int ->
  variants:int ->
  samples:Measure.sample array ->
  load ->
  result
(** Simulate the load against a server whose per-request demands are
    drawn (round-robin) from [samples], measured on a [variants]-variant
    deployment, with the {!Cost_model.default} host and network. *)
