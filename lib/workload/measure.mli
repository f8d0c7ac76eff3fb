(** Per-request service-demand measurement.

    Drives real requests through a built system (guest code executing
    under the monitor) and records, for each request, the instructions
    retired across all variants, the syscall rendezvous count, and the
    request/response byte counts. These measured demands — not
    synthetic estimates — feed the Table 3 queueing simulation. *)

type sample = {
  instructions : int;  (** summed over variants *)
  rendezvous : int;
  request_bytes : int;
  response_bytes : int;
}

val profile :
  ?requests:int ->
  ?seed:int ->
  Nv_core.Nsystem.t ->
  (sample array, string) result
(** [profile sys] serves [requests] (default 40) requests drawn
    deterministically from {!Nv_httpd.Site.request_mix} and returns one
    sample per request. The first sample additionally carries the
    server's startup work (passwd parsing); callers that want
    steady-state numbers can drop it. Fails if the system alarms or
    dies mid-profile. *)

val mean_demand : sample array -> sample
(** Arithmetic mean of each field (rounded). *)
