(** The Table 3 experiment: throughput and latency of the four
    deployment configurations under unsaturated and saturated load. *)

type cell = { unsat : Webbench.result; sat : Webbench.result }

type row = {
  config : Nv_httpd.Deploy.config;
  demand : Measure.sample;  (** mean measured per-request demand *)
  cell : cell;
}

val run : ?requests:int -> unit -> (row list, string) result
(** Build each configuration, measure [requests] real requests through
    it, then simulate both load points under {!Cost_model.default}, all
    on one fixed seed. *)

val render : row list -> string
(** The paper-style table (configurations as columns, throughput and
    latency rows for each load level), followed by a demand summary. *)

val paper_values : (string * (string * float) list) list
(** The published Table 3 numbers, for EXPERIMENTS.md comparisons:
    [(metric, [(config, value); ...])]. *)
