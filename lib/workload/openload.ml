module Fleet = Nv_sim.Fleet
module Passwd = Nv_os.Passwd
module Reexpression = Nv_core.Reexpression
module Prng = Nv_util.Prng

type spec = {
  replicas : int;
  arrival : Nv_sim.Arrivals.model;
  duration_s : float;
  users : int;
  attacks_per_10k : int;
}

type result = {
  fleet : Fleet.report;
  population : int;
  lookups : int;
  comparisons : int;
  comparisons_per_lookup : float;
  mean_service_s : float;
}

type population = {
  entries : Passwd.entry list;
  index : Passwd.index;
  uids : Nv_os.Cred.uid array;
}

let population ?seed ~users () =
  let entries = Passwd.sample @ Passwd.generate ?seed users in
  {
    entries;
    index = Passwd.index entries;
    uids = Array.of_list (List.map (fun e -> e.Passwd.uid) entries);
  }

let entries p = p.entries

let passwd_world ~entries ~variation =
  (* The deployed variation's own per-variant spec, not a hardcoded
     default family: under seeded or rotation configs the two
     encodings disagree on every uid. *)
  Array.map
    (fun spec ->
      Passwd.reexpressed_length ~f:spec.Nv_core.Variation.uid.Reexpression.encode entries)
    variation.Nv_core.Variation.variants

(* Charge the indexed uid lookup to the request at a nominal cost per
   key comparison — microscopic next to the monitor rendezvous cost,
   which is the point: with the linear scan it would be ~n/2 of these
   per request. *)
let comparison_cost_s = 2.0e-8

let run ?(seed = 11) ?metrics ?trace ?population:prebuilt ~variants ~samples spec =
  if Array.length samples = 0 then invalid_arg "Openload.run: no samples";
  let pop =
    match prebuilt with Some p -> p | None -> population ~seed ~users:spec.users ()
  in
  let idx = pop.index in
  (* The index may be shared with earlier runs: count this run's
     comparisons from where they stood. *)
  let comparisons0 = Passwd.comparisons idx in
  let prng = Prng.create ~seed in
  let cursor = ref (Prng.int prng (Array.length samples)) in
  let lookups = ref 0 in
  let service_sum = ref 0.0 in
  let next_request () =
    let sample = samples.(!cursor mod Array.length samples) in
    incr cursor;
    let uid = Prng.pick prng pop.uids in
    let before = Passwd.comparisons idx in
    (match Passwd.find_uid idx uid with
    | Some _ -> ()
    | None -> invalid_arg "Openload.run: generated uid missing from index");
    let spent = Passwd.comparisons idx - before in
    incr lookups;
    let service_s =
      Cost_model.cpu_seconds Cost_model.default ~instructions:sample.Measure.instructions
        ~rendezvous:sample.Measure.rendezvous ~variants
      +. (float_of_int spent *. comparison_cost_s)
    in
    service_sum := !service_sum +. service_s;
    {
      Fleet.service_s;
      response_bytes = sample.Measure.response_bytes;
      attack = Prng.int prng 10_000 < spec.attacks_per_10k;
    }
  in
  let config =
    {
      Fleet.default with
      Fleet.replicas = spec.replicas;
      arrival = spec.arrival;
      duration_s = spec.duration_s;
      seed;
    }
  in
  let report = Fleet.run ?metrics ?trace config ~next_request in
  let comparisons = Passwd.comparisons idx - comparisons0 in
  {
    fleet = report;
    population = Array.length pop.uids;
    lookups = !lookups;
    comparisons;
    comparisons_per_lookup =
      (if !lookups = 0 then 0.0 else float_of_int comparisons /. float_of_int !lookups);
    mean_service_s =
      (if !lookups = 0 then 0.0 else !service_sum /. float_of_int !lookups);
  }
