module Deploy = Nv_httpd.Deploy

type cell = { unsat : Webbench.result; sat : Webbench.result }

type row = { config : Deploy.config; demand : Measure.sample; cell : cell }

let variants_of config = Nv_core.Variation.count (Deploy.variation config)

let run ?(requests = 40) () =
  let seed = 7 in
  let rec build = function
    | [] -> Ok []
    | config :: rest -> (
      match Deploy.build config with
      | Error _ as e -> e
      | Ok sys -> (
        match Measure.profile ~requests ~seed sys with
        | Error _ as e -> e
        | Ok samples -> (
          (* Drop the first sample: it carries one-time startup work
             (passwd parsing), which Table 3's steady-state load never
             sees. *)
          let steady =
            if Array.length samples > 1 then
              Array.sub samples 1 (Array.length samples - 1)
            else samples
          in
          let variants = variants_of config in
          let cell =
            {
              unsat = Webbench.run ~seed ~variants ~samples:steady Webbench.unsaturated;
              sat = Webbench.run ~seed ~variants ~samples:steady Webbench.saturated;
            }
          in
          let row = { config; demand = Measure.mean_demand steady; cell } in
          match build rest with Ok rows -> Ok (row :: rows) | Error _ as e -> e)))
  in
  build Deploy.all

let render rows =
  let header =
    "" :: List.map (fun r -> Deploy.name r.config) rows
  in
  let metric name f =
    name :: List.map (fun r -> Printf.sprintf "%.0f" (f r)) rows
  in
  let metric1 name f =
    name :: List.map (fun r -> Printf.sprintf "%.2f" (f r)) rows
  in
  let table =
    Nv_util.Tablefmt.render ~header
      ~rows:
        [
          metric "Unsaturated throughput (KB/s)" (fun r -> r.cell.unsat.Webbench.throughput_kb_s);
          metric1 "Unsaturated latency (ms)" (fun r -> r.cell.unsat.Webbench.latency_ms);
          metric "Saturated throughput (KB/s)" (fun r -> r.cell.sat.Webbench.throughput_kb_s);
          metric1 "Saturated latency (ms)" (fun r -> r.cell.sat.Webbench.latency_ms);
        ]
      ()
  in
  let demands =
    Nv_util.Tablefmt.render
      ~header:[ "config"; "instr/req"; "rendezvous/req"; "resp bytes" ]
      ~rows:
        (List.map
           (fun r ->
             [
               Deploy.name r.config;
               string_of_int r.demand.Measure.instructions;
               string_of_int r.demand.Measure.rendezvous;
               string_of_int r.demand.Measure.response_bytes;
             ])
           rows)
      ()
  in
  table ^ "\nMeasured per-request service demands:\n" ^ demands

let paper_values =
  [
    ( "unsaturated throughput (KB/s)",
      [ ("config1", 1010.0); ("config2", 973.0); ("config3", 887.0); ("config4", 877.0) ] );
    ( "unsaturated latency (ms)",
      [ ("config1", 5.81); ("config2", 5.81); ("config3", 6.56); ("config4", 6.65) ] );
    ( "saturated throughput (KB/s)",
      [ ("config1", 5420.0); ("config2", 5372.0); ("config3", 2369.0); ("config4", 2262.0) ] );
    ( "saturated latency (ms)",
      [ ("config1", 16.32); ("config2", 16.24); ("config3", 37.36); ("config4", 38.49) ] );
  ]
