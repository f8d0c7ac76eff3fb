module Monitor = Nv_core.Monitor
module Nsystem = Nv_core.Nsystem

type sample = {
  instructions : int;
  rendezvous : int;
  request_bytes : int;
  response_bytes : int;
}

let profile ?(requests = 40) ?(seed = 7) sys =
  let prng = Nv_util.Prng.create ~seed in
  let monitor = Nsystem.monitor sys in
  let samples = ref [] in
  let rec loop i =
    if i >= requests then Ok (Array.of_list (List.rev !samples))
    else begin
      let path = Nv_util.Prng.pick prng Nv_httpd.Site.request_mix in
      let request = Nv_httpd.Http.get path in
      let instr0 = Monitor.instructions_retired monitor in
      let rdv0 = Monitor.rendezvous_count monitor in
      match Nsystem.serve sys request with
      | Nsystem.Served response ->
        samples :=
          {
            instructions = Monitor.instructions_retired monitor - instr0;
            rendezvous = Monitor.rendezvous_count monitor - rdv0;
            request_bytes = String.length request;
            response_bytes = String.length response;
          }
          :: !samples;
        loop (i + 1)
      | Nsystem.Stopped outcome ->
        Error
          (Format.asprintf "system stopped during profiling: %s"
             (match outcome with
             | Monitor.Exited n -> Printf.sprintf "exited %d" n
             | Monitor.Alarm reason -> Nv_core.Alarm.to_string reason
             | Monitor.Blocked_on_accept -> "blocked"
             | Monitor.Out_of_fuel -> "out of fuel"))
    end
  in
  loop 0

let mean_demand samples =
  let n = max 1 (Array.length samples) in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 samples in
  {
    instructions = sum (fun s -> s.instructions) / n;
    rendezvous = sum (fun s -> s.rendezvous) / n;
    request_bytes = sum (fun s -> s.request_bytes) / n;
    response_bytes = sum (fun s -> s.response_bytes) / n;
  }
