(* Tests for the Nv_util.Metrics registry (counters, gauges,
   histograms, timers, JSON export) and its integration into the
   monitor/kernel observability layer. *)

open Nv_core
module Metrics = Nv_util.Metrics
module Json = Nv_util.Metrics.Json
module Socket = Nv_os.Socket
module Syscall = Nv_os.Syscall

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  let reg = Metrics.create () in
  let s = Metrics.scope reg "a" in
  let c = Metrics.counter s "hits" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 5;
  Alcotest.(check int) "incr and add" 7 (Metrics.counter_value c);
  (* Same name resolves to the same counter. *)
  let c' = Metrics.counter (Metrics.scope reg "a") "hits" in
  Metrics.incr c';
  Alcotest.(check int) "shared by name" 8 (Metrics.counter_value c);
  Alcotest.(check (option int)) "find_counter" (Some 8) (Metrics.find_counter reg "a.hits");
  Alcotest.(check (option int)) "find_counter miss" None (Metrics.find_counter reg "a.misses")

let test_counter_scopes () =
  let reg = Metrics.create () in
  let parent = Metrics.scope reg "kernel" in
  let child = Metrics.sub parent "calls" in
  Metrics.incr (Metrics.counter child "read");
  Metrics.add (Metrics.counter child "write") 3;
  Alcotest.(check (option int)) "nested name" (Some 1)
    (Metrics.find_counter reg "kernel.calls.read");
  Alcotest.(check (list (pair string int)))
    "counters_under strips prefix and sorts"
    [ ("read", 1); ("write", 3) ]
    (Metrics.counters_under reg ~prefix:"kernel.calls.")

let test_kind_clash () =
  let reg = Metrics.create () in
  let s = Metrics.scope reg "x" in
  ignore (Metrics.counter s "m");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Metrics: \"x.m\" is already registered as a counter") (fun () ->
      ignore (Metrics.gauge s "m"))

(* ------------------------------------------------------------------ *)
(* Gauges and histograms                                               *)
(* ------------------------------------------------------------------ *)

let test_gauge () =
  let reg = Metrics.create () in
  let g = Metrics.gauge (Metrics.scope reg "q") "depth" in
  Alcotest.(check (float 0.0)) "zero" 0.0 (Metrics.gauge_value g);
  Metrics.set_gauge g 4.0;
  Metrics.max_gauge g 2.0;
  Alcotest.(check (float 0.0)) "max keeps higher" 4.0 (Metrics.gauge_value g);
  Metrics.max_gauge g 9.0;
  Alcotest.(check (float 0.0)) "max raises" 9.0 (Metrics.gauge_value g)

let test_histogram () =
  let reg = Metrics.create () in
  let h = Metrics.histogram (Metrics.scope reg "lat") "ms" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Metrics.histogram_count h);
  Alcotest.(check (float 0.001)) "sum" 5050.0 (Metrics.histogram_sum h);
  Alcotest.(check (float 2.0)) "p50" 50.0 (Metrics.histogram_percentile h 50.0);
  Alcotest.(check (float 2.0)) "p99" 99.0 (Metrics.histogram_percentile h 99.0);
  let empty = Metrics.histogram (Metrics.scope reg "lat") "empty" in
  Alcotest.(check (float 0.0)) "empty percentile" 0.0
    (Metrics.histogram_percentile empty 50.0)

let test_histogram_reservoir_unbiased () =
  (* Regression: the "reservoir" was a ring buffer, so once full it
     held only the most recent window — 100k increasing observations
     left a p50 near 98k. Algorithm R keeps a uniform sample: the p50
     of 0..99999 must sit near 50000 and p999 near 99900. *)
  let reg = Metrics.create () in
  let h = Metrics.histogram (Metrics.scope reg "lat") "ms" in
  let n = 100_000 in
  for i = 0 to n - 1 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" n (Metrics.histogram_count h);
  let p50 = Metrics.histogram_percentile h 50.0 in
  if p50 < 40_000.0 || p50 > 60_000.0 then
    Alcotest.failf "reservoir p50 %.0f is biased (expected ~50000)" p50;
  let p999 = Metrics.histogram_p999 h in
  if p999 < 90_000.0 || p999 > float_of_int n then
    Alcotest.failf "reservoir p999 %.0f out of range" p999;
  Alcotest.(check (float 0.0)) "p999 accessor matches percentile"
    (Metrics.histogram_percentile h 99.9)
    p999;
  Alcotest.(check bool) "p100 stays within observed range" true
    (Metrics.histogram_percentile h 100.0 <= 99_999.0)

let test_histogram_reservoir_deterministic () =
  (* Same registry names, same observations: the seeded per-histogram
     PRNG must reproduce the same sample (the reproducibility of
     published SLO numbers depends on this). *)
  let build () =
    let reg = Metrics.create () in
    let h = Metrics.histogram (Metrics.scope reg "lat") "ms" in
    for i = 0 to 19_999 do
      Metrics.observe h (float_of_int (i * 7 mod 10_000))
    done;
    List.map (Metrics.histogram_percentile h) [ 50.0; 99.0; 99.9 ]
  in
  Alcotest.(check (list (float 0.0))) "identical percentiles" (build ()) (build ())

let test_timer () =
  let reg = Metrics.create () in
  let clock_now = ref 0.0 in
  let tm =
    Metrics.timer (Metrics.scope reg "t") "elapsed" ~clock:(fun () -> !clock_now)
  in
  let stop = Metrics.start tm in
  clock_now := 2.5;
  stop ();
  let h = Metrics.timer_histogram tm in
  Alcotest.(check int) "one observation" 1 (Metrics.histogram_count h);
  Alcotest.(check (float 0.001)) "elapsed" 2.5 (Metrics.histogram_sum h);
  (* A clock running backwards is clamped, never negative. *)
  let stop = Metrics.start tm in
  clock_now := 1.0;
  stop ();
  Alcotest.(check (float 0.001)) "clamped" 2.5 (Metrics.histogram_sum h)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let populated () =
  let reg = Metrics.create () in
  let s = Metrics.scope reg "m" in
  Metrics.add (Metrics.counter s "count") 3;
  Metrics.set_gauge (Metrics.gauge s "level") 1.5;
  let h = Metrics.histogram s "hist" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 3.0 ];
  reg

let contains haystack needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

let test_text_export () =
  let text = Metrics.to_text (populated ()) in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "text has %S" line) true
        (contains text line))
    [ "counter m.count 3"; "gauge m.level 1.5"; "histogram m.hist count=3" ]

let test_dump_sorted () =
  (* Regression pin: dump output is in sorted name order regardless of
     registration order, in both text and JSON form. *)
  let reg = Metrics.create () in
  Metrics.incr (Metrics.counter (Metrics.scope reg "zz") "last");
  Metrics.set_gauge (Metrics.gauge (Metrics.scope reg "aa") "first") 1.0;
  Metrics.incr (Metrics.counter (Metrics.scope reg "mm") "mid");
  let names_of_lines text =
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match String.split_on_char ' ' l with
           | _kind :: name :: _ -> name
           | _ -> Alcotest.failf "unparseable dump line %S" l)
  in
  let names = names_of_lines (Metrics.to_text reg) in
  Alcotest.(check (list string))
    "text lines sorted"
    [ "aa.first"; "mm.mid"; "zz.last" ]
    names;
  (match Metrics.to_json_value reg with
  | Json.Obj groups ->
    List.iter
      (fun (group, v) ->
        match v with
        | Json.Obj fields ->
          let keys = List.map fst fields in
          Alcotest.(check (list string))
            (Printf.sprintf "%s keys sorted" group)
            (List.sort compare keys) keys
        | _ -> Alcotest.failf "group %s is not an object" group)
      groups;
    (match List.assoc_opt "counters" groups with
    | Some (Json.Obj fields) ->
      Alcotest.(check (list string))
        "counter keys" [ "mm.mid"; "zz.last" ] (List.map fst fields)
    | _ -> Alcotest.fail "no counters group")
  | _ -> Alcotest.fail "to_json_value is not an object")

let test_json_roundtrip () =
  let reg = populated () in
  match Json.of_string (Metrics.to_json reg) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok parsed ->
    (* Compare re-serialized forms: %.12g printing may drop trailing
       float precision, so structural equality is too strict. *)
    Alcotest.(check string) "roundtrip stable"
      (Json.to_string (Metrics.to_json_value reg))
      (Json.to_string parsed);
    (match Json.member "counters" parsed with
    | Some (Json.Obj [ ("m.count", Json.Num 3.0) ]) -> ()
    | _ -> Alcotest.fail "counters object");
    (match Json.member "histograms" parsed with
    | Some (Json.Obj [ ("m.hist", summary) ]) -> (
      match Json.member "count" summary with
      | Some (Json.Num 3.0) -> ()
      | _ -> Alcotest.fail "histogram count")
    | _ -> Alcotest.fail "histograms object")

let test_json_parser_rejects_garbage () =
  List.iter
    (fun input ->
      match Json.of_string input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" input)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Integration: one monitored request populates the registry           *)
(* ------------------------------------------------------------------ *)

let compile source = Nv_minic.Codegen.compile_source (Nv_minic.Runtime.with_runtime source)

let echo_server =
  {|int main(void) {
      int fd = sys_accept(3);
      char buf[64];
      int n = sys_read(fd, buf, 63);
      buf[n] = '\0';
      write_str(fd, "echo:");
      write_str(fd, buf);
      sys_close(fd);
      return 0;
    }|}

let test_monitored_request_metrics () =
  let sys = Nsystem.of_one_image ~variation:Variation.uid_diversity (compile echo_server) in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> Alcotest.fail "expected accept block");
  let conn = Nsystem.connect sys in
  Socket.client_send conn "ping";
  (match Nsystem.run sys with
  | Monitor.Exited 0 -> ()
  | _ -> Alcotest.fail "expected clean exit");
  let reg = Nsystem.metrics sys in
  let counter name = Option.value ~default:0 (Metrics.find_counter reg name) in
  Alcotest.(check bool) "rendezvous counted" true (counter "monitor.rendezvous" > 0);
  Alcotest.(check bool) "checks performed" true (counter "monitor.checks.performed" > 0);
  Alcotest.(check int) "no check failed" 0 (counter "monitor.checks.failed");
  Alcotest.(check bool) "kernel syscalls" true (counter "kernel.syscalls" > 0);
  Alcotest.(check bool) "accept seen by monitor" true (counter "monitor.calls.accept" > 0);
  Alcotest.(check bool) "input replicated" true
    (counter "monitor.input_bytes_replicated" > 0);
  Alcotest.(check bool) "output writes checked" true
    (counter "monitor.output_writes_checked" > 0);
  (* The monitor view and the thin stats view agree. *)
  let stats = Monitor.stats (Nsystem.monitor sys) in
  Alcotest.(check int) "stats rendezvous" (counter "monitor.rendezvous")
    stats.Monitor.st_rendezvous;
  Alcotest.(check int) "stats checks" (counter "monitor.checks.performed")
    stats.Monitor.st_checks_performed;
  (* The same registry serves the kernel and the monitor. *)
  Alcotest.(check bool) "one registry per system" true
    (Nsystem.metrics sys == Nv_os.Kernel.metrics (Nsystem.kernel sys))

(* ------------------------------------------------------------------ *)
(* Divergent accept fd raises Arg_mismatch                             *)
(* ------------------------------------------------------------------ *)

(* Under UID diversity, getuid returns differently-reexpressed values
   per variant; feeding one to sys_accept makes the listening-fd
   argument diverge, which the monitor must flag (the pre-fix monitor
   ignored accept's argument entirely). *)
let divergent_accept_server =
  {|int main(void) {
      uid_t me = getuid();
      int fd = sys_accept((int)me);
      sys_close(fd);
      return 0;
    }|}

let test_divergent_accept_fd_alarms () =
  let sys =
    Nsystem.of_one_image ~variation:Variation.uid_diversity (compile divergent_accept_server)
  in
  match Nsystem.run sys with
  | Monitor.Alarm (Alarm.Arg_mismatch { syscall; arg_index = 0; _ }) ->
    Alcotest.(check int) "accept syscall" Syscall.sys_accept syscall;
    let reg = Nsystem.metrics sys in
    Alcotest.(check (option int)) "check failure counted" (Some 1)
      (Metrics.find_counter reg "monitor.checks.failed");
    Alcotest.(check (option int)) "alarm counted" (Some 1)
      (Metrics.find_counter reg "monitor.alarms.arg")
  | Monitor.Alarm reason -> Alcotest.failf "wrong alarm: %a" Alarm.pp reason
  | Monitor.Exited status -> Alcotest.failf "exited %d instead of alarming" status
  | _ -> Alcotest.fail "expected an alarm"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "nv_metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "counter scopes" `Quick test_counter_scopes;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "reservoir stays unbiased" `Quick
            test_histogram_reservoir_unbiased;
          Alcotest.test_case "reservoir deterministic" `Quick
            test_histogram_reservoir_deterministic;
          Alcotest.test_case "timer" `Quick test_timer;
        ] );
      ( "export",
        [
          Alcotest.test_case "text" `Quick test_text_export;
          Alcotest.test_case "dump sorted" `Quick test_dump_sorted;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "json rejects garbage" `Quick test_json_parser_rejects_garbage;
        ] );
      ( "integration",
        [
          Alcotest.test_case "monitored request" `Quick test_monitored_request_metrics;
          Alcotest.test_case "divergent accept fd" `Quick test_divergent_accept_fd_alarms;
        ] );
    ]
