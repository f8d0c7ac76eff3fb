module Monitor = Nv_core.Monitor
module Nsystem = Nv_core.Nsystem
module Alarm = Nv_core.Alarm
module Socket = Nv_os.Socket
module Deploy = Nv_httpd.Deploy
module Http = Nv_httpd.Http

type verdict =
  | Escalated of string
  | Corrupted_undetected
  | Detected of Nv_core.Alarm.reason
  | Crashed of string
  | Recovered of { recoveries : int; last_alarm : Nv_core.Alarm.reason option }
  | No_effect

let verdict_label = function
  | Escalated _ -> "ESCALATED"
  | Corrupted_undetected -> "CORRUPTED"
  | Detected _ -> "DETECTED"
  | Crashed _ -> "CRASHED"
  | Recovered _ -> "RECOVERED"
  | No_effect -> "no effect"

let pp_verdict ppf = function
  | Escalated evidence -> Format.fprintf ppf "ESCALATED (leaked %S)" evidence
  | Corrupted_undetected -> Format.pp_print_string ppf "CORRUPTED (undetected)"
  | Detected reason -> Format.fprintf ppf "DETECTED (%a)" Alarm.pp reason
  | Crashed why -> Format.fprintf ppf "CRASHED (%s)" why
  | Recovered { recoveries; last_alarm } ->
    Format.fprintf ppf "RECOVERED (%d rollback%s%a)" recoveries
      (if recoveries = 1 then "" else "s")
      (fun ppf -> function
        | None -> ()
        | Some reason -> Format.fprintf ppf ", last alarm: %a" Alarm.pp reason)
      last_alarm
  | No_effect -> Format.pp_print_string ppf "no effect"

type attack = {
  name : string;
  description : string;
  assumes_keys : bool;
  run : Nsystem.t -> verdict;
}

(* ------------------------------------------------------------------ *)
(* Driving helpers                                                     *)
(* ------------------------------------------------------------------ *)

(* Allocation-free substring scan (responses can be tens of KB; the
   old String.sub-per-position version allocated a fresh copy of the
   needle-sized window at every offset). *)
let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec matches_at i j = j = n || (haystack.[i + j] = needle.[j] && matches_at i (j + 1)) in
  let rec scan i = i <= h - n && (matches_at i 0 || scan (i + 1)) in
  n = 0 || scan 0

type step_result =
  | Response of string
  | Alarmed of Alarm.reason
  | Died of string

(* One request against a system expected to be (or come back to) the
   accept loop. The connection is kept so that bytes written by
   injected code before the process dies still reach the attacker. *)
let send sys request =
  match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> (
    let conn = Nsystem.connect sys in
    Socket.client_send conn request;
    Socket.client_close conn;
    match Nsystem.run sys with
    | Monitor.Blocked_on_accept -> Response (Socket.client_recv conn)
    | Monitor.Alarm reason -> Alarmed reason
    | Monitor.Exited status ->
      (* Injected code may exit after writing its loot. *)
      let received = Socket.client_recv conn in
      if received <> "" then Response received
      else Died (Printf.sprintf "server exited %d" status)
    | Monitor.Out_of_fuel -> Died "fuel exhausted")
  | Monitor.Alarm reason -> Alarmed reason
  | Monitor.Exited status -> Died (Printf.sprintf "server exited %d" status)
  | Monitor.Out_of_fuel -> Died "fuel exhausted"

let expected_stored_uid sys ~variant =
  let variation = Nsystem.variation sys in
  let spec = variation.Nv_core.Variation.variants.(variant) in
  spec.Nv_core.Variation.uid.Nv_core.Reexpression.encode 33

let uid_intact sys =
  Payloads.read_stored_uid sys ~variant:0 = expected_stored_uid sys ~variant:0

(* Shared epilogue: after the corruption step survived undetected, try
   to cash it in with a traversal request, then classify. *)
let classify_after_corruption sys =
  match send sys (Http.get Payloads.traversal_url) with
  | Alarmed reason -> Detected reason
  | Died why -> Crashed why
  | Response raw ->
    if contains raw Payloads.shadow_marker then Escalated Payloads.shadow_marker
    else if uid_intact sys then No_effect
    else Corrupted_undetected

(* ------------------------------------------------------------------ *)
(* The attacks                                                         *)
(* ------------------------------------------------------------------ *)

let baseline_request =
  {
    name = "baseline-request";
    description = "control row: a benign GET / (no attack)";
    assumes_keys = false;
    run =
      (fun sys ->
        match send sys (Http.get "/") with
        | Alarmed reason -> Detected reason
        | Died why -> Crashed why
        | Response raw -> (
          match Http.parse_response raw with
          | Ok { Http.status = 200; _ } when uid_intact sys -> No_effect
          | Ok _ -> Corrupted_undetected
          | Error e -> Crashed ("bad response: " ^ e)));
  }

let overflow_attack ~name ~description ~url =
  {
    name;
    description;
    assumes_keys = false;
    run =
      (fun sys ->
        match send sys (Http.get url) with
        | Alarmed reason -> Detected reason
        | Died why -> Crashed why
        | Response _ -> classify_after_corruption sys);
  }

let uid_null_overflow =
  overflow_attack ~name:"uid-null-overflow"
    ~description:
      "64-byte URL: strcpy's terminator zeroes worker_uid's low byte (canonical 33 -> 0 \
       = root), then ../ traversal reads /secret/shadow"
    ~url:(Payloads.null_overflow_url ())

let uid_partial_byte =
  overflow_attack ~name:"uid-partial-byte"
    ~description:"65-byte URL: one attacker-chosen byte lands in worker_uid"
    ~url:(Payloads.partial_overwrite_url ~low_byte:'\x01')

let uid_three_bytes =
  overflow_attack ~name:"uid-three-bytes"
    ~description:
      "67-byte URL: the three low-order worker_uid bytes replaced with 'AAA' (the \
       Section 2.3 partial-overwrite granularity); the terminator zeroes the high byte"
    ~url:(Payloads.three_byte_overwrite_url ~low_bytes:"AAA")

let bit_attack ~name ~description ~bit ~value =
  {
    name;
    description;
    assumes_keys = false;
    run =
      (fun sys ->
        (* Park the server on accept, inject the fault, then probe. *)
        match Nsystem.run sys with
        | Monitor.Blocked_on_accept ->
          Payloads.flip_stored_uid_bit ~bit ~value sys;
          classify_after_corruption sys
        | Monitor.Alarm reason -> Detected reason
        | Monitor.Exited status -> Crashed (Printf.sprintf "exited %d at startup" status)
        | Monitor.Out_of_fuel -> Crashed "fuel exhausted at startup");
  }

let uid_bit_set_low =
  bit_attack ~name:"uid-bit-set-low"
    ~description:"hardware fault: force bit 0 of the stored worker_uid word to 0 in every variant"
    ~bit:0 ~value:false

let uid_bit_set_high =
  bit_attack ~name:"uid-bit-set-high"
    ~description:
      "hardware fault: force bit 31 to 1 in every variant - the XOR key leaves bit 31 \
       unflipped, the paper's admitted escape"
    ~bit:31 ~value:true

let stack_code_injection =
  {
    name = "stack-code-injection";
    description =
      "stack smash via the auth token: return address redirected to machine code in the \
       request buffer that opens and exfiltrates /secret/shadow";
    assumes_keys = false;
    run =
      (fun sys ->
        (* The payload embeds variant-0 absolute addresses, so the
           system must be parked (loaded) before building it. *)
        match Nsystem.run sys with
        | Monitor.Blocked_on_accept -> (
          let variation = Nsystem.variation sys in
          let tag = variation.Nv_core.Variation.variants.(0).Nv_core.Variation.tag in
          let request = Payloads.code_injection_request sys ~tag in
          match send sys request with
          | Alarmed reason -> Detected reason
          | Died why -> Crashed why
          | Response raw ->
            if contains raw Payloads.shadow_marker then Escalated Payloads.shadow_marker
            else if uid_intact sys then No_effect
            else Corrupted_undetected)
        | Monitor.Alarm reason -> Detected reason
        | Monitor.Exited status -> Crashed (Printf.sprintf "exited %d at startup" status)
        | Monitor.Out_of_fuel -> Crashed "fuel exhausted at startup");
  }

let injection_attack ~name ~description ~assumes_keys ~value =
  {
    name;
    description;
    assumes_keys;
    run =
      (fun sys ->
        match Nsystem.run sys with
        | Monitor.Blocked_on_accept ->
          Payloads.inject_stored_uid ~value sys;
          classify_after_corruption sys
        | Monitor.Alarm reason -> Detected reason
        | Monitor.Exited status -> Crashed (Printf.sprintf "exited %d at startup" status)
        | Monitor.Out_of_fuel -> Crashed "fuel exhausted at startup");
  }

(* The regression attack for the shared-key bug: the attacker has read
   the paper (or the pre-fix source) and writes into each variant the
   published portfolio's encoding of root — identity for variant 0,
   the one shared key for everyone else. Under any shared-key
   deployment every variant decodes to 0 and the escalation sails
   through; one per-variant (or per-boot) key makes the guess wrong in
   at least one variant and the next UID-bearing call diverges. *)
let uid_guessed_key_injection =
  injection_attack ~name:"uid-guessed-key-injection"
    ~description:
      "key-compromise fault: write each variant's guess of encode(0) using the \
       published shared key (variant 0 <- 0, variants >= 1 <- 0x7FFFFFFF) - \
       undetected wherever all non-zero variants share that key"
    ~assumes_keys:true
    ~value:(fun i -> if i = 0 then 0 else Nv_core.Reexpression.paper_uid_key)

(* The single-axis defeat for bare rotations: every rotation fixes 0,
   so a blind zeroing fault decodes to root in every rotation-only
   variant at once. Any XOR or additive component breaks the
   agreement. *)
let uid_zero_injection =
  injection_attack ~name:"uid-zero-injection"
    ~description:
      "blind zeroing fault: write 0 over the stored worker_uid word in every \
       variant (same bytes everywhere) - defeats any reexpression with a fixed \
       point at 0, e.g. bare rotations"
    ~assumes_keys:false
    ~value:(fun _ -> 0)

let attacks =
  [
    baseline_request;
    uid_null_overflow;
    uid_partial_byte;
    uid_three_bytes;
    uid_bit_set_low;
    uid_bit_set_high;
    uid_guessed_key_injection;
    uid_zero_injection;
    stack_code_injection;
  ]

let find name = List.find_opt (fun a -> a.name = name) attacks

(* Under a supervisor a detected attack does not halt the system: the
   rollback absorbs it, the probe requests see a healthy server, and
   the attack classifies as harmless. Distinguish that from a
   genuinely effect-free attack by asking the supervisor whether it
   had to intervene. A fault written into memory while the server is
   parked lands before the checkpoint taken at that park, so the
   rollback keeps the corrupted word: the monitor did detect it, but
   the UID is not intact, so the cell is DETECTED, not RECOVERED. *)
let classify_with_supervisor sys verdict =
  match Nsystem.supervisor sys with
  | Some sup when Nv_core.Supervisor.recoveries sup > 0 -> (
    let last_alarm = Nv_core.Supervisor.last_alarm sup in
    match (verdict, last_alarm) with
    | No_effect, _ ->
      Recovered { recoveries = Nv_core.Supervisor.recoveries sup; last_alarm }
    | Corrupted_undetected, Some alarm -> Detected alarm
    | _ -> verdict)
  | Some _ | None -> verdict

let run_attack ?recover attack config =
  match Deploy.build ?recover config with
  | Error _ as e -> e
  | Ok sys ->
    let verdict = attack.run sys in
    Ok (classify_with_supervisor sys verdict)

type traced = {
  verdict : verdict;
  forensics : Nv_util.Metrics.Json.value option;
  trace_json : Nv_util.Metrics.Json.value;
}

let run_attack_traced ?recover attack config =
  match Deploy.build ?recover config with
  | Error _ as e -> e
  | Ok sys ->
    let monitor = Nsystem.monitor sys in
    let session = Monitor.trace_session monitor in
    Nv_util.Trace.set_enabled session true;
    let verdict = classify_with_supervisor sys (attack.run sys) in
    (* Under a supervisor the monitor's bundle survives the rollback
       (it is captured at alarm time), so it is the latest alarm's
       post-mortem either way; fall back to the supervisor's recovery
       log in case a future monitor clears it on restore. *)
    let forensics =
      match Monitor.forensics monitor with
      | Some _ as f -> f
      | None -> (
        match Nsystem.supervisor sys with
        | None -> None
        | Some sup -> (
          match List.rev (Nv_core.Supervisor.recovery_log sup) with
          | [] -> None
          | rr :: _ -> rr.Nv_core.Supervisor.rr_forensics))
    in
    let extra =
      match forensics with Some f -> [ ("forensics", f) ] | None -> []
    in
    let trace_json =
      Nv_util.Trace.to_chrome ~syscall_name:Nv_os.Syscall.name ~extra session
    in
    Ok { verdict; forensics; trace_json }

type matrix = (attack * (Deploy.config * verdict) list) list

(* Each (attack, config) cell builds its own fresh system, so the
   cells are independent: they are fanned out over the host's cores
   and reassembled in matrix order. *)
let run_matrix ?recover ?(attacks = attacks) ?(configs = Deploy.matrix) () =
  let cell (attack, config) =
    match run_attack ?recover attack config with
    | Ok verdict -> (config, verdict)
    | Error message -> (config, Crashed ("build failed: " ^ message))
  in
  let pairs =
    Array.of_list
      (List.concat_map (fun a -> List.map (fun c -> (a, c)) configs) attacks)
  in
  let results = Nv_util.Par.map_array cell pairs in
  let nconfigs = List.length configs in
  List.mapi
    (fun i attack -> (attack, Array.to_list (Array.sub results (i * nconfigs) nconfigs)))
    attacks

let render_matrix matrix =
  let configs =
    match matrix with [] -> [] | (_, cells) :: _ -> List.map fst cells
  in
  let header = "attack" :: List.map Deploy.name configs in
  let rows =
    List.map
      (fun (attack, cells) -> attack.name :: List.map (fun (_, v) -> verdict_label v) cells)
      matrix
  in
  Nv_util.Tablefmt.render ~header ~rows ()

(* An undetected cell is one where the attacker gained something the
   monitor never saw: escalation or silent corruption. The control row
   is excluded — it attacks nothing. *)
let undetected_cells matrix =
  List.concat_map
    (fun (attack, cells) ->
      if attack.name = baseline_request.name then []
      else
        List.filter_map
          (fun (config, verdict) ->
            match verdict with
            | Escalated _ | Corrupted_undetected -> Some (attack, config, verdict)
            | Detected _ | Crashed _ | Recovered _ | No_effect -> None)
          cells)
    matrix

let matrix_json matrix =
  let module Json = Nv_util.Metrics.Json in
  let cells =
    List.map
      (fun (attack, cells) ->
        ( attack.name,
          Json.Obj
            (List.map
               (fun (config, verdict) -> (Deploy.name config, Json.Str (verdict_label verdict)))
               cells) ))
      matrix
  in
  let undetected =
    List.map
      (fun (attack, config, verdict) ->
        Json.Obj
          [
            ("attack", Json.Str attack.name);
            ("config", Json.Str (Deploy.name config));
            ("verdict", Json.Str (verdict_label verdict));
          ])
      (undetected_cells matrix)
  in
  Json.Obj [ ("cells", Json.Obj cells); ("undetected", Json.List undetected) ]
