(* attack_lab: run the attack campaign (experiment X2) from the
   command line. *)

open Cmdliner

let attack_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "a"; "attack" ] ~docv:"NAME"
        ~doc:"Run a single attack by name (default: all). Use --list to see names.")

let config_arg =
  let configs =
    List.map (fun c -> (Nv_httpd.Deploy.name c, c)) Nv_httpd.Deploy.matrix
  in
  Arg.(
    value
    & opt (some (enum configs)) None
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:
          "Target configuration (default: the whole matrix - the four Table 3 \
           configurations plus the N=3/4 portfolio columns).")

let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List attacks and exit.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose" ] ~doc:"Print detailed verdicts, not just labels.")

let recover_arg =
  Arg.(
    value & flag
    & info [ "recover" ]
        ~doc:
          "Deploy each system with a recovery supervisor (default budget): \
           detected attacks roll back and the server keeps serving, so cells \
           report $(b,RECOVERED) instead of $(b,DETECTED).")

let forensics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "forensics" ] ~docv:"FILE"
        ~doc:
          "Run one (attack, config) cell with the flight recorder enabled and \
           write its Chrome trace-event JSON — with the alarm post-mortem \
           bundle under a top-level $(b,forensics) key — to $(docv). \
           Requires $(b,--attack) and $(b,--config) to pin the cell.")

let run attack config list verbose recover forensics =
  if list then begin
    List.iter
      (fun a ->
        Printf.printf "%-22s %s\n" a.Nv_attacks.Campaign.name
          a.Nv_attacks.Campaign.description)
      Nv_attacks.Campaign.attacks;
    exit 0
  end;
  let attacks =
    match attack with
    | None -> Nv_attacks.Campaign.attacks
    | Some name -> (
      match Nv_attacks.Campaign.find name with
      | Some a -> [ a ]
      | None ->
        Printf.eprintf "unknown attack %S (try --list)\n" name;
        exit 2)
  in
  let configs = match config with None -> Nv_httpd.Deploy.matrix | Some c -> [ c ] in
  let recover = if recover then Some Nv_core.Supervisor.default_config else None in
  (match forensics with
  | None -> ()
  | Some path -> (
    match (attacks, configs) with
    | [ a ], [ c ] -> (
      match Nv_attacks.Campaign.run_attack_traced ?recover a c with
      | Error message ->
        Printf.eprintf "attack_lab: --forensics cell failed to build: %s\n" message;
        exit 2
      | Ok traced ->
        let oc = open_out path in
        output_string oc
          (Nv_util.Metrics.Json.to_string traced.Nv_attacks.Campaign.trace_json);
        output_char oc '\n';
        close_out oc;
        Format.printf "%s / %s: %a (forensics written to %s)@."
          a.Nv_attacks.Campaign.name (Nv_httpd.Deploy.name c)
          Nv_attacks.Campaign.pp_verdict traced.Nv_attacks.Campaign.verdict path;
        exit 0)
    | _ ->
      Printf.eprintf "attack_lab: --forensics needs --attack and --config to pin one cell\n";
      exit 2));
  let matrix = Nv_attacks.Campaign.run_matrix ?recover ~attacks ~configs () in
  print_string (Nv_attacks.Campaign.render_matrix matrix);
  if verbose then
    List.iter
      (fun (a, cells) ->
        List.iter
          (fun (c, v) ->
            Format.printf "%s / %s: %a@." a.Nv_attacks.Campaign.name
              (Nv_httpd.Deploy.name c) Nv_attacks.Campaign.pp_verdict v)
          cells)
      matrix;
  (* Exit nonzero if a single-channel attack escalated against the UID
     variation: that would falsify the reproduction's headline claim.
     Key-compromise rows are exempt here - the paper's fixed published
     key is expected to lose to them; that is the portfolio's pitch. *)
  let headline_broken =
    List.exists
      (fun (a, cells) ->
        a.Nv_attacks.Campaign.name <> "baseline-request"
        && (not a.Nv_attacks.Campaign.assumes_keys)
        && List.exists
             (fun (c, v) ->
               c = Nv_httpd.Deploy.Two_variant_uid
               && match v with Nv_attacks.Campaign.Escalated _ -> true | _ -> false)
             cells)
      matrix
  in
  (* The composed columns gate on more: nothing may escalate or corrupt
     undetected there, key-compromise rows included. *)
  let composed_broken =
    List.filter
      (fun (_, config, _) ->
        List.mem config [ Nv_httpd.Deploy.Composed_three; Nv_httpd.Deploy.Composed_four ])
      (Nv_attacks.Campaign.undetected_cells matrix)
  in
  List.iter
    (fun (a, c, v) ->
      Printf.eprintf "attack_lab: composed column broken: %s x %s = %s\n"
        a.Nv_attacks.Campaign.name (Nv_httpd.Deploy.name c)
        (Nv_attacks.Campaign.verdict_label v))
    composed_broken;
  exit (if headline_broken || composed_broken <> [] then 1 else 0)

let cmd =
  let doc = "run data-corruption and code-injection attacks against the case-study server" in
  Cmd.v (Cmd.info "attack_lab" ~doc)
    Term.(
      const run $ attack_arg $ config_arg $ list_arg $ verbose_arg
      $ recover_arg $ forensics_arg)

let () = exit (Cmd.eval cmd)
