open Nv_minic
module Reexpression = Nv_core.Reexpression
module Variation = Nv_core.Variation

type mode = Cc_calls | User_space

type report = {
  constants : int;
  explications : int;
  uid_value_calls : int;
  cc_calls : int;
  cond_chks : int;
  reversed_comparisons : int;
  log_scrubs : int;
}

let total_changes r =
  r.constants + r.uid_value_calls + r.cc_calls + r.cond_chks + r.reversed_comparisons
  + r.log_scrubs

let pp_report ppf r =
  Format.fprintf ppf
    "constants=%d (explicated %d) uid_value=%d cc=%d cond_chk=%d reversed=%d log-scrubs=%d \
     total=%d"
    r.constants r.explications r.uid_value_calls r.cc_calls r.cond_chks
    r.reversed_comparisons r.log_scrubs (total_changes r)

(* Mutable counters threaded through a pass. *)
type counters = {
  mutable n_constants : int;
  mutable n_explications : int;
  mutable n_uid_value : int;
  mutable n_cc : int;
  mutable n_cond_chk : int;
  mutable n_scrub : int;
  mutable n_reversible : int;  (* user-space comparisons kept in place *)
}

let fresh_counters () =
  {
    n_constants = 0;
    n_explications = 0;
    n_uid_value = 0;
    n_cc = 0;
    n_cond_chk = 0;
    n_scrub = 0;
    n_reversible = 0;
  }

let cc_name = function
  | Ast.Eq -> "cc_eq"
  | Ast.Ne -> "cc_neq"
  | Ast.Lt -> "cc_lt"
  | Ast.Le -> "cc_leq"
  | Ast.Gt -> "cc_gt"
  | Ast.Ge -> "cc_geq"
  | _ -> invalid_arg "cc_name: not a comparison"

let is_uid_ty = function Ast.Tuid -> true | _ -> false

(* Functions whose signature mentions uid_t (user-defined ones matter
   for the uid_value exposure rule). *)
let signature_mentions_uid (f : Tast.tfunc) =
  is_uid_ty f.Tast.ret || List.exists (fun (ty, _) -> is_uid_ty ty) f.Tast.params

(* Log sinks: functions that turn a value into observable output bytes
   (directly, or by rendering it into a buffer that is later written).
   A [(int)uid] cast passed to one of these is a UID leaking into
   shared output — the Section 4 log problem — and is scrubbed. *)
let is_log_sink name =
  match name with
  | "write_int" | "write_str" | "sys_write" | "itoa" -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Taint: which variables carry UID-derived data                       *)
(* ------------------------------------------------------------------ *)

module StrSet = Set.Make (String)

let rec expr_mentions_uid ~tainted (e : Tast.texpr) =
  let recurse = expr_mentions_uid ~tainted in
  if is_uid_ty e.Tast.ty then true
  else begin
    match e.Tast.e with
    | Tast.Tvar name -> StrSet.mem name tainted
    | Tast.Tint_lit _ | Tast.Tchar_lit _ | Tast.Tstr_lit _ -> false
    | Tast.Tunop (_, a) | Tast.Tcast (_, a) | Tast.Tderef a -> recurse a
    | Tast.Tbinop (_, a, b) | Tast.Tindex (a, b) -> recurse a || recurse b
    | Tast.Tassign (lv, a) -> lvalue_mentions_uid ~tainted lv || recurse a
    | Tast.Tcall (name, args) ->
      (match name with
      | "cc_eq" | "cc_neq" | "cc_lt" | "cc_leq" | "cc_gt" | "cc_geq" | "uid_value" -> true
      | _ -> List.exists recurse args)
    | Tast.Taddr_of lv -> lvalue_mentions_uid ~tainted lv
  end

and lvalue_mentions_uid ~tainted (lv : Tast.tlvalue) =
  if is_uid_ty lv.Tast.lv_ty then true
  else begin
    match lv.Tast.lv with
    | Tast.TLvar name -> StrSet.mem name tainted
    | Tast.TLindex (a, b) ->
      expr_mentions_uid ~tainted a || expr_mentions_uid ~tainted b
    | Tast.TLderef a -> expr_mentions_uid ~tainted a
  end

(* Fixpoint over the function body: a variable assigned from a
   UID-mentioning expression becomes tainted. *)
let taint_of_func (f : Tast.tfunc) =
  let tainted = ref StrSet.empty in
  let changed = ref true in
  let note_assign name rhs =
    if expr_mentions_uid ~tainted:!tainted rhs && not (StrSet.mem name !tainted) then begin
      tainted := StrSet.add name !tainted;
      changed := true
    end
  in
  let rec scan_expr (e : Tast.texpr) =
    (match e.Tast.e with
    | Tast.Tassign ({ lv = Tast.TLvar name; _ }, rhs) -> note_assign name rhs
    | _ -> ());
    match e.Tast.e with
    | Tast.Tint_lit _ | Tast.Tchar_lit _ | Tast.Tstr_lit _ | Tast.Tvar _ -> ()
    | Tast.Tunop (_, a) | Tast.Tcast (_, a) | Tast.Tderef a -> scan_expr a
    | Tast.Tbinop (_, a, b) | Tast.Tindex (a, b) ->
      scan_expr a;
      scan_expr b
    | Tast.Tassign (lv, a) ->
      scan_lvalue lv;
      scan_expr a
    | Tast.Tcall (_, args) -> List.iter scan_expr args
    | Tast.Taddr_of lv -> scan_lvalue lv
  and scan_lvalue (lv : Tast.tlvalue) =
    match lv.Tast.lv with
    | Tast.TLvar _ -> ()
    | Tast.TLindex (a, b) ->
      scan_expr a;
      scan_expr b
    | Tast.TLderef a -> scan_expr a
  in
  let rec scan_stmt = function
    | Tast.TSexpr e -> scan_expr e
    | Tast.TSdecl (_, name, init) ->
      Option.iter
        (fun rhs ->
          scan_expr rhs;
          note_assign name rhs)
        init
    | Tast.TSif (c, a, b) ->
      scan_expr c;
      List.iter scan_stmt a;
      List.iter scan_stmt b
    | Tast.TSwhile (c, body) ->
      scan_expr c;
      List.iter scan_stmt body
    | Tast.TSreturn e -> Option.iter scan_expr e
    | Tast.TSbreak | Tast.TScontinue -> ()
    | Tast.TSblock body -> List.iter scan_stmt body
  in
  while !changed do
    changed := false;
    List.iter scan_stmt f.Tast.body
  done;
  !tainted

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

let mk = Tast.mk

let int_expr kind = mk kind Ast.Tint

(* A condition expression coerced to something cond_chk accepts. *)
let as_int_condition (cond : Tast.texpr) =
  match cond.Tast.ty with
  | Ast.Tint -> cond
  | Ast.Tchar -> { cond with Tast.ty = Ast.Tint }
  | Ast.Tptr _ ->
    int_expr (Tast.Tbinop (Ast.Ne, cond, mk (Tast.Tint_lit 0) cond.Tast.ty))
  | Ast.Tuid | Ast.Tvoid | Ast.Tarray _ ->
    (* uid conditions were explicated before this point *)
    int_expr (Tast.Tcast (Ast.Tint, cond))

type ctx = {
  counters : counters;
  mode : mode;
  scrub_logs : bool;
  uid_sig_funcs : StrSet.t;  (* user functions whose signature mentions uid_t *)
  tainted : StrSet.t;
}

let is_already_exposed (e : Tast.texpr) =
  match e.Tast.e with Tast.Tcall ("uid_value", _) -> true | _ -> false

(* Single bottom-up rewriting of an expression. *)
let rec rw_expr ctx (e : Tast.texpr) : Tast.texpr =
  let e =
    match e.Tast.e with
    | Tast.Tint_lit _ | Tast.Tchar_lit _ | Tast.Tstr_lit _ | Tast.Tvar _ -> e
    | Tast.Tunop (Ast.Lnot, a) when is_uid_ty a.Tast.ty ->
      (* !uid  ==>  uid == 0   (explication; Section 3.3) *)
      let a = rw_expr ctx a in
      ctx.counters.n_explications <- ctx.counters.n_explications + 1;
      expose_comparison ctx Ast.Eq a (Tast.uid_constant 0)
    | Tast.Tunop (op, a) -> { e with Tast.e = Tast.Tunop (op, rw_expr ctx a) }
    | Tast.Tbinop (op, a, b) when Ast.is_comparison op && is_uid_ty a.Tast.ty ->
      let a = rw_expr ctx a in
      let b = rw_expr ctx b in
      expose_comparison ctx op a b
    | Tast.Tbinop ((Ast.Land | Ast.Lor) as op, a, b) ->
      let a = explicate_condition ctx (rw_expr ctx a) in
      let b = explicate_condition ctx (rw_expr ctx b) in
      { e with Tast.e = Tast.Tbinop (op, a, b) }
    | Tast.Tbinop (op, a, b) ->
      { e with Tast.e = Tast.Tbinop (op, rw_expr ctx a, rw_expr ctx b) }
    | Tast.Tassign (lv, rhs) ->
      { e with Tast.e = Tast.Tassign (rw_lvalue ctx lv, rw_expr ctx rhs) }
    | Tast.Tcall (name, args) ->
      let args = List.map (rw_expr ctx) args in
      let args =
        if StrSet.mem name ctx.uid_sig_funcs && ctx.mode = Cc_calls then
          (* Expose single UID values passed to user functions:
             getpwname(uid) ==> getpwname(uid_value(uid)). *)
          List.map
            (fun (arg : Tast.texpr) ->
              if is_uid_ty arg.Tast.ty && not (is_already_exposed arg) then begin
                ctx.counters.n_uid_value <- ctx.counters.n_uid_value + 1;
                mk (Tast.Tcall ("uid_value", [ arg ])) Ast.Tuid
              end
              else arg)
            args
        else args
      in
      let args =
        if ctx.scrub_logs && is_log_sink name then List.map (scrub_log_arg ctx) args
        else args
      in
      { e with Tast.e = Tast.Tcall (name, args) }
    | Tast.Tindex (a, b) -> { e with Tast.e = Tast.Tindex (rw_expr ctx a, rw_expr ctx b) }
    | Tast.Tderef a -> { e with Tast.e = Tast.Tderef (rw_expr ctx a) }
    | Tast.Taddr_of lv -> { e with Tast.e = Tast.Taddr_of (rw_lvalue ctx lv) }
    | Tast.Tcast (ty, a) -> { e with Tast.e = Tast.Tcast (ty, rw_expr ctx a) }
  in
  e

and rw_lvalue ctx (lv : Tast.tlvalue) =
  match lv.Tast.lv with
  | Tast.TLvar _ -> lv
  | Tast.TLindex (a, b) -> { lv with Tast.lv = Tast.TLindex (rw_expr ctx a, rw_expr ctx b) }
  | Tast.TLderef a -> { lv with Tast.lv = Tast.TLderef (rw_expr ctx a) }

(* A UID comparison site: either a cc_* detection call (Cc_calls mode)
   or left as a user-space comparison (User_space mode; the reexpress
   step may reverse it). Both operands are uid-typed after coercion. *)
and expose_comparison ctx op a b =
  match ctx.mode with
  | Cc_calls ->
    ctx.counters.n_cc <- ctx.counters.n_cc + 1;
    int_expr (Tast.Tcall (cc_name op, [ a; b ]))
  | User_space ->
    ctx.counters.n_reversible <- ctx.counters.n_reversible + 1;
    int_expr (Tast.Tbinop (op, a, b))

(* A bare uid value in a condition position: make the implied
   comparison with 0 explicit. *)
and explicate_condition ctx (cond : Tast.texpr) =
  if is_uid_ty cond.Tast.ty then begin
    ctx.counters.n_explications <- ctx.counters.n_explications + 1;
    expose_comparison ctx Ast.Ne cond (Tast.uid_constant 0)
  end
  else cond

(* Remove a UID payload from log output (the Section 4 workaround for
   Apache's error messages): a (int)uid cast argument to an output
   function is replaced by the constant 0. *)
and scrub_log_arg ctx (arg : Tast.texpr) =
  match arg.Tast.e with
  | Tast.Tcast (Ast.Tint, inner) when is_uid_ty inner.Tast.ty ->
    ctx.counters.n_scrub <- ctx.counters.n_scrub + 1;
    int_expr (Tast.Tint_lit 0)
  | _ -> arg

(* Should a (rewritten) condition be wrapped in cond_chk? Top-level
   detection calls are already checked by the monitor. *)
let needs_cond_chk ctx (cond : Tast.texpr) =
  let already_checked =
    match cond.Tast.e with
    | Tast.Tcall (("cc_eq" | "cc_neq" | "cc_lt" | "cc_leq" | "cc_gt" | "cc_geq"
                  | "cond_chk"), _) ->
      true
    | _ -> false
  in
  (not already_checked) && expr_mentions_uid ~tainted:ctx.tainted cond

let wrap_cond_chk ctx cond =
  (* The Section 5 user-space alternative relies on the existing
     syscall-boundary monitoring alone: no detection calls at all. *)
  if ctx.mode = Cc_calls && needs_cond_chk ctx cond then begin
    ctx.counters.n_cond_chk <- ctx.counters.n_cond_chk + 1;
    int_expr (Tast.Tcall ("cond_chk", [ as_int_condition cond ]))
  end
  else cond

let rec rw_stmt ctx ~ret_uid (stmt : Tast.tstmt) : Tast.tstmt =
  match stmt with
  | Tast.TSexpr e -> Tast.TSexpr (rw_expr ctx e)
  | Tast.TSdecl (ty, name, init) -> Tast.TSdecl (ty, name, Option.map (rw_expr ctx) init)
  | Tast.TSif (cond, a, b) ->
    let cond = wrap_cond_chk ctx (explicate_condition ctx (rw_expr ctx cond)) in
    Tast.TSif (cond, List.map (rw_stmt ctx ~ret_uid) a, List.map (rw_stmt ctx ~ret_uid) b)
  | Tast.TSwhile (cond, body) ->
    let cond = wrap_cond_chk ctx (explicate_condition ctx (rw_expr ctx cond)) in
    Tast.TSwhile (cond, List.map (rw_stmt ctx ~ret_uid) body)
  | Tast.TSreturn (Some e) ->
    let e = rw_expr ctx e in
    let e =
      (* Expose UID return values of user functions to the monitor. *)
      if ret_uid && ctx.mode = Cc_calls && is_uid_ty e.Tast.ty && not (is_already_exposed e)
      then begin
        ctx.counters.n_uid_value <- ctx.counters.n_uid_value + 1;
        mk (Tast.Tcall ("uid_value", [ e ])) Ast.Tuid
      end
      else e
    in
    Tast.TSreturn (Some e)
  | Tast.TSreturn None -> Tast.TSreturn None
  | Tast.TSbreak -> Tast.TSbreak
  | Tast.TScontinue -> Tast.TScontinue
  | Tast.TSblock body -> Tast.TSblock (List.map (rw_stmt ctx ~ret_uid) body)

(* Count the constant sites the reexpress step will rewrite. *)
let count_uid_constants (prog : Tast.tprogram) =
  let count = ref 0 in
  let rec scan_expr (e : Tast.texpr) =
    (match Tast.uid_constant_value e with Some _ -> incr count | None -> ());
    match e.Tast.e with
    | Tast.Tint_lit _ | Tast.Tchar_lit _ | Tast.Tstr_lit _ | Tast.Tvar _ -> ()
    | Tast.Tunop (_, a) | Tast.Tderef a -> scan_expr a
    | Tast.Tcast (_, a) -> (
      (* Don't descend into the literal of a uid constant itself. *)
      match Tast.uid_constant_value e with Some _ -> () | None -> scan_expr a)
    | Tast.Tbinop (_, a, b) | Tast.Tindex (a, b) ->
      scan_expr a;
      scan_expr b
    | Tast.Tassign (lv, a) ->
      scan_lvalue lv;
      scan_expr a
    | Tast.Tcall (_, args) -> List.iter scan_expr args
    | Tast.Taddr_of lv -> scan_lvalue lv
  and scan_lvalue (lv : Tast.tlvalue) =
    match lv.Tast.lv with
    | Tast.TLvar _ -> ()
    | Tast.TLindex (a, b) ->
      scan_expr a;
      scan_expr b
    | Tast.TLderef a -> scan_expr a
  in
  let rec scan_stmt = function
    | Tast.TSexpr e -> scan_expr e
    | Tast.TSdecl (_, _, init) -> Option.iter scan_expr init
    | Tast.TSif (c, a, b) ->
      scan_expr c;
      List.iter scan_stmt a;
      List.iter scan_stmt b
    | Tast.TSwhile (c, body) ->
      scan_expr c;
      List.iter scan_stmt body
    | Tast.TSreturn e -> Option.iter scan_expr e
    | Tast.TSbreak | Tast.TScontinue -> ()
    | Tast.TSblock body -> List.iter scan_stmt body
  in
  List.iter (fun f -> List.iter scan_stmt f.Tast.body) prog.Tast.tfuncs;
  (* Global uid_t initializers are also reexpressed constants. *)
  List.iter
    (fun { Ast.gty; ginit; _ } ->
      match (gty, ginit) with
      | Ast.Tuid, Ast.Init_int _ -> incr count
      | Ast.Tarray (Ast.Tuid, _), Ast.Init_array vs -> count := !count + List.length vs
      | _ -> ())
    prog.Tast.tglobals;
  !count

let instrument ?(mode = Cc_calls) ?(scrub_logs = true) (prog : Tast.tprogram) =
  let counters = fresh_counters () in
  let uid_sig_funcs =
    List.fold_left
      (fun acc f -> if signature_mentions_uid f then StrSet.add f.Tast.fname acc else acc)
      StrSet.empty prog.Tast.tfuncs
  in
  let tfuncs =
    List.map
      (fun f ->
        let ctx =
          { counters; mode; scrub_logs; uid_sig_funcs; tainted = taint_of_func f }
        in
        let ret_uid = is_uid_ty f.Tast.ret in
        { f with Tast.body = List.map (rw_stmt ctx ~ret_uid) f.Tast.body })
      prog.Tast.tfuncs
  in
  let instrumented = { prog with Tast.tfuncs } in
  counters.n_constants <- count_uid_constants instrumented;
  ( instrumented,
    {
      constants = counters.n_constants;
      explications = counters.n_explications;
      uid_value_calls = counters.n_uid_value;
      cc_calls = counters.n_cc;
      cond_chks = counters.n_cond_chk;
      (* In user-space mode these are comparison sites left in place;
         transform_source zeroes this when no variant actually reverses. *)
      reversed_comparisons = counters.n_reversible;
      log_scrubs = counters.n_scrub;
    } )

(* ------------------------------------------------------------------ *)
(* Per-variant reexpression                                            *)
(* ------------------------------------------------------------------ *)

(* Does [f] reverse the unsigned order of the low 31 bits? Probing two
   points suffices for the xor-with-constant family used here. *)
let order_reversing (f : Reexpression.t) =
  let a = f.Reexpression.encode 0 and b = f.Reexpression.encode 1 in
  Nv_vm.Word.lt_unsigned b a

let reverse_cmp = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | other -> other

let reexpress ?(mode = Cc_calls) ~f (prog : Tast.tprogram) =
  let encode = f.Reexpression.encode in
  let reverse = mode = User_space && order_reversing f in
  let rec rw_expr (e : Tast.texpr) : Tast.texpr =
    match Tast.uid_constant_value e with
    | Some v -> Tast.uid_constant (encode (Nv_vm.Word.of_signed v))
    | None -> (
      match e.Tast.e with
      | Tast.Tint_lit _ | Tast.Tchar_lit _ | Tast.Tstr_lit _ | Tast.Tvar _ -> e
      | Tast.Tunop (op, a) -> { e with Tast.e = Tast.Tunop (op, rw_expr a) }
      | Tast.Tbinop (op, a, b) when reverse && Ast.is_comparison op && is_uid_ty a.Tast.ty
        ->
        { e with Tast.e = Tast.Tbinop (reverse_cmp op, rw_expr a, rw_expr b) }
      | Tast.Tbinop (op, a, b) -> { e with Tast.e = Tast.Tbinop (op, rw_expr a, rw_expr b) }
      | Tast.Tassign (lv, a) -> { e with Tast.e = Tast.Tassign (rw_lvalue lv, rw_expr a) }
      | Tast.Tcall (name, args) -> { e with Tast.e = Tast.Tcall (name, List.map rw_expr args) }
      | Tast.Tindex (a, b) -> { e with Tast.e = Tast.Tindex (rw_expr a, rw_expr b) }
      | Tast.Tderef a -> { e with Tast.e = Tast.Tderef (rw_expr a) }
      | Tast.Taddr_of lv -> { e with Tast.e = Tast.Taddr_of (rw_lvalue lv) }
      | Tast.Tcast (ty, a) -> { e with Tast.e = Tast.Tcast (ty, rw_expr a) })
  and rw_lvalue (lv : Tast.tlvalue) =
    match lv.Tast.lv with
    | Tast.TLvar _ -> lv
    | Tast.TLindex (a, b) -> { lv with Tast.lv = Tast.TLindex (rw_expr a, rw_expr b) }
    | Tast.TLderef a -> { lv with Tast.lv = Tast.TLderef (rw_expr a) }
  in
  let rec rw_stmt = function
    | Tast.TSexpr e -> Tast.TSexpr (rw_expr e)
    | Tast.TSdecl (ty, name, init) -> Tast.TSdecl (ty, name, Option.map rw_expr init)
    | Tast.TSif (c, a, b) -> Tast.TSif (rw_expr c, List.map rw_stmt a, List.map rw_stmt b)
    | Tast.TSwhile (c, body) -> Tast.TSwhile (rw_expr c, List.map rw_stmt body)
    | Tast.TSreturn e -> Tast.TSreturn (Option.map rw_expr e)
    | Tast.TSbreak -> Tast.TSbreak
    | Tast.TScontinue -> Tast.TScontinue
    | Tast.TSblock body -> Tast.TSblock (List.map rw_stmt body)
  in
  let tglobals =
    List.map
      (fun g ->
        match (g.Ast.gty, g.Ast.ginit) with
        | Ast.Tuid, Ast.Init_int v ->
          { g with Ast.ginit = Ast.Init_int (encode (Nv_vm.Word.of_signed v)) }
        | Ast.Tarray (Ast.Tuid, _), Ast.Init_array vs ->
          {
            g with
            Ast.ginit = Ast.Init_array (List.map (fun v -> encode (Nv_vm.Word.of_signed v)) vs);
          }
        | _ -> g)
      prog.Tast.tglobals
  in
  {
    Tast.tglobals;
    tfuncs = List.map (fun f -> { f with Tast.body = List.map rw_stmt f.Tast.body }) prog.Tast.tfuncs;
  }

(* ------------------------------------------------------------------ *)
(* End to end                                                          *)
(* ------------------------------------------------------------------ *)

let check_source source =
  match Typecheck.check (Parser.parse source) with
  | Ok t -> Ok t
  | Error (e :: _) -> Error (Format.asprintf "%a" Typecheck.pp_error e)
  | Error [] -> Error "typecheck failed"
  | exception Parser.Error { line; message } ->
    Error (Printf.sprintf "parse error at line %d: %s" line message)
  | exception Lexer.Error { line; message } ->
    Error (Printf.sprintf "lexical error at line %d: %s" line message)

let transform_source ?mode ?scrub_logs ~variation source =
  match check_source source with
  | Error _ as e -> e
  | Ok tprog -> (
    let instrumented, report = instrument ?mode ?scrub_logs tprog in
    let any_reversing = ref false in
    match
      Array.map
        (fun spec ->
          let f = spec.Variation.uid in
          if (match mode with Some User_space -> true | _ -> false) && order_reversing f
          then any_reversing := true;
          Codegen.compile (reexpress ?mode ~f instrumented))
        variation.Variation.variants
    with
    | exception Codegen.Error message -> Error message
    | images ->
      let report =
        if !any_reversing then report else { report with reversed_comparisons = 0 }
      in
      Ok (images, report))

let variant_source ?mode ~f source =
  match check_source source with
  | Error _ as e -> e
  | Ok tprog ->
    let instrumented, _ = instrument ?mode tprog in
    Ok (Pretty.program (Tast.erase (reexpress ?mode ~f instrumented)))
