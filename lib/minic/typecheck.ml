type error = { in_func : string option; message : string }

let pp_error ppf { in_func; message } =
  match in_func with
  | Some f -> Format.fprintf ppf "in %s: %s" f message
  | None -> Format.fprintf ppf "%s" message

exception Type_error of string

let fail fmt = Printf.ksprintf (fun message -> raise (Type_error message)) fmt

let builtins =
  let module Syscall = Nv_os.Syscall in
  let arg_ty = function
    | Syscall.Int | Syscall.Len -> Ast.Tint
    | Syscall.Uid -> Ast.Tuid
    | Syscall.Ptr_string | Syscall.Ptr_out | Syscall.Ptr_in -> Ast.Tptr Ast.Tchar
  in
  let ret_ty = function Syscall.Ret_int -> Ast.Tint | Syscall.Ret_uid -> Ast.Tuid in
  List.map
    (fun (_, { Syscall.builtin; args; ret; _ }) ->
      (builtin, (List.map arg_ty args, ret_ty ret)))
    Syscall.all

type env = {
  globals : (string, Ast.ty) Hashtbl.t;
  funcs : (string, Ast.ty list * Ast.ty) Hashtbl.t;
  mutable scopes : (string, Ast.ty) Hashtbl.t list;
  mutable current_ret : Ast.ty;
  mutable loop_depth : int;
}

let push_scope env = env.scopes <- Hashtbl.create 8 :: env.scopes

let pop_scope env =
  match env.scopes with
  | [] -> ()
  | _ :: rest -> env.scopes <- rest

let declare_local env name ty =
  match env.scopes with
  | [] -> fail "internal: no scope"
  | scope :: _ ->
    if Hashtbl.mem scope name then fail "duplicate declaration of %s" name;
    Hashtbl.add scope name ty

let lookup_var env name =
  let rec search = function
    | [] -> Hashtbl.find_opt env.globals name
    | scope :: rest -> (
      match Hashtbl.find_opt scope name with Some ty -> Some ty | None -> search rest)
  in
  search env.scopes

(* Array-to-pointer decay for value contexts. *)
let decay texpr =
  match texpr.Tast.ty with
  | Ast.Tarray (elem, _) -> Tast.{ texpr with ty = Ast.Tptr elem }
  | _ -> texpr

let is_numeric = function Ast.Tint | Ast.Tchar -> true | _ -> false

(* Scalar types usable in boolean contexts. uid_t is allowed here: the
   implied comparison against 0 is made explicit by the transformer. *)
let is_condition_ty = function
  | Ast.Tint | Ast.Tchar | Ast.Tuid | Ast.Tptr _ -> true
  | Ast.Tvoid | Ast.Tarray _ -> false

let is_int_literal texpr =
  match texpr.Tast.e with
  | Tast.Tint_lit _ | Tast.Tchar_lit _ -> true
  | Tast.Tunop (Ast.Neg, { e = Tast.Tint_lit _; _ }) -> true
  | _ -> false

let literal_value texpr =
  match texpr.Tast.e with
  | Tast.Tint_lit v -> v
  | Tast.Tchar_lit c -> Char.code c
  | Tast.Tunop (Ast.Neg, { e = Tast.Tint_lit v; _ }) -> -v
  | _ -> fail "internal: not a literal"

(* Coerce [texpr] to [want]ed type, applying the two legal implicit
   conversions: numeric int<->char, and int literal -> uid_t. *)
let coerce want texpr =
  let texpr = decay texpr in
  let have = texpr.Tast.ty in
  if Ast.ty_equal want have then texpr
  else if is_numeric want && is_numeric have then Tast.{ texpr with ty = want }
  else if want = Ast.Tuid && is_int_literal texpr then Tast.uid_constant (literal_value texpr)
  else if
    (* The literal 0 is a valid pointer constant. *)
    match (want, texpr.Tast.e) with
    | Ast.Tptr _, Tast.Tint_lit 0 -> true
    | _ -> false
  then Tast.{ texpr with ty = want }
  else fail "expected %s but found %s" (Pretty.ty want) (Pretty.ty have)

let rec check_expr env (expr : Ast.expr) : Tast.texpr =
  match expr with
  | Ast.Int_lit v -> Tast.mk (Tast.Tint_lit v) Ast.Tint
  | Ast.Char_lit c -> Tast.mk (Tast.Tchar_lit c) Ast.Tchar
  | Ast.Str_lit s -> Tast.mk (Tast.Tstr_lit s) (Ast.Tptr Ast.Tchar)
  | Ast.Var name -> (
    match lookup_var env name with
    | None -> fail "undefined variable %s" name
    | Some ty -> Tast.mk (Tast.Tvar name) ty)
  | Ast.Unop (op, e) -> check_unop env op e
  | Ast.Binop (op, a, b) -> check_binop env op a b
  | Ast.Assign (lv, e) ->
    let tlv = check_lvalue env lv in
    let te = coerce tlv.Tast.lv_ty (check_expr env e) in
    Tast.mk (Tast.Tassign (tlv, te)) tlv.Tast.lv_ty
  | Ast.Call (name, args) -> check_call env name args
  | Ast.Index (base, idx) ->
    let tbase = decay (check_expr env base) in
    let tidx = check_expr env idx in
    (match (tbase.Tast.ty, tidx.Tast.ty) with
    | Ast.Tptr elem, (Ast.Tint | Ast.Tchar) -> Tast.mk (Tast.Tindex (tbase, tidx)) elem
    | Ast.Tptr _, other -> fail "array index must be numeric, found %s" (Pretty.ty other)
    | other, _ -> fail "cannot index a value of type %s" (Pretty.ty other))
  | Ast.Deref e -> (
    let te = decay (check_expr env e) in
    match te.Tast.ty with
    | Ast.Tptr elem -> Tast.mk (Tast.Tderef te) elem
    | other -> fail "cannot dereference %s" (Pretty.ty other))
  | Ast.Addr_of lv -> (
    let tlv = check_lvalue env lv in
    match tlv.Tast.lv_ty with
    | Ast.Tarray (elem, _) -> Tast.mk (Tast.Taddr_of tlv) (Ast.Tptr elem)
    | ty -> Tast.mk (Tast.Taddr_of tlv) (Ast.Tptr ty))
  | Ast.Cast (ty, e) ->
    let te = decay (check_expr env e) in
    (match (ty, te.Tast.ty) with
    | (Ast.Tint | Ast.Tchar | Ast.Tuid), (Ast.Tint | Ast.Tchar | Ast.Tuid) ->
      Tast.mk (Tast.Tcast (ty, te)) ty
    | Ast.Tptr _, (Ast.Tptr _ | Ast.Tint) -> Tast.mk (Tast.Tcast (ty, te)) ty
    | (Ast.Tint | Ast.Tuid), Ast.Tptr _ -> Tast.mk (Tast.Tcast (ty, te)) ty
    | _ -> fail "invalid cast from %s to %s" (Pretty.ty te.Tast.ty) (Pretty.ty ty))

and check_unop env op e =
  let te = decay (check_expr env e) in
  match op with
  | Ast.Lnot ->
    if is_condition_ty te.Tast.ty then Tast.mk (Tast.Tunop (Ast.Lnot, te)) Ast.Tint
    else fail "'!' applied to %s" (Pretty.ty te.Tast.ty)
  | Ast.Neg | Ast.Bnot ->
    if is_numeric te.Tast.ty then Tast.mk (Tast.Tunop (op, te)) Ast.Tint
    else fail "unary arithmetic on %s" (Pretty.ty te.Tast.ty)

and check_binop env op a b =
  let ta = decay (check_expr env a) in
  let tb = decay (check_expr env b) in
  let tya = ta.Tast.ty and tyb = tb.Tast.ty in
  match op with
  | Ast.Land | Ast.Lor ->
    if is_condition_ty tya && is_condition_ty tyb then
      Tast.mk (Tast.Tbinop (op, ta, tb)) Ast.Tint
    else fail "logical operator on %s and %s" (Pretty.ty tya) (Pretty.ty tyb)
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
    (* uid_t compares against uid_t (with literal coercion); numeric
       against numeric; pointers against same-type pointers or 0. *)
    match (tya, tyb) with
    | Ast.Tuid, _ ->
      let tb = coerce Ast.Tuid tb in
      Tast.mk (Tast.Tbinop (op, ta, tb)) Ast.Tint
    | _, Ast.Tuid ->
      let ta = coerce Ast.Tuid ta in
      Tast.mk (Tast.Tbinop (op, ta, tb)) Ast.Tint
    | a, b when is_numeric a && is_numeric b -> Tast.mk (Tast.Tbinop (op, ta, tb)) Ast.Tint
    | Ast.Tptr _, _ ->
      let tb = coerce tya tb in
      Tast.mk (Tast.Tbinop (op, ta, tb)) Ast.Tint
    | _, Ast.Tptr _ ->
      let ta = coerce tyb ta in
      Tast.mk (Tast.Tbinop (op, ta, tb)) Ast.Tint
    | _ -> fail "cannot compare %s with %s" (Pretty.ty tya) (Pretty.ty tyb))
  | Ast.Add | Ast.Sub -> (
    match (tya, tyb) with
    | a, b when is_numeric a && is_numeric b ->
      Tast.mk (Tast.Tbinop (op, ta, tb)) Ast.Tint
    | Ast.Tptr _, b when is_numeric b -> Tast.mk (Tast.Tbinop (op, ta, tb)) tya
    | a, Ast.Tptr _ when is_numeric a && op = Ast.Add ->
      Tast.mk (Tast.Tbinop (op, ta, tb)) tyb
    | Ast.Tuid, _ | _, Ast.Tuid ->
      fail "arithmetic on uid_t values is not allowed (only assignment and comparison)"
    | _ -> fail "cannot apply arithmetic to %s and %s" (Pretty.ty tya) (Pretty.ty tyb))
  | Ast.Mul | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Shl | Ast.Shr ->
    if is_numeric tya && is_numeric tyb then Tast.mk (Tast.Tbinop (op, ta, tb)) Ast.Tint
    else if tya = Ast.Tuid || tyb = Ast.Tuid then
      fail "arithmetic on uid_t values is not allowed (only assignment and comparison)"
    else fail "cannot apply arithmetic to %s and %s" (Pretty.ty tya) (Pretty.ty tyb)

and check_call env name args =
  let sig_opt =
    match List.assoc_opt name builtins with
    | Some (params, ret) -> Some (params, ret)
    | None -> Hashtbl.find_opt env.funcs name
  in
  match sig_opt with
  | None -> fail "call to undefined function %s" name
  | Some (params, ret) ->
    if List.length params <> List.length args then
      fail "%s expects %d arguments, got %d" name (List.length params) (List.length args);
    let targs =
      List.map2 (fun want arg -> coerce want (check_expr env arg)) params args
    in
    Tast.mk (Tast.Tcall (name, targs)) ret

and check_lvalue env (lv : Ast.lvalue) : Tast.tlvalue =
  match lv with
  | Ast.Lvar name -> (
    match lookup_var env name with
    | None -> fail "undefined variable %s" name
    | Some ty -> Tast.{ lv = TLvar name; lv_ty = ty })
  | Ast.Lindex (base, idx) -> (
    let tbase = decay (check_expr env base) in
    let tidx = check_expr env idx in
    match (tbase.Tast.ty, tidx.Tast.ty) with
    | Ast.Tptr elem, (Ast.Tint | Ast.Tchar) ->
      Tast.{ lv = TLindex (tbase, tidx); lv_ty = elem }
    | Ast.Tptr _, other -> fail "array index must be numeric, found %s" (Pretty.ty other)
    | other, _ -> fail "cannot index a value of type %s" (Pretty.ty other))
  | Ast.Lderef e -> (
    let te = decay (check_expr env e) in
    match te.Tast.ty with
    | Ast.Tptr elem -> Tast.{ lv = TLderef te; lv_ty = elem }
    | other -> fail "cannot dereference %s" (Pretty.ty other))

let check_condition env expr =
  let te = decay (check_expr env expr) in
  if is_condition_ty te.Tast.ty then te
  else fail "condition has type %s" (Pretty.ty te.Tast.ty)

let rec check_stmt env (stmt : Ast.stmt) : Tast.tstmt =
  match stmt with
  | Ast.Sexpr e -> Tast.TSexpr (check_expr env e)
  | Ast.Sdecl (ty, name, init) ->
    (match ty with
    | Ast.Tvoid -> fail "variable %s has type void" name
    | Ast.Tarray _ when init <> None -> fail "array %s cannot have an initializer" name
    | _ -> ());
    let tinit = Option.map (fun e -> coerce ty (check_expr env e)) init in
    declare_local env name ty;
    Tast.TSdecl (ty, name, tinit)
  | Ast.Sif (cond, then_s, else_s) ->
    let tcond = check_condition env cond in
    let tthen = check_stmts env then_s in
    let telse = check_stmts env else_s in
    Tast.TSif (tcond, tthen, telse)
  | Ast.Swhile (cond, body) ->
    let tcond = check_condition env cond in
    env.loop_depth <- env.loop_depth + 1;
    let tbody = check_stmts env body in
    env.loop_depth <- env.loop_depth - 1;
    Tast.TSwhile (tcond, tbody)
  | Ast.Sreturn None ->
    if env.current_ret <> Ast.Tvoid then fail "return without a value in a non-void function";
    Tast.TSreturn None
  | Ast.Sreturn (Some e) ->
    if env.current_ret = Ast.Tvoid then fail "return with a value in a void function";
    Tast.TSreturn (Some (coerce env.current_ret (check_expr env e)))
  | Ast.Sbreak ->
    if env.loop_depth = 0 then fail "break outside a loop";
    Tast.TSbreak
  | Ast.Scontinue ->
    if env.loop_depth = 0 then fail "continue outside a loop";
    Tast.TScontinue
  | Ast.Sblock body -> Tast.TSblock (check_stmts env body)

and check_stmts env stmts =
  push_scope env;
  let result = List.map (check_stmt env) stmts in
  pop_scope env;
  result

let check_global errors (g : Ast.global) =
  let bad fmt = Printf.ksprintf (fun m -> errors := { in_func = None; message = m } :: !errors) fmt in
  (match g.Ast.gty with
  | Ast.Tvoid -> bad "global %s has type void" g.Ast.gname
  | _ -> ());
  match (g.Ast.gty, g.Ast.ginit) with
  | _, Ast.Init_none -> ()
  | (Ast.Tint | Ast.Tchar | Ast.Tuid), Ast.Init_int _ -> ()
  | Ast.Tarray (Ast.Tchar, n), Ast.Init_string s ->
    if String.length s + 1 > n then
      bad "string initializer for %s does not fit (needs %d bytes)" g.Ast.gname
        (String.length s + 1)
  | Ast.Tarray ((Ast.Tint | Ast.Tuid), n), Ast.Init_array vs ->
    if List.length vs > n then bad "too many initializers for %s" g.Ast.gname
  | _, _ -> bad "invalid initializer for global %s" g.Ast.gname

let check (program : Ast.program) =
  let errors = ref [] in
  let globals = Hashtbl.create 16 in
  let funcs = Hashtbl.create 16 in
  List.iter
    (fun g ->
      if Hashtbl.mem globals g.Ast.gname then
        errors := { in_func = None; message = "duplicate global " ^ g.Ast.gname } :: !errors;
      check_global errors g;
      Hashtbl.replace globals g.Ast.gname g.Ast.gty)
    (Ast.globals program);
  List.iter
    (fun f ->
      if Hashtbl.mem funcs f.Ast.fname || List.mem_assoc f.Ast.fname builtins then
        errors :=
          { in_func = None; message = "duplicate function " ^ f.Ast.fname } :: !errors;
      Hashtbl.replace funcs f.Ast.fname (List.map fst f.Ast.params, f.Ast.ret))
    (Ast.funcs program);
  let env = { globals; funcs; scopes = []; current_ret = Ast.Tvoid; loop_depth = 0 } in
  let tfuncs =
    List.filter_map
      (fun f ->
        env.current_ret <- f.Ast.ret;
        env.loop_depth <- 0;
        env.scopes <- [];
        push_scope env;
        (try
           List.iter
             (fun (ty, name) ->
               match ty with
               | Ast.Tvoid | Ast.Tarray _ ->
                 fail "parameter %s has invalid type %s" name (Pretty.ty ty)
               | _ -> declare_local env name ty)
             f.Ast.params
         with Type_error message ->
           errors := { in_func = Some f.Ast.fname; message } :: !errors);
        match check_stmts env f.Ast.body with
        | body ->
          pop_scope env;
          Some Tast.{ fname = f.Ast.fname; ret = f.Ast.ret; params = f.Ast.params; body }
        | exception Type_error message ->
          errors := { in_func = Some f.Ast.fname; message } :: !errors;
          None)
      (Ast.funcs program)
  in
  if !errors <> [] then Error (List.rev !errors)
  else Ok Tast.{ tglobals = Ast.globals program; tfuncs }
