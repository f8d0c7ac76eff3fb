type var_id = { scope : string option; name : string }

module VarSet = Set.Make (struct
  type t = var_id

  let compare = compare
end)

module StrSet = Set.Make (String)
module Syscall = Nv_os.Syscall

(* Built-in knowledge, read off the syscall table: which builtins
   return UIDs and which parameter positions expect UIDs. *)
let builtin_uid_returning name =
  match Syscall.of_builtin name with
  | Some (_, { Syscall.ret; _ }) -> ret = Syscall.Ret_uid
  | None -> false

let builtin_uid_params name =
  match Syscall.of_builtin name with
  | Some (_, { Syscall.args; _ }) ->
    List.concat (List.mapi (fun i k -> if k = Syscall.Uid then [ i ] else []) args)
  | None -> []

type state = {
  mutable uid_vars : VarSet.t;
  mutable uid_returning : StrSet.t;  (* user functions returning UIDs *)
  mutable uid_params : (string * int, unit) Hashtbl.t;  (* (func, position) *)
  mutable changed : bool;
}

let add_var st v =
  if not (VarSet.mem v st.uid_vars) then begin
    st.uid_vars <- VarSet.add v st.uid_vars;
    st.changed <- true
  end

let add_returning st f =
  if not (StrSet.mem f st.uid_returning) then begin
    st.uid_returning <- StrSet.add f st.uid_returning;
    st.changed <- true
  end

let add_param st f i =
  if not (Hashtbl.mem st.uid_params (f, i)) then begin
    Hashtbl.replace st.uid_params (f, i) ();
    st.changed <- true
  end

(* Resolve a name in function [scope]: locals/params shadow globals.
   We approximate scoping by name (mini-C guests in this repo do not
   shadow globals with locals of a different role). *)
let resolve ~scope ~locals name =
  if StrSet.mem name locals then { scope = Some scope; name } else { scope = None; name }

let rec is_uid_expr st ~scope ~locals (e : Ast.expr) =
  match e with
  | Ast.Var name -> VarSet.mem (resolve ~scope ~locals name) st.uid_vars
  | Ast.Call (f, _) -> builtin_uid_returning f || StrSet.mem f st.uid_returning
  | Ast.Cast (Ast.Tuid, _) -> true
  | Ast.Assign (_, rhs) -> is_uid_expr st ~scope ~locals rhs
  | Ast.Int_lit _ | Ast.Char_lit _ | Ast.Str_lit _ | Ast.Unop _ | Ast.Binop _
  | Ast.Index _ | Ast.Deref _ | Ast.Addr_of _ | Ast.Cast _ ->
    false

let mark_if_var st ~scope ~locals (e : Ast.expr) =
  match e with
  | Ast.Var name -> add_var st (resolve ~scope ~locals name)
  | _ -> ()

let rec walk_expr st ~scope ~locals (e : Ast.expr) =
  let recurse e = walk_expr st ~scope ~locals e in
  let uid e = is_uid_expr st ~scope ~locals e in
  match e with
  | Ast.Int_lit _ | Ast.Char_lit _ | Ast.Str_lit _ | Ast.Var _ -> ()
  | Ast.Unop (_, a) -> recurse a
  | Ast.Binop (op, a, b) ->
    recurse a;
    recurse b;
    if Ast.is_comparison op then begin
      (* Comparison against a UID makes the other side a UID variable. *)
      if uid a then mark_if_var st ~scope ~locals b;
      if uid b then mark_if_var st ~scope ~locals a
    end
  | Ast.Assign (lv, rhs) ->
    walk_lvalue st ~scope ~locals lv;
    recurse rhs;
    if uid rhs then begin
      match lv with
      | Ast.Lvar name -> add_var st (resolve ~scope ~locals name)
      | Ast.Lindex _ | Ast.Lderef _ -> ()
    end;
    (* Flow in the other direction too: storing into a known-UID
       variable marks a variable source. *)
    (match lv with
    | Ast.Lvar name when VarSet.mem (resolve ~scope ~locals name) st.uid_vars ->
      mark_if_var st ~scope ~locals rhs
    | _ -> ())
  | Ast.Call (f, args) ->
    List.iter recurse args;
    (* Known UID parameter positions make the argument a UID... *)
    let positions =
      builtin_uid_params f
      @ List.filter_map
          (fun i -> if Hashtbl.mem st.uid_params (f, i) then Some i else None)
          (List.mapi (fun i _ -> i) args)
    in
    List.iter
      (fun i ->
        match List.nth_opt args i with
        | Some arg -> mark_if_var st ~scope ~locals arg
        | None -> ())
      positions;
    (* ...and a UID argument makes the user function's parameter a UID. *)
    List.iteri (fun i arg -> if uid arg then add_param st f i) args
  | Ast.Index (a, b) ->
    recurse a;
    recurse b
  | Ast.Deref a -> recurse a
  | Ast.Addr_of lv -> walk_lvalue st ~scope ~locals lv
  | Ast.Cast (_, a) -> recurse a

and walk_lvalue st ~scope ~locals = function
  | Ast.Lvar _ -> ()
  | Ast.Lindex (a, b) ->
    walk_expr st ~scope ~locals a;
    walk_expr st ~scope ~locals b
  | Ast.Lderef a -> walk_expr st ~scope ~locals a

let rec walk_stmt st ~scope ~locals (stmt : Ast.stmt) =
  match stmt with
  | Ast.Sexpr e ->
    walk_expr st ~scope ~locals e;
    locals
  | Ast.Sdecl (ty, name, init) ->
    let locals = StrSet.add name locals in
    (match init with
    | Some e ->
      walk_expr st ~scope ~locals e;
      if ty = Ast.Tuid then add_var st { scope = Some scope; name }
      else if is_uid_expr st ~scope ~locals e then
        add_var st { scope = Some scope; name }
    | None -> if ty = Ast.Tuid then add_var st { scope = Some scope; name });
    locals
  | Ast.Sif (c, a, b) ->
    walk_expr st ~scope ~locals c;
    ignore (walk_stmts st ~scope ~locals a);
    ignore (walk_stmts st ~scope ~locals b);
    locals
  | Ast.Swhile (c, body) ->
    walk_expr st ~scope ~locals c;
    ignore (walk_stmts st ~scope ~locals body);
    locals
  | Ast.Sreturn (Some e) ->
    walk_expr st ~scope ~locals e;
    if is_uid_expr st ~scope ~locals e then add_returning st scope;
    locals
  | Ast.Sreturn None | Ast.Sbreak | Ast.Scontinue -> locals
  | Ast.Sblock body ->
    ignore (walk_stmts st ~scope ~locals body);
    locals

and walk_stmts st ~scope ~locals stmts =
  List.fold_left (fun locals stmt -> walk_stmt st ~scope ~locals stmt) locals stmts

let run_fixpoint program =
  let st =
    {
      uid_vars = VarSet.empty;
      uid_returning = StrSet.empty;
      uid_params = Hashtbl.create 16;
      changed = true;
    }
  in
  (* Declared uid_t variables and uid_t-returning functions seed the
     analysis. *)
  List.iter
    (fun { Ast.gname; gty; _ } ->
      if gty = Ast.Tuid then st.uid_vars <- VarSet.add { scope = None; name = gname } st.uid_vars)
    (Ast.globals program);
  List.iter
    (fun f ->
      if f.Ast.ret = Ast.Tuid then st.uid_returning <- StrSet.add f.Ast.fname st.uid_returning;
      List.iteri
        (fun i (ty, name) ->
          if ty = Ast.Tuid then begin
            Hashtbl.replace st.uid_params (f.Ast.fname, i) ();
            st.uid_vars <-
              VarSet.add { scope = Some f.Ast.fname; name } st.uid_vars
          end)
        f.Ast.params)
    (Ast.funcs program);
  let iterations = ref 0 in
  while st.changed && !iterations < 100 do
    st.changed <- false;
    incr iterations;
    List.iter
      (fun f ->
        let scope = f.Ast.fname in
        let locals = StrSet.of_list (List.map snd f.Ast.params) in
        (* Inferred parameter positions become UID variables, and a
           parameter variable inferred to be a UID makes the position a
           UID sink, so call-site arguments get marked too. *)
        List.iteri
          (fun i (_, name) ->
            if Hashtbl.mem st.uid_params (scope, i) then
              add_var st { scope = Some scope; name };
            if VarSet.mem { scope = Some scope; name } st.uid_vars then
              add_param st scope i)
          f.Ast.params;
        ignore (walk_stmts st ~scope ~locals f.Ast.body))
      (Ast.funcs program)
  done;
  st

(* Variables already declared uid_t are not interesting output. *)
let declared_uid program =
  let declared = ref VarSet.empty in
  List.iter
    (fun { Ast.gname; gty; _ } ->
      if gty = Ast.Tuid then declared := VarSet.add { scope = None; name = gname } !declared)
    (Ast.globals program);
  let rec scan_stmt scope = function
    | Ast.Sdecl (Ast.Tuid, name, _) ->
      declared := VarSet.add { scope = Some scope; name } !declared
    | Ast.Sdecl _ | Ast.Sexpr _ | Ast.Sreturn _ | Ast.Sbreak | Ast.Scontinue -> ()
    | Ast.Sif (_, a, b) ->
      List.iter (scan_stmt scope) a;
      List.iter (scan_stmt scope) b
    | Ast.Swhile (_, body) | Ast.Sblock body -> List.iter (scan_stmt scope) body
  in
  List.iter
    (fun f ->
      List.iter
        (fun (ty, name) ->
          if ty = Ast.Tuid then
            declared := VarSet.add { scope = Some f.Ast.fname; name } !declared)
        f.Ast.params;
      List.iter (scan_stmt f.Ast.fname) f.Ast.body)
    (Ast.funcs program);
  !declared

let infer program =
  let st = run_fixpoint program in
  let declared = declared_uid program in
  VarSet.diff st.uid_vars declared |> VarSet.elements

let apply program =
  let st = run_fixpoint program in
  let inferred = st.uid_vars in
  let is_uid scope name = VarSet.mem { scope; name } inferred in
  let rec rewrite_stmt scope = function
    | Ast.Sdecl (Ast.Tint, name, init) when is_uid (Some scope) name ->
      Ast.Sdecl (Ast.Tuid, name, init)
    | Ast.Sdecl _ as s -> s
    | Ast.Sexpr _ as s -> s
    | Ast.Sif (c, a, b) ->
      Ast.Sif (c, List.map (rewrite_stmt scope) a, List.map (rewrite_stmt scope) b)
    | Ast.Swhile (c, body) -> Ast.Swhile (c, List.map (rewrite_stmt scope) body)
    | Ast.Sblock body -> Ast.Sblock (List.map (rewrite_stmt scope) body)
    | (Ast.Sreturn _ | Ast.Sbreak | Ast.Scontinue) as s -> s
  in
  List.map
    (function
      | Ast.Dglobal ({ Ast.gname; gty = Ast.Tint; _ } as g) when is_uid None gname ->
        Ast.Dglobal { g with Ast.gty = Ast.Tuid }
      | Ast.Dglobal _ as d -> d
      | Ast.Dfunc f ->
        let params =
          List.mapi
            (fun i (ty, name) ->
              if ty = Ast.Tint
                 && (Hashtbl.mem st.uid_params (f.Ast.fname, i)
                    || is_uid (Some f.Ast.fname) name)
              then (Ast.Tuid, name)
              else (ty, name))
            f.Ast.params
        in
        let ret =
          if f.Ast.ret = Ast.Tint && StrSet.mem f.Ast.fname st.uid_returning then Ast.Tuid
          else f.Ast.ret
        in
        Ast.Dfunc { f with Ast.params; ret; body = List.map (rewrite_stmt f.Ast.fname) f.Ast.body })
    program
