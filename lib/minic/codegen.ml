exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

module Isa = Nv_vm.Isa
module Word = Nv_vm.Word
module Image = Nv_vm.Image
module Syscall = Nv_os.Syscall

let r0 = 0
let r1 = 1
let fp = Nv_vm.Cpu.fp_index
let sp = Nv_vm.Cpu.sp_index
let scratch = 15

(* ------------------------------------------------------------------ *)
(* Emission state with label/global backpatching                       *)
(* ------------------------------------------------------------------ *)

type fixup_target =
  | To_label of int  (** code label id *)
  | To_global of string  (** symbol in the data region *)
  | To_string of int  (** interned string id *)
  | To_frame of int ref  (** function frame size, known after the body *)

type cg = {
  mutable code_rev : (Image.item * fixup_target option) list;
  mutable ninstr : int;
  labels : (int, int) Hashtbl.t;  (* label id -> instruction index *)
  mutable next_label : int;
  data : Buffer.t;  (* initialized globals, then the string table *)
  global_offsets : (string, int) Hashtbl.t;  (* offset within data *)
  strings : (string, int) Hashtbl.t;  (* literal -> string id *)
  mutable string_list : string list;  (* reversed; id = position *)
  func_labels : (string, int) Hashtbl.t;
}

let new_label cg =
  let l = cg.next_label in
  cg.next_label <- l + 1;
  l

let place_label cg l = Hashtbl.replace cg.labels l cg.ninstr

let emit cg instr =
  cg.code_rev <- (Image.{ instr; relocate = false }, None) :: cg.code_rev;
  cg.ninstr <- cg.ninstr + 1

let emit_fix cg instr target =
  cg.code_rev <- (Image.{ instr; relocate = true }, Some target) :: cg.code_rev;
  cg.ninstr <- cg.ninstr + 1

let intern_string cg s =
  match Hashtbl.find_opt cg.strings s with
  | Some id -> id
  | None ->
    let id = List.length cg.string_list in
    Hashtbl.add cg.strings s id;
    cg.string_list <- s :: cg.string_list;
    id

(* ------------------------------------------------------------------ *)
(* Frame environment                                                   *)
(* ------------------------------------------------------------------ *)

type slot = Local of int  (** fp-relative offset *) | Param of int | Global_var of string

type fenv = {
  cg : cg;
  global_types : (string, Ast.ty) Hashtbl.t;
  mutable scopes : (string * (slot * Ast.ty)) list list;
  mutable next_slot : int;  (* bytes of locals currently live *)
  mutable max_slot : int;
  mutable break_labels : int list;
  mutable continue_labels : int list;
  epilogue : int;
}

let push_scope env = env.scopes <- [] :: env.scopes

let pop_scope env saved_slot =
  (match env.scopes with [] -> () | _ :: rest -> env.scopes <- rest);
  env.next_slot <- saved_slot

let declare env name slot ty =
  match env.scopes with
  | [] -> fail "internal: no scope"
  | scope :: rest -> env.scopes <- ((name, (slot, ty)) :: scope) :: rest

let local_size = function
  | Ast.Tarray (Ast.Tchar, n) -> (n + 3) land lnot 3
  | Ast.Tarray (_, n) -> 4 * n
  | _ -> 4

let alloc_local env ty =
  env.next_slot <- env.next_slot + local_size ty;
  env.max_slot <- max env.max_slot env.next_slot;
  Local (-env.next_slot)

let lookup env name =
  let rec search = function
    | [] -> (
      match Hashtbl.find_opt env.global_types name with
      | Some ty -> Some (Global_var name, ty)
      | None -> None)
    | scope :: rest -> (
      match List.assoc_opt name scope with Some s -> Some s | None -> search rest)
  in
  search env.scopes

let elem_size = function Ast.Tchar -> 1 | _ -> 4

let pointee = function
  | Ast.Tptr t -> t
  | Ast.Tarray (t, _) -> t
  | ty -> fail "internal: not a pointer type %s" (Pretty.ty ty)

let is_char_ty = function Ast.Tchar -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let cond_of_binop = function
  | Ast.Eq -> Isa.Eq
  | Ast.Ne -> Isa.Ne
  | Ast.Lt -> Isa.Lt
  | Ast.Le -> Isa.Le
  | Ast.Gt -> Isa.Gt
  | Ast.Ge -> Isa.Ge
  | _ -> fail "internal: not a comparison"

let alu_of_binop = function
  | Ast.Add -> Isa.Add
  | Ast.Sub -> Isa.Sub
  | Ast.Mul -> Isa.Mul
  | Ast.Div -> Isa.Div
  | Ast.Mod -> Isa.Mod
  | Ast.Band -> Isa.And
  | Ast.Bor -> Isa.Or
  | Ast.Bxor -> Isa.Xor
  | Ast.Shl -> Isa.Shl
  | Ast.Shr -> Isa.Shr
  | _ -> fail "internal: not an ALU operation"

(* Every gen_* leaves its result in r0 and preserves nothing else;
   intermediate values are kept on the guest stack. *)
let rec gen_expr env (te : Tast.texpr) =
  let cg = env.cg in
  match te.Tast.e with
  | Tast.Tint_lit v -> emit cg (Isa.Mov (r0, Isa.Imm (Word.of_signed v)))
  | Tast.Tchar_lit c -> emit cg (Isa.Mov (r0, Isa.Imm (Char.code c)))
  | Tast.Tstr_lit s ->
    let id = intern_string cg s in
    emit_fix cg (Isa.Mov (r0, Isa.Imm 0)) (To_string id)
  | Tast.Tvar name -> (
    match lookup env name with
    | None -> fail "internal: unresolved variable %s" name
    | Some (slot, ty) -> (
      match ty with
      | Ast.Tarray _ -> gen_slot_addr env slot
      | _ -> gen_slot_load env slot ty))
  | Tast.Tunop (Ast.Neg, a) ->
    gen_expr env a;
    emit cg (Isa.Mov (r1, Isa.Reg r0));
    emit cg (Isa.Mov (r0, Isa.Imm 0));
    emit cg (Isa.Binop (Isa.Sub, r0, r0, Isa.Reg r1))
  | Tast.Tunop (Ast.Lnot, a) ->
    gen_expr env a;
    emit cg (Isa.Setcc (Isa.Eq, r0, r0, Isa.Imm 0))
  | Tast.Tunop (Ast.Bnot, a) ->
    gen_expr env a;
    emit cg (Isa.Binop (Isa.Xor, r0, r0, Isa.Imm Word.max_value))
  | Tast.Tbinop (Ast.Land, a, b) ->
    let short = new_label cg in
    let done_ = new_label cg in
    gen_expr env a;
    emit cg (Isa.Mov (scratch, Isa.Imm 0));
    emit_fix cg (Isa.Br (Isa.Eq, r0, scratch, 0)) (To_label short);
    gen_expr env b;
    emit cg (Isa.Setcc (Isa.Ne, r0, r0, Isa.Imm 0));
    emit_fix cg (Isa.Jmp 0) (To_label done_);
    place_label cg short;
    emit cg (Isa.Mov (r0, Isa.Imm 0));
    place_label cg done_
  | Tast.Tbinop (Ast.Lor, a, b) ->
    let short = new_label cg in
    let done_ = new_label cg in
    gen_expr env a;
    emit cg (Isa.Mov (scratch, Isa.Imm 0));
    emit_fix cg (Isa.Br (Isa.Ne, r0, scratch, 0)) (To_label short);
    gen_expr env b;
    emit cg (Isa.Setcc (Isa.Ne, r0, r0, Isa.Imm 0));
    emit_fix cg (Isa.Jmp 0) (To_label done_);
    place_label cg short;
    emit cg (Isa.Mov (r0, Isa.Imm 1));
    place_label cg done_
  | Tast.Tbinop (op, a, b) when Ast.is_comparison op ->
    gen_two env a b;
    emit cg (Isa.Setcc (cond_of_binop op, r0, r0, Isa.Reg r1))
  | Tast.Tbinop ((Ast.Add | Ast.Sub) as op, a, b) -> (
    (* Pointer arithmetic scales the integer operand. *)
    match (a.Tast.ty, b.Tast.ty) with
    | (Ast.Tptr _ | Ast.Tarray _), (Ast.Tint | Ast.Tchar) ->
      gen_two env a b;
      let size = elem_size (pointee a.Tast.ty) in
      if size > 1 then emit cg (Isa.Binop (Isa.Mul, r1, r1, Isa.Imm size));
      emit cg (Isa.Binop (alu_of_binop op, r0, r0, Isa.Reg r1))
    | (Ast.Tint | Ast.Tchar), (Ast.Tptr _ | Ast.Tarray _) ->
      gen_two env a b;
      let size = elem_size (pointee b.Tast.ty) in
      if size > 1 then emit cg (Isa.Binop (Isa.Mul, r0, r0, Isa.Imm size));
      emit cg (Isa.Binop (alu_of_binop op, r0, r0, Isa.Reg r1))
    | _ ->
      gen_two env a b;
      emit cg (Isa.Binop (alu_of_binop op, r0, r0, Isa.Reg r1)))
  | Tast.Tbinop (op, a, b) ->
    gen_two env a b;
    emit cg (Isa.Binop (alu_of_binop op, r0, r0, Isa.Reg r1))
  | Tast.Tassign (lv, rhs) -> gen_assign env lv rhs
  | Tast.Tcall (name, args) -> gen_call env name args
  | Tast.Tindex (base, idx) ->
    gen_index_addr env base idx;
    gen_load_through env (pointee base.Tast.ty)
  | Tast.Tderef ptr ->
    gen_expr env ptr;
    gen_load_through env (pointee ptr.Tast.ty)
  | Tast.Taddr_of lv -> gen_lvalue_addr env lv
  | Tast.Tcast (ty, a) ->
    gen_expr env a;
    if is_char_ty ty then emit cg (Isa.Binop (Isa.And, r0, r0, Isa.Imm 0xFF))

(* Evaluate a then b, leaving a in r0 and b in r1. *)
and gen_two env a b =
  let cg = env.cg in
  gen_expr env a;
  emit cg (Isa.Push r0);
  gen_expr env b;
  emit cg (Isa.Mov (r1, Isa.Reg r0));
  emit cg (Isa.Pop r0)

(* r0 holds an address; load the value it points to. *)
and gen_load_through env elem_ty =
  let cg = env.cg in
  if is_char_ty elem_ty then emit cg (Isa.Loadb (r0, r0, 0))
  else emit cg (Isa.Load (r0, r0, 0))

and gen_slot_addr env slot =
  let cg = env.cg in
  match slot with
  | Local off | Param off ->
    emit cg (Isa.Mov (r0, Isa.Reg fp));
    emit cg (Isa.Binop (Isa.Add, r0, r0, Isa.Imm (Word.of_signed off)))
  | Global_var name -> emit_fix cg (Isa.Mov (r0, Isa.Imm 0)) (To_global name)

and gen_slot_load env slot ty =
  let cg = env.cg in
  match slot with
  | Local off | Param off ->
    if is_char_ty ty then emit cg (Isa.Loadb (r0, fp, off))
    else emit cg (Isa.Load (r0, fp, off))
  | Global_var name ->
    emit_fix cg (Isa.Mov (r0, Isa.Imm 0)) (To_global name);
    gen_load_through env ty

and gen_index_addr env base idx =
  let cg = env.cg in
  gen_expr env base;
  emit cg (Isa.Push r0);
  gen_expr env idx;
  let size = elem_size (pointee base.Tast.ty) in
  if size > 1 then emit cg (Isa.Binop (Isa.Mul, r0, r0, Isa.Imm size));
  emit cg (Isa.Mov (r1, Isa.Reg r0));
  emit cg (Isa.Pop r0);
  emit cg (Isa.Binop (Isa.Add, r0, r0, Isa.Reg r1))

and gen_lvalue_addr env (tlv : Tast.tlvalue) =
  match tlv.Tast.lv with
  | Tast.TLvar name -> (
    match lookup env name with
    | None -> fail "internal: unresolved variable %s" name
    | Some (slot, _) -> gen_slot_addr env slot)
  | Tast.TLindex (base, idx) -> gen_index_addr env base idx
  | Tast.TLderef ptr -> gen_expr env ptr

and gen_assign env tlv rhs =
  let cg = env.cg in
  (* Fast path: direct store to a scalar local/param slot. *)
  match tlv.Tast.lv with
  | Tast.TLvar name when (match lookup env name with
                          | Some ((Local _ | Param _), _) -> true
                          | _ -> false) ->
    let slot, ty = Option.get (lookup env name) in
    let off = match slot with Local o | Param o -> o | Global_var _ -> assert false in
    gen_expr env rhs;
    if is_char_ty ty then emit cg (Isa.Storeb (fp, off, r0))
    else emit cg (Isa.Store (fp, off, r0))
  | _ ->
    gen_lvalue_addr env tlv;
    emit cg (Isa.Push r0);
    gen_expr env rhs;
    emit cg (Isa.Pop r1);
    if is_char_ty tlv.Tast.lv_ty then emit cg (Isa.Storeb (r1, 0, r0))
    else emit cg (Isa.Store (r1, 0, r0))

and gen_call env name args =
  let cg = env.cg in
  List.iter
    (fun arg ->
      gen_expr env arg;
      emit cg (Isa.Push r0))
    args;
  let n = List.length args in
  match Syscall.of_builtin name with
  | Some (number, _) ->
    (* Arguments land in r1..r5; the syscall number in r0. *)
    for i = n downto 1 do
      emit cg (Isa.Pop i)
    done;
    emit cg (Isa.Mov (r0, Isa.Imm number));
    emit cg Isa.Syscall
  | None ->
    let label =
      match Hashtbl.find_opt cg.func_labels name with
      | Some l -> l
      | None -> fail "internal: call to unknown function %s" name
    in
    emit_fix cg (Isa.Call 0) (To_label label);
    if n > 0 then emit cg (Isa.Binop (Isa.Add, sp, sp, Isa.Imm (4 * n)))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let gen_condition_branch env cond ~on_false =
  let cg = env.cg in
  gen_expr env cond;
  emit cg (Isa.Mov (scratch, Isa.Imm 0));
  emit_fix cg (Isa.Br (Isa.Eq, r0, scratch, 0)) (To_label on_false)

let rec gen_stmt env (stmt : Tast.tstmt) =
  let cg = env.cg in
  match stmt with
  | Tast.TSexpr e -> gen_expr env e
  | Tast.TSdecl (ty, name, init) -> (
    let slot = alloc_local env ty in
    declare env name slot ty;
    match init with
    | None -> ()
    | Some rhs ->
      let off = match slot with Local o -> o | Param _ | Global_var _ -> assert false in
      gen_expr env rhs;
      if is_char_ty ty then emit cg (Isa.Storeb (fp, off, r0))
      else emit cg (Isa.Store (fp, off, r0)))
  | Tast.TSif (cond, then_s, else_s) ->
    let else_label = new_label cg in
    let end_label = new_label cg in
    gen_condition_branch env cond ~on_false:else_label;
    gen_block env then_s;
    if else_s = [] then place_label cg else_label
    else begin
      emit_fix cg (Isa.Jmp 0) (To_label end_label);
      place_label cg else_label;
      gen_block env else_s
    end;
    if else_s <> [] then place_label cg end_label
  | Tast.TSwhile (cond, body) ->
    let top = new_label cg in
    let exit = new_label cg in
    place_label cg top;
    gen_condition_branch env cond ~on_false:exit;
    env.break_labels <- exit :: env.break_labels;
    env.continue_labels <- top :: env.continue_labels;
    gen_block env body;
    env.break_labels <- List.tl env.break_labels;
    env.continue_labels <- List.tl env.continue_labels;
    emit_fix cg (Isa.Jmp 0) (To_label top);
    place_label cg exit
  | Tast.TSreturn e ->
    (match e with Some e -> gen_expr env e | None -> ());
    emit_fix cg (Isa.Jmp 0) (To_label env.epilogue)
  | Tast.TSbreak -> (
    match env.break_labels with
    | label :: _ -> emit_fix cg (Isa.Jmp 0) (To_label label)
    | [] -> fail "internal: break outside loop")
  | Tast.TScontinue -> (
    match env.continue_labels with
    | label :: _ -> emit_fix cg (Isa.Jmp 0) (To_label label)
    | [] -> fail "internal: continue outside loop")
  | Tast.TSblock body -> gen_block env body

and gen_block env body =
  let saved = env.next_slot in
  push_scope env;
  List.iter (gen_stmt env) body;
  pop_scope env saved

(* ------------------------------------------------------------------ *)
(* Globals and whole-program assembly                                  *)
(* ------------------------------------------------------------------ *)

let put_word buf v =
  let w = Word.of_signed v in
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr (Word.byte w i))
  done

let layout_globals cg (globals : Ast.global list) =
  List.iter
    (fun { Ast.gname; gty; ginit } ->
      Hashtbl.replace cg.global_offsets gname (Buffer.length cg.data);
      match (gty, ginit) with
      | _, Ast.Init_int v -> put_word cg.data v
      | Ast.Tarray (Ast.Tchar, n), Ast.Init_string s ->
        Buffer.add_string cg.data s;
        Buffer.add_string cg.data (String.make (((n + 3) land lnot 3) - String.length s) '\000')
      | Ast.Tarray (_, n), Ast.Init_array vs ->
        List.iter (put_word cg.data) vs;
        for _ = List.length vs + 1 to n do
          put_word cg.data 0
        done
      | Ast.Tarray (Ast.Tchar, n), Ast.Init_none ->
        Buffer.add_string cg.data (String.make ((n + 3) land lnot 3) '\000')
      | Ast.Tarray (_, n), Ast.Init_none ->
        for _ = 1 to n do
          put_word cg.data 0
        done
      | _, Ast.Init_none -> put_word cg.data 0
      | _, _ -> fail "invalid initializer for global %s" gname)
    globals

let compile (prog : Tast.tprogram) =
  let cg =
    {
      code_rev = [];
      ninstr = 0;
      labels = Hashtbl.create 64;
      next_label = 0;
      data = Buffer.create 1024;
      global_offsets = Hashtbl.create 32;
      strings = Hashtbl.create 32;
      string_list = [];
      func_labels = Hashtbl.create 16;
    }
  in
  layout_globals cg prog.Tast.tglobals;
  let global_types = Hashtbl.create 32 in
  List.iter
    (fun { Ast.gname; gty; _ } -> Hashtbl.replace global_types gname gty)
    prog.Tast.tglobals;
  (match List.find_opt (fun f -> f.Tast.fname = "main") prog.Tast.tfuncs with
  | None -> fail "program has no main function"
  | Some f when f.Tast.params <> [] -> fail "main must take no parameters"
  | Some _ -> ());
  List.iter
    (fun f -> Hashtbl.replace cg.func_labels f.Tast.fname (new_label cg))
    prog.Tast.tfuncs;
  (* Entry stub: call main, then exit with its result. *)
  emit_fix cg (Isa.Call 0) (To_label (Hashtbl.find cg.func_labels "main"));
  emit cg (Isa.Mov (r1, Isa.Reg r0));
  emit cg (Isa.Mov (r0, Isa.Imm Syscall.sys_exit));
  emit cg Isa.Syscall;
  emit cg Isa.Halt;
  (* Function bodies. *)
  List.iter
    (fun f ->
      place_label cg (Hashtbl.find cg.func_labels f.Tast.fname);
      let epilogue = new_label cg in
      let env =
        {
          cg;
          global_types;
          scopes = [ [] ];
          next_slot = 0;
          max_slot = 0;
          break_labels = [];
          continue_labels = [];
          epilogue;
        }
      in
      let nparams = List.length f.Tast.params in
      List.iteri
        (fun i (ty, name) -> declare env name (Param (8 + (4 * (nparams - 1 - i)))) ty)
        f.Tast.params;
      emit cg (Isa.Push fp);
      emit cg (Isa.Mov (fp, Isa.Reg sp));
      let frame = ref 0 in
      emit_fix cg (Isa.Binop (Isa.Sub, sp, sp, Isa.Imm 0)) (To_frame frame);
      (* Default result for functions that fall off the end. *)
      emit cg (Isa.Mov (r0, Isa.Imm 0));
      List.iter (gen_stmt env) f.Tast.body;
      frame := (env.max_slot + 3) land lnot 3;
      place_label cg epilogue;
      emit cg (Isa.Mov (sp, Isa.Reg fp));
      emit cg (Isa.Pop fp);
      emit cg Isa.Ret)
    prog.Tast.tfuncs;
  (* String table goes after the globals in the data region. *)
  let string_offsets =
    let strings = List.rev cg.string_list in
    List.map
      (fun s ->
        let off = Buffer.length cg.data in
        Buffer.add_string cg.data s;
        Buffer.add_char cg.data '\000';
        off)
      strings
  in
  let code_bytes = cg.ninstr * Isa.instr_size in
  let data_off = (code_bytes + 15) land lnot 15 in
  let items = Array.make cg.ninstr Image.{ instr = Isa.Nop; relocate = false } in
  let resolve_label l =
    match Hashtbl.find_opt cg.labels l with
    | Some idx -> idx * Isa.instr_size
    | None -> fail "internal: unplaced label %d" l
  in
  List.iteri
    (fun rev_i (item, fixup) ->
      let i = cg.ninstr - 1 - rev_i in
      let item =
        match fixup with
        | None -> item
        | Some target -> (
          let patch_imm value relocate =
            let instr =
              match item.Image.instr with
              | Isa.Mov (rd, Isa.Imm _) -> Isa.Mov (rd, Isa.Imm value)
              | Isa.Binop (op, rd, rs, Isa.Imm _) -> Isa.Binop (op, rd, rs, Isa.Imm value)
              | Isa.Br (c, rs, rt, _) -> Isa.Br (c, rs, rt, value)
              | Isa.Jmp _ -> Isa.Jmp value
              | Isa.Call _ -> Isa.Call value
              | other ->
                fail "internal: fixup on %s" (Format.asprintf "%a" Isa.pp other)
            in
            Image.{ instr; relocate }
          in
          match target with
          | To_label l -> patch_imm (resolve_label l) true
          | To_global name -> (
            match Hashtbl.find_opt cg.global_offsets name with
            | Some off -> patch_imm (data_off + off) true
            | None -> fail "internal: unknown global %s" name)
          | To_string id -> patch_imm (data_off + List.nth string_offsets id) true
          | To_frame size -> patch_imm !size false)
      in
      items.(i) <- item)
    cg.code_rev;
  let symbols =
    Hashtbl.fold
      (fun name off acc -> (name, data_off + off) :: acc)
      cg.global_offsets []
    |> List.sort compare
  in
  let func_symbols =
    Hashtbl.fold
      (fun name label acc -> (name, resolve_label label) :: acc)
      cg.func_labels []
    |> List.sort compare
  in
  Image.
    {
      code = items;
      data = Buffer.to_bytes cg.data;
      bss_size = 0;
      entry_offset = 0;
      symbols = symbols @ func_symbols;
    }

let compile_source source =
  let ast = Parser.parse source in
  match Typecheck.check ast with
  | Error (err :: _) -> fail "%s" (Format.asprintf "%a" Typecheck.pp_error err)
  | Error [] -> fail "typecheck failed"
  | Ok tprog -> compile tprog
