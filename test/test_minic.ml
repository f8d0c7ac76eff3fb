(* Tests for nv_minic: lexer, parser, pretty roundtrip, typechecker
   (uid_t discipline), codegen executed end-to-end on the simulated
   kernel as one variant through the monitor. *)

open Nv_minic
module Kernel = Nv_os.Kernel
module Vfs = Nv_os.Vfs
module Passwd = Nv_os.Passwd
module Syscall = Nv_os.Syscall
module Nsystem = Nv_core.Nsystem
module Variation = Nv_core.Variation
module Monitor = Nv_core.Monitor
module Alarm = Nv_core.Alarm

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let kinds source = List.map (fun t -> t.Token.kind) (Lexer.tokenize source)

let test_lexer_basic () =
  match kinds "int x = 42;" with
  | [ Token.Kw_int; Token.Ident "x"; Token.Assign; Token.Int_lit 42; Token.Semi; Token.Eof ]
    -> ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_hex_and_char () =
  (match kinds "0x7FFFFFFF" with
  | [ Token.Int_lit 0x7FFFFFFF; Token.Eof ] -> ()
  | _ -> Alcotest.fail "hex");
  match kinds "'\\n' '\\0' 'a'" with
  | [ Token.Char_lit '\n'; Token.Char_lit '\000'; Token.Char_lit 'a'; Token.Eof ] -> ()
  | _ -> Alcotest.fail "chars"

let test_lexer_comments () =
  match kinds "a // line\n /* block\n comment */ b" with
  | [ Token.Ident "a"; Token.Ident "b"; Token.Eof ] -> ()
  | _ -> Alcotest.fail "comments not skipped"

let test_lexer_operators () =
  match kinds "<= >= == != << >> && || ++ --" with
  | [ Token.Le; Token.Ge; Token.Eq; Token.Ne; Token.Shl; Token.Shr; Token.And_and;
      Token.Or_or; Token.Plus_plus; Token.Minus_minus; Token.Eof ] ->
    ()
  | _ -> Alcotest.fail "operators"

let test_lexer_string_escapes () =
  match kinds {|"a\nb\"c"|} with
  | [ Token.Str_lit "a\nb\"c"; Token.Eof ] -> ()
  | _ -> Alcotest.fail "string escapes"

let test_lexer_line_numbers () =
  let tokens = Lexer.tokenize "a\nb\nc" in
  let lines = List.map (fun t -> t.Token.line) tokens in
  Alcotest.(check (list int)) "lines" [ 1; 2; 3; 3 ] lines

let test_lexer_errors () =
  let expect_error s =
    match Lexer.tokenize s with
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.failf "expected lexer error on %S" s
  in
  expect_error "\"unterminated";
  expect_error "'a";
  expect_error "@";
  expect_error "/* unterminated"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parser_precedence () =
  match Parser.parse_expr "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, Ast.Int_lit 1, Ast.Binop (Ast.Mul, Ast.Int_lit 2, Ast.Int_lit 3))
    -> ()
  | _ -> Alcotest.fail "precedence"

let test_parser_comparison_precedence () =
  match Parser.parse_expr "a + 1 < b && c" with
  | Ast.Binop (Ast.Land, Ast.Binop (Ast.Lt, _, _), Ast.Var "c") -> ()
  | _ -> Alcotest.fail "comparison under &&"

let test_parser_assign_right_assoc () =
  match Parser.parse_expr "a = b = 1" with
  | Ast.Assign (Ast.Lvar "a", Ast.Assign (Ast.Lvar "b", Ast.Int_lit 1)) -> ()
  | _ -> Alcotest.fail "assignment associativity"

let test_parser_negative_fold () =
  match Parser.parse_expr "-5" with
  | Ast.Int_lit (-5) -> ()
  | _ -> Alcotest.fail "negative literal folding"

let test_parser_incr_sugar () =
  match Parser.parse_expr "i++" with
  | Ast.Assign (Ast.Lvar "i", Ast.Binop (Ast.Add, Ast.Var "i", Ast.Int_lit 1)) -> ()
  | _ -> Alcotest.fail "i++ sugar"

let test_parser_cast () =
  match Parser.parse_expr "(uid_t)x" with
  | Ast.Cast (Ast.Tuid, Ast.Var "x") -> ()
  | _ -> Alcotest.fail "cast"

let test_parser_for_desugar () =
  let prog = Parser.parse "int main(void) { int s = 0; for (int i = 0; i < 3; i++) { s = s + i; } return s; }" in
  match Ast.find_func prog "main" with
  | Some f ->
    let rec has_while = function
      | [] -> false
      | Ast.Swhile _ :: _ -> true
      | Ast.Sblock b :: rest -> has_while b || has_while rest
      | _ :: rest -> has_while rest
    in
    Alcotest.(check bool) "desugared to while" true (has_while f.Ast.body)
  | None -> Alcotest.fail "main missing"

let test_parser_continue_in_for_rejected () =
  match
    Parser.parse "int main(void) { for (;1;) { continue; } return 0; }"
  with
  | exception Parser.Error _ -> ()
  | _ -> Alcotest.fail "continue in for must be rejected"

let test_parser_continue_in_nested_while_ok () =
  match
    Parser.parse
      "int main(void) { for (;1;) { while (1) { continue; } break; } return 0; }"
  with
  | _ -> ()
  | exception Parser.Error _ -> Alcotest.fail "continue binds to inner while"

let test_parser_global_forms () =
  let prog =
    Parser.parse
      {|
        int counter = 3;
        uid_t worker = 33;
        char banner[16] = "hello";
        int table[4] = {1, 2, 3, 4};
        char buf[64];
      |}
  in
  Alcotest.(check int) "globals" 5 (List.length (Ast.globals prog))

let test_parser_errors () =
  let expect_error s =
    match Parser.parse s with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" s
  in
  expect_error "int main(void) { return 1 }";
  expect_error "int main(void) { 1 + ; }";
  expect_error "int;";
  expect_error "int main(void) { 3 = x; }";
  expect_error "int a[0];"

(* Pretty-print / reparse roundtrip. *)
let test_pretty_roundtrip () =
  let source =
    {|
      uid_t worker_uid = 33;
      char buf[32] = "hi";
      int helper(int a, char *s) {
        int i = 0;
        while (i < a) {
          if (s[i] == 'x' || a > 10) {
            i = i + 2;
          } else {
            i++;
          }
        }
        return i;
      }
      int main(void) {
        uid_t u = getuid();
        if (u == worker_uid) {
          return helper(3, buf);
        }
        return -1;
      }
    |}
  in
  let ast1 = Parser.parse source in
  let printed = Pretty.program ast1 in
  let ast2 = Parser.parse printed in
  Alcotest.(check bool) "stable" true (ast2 = Parser.parse (Pretty.program ast2));
  Alcotest.(check bool) "roundtrip" true (ast1 = ast2)

(* ------------------------------------------------------------------ *)
(* Typechecker                                                         *)
(* ------------------------------------------------------------------ *)

let check_ok source =
  match Typecheck.check (Parser.parse source) with
  | Ok t -> t
  | Error (e :: _) -> Alcotest.failf "unexpected type error: %a" Typecheck.pp_error e
  | Error [] -> Alcotest.fail "empty error list"

let check_err source =
  match Typecheck.check (Parser.parse source) with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "expected a type error in %s" source

let test_ty_uid_literal_coercion () =
  let t = check_ok "int main(void) { uid_t u = 0; if (u == 33) { return 1; } return 0; }" in
  (* The literals appear as explicit (uid_t) casts after elaboration. *)
  let found = ref 0 in
  let rec scan_expr (e : Tast.texpr) =
    (match Tast.uid_constant_value e with Some _ -> incr found | None -> ());
    match e.Tast.e with
    | Tast.Tunop (_, a) | Tast.Tcast (_, a) | Tast.Tderef a -> scan_expr a
    | Tast.Tbinop (_, a, b) | Tast.Tindex (a, b) -> scan_expr a; scan_expr b
    | Tast.Tassign (lv, a) -> scan_lv lv; scan_expr a
    | Tast.Tcall (_, args) -> List.iter scan_expr args
    | Tast.Taddr_of lv -> scan_lv lv
    | Tast.Tint_lit _ | Tast.Tchar_lit _ | Tast.Tstr_lit _ | Tast.Tvar _ -> ()
  and scan_lv (lv : Tast.tlvalue) =
    match lv.Tast.lv with
    | Tast.TLvar _ -> ()
    | Tast.TLindex (a, b) -> scan_expr a; scan_expr b
    | Tast.TLderef a -> scan_expr a
  and scan_stmt = function
    | Tast.TSexpr e -> scan_expr e
    | Tast.TSdecl (_, _, init) -> Option.iter scan_expr init
    | Tast.TSif (c, a, b) -> scan_expr c; List.iter scan_stmt a; List.iter scan_stmt b
    | Tast.TSwhile (c, b) -> scan_expr c; List.iter scan_stmt b
    | Tast.TSreturn e -> Option.iter scan_expr e
    | Tast.TSbreak | Tast.TScontinue -> ()
    | Tast.TSblock b -> List.iter scan_stmt b
  in
  List.iter (fun f -> List.iter scan_stmt f.Tast.body) t.Tast.tfuncs;
  Alcotest.(check int) "two uid constants" 2 !found

let test_ty_uid_arithmetic_rejected () =
  check_err "int main(void) { uid_t u = getuid(); uid_t v = u + 1; return 0; }";
  check_err "int main(void) { uid_t u = getuid(); int x = u * 2; return 0; }"

let test_ty_uid_int_mixing_rejected () =
  (* A non-literal int cannot silently become a uid_t. *)
  check_err "int main(void) { int x = 5; uid_t u = x; return 0; }";
  check_err "int main(void) { int x = 5; if (getuid() == x) { return 1; } return 0; }"

let test_ty_uid_cast_allowed () =
  ignore (check_ok "int main(void) { int x = 5; uid_t u = (uid_t)x; return (int)u; }")

let test_ty_uid_in_condition_allowed () =
  (* if(!getuid()) - the paper's implicit-constant example must type. *)
  ignore (check_ok "int main(void) { if (!getuid()) { return 1; } return 0; }");
  ignore (check_ok "int main(void) { if (getuid()) { return 1; } return 0; }")

let test_ty_uid_compare_uid_ok () =
  ignore
    (check_ok
       "int main(void) { uid_t a = getuid(); uid_t b = geteuid(); if (a < b) { return 1; } return 0; }")

let test_ty_undefined_and_duplicates () =
  check_err "int main(void) { return x; }";
  check_err "int main(void) { int a = 1; int a = 2; return a; }";
  check_err "int f(void) { return 0; } int f(void) { return 1; } int main(void) { return 0; }";
  check_err "int main(void) { return missing(); }"

let test_ty_call_arity_and_args () =
  check_err "int f(int a) { return a; } int main(void) { return f(); }";
  check_err "int main(void) { return setuid(5, 6); }";
  ignore (check_ok "int main(void) { return setuid(0); }")

let test_ty_return_discipline () =
  check_err "void f(void) { return 1; } int main(void) { return 0; }";
  check_err "int f(void) { return; } int main(void) { return 0; }"

let test_ty_break_outside_loop () = check_err "int main(void) { break; return 0; }"

let test_ty_pointer_rules () =
  ignore
    (check_ok
       "int main(void) { char buf[8]; char *p = buf; p[0] = 'x'; *p = 'y'; return (int)buf[0]; }");
  check_err "int main(void) { int x = 1; return *x; }";
  check_err "int main(void) { char buf[4]; char *p = buf; int *q = p; return 0; }"

let test_ty_string_assign_to_char_ptr () =
  ignore (check_ok {|int main(void) { char *p = "hey"; return (int)p[0]; }|})

let test_ty_void_var_rejected () = check_err "int main(void) { void v; return 0; }"

let test_ty_global_initializers () =
  check_err {|char small[2] = "toolong"; int main(void) { return 0; }|};
  check_err "int t[2] = {1,2,3}; int main(void) { return 0; }";
  ignore (check_ok "uid_t admins[3] = {0, 33, 1000}; int main(void) { return 0; }")

(* ------------------------------------------------------------------ *)
(* Codegen + execution                                                 *)
(* ------------------------------------------------------------------ *)

let plain_vfs () =
  let fs = Vfs.create () in
  Vfs.mkdir_p fs "/etc";
  Vfs.install fs ~path:"/etc/passwd" (Passwd.serialize Passwd.sample);
  Vfs.install fs ~path:"/etc/motd" "hello, world\n";
  fs

let run_main source =
  let image = Codegen.compile_source source in
  let sys = Nsystem.of_one_image ~vfs:(plain_vfs ()) ~variation:Variation.single image in
  match Nsystem.run ~fuel:10_000_000 sys with
  | Monitor.Exited status -> (status, Nsystem.kernel sys)
  | Monitor.Alarm reason -> Alcotest.failf "program alarmed: %a" Alarm.pp reason
  | Monitor.Blocked_on_accept -> Alcotest.fail "unexpected accept block"
  | Monitor.Out_of_fuel -> Alcotest.fail "out of fuel"

let exit_of source =
  let status, _ = run_main source in
  status

let test_gen_arith () =
  Alcotest.(check int) "6*7" 42 (exit_of "int main(void) { return 6 * 7; }");
  Alcotest.(check int) "div" 5 (exit_of "int main(void) { return 17 / 3; }");
  Alcotest.(check int) "mod" 2 (exit_of "int main(void) { return 17 % 3; }");
  Alcotest.(check int) "bits" ((0xF0 lxor 0x0F) lor 0x100)
    (exit_of "int main(void) { return (0xF0 ^ 0x0F) | 0x100; }");
  Alcotest.(check int) "shift" 40 (exit_of "int main(void) { return (5 << 3); }")

let test_gen_negative_exit () =
  Alcotest.(check int) "-3" (-3) (exit_of "int main(void) { return -3; }")

let test_gen_control_flow () =
  Alcotest.(check int) "if else" 1
    (exit_of "int main(void) { int x = 5; if (x > 3) { return 1; } else { return 2; } }");
  Alcotest.(check int) "while sum" 55
    (exit_of
       "int main(void) { int s = 0; int i = 1; while (i <= 10) { s = s + i; i++; } return s; }");
  Alcotest.(check int) "for loop" 10
    (exit_of "int main(void) { int s = 0; for (int i = 0; i < 5; i++) { s = s + i; } return s; }");
  Alcotest.(check int) "break" 3
    (exit_of
       "int main(void) { int i = 0; while (1) { if (i == 3) { break; } i++; } return i; }");
  Alcotest.(check int) "continue" 25
    (exit_of
       {|int main(void) {
           int s = 0;
           int i = 0;
           while (i < 10) {
             i++;
             if (i % 2 == 0) { continue; }
             s = s + i;
           }
           return s;
         }|})

let test_gen_short_circuit () =
  (* The right operand must not run when the left decides. *)
  Alcotest.(check int) "and shortcut" 7
    (exit_of
       {|int g = 7;
         int bump(void) { g = 99; return 1; }
         int main(void) { if (0 && bump()) { return 1; } return g; }|});
  Alcotest.(check int) "or shortcut" 7
    (exit_of
       {|int g = 7;
         int bump(void) { g = 99; return 1; }
         int main(void) { if (1 || bump()) { return g; } return 1; }|})

let test_gen_functions () =
  Alcotest.(check int) "fib" 55
    (exit_of
       {|int fib(int n) {
           if (n < 2) { return n; }
           return fib(n - 1) + fib(n - 2);
         }
         int main(void) { return fib(10); }|});
  Alcotest.(check int) "multi-arg order" 7
    (exit_of
       {|int sub(int a, int b) { return a - b; }
         int main(void) { return sub(10, 3); }|});
  Alcotest.(check int) "five args" 15
    (exit_of
       {|int sum5(int a, int b, int c, int d, int e) { return a + b + c + d + e; }
         int main(void) { return sum5(1, 2, 3, 4, 5); }|})

let test_gen_globals_and_arrays () =
  Alcotest.(check int) "global init" 3 (exit_of "int g = 3; int main(void) { return g; }");
  Alcotest.(check int) "global update" 8
    (exit_of "int g = 3; int main(void) { g = g + 5; return g; }");
  Alcotest.(check int) "array sum" 10
    (exit_of
       {|int t[4] = {1, 2, 3, 4};
         int main(void) {
           int s = 0;
           for (int i = 0; i < 4; i++) { s = s + t[i]; }
           return s;
         }|});
  Alcotest.(check int) "char array" 104
    (exit_of {|char msg[8] = "hi"; int main(void) { return (int)msg[0]; }|})

let test_gen_pointers () =
  Alcotest.(check int) "pointer write" 9
    (exit_of
       {|int cell = 1;
         int main(void) { int *p = &cell; *p = 9; return cell; }|});
  Alcotest.(check int) "pointer arith" 30
    (exit_of
       {|int t[3] = {10, 20, 30};
         int main(void) { int *p = t; p = p + 2; return *p; }|});
  Alcotest.(check int) "char pointer walk" 3
    (exit_of
       {|char s[8] = "abc";
         int main(void) {
           char *p = s;
           int n = 0;
           while (*p != '\0') { n++; p = p + 1; }
           return n;
         }|})

let test_gen_locals_shadowing () =
  Alcotest.(check int) "inner scope" 5
    (exit_of
       {|int main(void) {
           int x = 5;
           {
             int x = 9;
             x = x + 1;
           }
           return x;
         }|})

let test_gen_runtime_strings () =
  let source =
    Runtime.with_runtime
      {|int main(void) {
          char buf[32];
          strcpy(buf, "hello");
          if (strlen(buf) != 5) { return 1; }
          if (strcmp(buf, "hello") != 0) { return 2; }
          if (strcmp(buf, "hellp") >= 0) { return 3; }
          if (!starts_with(buf, "hel")) { return 4; }
          if (find_char(buf, 0, 'l') != 2) { return 5; }
          char num[16];
          itoa(12345, num);
          if (atoi(num) != 12345) { return 6; }
          if (atoi("-42") != -42) { return 7; }
          return 0;
        }|}
  in
  Alcotest.(check int) "string suite" 0 (exit_of source)

let test_gen_syscall_io () =
  let source =
    Runtime.with_runtime
      {|int main(void) {
          int fd = sys_open("/etc/motd", 0);
          if (fd < 0) { return 1; }
          char buf[64];
          int n = sys_read(fd, buf, 63);
          buf[n] = '\0';
          sys_close(fd);
          write_str(1, buf);
          return 0;
        }|}
  in
  let status, kernel = run_main source in
  Alcotest.(check int) "exit" 0 status;
  Alcotest.(check string) "echoed" "hello, world\n" (Kernel.stdout_contents kernel)

let test_gen_getuid_setuid () =
  let source =
    {|int main(void) {
        uid_t me = getuid();
        if (me != 0) { return 1; }
        if (seteuid(33) != 0) { return 2; }
        if (geteuid() != 33) { return 3; }
        if (seteuid(0) != 0) { return 4; }
        return 0;
      }|}
  in
  Alcotest.(check int) "uid dance" 0 (exit_of source)

let test_gen_getpwnam () =
  let source =
    Runtime.with_runtime
      {|int main(void) {
          uid_t www = getpwnam_uid("www");
          if (www != 33) { return 1; }
          uid_t alice = getpwnam_uid("alice");
          if (alice != 1000) { return 2; }
          uid_t nobody = getpwnam_uid("mallory");
          if (nobody != (uid_t)(-1)) { return 3; }
          return 0;
        }|}
  in
  Alcotest.(check int) "getpwnam" 0 (exit_of source)

let test_gen_accept_resume () =
  let source =
    Runtime.with_runtime
      {|int main(void) {
          int fd = sys_accept(3);
          char buf[32];
          int n = sys_read(fd, buf, 31);
          buf[n] = '\0';
          write_str(fd, "echo:");
          write_str(fd, buf);
          sys_close(fd);
          return 0;
        }|}
  in
  let image = Codegen.compile_source source in
  let sys = Nsystem.of_one_image ~vfs:(plain_vfs ()) ~variation:Variation.single image in
  (match Nsystem.run ~fuel:10_000_000 sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> Alcotest.fail "expected block on accept");
  let conn = Nsystem.connect sys in
  Nv_os.Socket.client_send conn "ping";
  (match Nsystem.run ~fuel:10_000_000 sys with
  | Monitor.Exited 0 -> ()
  | _ -> Alcotest.fail "expected clean exit");
  Alcotest.(check string) "echoed" "echo:ping" (Nv_os.Socket.client_recv conn)

let test_gen_buffer_overflow_corrupts_neighbour () =
  (* The non-control-data shape: an unchecked strcpy into a global
     buffer overwrites the adjacent global. This must work in the
     unprotected baseline for the attack study to be meaningful. *)
  let source =
    Runtime.with_runtime
      {|char small[8];
        int sentinel = 7;
        int main(void) {
          strcpy(small, "AAAAAAAAAAAAAAAA");
          if (sentinel == 7) { return 0; }
          return 1;
        }|}
  in
  Alcotest.(check int) "sentinel clobbered" 1 (exit_of source)

let test_gen_wild_pointer_faults () =
  let image = Codegen.compile_source "int main(void) { int *p = (int*)3; return *p; }" in
  let sys = Nsystem.of_one_image ~vfs:(plain_vfs ()) ~variation:Variation.single image in
  match Nsystem.run ~fuel:10_000_000 sys with
  | Monitor.Alarm (Alarm.Variant_fault { fault = Nv_vm.Cpu.Segfault _; _ }) -> ()
  | _ -> Alcotest.fail "expected segfault"

(* The ABI end to end: every row of the syscall table, called as its
   mini-C builtin with arguments built from the row's kinds, must reach
   the monitor as exactly one call of that row's name. [exit] ends the
   run and [accept] parks; both are counted at the rendezvous. *)
let test_gen_every_builtin_reaches_monitor () =
  List.iter
    (fun (_, { Syscall.name; builtin; args; _ }) ->
      let arg = function
        | Syscall.Int | Syscall.Len -> "0"
        | Syscall.Uid -> "(uid_t)0"
        | Syscall.Ptr_string -> {|"/etc/motd"|}
        | Syscall.Ptr_out | Syscall.Ptr_in -> "buf"
      in
      let source =
        Printf.sprintf "char buf[8]; int main(void) { %s(%s); return 0; }" builtin
          (String.concat ", " (List.map arg args))
      in
      let sys =
        Nsystem.of_one_image ~vfs:(plain_vfs ()) ~variation:Variation.single
          (Codegen.compile_source source)
      in
      ignore (Nsystem.run ~fuel:100_000 sys);
      Alcotest.(check (option int))
        (Printf.sprintf "%s reaches monitor.calls.%s" builtin name)
        (Some 1)
        (Nv_util.Metrics.find_counter (Nsystem.metrics sys) ("monitor.calls." ^ name)))
    Syscall.all

let test_gen_missing_main () =
  match Codegen.compile_source "int helper(void) { return 0; }" with
  | exception Codegen.Error _ -> ()
  | _ -> Alcotest.fail "expected missing-main error"

let test_gen_symbols_exported () =
  let image =
    Codegen.compile_source "uid_t worker_uid = 33; char reqbuf[64]; int main(void) { return 0; }"
  in
  Alcotest.(check bool) "worker_uid symbol" true
    (List.mem_assoc "worker_uid" image.Nv_vm.Image.symbols);
  Alcotest.(check bool) "reqbuf symbol" true
    (List.mem_assoc "reqbuf" image.Nv_vm.Image.symbols);
  Alcotest.(check bool) "main symbol" true
    (List.mem_assoc "main" image.Nv_vm.Image.symbols)

(* Property: pretty-printing then reparsing is the identity on random
   expression trees (the printer is fully parenthesizing, so no
   precedence information can be lost). *)
let expr_gen : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun v -> Ast.Int_lit v) (int_range (-1000) 1000);
        map (fun c -> Ast.Char_lit c) (char_range 'a' 'z');
        oneofl [ Ast.Var "x"; Ast.Var "y"; Ast.Var "buf" ];
        map (fun s -> Ast.Str_lit s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 6));
      ]
  in
  let unop = oneofl [ Ast.Neg; Ast.Lnot; Ast.Bnot ] in
  let binop =
    oneofl
      [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Band; Ast.Bor; Ast.Bxor;
        Ast.Shl; Ast.Shr; Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Land;
        Ast.Lor ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else begin
        let sub = self (depth - 1) in
        frequency
          [
            (2, leaf);
            (2, map2 (fun op e -> match (op, e) with
                  | Ast.Neg, Ast.Int_lit v -> Ast.Int_lit (-v) (* parser folds *)
                  | _ -> Ast.Unop (op, e)) unop sub);
            (4, map3 (fun op a b -> Ast.Binop (op, a, b)) binop sub sub);
            (2, map2 (fun a b -> Ast.Index (a, b)) (oneofl [ Ast.Var "buf" ]) sub);
            (1, map (fun e -> Ast.Deref e) sub);
            (1, map (fun e -> Ast.Cast (Ast.Tuid, e)) sub);
            (1, map2 (fun a b -> Ast.Call ("f", [ a; b ])) sub sub);
            (1, map (fun e -> Ast.Assign (Ast.Lvar "x", e)) sub);
          ]
      end)
    3

let prop_pretty_parse_roundtrip =
  QCheck.Test.make ~name:"parse (pretty e) = e for random expressions" ~count:500
    (QCheck.make ~print:Pretty.expr expr_gen)
    (fun e ->
      match Parser.parse_expr (Pretty.expr e) with
      | parsed -> parsed = e
      | exception _ -> false)

(* ------------------------------------------------------------------ *)
(* UID inference (the Splint-style dataflow analysis of Section 4)     *)
(* ------------------------------------------------------------------ *)

let infer source = Uid_infer.infer (Parser.parse source)

let names inferred =
  List.map
    (fun { Uid_infer.scope; name } ->
      match scope with None -> "::" ^ name | Some f -> f ^ "::" ^ name)
    inferred

let test_infer_from_getuid () =
  let inferred =
    infer "int main(void) { int me = (int)0; me = (int)0; return 0; }"
  in
  Alcotest.(check (list string)) "nothing without sources" [] (names inferred)

let test_infer_assignment_source () =
  (* The paper's example: a variable storing the result of getuid. The
     programmer wrote int; the analysis recovers it. Note getuid()
     cannot typecheck into an int variable directly, so the idiomatic
     untyped pattern goes through a cast. *)
  let inferred =
    infer
      {|int main(void) {
          int me = (int)getuid();
          return 0;
        }|}
  in
  (* Cast to int launders the type; the analysis is about variables
     that hold uid_t-typed data. *)
  Alcotest.(check (list string)) "int cast launders" [] (names inferred)

let test_infer_param_sink () =
  (* A variable passed to setuid is a UID (the paper's second seed). In
     the untyped idiom the program fails to typecheck, so the analysis
     runs on the surface syntax before checking. *)
  let inferred =
    infer
      {|int main(void) {
          int target = 0;
          setuid(target);
          return 0;
        }|}
  in
  Alcotest.(check (list string)) "setuid argument" [ "main::target" ] (names inferred)

let test_infer_propagates_through_assignment () =
  let inferred =
    infer
      {|int main(void) {
          int a = 0;
          int b = 0;
          setuid(a);
          b = a;
          return 0;
        }|}
  in
  Alcotest.(check bool) "a inferred" true (List.mem "main::a" (names inferred))

let test_infer_comparison_propagation () =
  let inferred =
    infer
      {|int main(void) {
          int threshold = 1000;
          setuid(threshold);
          int probe = 5;
          if (probe == threshold) { return 1; }
          return 0;
        }|}
  in
  let names = names inferred in
  Alcotest.(check bool) "threshold" true (List.mem "main::threshold" names);
  Alcotest.(check bool) "probe via comparison" true (List.mem "main::probe" names)

let test_infer_user_function_param () =
  let inferred =
    infer
      {|int audit(int who) { return who; }
        int main(void) {
          int me = 0;
          setuid(me);
          audit(me);
          return 0;
        }|}
  in
  let names = names inferred in
  Alcotest.(check bool) "callee param inferred" true (List.mem "audit::who" names)

let test_infer_function_return () =
  let inferred =
    infer
      {|int pick(void) {
          int chosen = 0;
          setuid(chosen);
          return chosen;
        }
        int main(void) {
          int got = pick();
          return 0;
        }|}
  in
  Alcotest.(check bool) "caller variable via return" true
    (List.mem "main::got" (names inferred))

let test_infer_globals () =
  let inferred =
    infer
      {|int stored = 0;
        int main(void) {
          setuid(stored);
          return 0;
        }|}
  in
  Alcotest.(check bool) "global inferred" true (List.mem "::stored" (names inferred))

let test_infer_apply_rewrites_types () =
  let program =
    Parser.parse
      {|int worker = 33;
        int main(void) {
          setuid(worker);
          return 0;
        }|}
  in
  let rewritten = Uid_infer.apply program in
  (match Ast.globals rewritten with
  | [ { Ast.gname = "worker"; gty = Ast.Tuid; _ } ] -> ()
  | _ -> Alcotest.fail "global not rewritten to uid_t");
  (* The rewritten program now satisfies the typechecker's UID
     discipline and can be fed to the transformer. *)
  match Typecheck.check rewritten with
  | Ok _ -> ()
  | Error (e :: _) -> Alcotest.failf "rewritten program fails: %a" Typecheck.pp_error e
  | Error [] -> Alcotest.fail "rewritten program fails"

let test_infer_declared_uid_not_reported () =
  let inferred = infer "uid_t u = 0; int main(void) { setuid(u); return 0; }" in
  Alcotest.(check (list string)) "already typed" [] (names inferred)

(* Property: compiled arithmetic agrees with OCaml arithmetic. *)
let prop_gen_arith_agrees =
  QCheck.Test.make ~name:"compiled arithmetic matches host arithmetic" ~count:60
    QCheck.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (a, b) ->
      let source =
        Printf.sprintf
          "int main(void) { int a = %d; int b = %d; return a * 3 + b - (a / 7); }" a b
      in
      let expected = (a * 3) + b - (a / 7) in
      (* Exit status is a 32-bit word; compare signed. *)
      exit_of source = expected)

let () =
  Alcotest.run "nv_minic"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "hex and char" `Quick test_lexer_hex_and_char;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "string escapes" `Quick test_lexer_string_escapes;
          Alcotest.test_case "line numbers" `Quick test_lexer_line_numbers;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "comparison precedence" `Quick test_parser_comparison_precedence;
          Alcotest.test_case "assign right assoc" `Quick test_parser_assign_right_assoc;
          Alcotest.test_case "negative fold" `Quick test_parser_negative_fold;
          Alcotest.test_case "incr sugar" `Quick test_parser_incr_sugar;
          Alcotest.test_case "cast" `Quick test_parser_cast;
          Alcotest.test_case "for desugar" `Quick test_parser_for_desugar;
          Alcotest.test_case "continue in for rejected" `Quick
            test_parser_continue_in_for_rejected;
          Alcotest.test_case "continue in nested while ok" `Quick
            test_parser_continue_in_nested_while_ok;
          Alcotest.test_case "global forms" `Quick test_parser_global_forms;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
        ]
        @ qsuite [ prop_pretty_parse_roundtrip ] );
      ( "typecheck",
        [
          Alcotest.test_case "uid literal coercion" `Quick test_ty_uid_literal_coercion;
          Alcotest.test_case "uid arithmetic rejected" `Quick test_ty_uid_arithmetic_rejected;
          Alcotest.test_case "uid/int mixing rejected" `Quick test_ty_uid_int_mixing_rejected;
          Alcotest.test_case "uid cast allowed" `Quick test_ty_uid_cast_allowed;
          Alcotest.test_case "uid condition allowed" `Quick test_ty_uid_in_condition_allowed;
          Alcotest.test_case "uid compare uid" `Quick test_ty_uid_compare_uid_ok;
          Alcotest.test_case "undefined/duplicates" `Quick test_ty_undefined_and_duplicates;
          Alcotest.test_case "call arity" `Quick test_ty_call_arity_and_args;
          Alcotest.test_case "return discipline" `Quick test_ty_return_discipline;
          Alcotest.test_case "break outside loop" `Quick test_ty_break_outside_loop;
          Alcotest.test_case "pointer rules" `Quick test_ty_pointer_rules;
          Alcotest.test_case "string to char*" `Quick test_ty_string_assign_to_char_ptr;
          Alcotest.test_case "void var" `Quick test_ty_void_var_rejected;
          Alcotest.test_case "global initializers" `Quick test_ty_global_initializers;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "arithmetic" `Quick test_gen_arith;
          Alcotest.test_case "negative exit" `Quick test_gen_negative_exit;
          Alcotest.test_case "control flow" `Quick test_gen_control_flow;
          Alcotest.test_case "short circuit" `Quick test_gen_short_circuit;
          Alcotest.test_case "functions" `Quick test_gen_functions;
          Alcotest.test_case "globals and arrays" `Quick test_gen_globals_and_arrays;
          Alcotest.test_case "pointers" `Quick test_gen_pointers;
          Alcotest.test_case "shadowing" `Quick test_gen_locals_shadowing;
          Alcotest.test_case "runtime strings" `Quick test_gen_runtime_strings;
          Alcotest.test_case "syscall io" `Quick test_gen_syscall_io;
          Alcotest.test_case "getuid/setuid" `Quick test_gen_getuid_setuid;
          Alcotest.test_case "getpwnam" `Quick test_gen_getpwnam;
          Alcotest.test_case "accept resume" `Quick test_gen_accept_resume;
          Alcotest.test_case "overflow corrupts neighbour" `Quick
            test_gen_buffer_overflow_corrupts_neighbour;
          Alcotest.test_case "wild pointer faults" `Quick test_gen_wild_pointer_faults;
          Alcotest.test_case "every builtin reaches the monitor" `Quick
            test_gen_every_builtin_reaches_monitor;
          Alcotest.test_case "missing main" `Quick test_gen_missing_main;
          Alcotest.test_case "symbols exported" `Quick test_gen_symbols_exported;
        ]
        @ qsuite [ prop_gen_arith_agrees ] );
      ( "uid-infer",
        [
          Alcotest.test_case "no false positives" `Quick test_infer_from_getuid;
          Alcotest.test_case "int cast launders" `Quick test_infer_assignment_source;
          Alcotest.test_case "setuid argument" `Quick test_infer_param_sink;
          Alcotest.test_case "assignment propagation" `Quick
            test_infer_propagates_through_assignment;
          Alcotest.test_case "comparison propagation" `Quick test_infer_comparison_propagation;
          Alcotest.test_case "user function param" `Quick test_infer_user_function_param;
          Alcotest.test_case "function return" `Quick test_infer_function_return;
          Alcotest.test_case "globals" `Quick test_infer_globals;
          Alcotest.test_case "apply rewrites types" `Quick test_infer_apply_rewrites_types;
          Alcotest.test_case "declared uid not reported" `Quick
            test_infer_declared_uid_not_reported;
        ] );
    ]
