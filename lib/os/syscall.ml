type number = int

let sys_exit = 0
let sys_read = 1
let sys_write = 2
let sys_open = 3
let sys_close = 4
let sys_accept = 5
let sys_getuid = 6
let sys_geteuid = 7
let sys_setuid = 8
let sys_seteuid = 9
let sys_getgid = 10
let sys_getegid = 11
let sys_setgid = 12
let sys_setegid = 13
let sys_uid_value = 20
let sys_cond_chk = 21
let sys_cc_eq = 22
let sys_cc_neq = 23
let sys_cc_lt = 24
let sys_cc_leq = 25
let sys_cc_gt = 26
let sys_cc_geq = 27

let o_rdonly = 0
let o_wronly = 1
let o_append = 2

type arg_kind = Int | Uid | Ptr_string | Ptr_out | Ptr_in | Len

type ret_kind = Ret_int | Ret_uid

type signature = { name : string; args : arg_kind list; ret : ret_kind }

let table =
  [
    (0, { name = "exit"; args = [ Int ]; ret = Ret_int });
    (1, { name = "read"; args = [ Int; Ptr_out; Len ]; ret = Ret_int });
    (2, { name = "write"; args = [ Int; Ptr_in; Len ]; ret = Ret_int });
    (3, { name = "open"; args = [ Ptr_string; Int ]; ret = Ret_int });
    (4, { name = "close"; args = [ Int ]; ret = Ret_int });
    (5, { name = "accept"; args = [ Int ]; ret = Ret_int });
    (6, { name = "getuid"; args = []; ret = Ret_uid });
    (7, { name = "geteuid"; args = []; ret = Ret_uid });
    (8, { name = "setuid"; args = [ Uid ]; ret = Ret_int });
    (9, { name = "seteuid"; args = [ Uid ]; ret = Ret_int });
    (10, { name = "getgid"; args = []; ret = Ret_uid });
    (11, { name = "getegid"; args = []; ret = Ret_uid });
    (12, { name = "setgid"; args = [ Uid ]; ret = Ret_int });
    (13, { name = "setegid"; args = [ Uid ]; ret = Ret_int });
    (20, { name = "uid_value"; args = [ Uid ]; ret = Ret_uid });
    (21, { name = "cond_chk"; args = [ Int ]; ret = Ret_int });
    (22, { name = "cc_eq"; args = [ Uid; Uid ]; ret = Ret_int });
    (23, { name = "cc_neq"; args = [ Uid; Uid ]; ret = Ret_int });
    (24, { name = "cc_lt"; args = [ Uid; Uid ]; ret = Ret_int });
    (25, { name = "cc_leq"; args = [ Uid; Uid ]; ret = Ret_int });
    (26, { name = "cc_gt"; args = [ Uid; Uid ]; ret = Ret_int });
    (27, { name = "cc_geq"; args = [ Uid; Uid ]; ret = Ret_int });
  ]

let all = table

let signature n = List.assoc_opt n table

let name n =
  match signature n with Some { name; _ } -> name | None -> Printf.sprintf "sys#%d" n

let is_detection_call n = n >= 20 && n <= 27
