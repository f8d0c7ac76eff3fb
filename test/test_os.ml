(* Tests for nv_os: Cred, Passwd, Vfs, Socket, Kernel (incl. unshared files). *)

open Nv_os

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Cred                                                                *)
(* ------------------------------------------------------------------ *)

let test_cred_superuser () =
  Alcotest.(check bool) "root" true (Cred.is_root Cred.superuser)

let test_cred_setuid_root_drops_all () =
  match Cred.setuid Cred.superuser 33 with
  | Ok c ->
    Alcotest.(check int) "ruid" 33 c.Cred.ruid;
    Alcotest.(check int) "euid" 33 c.Cred.euid;
    Alcotest.(check bool) "no longer root" false (Cred.is_root c)
  | Error _ -> Alcotest.fail "root setuid should succeed"

let test_cred_setuid_unprivileged () =
  let user = Cred.of_user ~uid:1000 ~gid:1000 in
  (match Cred.setuid user 0 with
  | Error Cred.Eperm -> ()
  | Ok _ -> Alcotest.fail "unprivileged setuid(0) must fail");
  match Cred.setuid user 1000 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "setuid to own uid allowed"

let test_cred_seteuid_toggle () =
  (* The privilege-drop dance: root drops to worker, then regains. *)
  match Cred.seteuid Cred.superuser 33 with
  | Error _ -> Alcotest.fail "drop failed"
  | Ok dropped -> (
    Alcotest.(check bool) "dropped" false (Cred.is_root dropped);
    match Cred.seteuid dropped 0 with
    | Ok regained -> Alcotest.(check bool) "regained" true (Cred.is_root regained)
    | Error _ -> Alcotest.fail "regain failed (real uid still 0)")

let test_cred_seteuid_ordinary_user_cannot_escalate () =
  let user = Cred.of_user ~uid:1000 ~gid:1000 in
  match Cred.seteuid user 0 with
  | Error Cred.Eperm -> ()
  | Ok _ -> Alcotest.fail "must fail"

let test_cred_setgid () =
  (match Cred.setgid Cred.superuser 33 with
  | Ok c -> Alcotest.(check int) "egid" 33 c.Cred.egid
  | Error _ -> Alcotest.fail "root setgid");
  let user = Cred.of_user ~uid:1000 ~gid:1000 in
  match Cred.setgid user 0 with
  | Error Cred.Eperm -> ()
  | Ok _ -> Alcotest.fail "must fail"

(* ------------------------------------------------------------------ *)
(* Passwd                                                              *)
(* ------------------------------------------------------------------ *)

let test_passwd_roundtrip () =
  let text = Passwd.serialize Passwd.sample in
  match Passwd.parse text with
  | Ok entries ->
    Alcotest.(check int) "count" (List.length Passwd.sample) (List.length entries);
    Alcotest.(check string) "reserialize" text (Passwd.serialize entries)
  | Error e -> Alcotest.fail e

let test_passwd_lookup () =
  (match Passwd.lookup Passwd.sample "www" with
  | Some e -> Alcotest.(check int) "www uid" 33 e.Passwd.uid
  | None -> Alcotest.fail "www missing");
  Alcotest.(check bool) "missing user" true (Passwd.lookup Passwd.sample "mallory" = None);
  match Passwd.lookup_uid Passwd.sample 1000 with
  | Some e -> Alcotest.(check string) "alice" "alice" e.Passwd.name
  | None -> Alcotest.fail "uid 1000 missing"

let test_passwd_parse_errors () =
  (match Passwd.parse "not a passwd line" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject");
  match Passwd.parse "a:x:notanumber:0:g:h:s" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject bad uid"

let test_passwd_reexpress () =
  let f u = Nv_vm.Word.logxor u 0x7FFFFFFF in
  let text = Passwd.serialize Passwd.sample in
  match Passwd.reexpress ~f text with
  | Error e -> Alcotest.fail e
  | Ok text' -> (
    match Passwd.parse text' with
    | Error e -> Alcotest.fail e
    | Ok entries ->
      let root = Option.get (Passwd.lookup entries "root") in
      Alcotest.(check int) "root reexpressed" 0x7FFFFFFF root.Passwd.uid;
      let www = Option.get (Passwd.lookup entries "www") in
      Alcotest.(check int) "www reexpressed" (33 lxor 0x7FFFFFFF) www.Passwd.uid;
      (* Names and shells untouched. *)
      Alcotest.(check string) "name" "www" www.Passwd.name)

let test_passwd_group_roundtrip () =
  let text = Passwd.serialize_group Passwd.sample_groups in
  match Passwd.parse_group text with
  | Ok groups ->
    Alcotest.(check int) "count" 4 (List.length groups);
    let users = List.find (fun g -> g.Passwd.group_name = "users") groups in
    Alcotest.(check (list string)) "members" [ "alice"; "bob" ] users.Passwd.members
  | Error e -> Alcotest.fail e

let prop_passwd_reexpress_involution =
  QCheck.Test.make ~name:"reexpress with xor key twice is identity" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 5) (int_bound 0xFFFF))
    (fun uids ->
      let entries =
        List.mapi
          (fun i uid ->
            Passwd.
              {
                name = Printf.sprintf "u%d" i; uid; gid = uid; gecos = ""; home = "/";
                shell = "/bin/sh";
              })
          uids
      in
      let text = Passwd.serialize entries in
      let f u = Nv_vm.Word.logxor u 0x7FFFFFFF in
      match Passwd.reexpress ~f text with
      | Error _ -> false
      | Ok once -> (
        match Passwd.reexpress ~f once with Error _ -> false | Ok twice -> twice = text))

(* ------------------------------------------------------------------ *)
(* Passwd index                                                        *)
(* ------------------------------------------------------------------ *)

let entry_of ~name ~uid =
  Passwd.{ name; uid; gid = uid; gecos = ""; home = "/"; shell = "/bin/sh" }

let prop_index_agrees_with_linear =
  (* The indexed lookups must return exactly what the linear scans
     return — including first-match semantics under duplicate names and
     duplicate uids (small ranges force collisions). *)
  QCheck.Test.make ~name:"index agrees with linear lookup/lookup_uid" ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 0 40) (pair (int_bound 7) (int_bound 9)))
        (pair (int_bound 7) (int_bound 9)))
    (fun (raw, (probe_name, probe_uid)) ->
      let entries =
        List.map (fun (n, u) -> entry_of ~name:(Printf.sprintf "u%d" n) ~uid:u) raw
      in
      let idx = Passwd.index entries in
      let name = Printf.sprintf "u%d" probe_name in
      Passwd.find idx name = Passwd.lookup entries name
      && Passwd.find_uid idx probe_uid = Passwd.lookup_uid entries probe_uid
      && List.for_all
           (fun e ->
             Passwd.find idx e.Passwd.name = Passwd.lookup entries e.Passwd.name
             && Passwd.find_uid idx e.Passwd.uid = Passwd.lookup_uid entries e.Passwd.uid)
           entries)

let test_index_sublinear () =
  (* Pinned: per-lookup comparisons stay within 2 log2 n + 4 as the
     population grows — the linear scan this replaced spent ~n/2. *)
  List.iter
    (fun n ->
      let entries = Passwd.generate ~seed:5 n in
      let idx = Passwd.index entries in
      let before = Passwd.comparisons idx in
      List.iter
        (fun e -> ignore (Passwd.find_uid idx e.Passwd.uid))
        entries;
      let per_lookup =
        float_of_int (Passwd.comparisons idx - before) /. float_of_int n
      in
      let bound = (2.0 *. (log (float_of_int n) /. log 2.0)) +. 4.0 in
      if per_lookup > bound then
        Alcotest.failf "n=%d: %.1f comparisons/lookup exceeds %.1f" n per_lookup bound)
    [ 1_000; 4_000; 16_000 ]

let test_index_size_and_misses () =
  let entries = Passwd.sample @ Passwd.generate ~seed:3 100 in
  let idx = Passwd.index entries in
  Alcotest.(check int) "distinct uids" (List.length entries) (Passwd.index_size idx);
  Alcotest.(check bool) "missing name" true (Passwd.find idx "mallory" = None);
  Alcotest.(check bool) "missing uid" true (Passwd.find_uid idx 999_999_999 = None)

let test_generate_deterministic () =
  let a = Passwd.generate ~seed:9 500 in
  let b = Passwd.generate ~seed:9 500 in
  Alcotest.(check bool) "same seed, same population" true (a = b);
  let c = Passwd.generate ~seed:10 500 in
  Alcotest.(check bool) "different seed differs" true (a <> c);
  Alcotest.(check bool) "uids start above sample" true
    (List.for_all (fun e -> e.Passwd.uid >= 10_000) a)

(* ------------------------------------------------------------------ *)
(* Vfs                                                                 *)
(* ------------------------------------------------------------------ *)

let world () =
  let fs = Vfs.create () in
  Vfs.mkdir_p fs "/etc";
  Vfs.install fs ~path:"/etc/passwd" "root:x:0:0:r:/root:/bin/sh\n";
  Vfs.install fs
    ~attrs:{ Vfs.mode = 0o600; owner = 0; group = 0 }
    ~path:"/etc/shadow" "secret\n";
  Vfs.install fs
    ~attrs:{ Vfs.mode = 0o644; owner = 1000; group = 1000 }
    ~path:"/home/alice/notes.txt" "hello\n";
  fs

(* The kernel's sequence: the permission check at open, then the
   unchecked accessor. *)
let read_checked fs ~cred ~path =
  match Vfs.open_file fs ~cred ~path ~access:Vfs.Read_access with
  | Error _ as e -> e
  | Ok () -> Vfs.contents fs ~path

let write_checked fs ~cred ~path content =
  match Vfs.open_file fs ~cred ~path ~access:Vfs.Write_access with
  | Error _ as e -> e
  | Ok () -> Vfs.set_contents fs ~path content

let test_vfs_read () =
  let fs = world () in
  let alice = Cred.of_user ~uid:1000 ~gid:1000 in
  (match read_checked fs ~cred:alice ~path:"/etc/passwd" with
  | Ok content -> Alcotest.(check bool) "readable" true (String.length content > 0)
  | Error _ -> Alcotest.fail "passwd is world readable");
  match read_checked fs ~cred:alice ~path:"/etc/shadow" with
  | Error Vfs.Eacces -> ()
  | _ -> Alcotest.fail "shadow must be denied"

let test_vfs_root_bypasses () =
  let fs = world () in
  match read_checked fs ~cred:Cred.superuser ~path:"/etc/shadow" with
  | Ok content -> Alcotest.(check string) "shadow" "secret\n" content
  | Error _ -> Alcotest.fail "root reads everything"

let test_vfs_owner_write () =
  let fs = world () in
  let alice = Cred.of_user ~uid:1000 ~gid:1000 in
  (match write_checked fs ~cred:alice ~path:"/home/alice/notes.txt" "hello\nmore\n" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "owner writes own file");
  (match Vfs.contents fs ~path:"/home/alice/notes.txt" with
  | Ok c -> Alcotest.(check string) "written" "hello\nmore\n" c
  | Error _ -> Alcotest.fail "exists");
  let bob = Cred.of_user ~uid:1001 ~gid:1001 in
  match write_checked fs ~cred:bob ~path:"/home/alice/notes.txt" "x" with
  | Error Vfs.Eacces -> ()
  | _ -> Alcotest.fail "other write denied"

let test_vfs_enoent_and_eisdir () =
  let fs = world () in
  (match read_checked fs ~cred:Cred.superuser ~path:"/nope" with
  | Error Vfs.Enoent -> ()
  | _ -> Alcotest.fail "ENOENT expected");
  match read_checked fs ~cred:Cred.superuser ~path:"/etc" with
  | Error Vfs.Eisdir -> ()
  | _ -> Alcotest.fail "EISDIR expected"

(* Opening a file needs search (execute) permission on every directory
   on the way, by the same owner/group/other rule as the file's own
   bits. *)
let test_vfs_directory_search () =
  let fs = world () in
  Vfs.mkdir_p fs ~attrs:{ Vfs.mode = 0o710; owner = 1000; group = 50 } "/srv/private";
  Vfs.install fs ~path:"/srv/private/data" "x";
  let opens cred =
    Vfs.open_file fs ~cred ~path:"/srv/private/data" ~access:Vfs.Read_access
  in
  let check what expected cred =
    Alcotest.(check bool) what true (opens cred = expected)
  in
  check "owner searches" (Ok ()) (Cred.of_user ~uid:1000 ~gid:1000);
  check "group searches" (Ok ()) (Cred.of_user ~uid:1001 ~gid:50);
  check "other denied" (Error Vfs.Eacces) (Cred.of_user ~uid:1001 ~gid:1001);
  check "root bypasses" (Ok ()) Cred.superuser

let test_vfs_list_dir () =
  let fs = world () in
  match Vfs.list_dir fs "/etc" with
  | Ok entries -> Alcotest.(check (list string)) "sorted" [ "passwd"; "shadow" ] entries
  | Error _ -> Alcotest.fail "listable"

let test_vfs_install_replaces () =
  let fs = world () in
  Vfs.install fs ~path:"/etc/passwd" "new\n";
  match Vfs.contents fs ~path:"/etc/passwd" with
  | Ok c -> Alcotest.(check string) "replaced" "new\n" c
  | Error _ -> Alcotest.fail "exists"

let test_vfs_stat () =
  let fs = world () in
  match Vfs.stat fs "/etc/shadow" with
  | Ok attrs -> Alcotest.(check int) "mode" 0o600 attrs.Vfs.mode
  | Error _ -> Alcotest.fail "stat"

let test_vfs_truncate () =
  let fs = world () in
  (match write_checked fs ~cred:Cred.superuser ~path:"/etc/passwd" "" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "truncate");
  match Vfs.contents fs ~path:"/etc/passwd" with
  | Ok c -> Alcotest.(check string) "empty" "" c
  | Error _ -> Alcotest.fail "exists"

let test_vfs_remove () =
  let fs = world () in
  (match Vfs.remove fs "/etc/passwd" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "remove should succeed");
  (match Vfs.contents fs ~path:"/etc/passwd" with
  | Error Vfs.Enoent -> ()
  | _ -> Alcotest.fail "file should be gone");
  (match Vfs.remove fs "/etc/passwd" with
  | Error Vfs.Enoent -> ()
  | _ -> Alcotest.fail "ENOENT expected");
  match Vfs.remove fs "/etc" with
  | Error Vfs.Eisdir -> ()
  | _ -> Alcotest.fail "EISDIR expected"

let test_vfs_traversal_normalization () =
  let fs = world () in
  let read path =
    match read_checked fs ~cred:Cred.superuser ~path with
    | Ok c -> Some c
    | Error _ -> None
  in
  let passwd = read "/etc/passwd" in
  Alcotest.(check bool) "plain" true (passwd <> None);
  Alcotest.(check bool) "dot segments" true (read "/etc/./passwd" = passwd);
  Alcotest.(check bool) "up and down" true (read "/etc/../etc/passwd" = passwd);
  Alcotest.(check bool) "lexical pop of missing component" true
    (read "/nowhere/../etc/passwd" = passwd);
  Alcotest.(check bool) "cannot climb above root" true
    (read "/../../../../etc/passwd" = passwd);
  Alcotest.(check bool) "docroot escape resolves" true
    (read "/home/alice/../../etc/passwd" = passwd)

let prop_vfs_dotdot_bounded =
  QCheck.Test.make ~name:"any number of leading .. stays at the root" ~count:50
    QCheck.(int_range 1 30)
    (fun n ->
      let fs = world () in
      let prefix = String.concat "" (List.init n (fun _ -> "/..")) in
      match read_checked fs ~cred:Cred.superuser ~path:(prefix ^ "/etc/passwd") with
      | Ok _ -> true
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Socket                                                              *)
(* ------------------------------------------------------------------ *)

let test_socket_basic_exchange () =
  let listener = Socket.make_listener () in
  let client = Socket.connect listener in
  Socket.client_send client "GET /";
  Alcotest.(check int) "pending" 1 (Socket.pending listener);
  match Socket.accept listener with
  | None -> Alcotest.fail "accept"
  | Some server ->
    Alcotest.(check int) "same conn" (Socket.conn_id client) (Socket.conn_id server);
    Alcotest.(check string) "request" "GET /" (Socket.server_read server ~max:100);
    Alcotest.(check string) "empty now" "" (Socket.server_read server ~max:100);
    ignore (Socket.server_write server "200 OK");
    Alcotest.(check string) "response" "200 OK" (Socket.client_recv client)

let test_socket_eof () =
  let listener = Socket.make_listener () in
  let client = Socket.connect listener in
  let server = Option.get (Socket.accept listener) in
  Socket.client_send client "x";
  Socket.client_close client;
  Alcotest.(check bool) "not EOF with data" false (Socket.server_at_eof server);
  ignore (Socket.server_read server ~max:10);
  Alcotest.(check bool) "EOF after drain" true (Socket.server_at_eof server)

let test_socket_partial_reads () =
  let listener = Socket.make_listener () in
  let client = Socket.connect listener in
  let server = Option.get (Socket.accept listener) in
  Socket.client_send client "abcdef";
  Alcotest.(check string) "first 3" "abc" (Socket.server_read server ~max:3);
  Alcotest.(check string) "rest" "def" (Socket.server_read server ~max:10)

let test_socket_send_after_close_rejected () =
  let listener = Socket.make_listener () in
  let client = Socket.connect listener in
  Socket.client_close client;
  Alcotest.(check bool) "raises" true
    (try
       Socket.client_send client "x";
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Kernel                                                              *)
(* ------------------------------------------------------------------ *)

let make_kernel ?(variants = 2) () =
  let fs = Vfs.create () in
  Vfs.mkdir_p fs "/etc";
  Vfs.install fs ~path:"/etc/motd" "welcome\n";
  Vfs.install fs ~path:"/etc/passwd" (Passwd.serialize Passwd.sample);
  let xor u = Nv_vm.Word.logxor u 0x7FFFFFFF in
  let base = Passwd.serialize Passwd.sample in
  Vfs.install fs ~path:"/etc/passwd-0" base;
  (match Passwd.reexpress ~f:xor base with
  | Ok diversified -> Vfs.install fs ~path:"/etc/passwd-1" diversified
  | Error e -> failwith e);
  Vfs.install fs
    ~attrs:{ Vfs.mode = 0o600; owner = 0; group = 0 }
    ~path:"/secret/shadow" "top-secret\n";
  Vfs.install fs ~attrs:{ Vfs.mode = 0o666; owner = 0; group = 0 } ~path:"/var/log/app.log" "";
  Kernel.create ~variants fs

let test_kernel_open_read_close () =
  let k = make_kernel () in
  let fd = Kernel.sys_open k ~path:"/etc/motd" ~flags:Syscall.o_rdonly in
  Alcotest.(check bool) "fd >= 3" true (fd >= 3);
  (match Kernel.sys_read k ~fd ~len:100 with
  | n, Kernel.Shared_data data ->
    Alcotest.(check int) "count" 8 n;
    Alcotest.(check string) "data" "welcome\n" data
  | _ -> Alcotest.fail "expected shared data");
  (* Subsequent read is at EOF. *)
  (match Kernel.sys_read k ~fd ~len:100 with
  | 0, Kernel.Shared_data "" -> ()
  | _ -> Alcotest.fail "EOF expected");
  Alcotest.(check int) "close" 0 (Kernel.sys_close k ~fd)

let test_kernel_open_missing () =
  let k = make_kernel () in
  Alcotest.(check int) "-1" (Nv_vm.Word.of_signed (-1))
    (Kernel.sys_open k ~path:"/nope" ~flags:Syscall.o_rdonly)

let test_kernel_permission_enforced () =
  let k = make_kernel () in
  (* Root can open the protected file... *)
  let fd = Kernel.sys_open k ~path:"/secret/shadow" ~flags:Syscall.o_rdonly in
  Alcotest.(check bool) "root opens" true (fd >= 3);
  ignore (Kernel.sys_close k ~fd);
  (* ...but after dropping privileges the open fails. *)
  ignore (Kernel.sys_seteuid k ~uid:33);
  Alcotest.(check int) "denied" (Nv_vm.Word.of_signed (-1))
    (Kernel.sys_open k ~path:"/secret/shadow" ~flags:Syscall.o_rdonly);
  (* Regain and retry. *)
  ignore (Kernel.sys_seteuid k ~uid:0);
  Alcotest.(check bool) "regained" true
    (Kernel.sys_open k ~path:"/secret/shadow" ~flags:Syscall.o_rdonly >= 3)

let test_kernel_unshared_passwd () =
  let k = make_kernel () in
  Kernel.register_unshared k "/etc/passwd";
  Alcotest.(check bool) "registered" true (Kernel.is_unshared k "/etc/passwd");
  let fd = Kernel.sys_open k ~path:"/etc/passwd" ~flags:Syscall.o_rdonly in
  Alcotest.(check bool) "opened" true (fd >= 3);
  match Kernel.sys_read k ~fd ~len:4096 with
  | n, Kernel.Per_variant chunks ->
    Alcotest.(check int) "two variants" 2 (Array.length chunks);
    Alcotest.(check bool) "non-empty" true (n > 0);
    Alcotest.(check bool) "different bytes" true (chunks.(0) <> chunks.(1));
    (* Variant 0 sees canonical uids, variant 1 sees reexpressed. *)
    let parse c = Result.get_ok (Passwd.parse c) in
    let root0 = Option.get (Passwd.lookup (parse chunks.(0)) "root") in
    let root1 = Option.get (Passwd.lookup (parse chunks.(1)) "root") in
    Alcotest.(check int) "v0 root" 0 root0.Passwd.uid;
    Alcotest.(check int) "v1 root" 0x7FFFFFFF root1.Passwd.uid
  | _ -> Alcotest.fail "expected per-variant data"

let test_kernel_unshared_missing_copy () =
  let k = make_kernel () in
  Kernel.register_unshared k "/etc/motd";
  (* No /etc/motd-0 and /etc/motd-1 exist. *)
  Alcotest.(check int) "open fails" (Nv_vm.Word.of_signed (-1))
    (Kernel.sys_open k ~path:"/etc/motd" ~flags:Syscall.o_rdonly)

let test_kernel_shared_open_of_registered_other_path () =
  let k = make_kernel () in
  Kernel.register_unshared k "/etc/passwd";
  (* Other paths remain shared. *)
  let fd = Kernel.sys_open k ~path:"/etc/motd" ~flags:Syscall.o_rdonly in
  match Kernel.sys_read k ~fd ~len:10 with
  | _, Kernel.Shared_data _ -> ()
  | _ -> Alcotest.fail "motd is shared"

let test_kernel_accept_flow () =
  let k = make_kernel () in
  Alcotest.(check int) "EAGAIN when idle" Kernel.eagain (Kernel.sys_accept k ~fd:Kernel.listen_fd);
  let conn = Kernel.connect k in
  Socket.client_send conn "ping";
  let fd = Kernel.sys_accept k ~fd:Kernel.listen_fd in
  Alcotest.(check bool) "fd" true (fd >= 3);
  (match Kernel.sys_read k ~fd ~len:16 with
  | 4, Kernel.Shared_data "ping" -> ()
  | _ -> Alcotest.fail "request bytes");
  ignore (Kernel.sys_write k ~fd ~data:(Kernel.Shared_data "pong"));
  Alcotest.(check string) "reply" "pong" (Socket.client_recv conn);
  ignore (Kernel.sys_close k ~fd);
  Alcotest.(check bool) "server closed" true (Socket.server_closed conn)

let test_kernel_write_log_file () =
  let k = make_kernel () in
  let fd = Kernel.sys_open k ~path:"/var/log/app.log" ~flags:Syscall.o_append in
  Alcotest.(check bool) "opened" true (fd >= 3);
  ignore (Kernel.sys_write k ~fd ~data:(Kernel.Shared_data "line1\n"));
  ignore (Kernel.sys_write k ~fd ~data:(Kernel.Shared_data "line2\n"));
  match Vfs.contents (Kernel.vfs k) ~path:"/var/log/app.log" with
  | Ok c -> Alcotest.(check string) "appended" "line1\nline2\n" c
  | Error _ -> Alcotest.fail "log exists"

let test_kernel_wronly_truncates () =
  let k = make_kernel () in
  let fd = Kernel.sys_open k ~path:"/etc/motd" ~flags:Syscall.o_wronly in
  ignore (Kernel.sys_write k ~fd ~data:(Kernel.Shared_data "fresh"));
  match Vfs.contents (Kernel.vfs k) ~path:"/etc/motd" with
  | Ok c -> Alcotest.(check string) "truncated+written" "fresh" c
  | Error _ -> Alcotest.fail "motd exists"

let test_kernel_write_readonly_fd_fails () =
  let k = make_kernel () in
  let fd = Kernel.sys_open k ~path:"/etc/motd" ~flags:Syscall.o_rdonly in
  Alcotest.(check int) "-1" (-1) (Kernel.sys_write k ~fd ~data:(Kernel.Shared_data "x"))

let test_kernel_stdout_capture () =
  let k = make_kernel () in
  ignore (Kernel.sys_write k ~fd:1 ~data:(Kernel.Shared_data "out"));
  ignore (Kernel.sys_write k ~fd:2 ~data:(Kernel.Shared_data "err"));
  Alcotest.(check string) "stdout" "out" (Kernel.stdout_contents k);
  Alcotest.(check string) "stderr" "err" (Kernel.stderr_contents k)

let test_kernel_setuid_family () =
  let k = make_kernel () in
  Alcotest.(check int) "getuid root" 0 (Kernel.sys_getuid k);
  Alcotest.(check int) "setgid" 0 (Kernel.sys_setgid k ~gid:33);
  Alcotest.(check int) "getgid" 33 (Kernel.sys_getgid k);
  Alcotest.(check int) "seteuid ok" 0 (Kernel.sys_seteuid k ~uid:33);
  Alcotest.(check int) "geteuid" 33 (Kernel.sys_geteuid k);
  Alcotest.(check int) "getuid still 0" 0 (Kernel.sys_getuid k);
  (* Regain effective root (real uid is still 0), then drop all ids. *)
  Alcotest.(check int) "regain" 0 (Kernel.sys_seteuid k ~uid:0);
  Alcotest.(check int) "setuid drops" 0 (Kernel.sys_setuid k ~uid:33);
  (* Once fully dropped, escalation fails. *)
  Alcotest.(check int) "seteuid(0) fails" (Nv_vm.Word.of_signed (-1))
    (Kernel.sys_seteuid k ~uid:0)

let test_kernel_exit () =
  let k = make_kernel () in
  Alcotest.(check bool) "running" true (Kernel.exit_status k = None);
  ignore (Kernel.sys_exit k ~status:3);
  Alcotest.(check bool) "exited 3" true (Kernel.exit_status k = Some 3)

let test_kernel_bad_fd () =
  let k = make_kernel () in
  Alcotest.(check int) "close bad" (Nv_vm.Word.of_signed (-1)) (Kernel.sys_close k ~fd:40);
  match Kernel.sys_read k ~fd:40 ~len:10 with
  | -1, Kernel.Shared_data "" -> ()
  | _ -> Alcotest.fail "read bad fd"

let test_kernel_fd_reuse () =
  let k = make_kernel () in
  let fd1 = Kernel.sys_open k ~path:"/etc/motd" ~flags:Syscall.o_rdonly in
  ignore (Kernel.sys_close k ~fd:fd1);
  let fd2 = Kernel.sys_open k ~path:"/etc/motd" ~flags:Syscall.o_rdonly in
  Alcotest.(check int) "lowest fd reused" fd1 fd2

let test_kernel_fd_exhaustion () =
  let fs = Vfs.create () in
  Vfs.install fs ~path:"/f" "x";
  let k = Kernel.create ~fd_limit:6 ~variants:1 fs in
  (* fd 3 is the preopened listener, so opens start at 4. *)
  let fd1 = Kernel.sys_open k ~path:"/f" ~flags:0 in
  let fd2 = Kernel.sys_open k ~path:"/f" ~flags:0 in
  Alcotest.(check (pair int int)) "two fds" (4, 5) (fd1, fd2);
  Alcotest.(check int) "exhausted" (Nv_vm.Word.of_signed (-1))
    (Kernel.sys_open k ~path:"/f" ~flags:0)

(* A failed unshared open must not have truncated any per-variant copy
   (regression: the old code truncated copies one by one before
   discovering a later copy was missing, leaving the diversified files
   diverged). *)
let test_kernel_unshared_open_no_partial_truncate () =
  let k = make_kernel () in
  Kernel.register_unshared k "/etc/notes";
  Vfs.install (Kernel.vfs k) ~path:"/etc/notes-0" "keep me";
  (* /etc/notes-1 does not exist, so the open must fail as a whole. *)
  Alcotest.(check int) "open fails" (Nv_vm.Word.of_signed (-1))
    (Kernel.sys_open k ~path:"/etc/notes" ~flags:Syscall.o_wronly);
  match Vfs.contents (Kernel.vfs k) ~path:"/etc/notes-0" with
  | Ok c -> Alcotest.(check string) "variant 0 copy not truncated" "keep me" c
  | Error _ -> Alcotest.fail "variant 0 copy should still exist"

(* The preopened listener slot must never be freed (regression: close
   used to free it, letting the next open reallocate fd 3 while accept
   traffic still queued). *)
let test_kernel_listener_fd_reserved () =
  let k = make_kernel () in
  Alcotest.(check int) "close listener fails" (Nv_vm.Word.of_signed (-1))
    (Kernel.sys_close k ~fd:Kernel.listen_fd);
  let fd = Kernel.sys_open k ~path:"/etc/motd" ~flags:Syscall.o_rdonly in
  Alcotest.(check bool) "listener slot not reallocated" true (fd > Kernel.listen_fd);
  let conn = Kernel.connect k in
  Socket.client_send conn "ping";
  Alcotest.(check bool) "accept still works" true
    (Kernel.sys_accept k ~fd:Kernel.listen_fd > Kernel.listen_fd)

(* A vanished backing file is an I/O error, not end-of-file
   (regression: read_desc mapped VFS errors to "", indistinguishable
   from EOF). *)
let test_kernel_read_error_not_eof () =
  let k = make_kernel () in
  let fd = Kernel.sys_open k ~path:"/etc/motd" ~flags:Syscall.o_rdonly in
  (match Vfs.remove (Kernel.vfs k) "/etc/motd" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "remove");
  match Kernel.sys_read k ~fd ~len:10 with
  | -1, Kernel.Shared_data "" -> ()
  | n, _ -> Alcotest.fail (Printf.sprintf "expected -1, got %d" n)

(* An unshared read that fails on one copy must fail whole with no
   position advanced on any copy. *)
let test_kernel_unshared_read_error_no_partial_pos () =
  let k = make_kernel () in
  Kernel.register_unshared k "/etc/passwd";
  let fd = Kernel.sys_open k ~path:"/etc/passwd" ~flags:Syscall.o_rdonly in
  let first =
    match Kernel.sys_read k ~fd ~len:10 with
    | _, Kernel.Per_variant chunks -> chunks
    | _ -> Alcotest.fail "per-variant read expected"
  in
  let saved = Result.get_ok (Vfs.contents (Kernel.vfs k) ~path:"/etc/passwd-1") in
  (match Vfs.remove (Kernel.vfs k) "/etc/passwd-1" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "remove");
  (match Kernel.sys_read k ~fd ~len:10 with
  | -1, Kernel.Shared_data "" -> ()
  | _ -> Alcotest.fail "error expected while a copy is missing");
  Vfs.install (Kernel.vfs k) ~path:"/etc/passwd-1" saved;
  match Kernel.sys_read k ~fd ~len:10 with
  | _, Kernel.Per_variant chunks ->
    let full0 = Result.get_ok (Vfs.contents (Kernel.vfs k) ~path:"/etc/passwd-0") in
    (* If the failed read had advanced variant 0's position, this
       concatenation would have a hole. *)
    Alcotest.(check string) "variant 0 continues seamlessly" (String.sub full0 0 20)
      (first.(0) ^ chunks.(0))
  | _ -> Alcotest.fail "per-variant read expected"

(* An unshared write that cannot succeed on every copy must fail with
   no bytes written anywhere. *)
let test_kernel_unshared_write_no_partial () =
  let k = make_kernel () in
  Kernel.register_unshared k "/var/cache";
  Vfs.install (Kernel.vfs k) ~path:"/var/cache-0" "a";
  Vfs.install (Kernel.vfs k) ~path:"/var/cache-1" "b";
  let fd = Kernel.sys_open k ~path:"/var/cache" ~flags:Syscall.o_append in
  Alcotest.(check bool) "opened" true (fd >= 3);
  (match Vfs.remove (Kernel.vfs k) "/var/cache-1" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "remove");
  Alcotest.(check int) "write fails" (-1)
    (Kernel.sys_write k ~fd ~data:(Kernel.Shared_data "X"));
  match Vfs.contents (Kernel.vfs k) ~path:"/var/cache-0" with
  | Ok c -> Alcotest.(check string) "variant 0 copy untouched" "a" c
  | Error _ -> Alcotest.fail "variant 0 copy should still exist"

(* A kernel checkpoint rolls back file contents and attributes, removed
   files, descriptor positions and the capture buffers, keeps files
   installed after it, drops the connection open at restore, and
   restores the same way a second time. *)
let test_kernel_snapshot_restore () =
  let k = make_kernel () in
  let fs = Kernel.vfs k in
  let passwd = Passwd.serialize Passwd.sample in
  let motd = Kernel.sys_open k ~path:"/etc/motd" ~flags:Syscall.o_rdonly in
  ignore (Kernel.sys_read k ~fd:motd ~len:3);
  let log = Kernel.sys_open k ~path:"/var/log/app.log" ~flags:Syscall.o_append in
  ignore (Kernel.sys_write k ~fd:log ~data:(Kernel.Shared_data "line1\n"));
  ignore (Kernel.sys_write k ~fd:1 ~data:(Kernel.Shared_data "out1"));
  ignore (Kernel.sys_write k ~fd:2 ~data:(Kernel.Shared_data "err1"));
  let snap = Kernel.snapshot k in
  let contents path =
    match Vfs.contents fs ~path with Ok c -> c | Error _ -> Alcotest.failf "%s missing" path
  in
  let attrs path =
    match Vfs.stat fs path with Ok a -> a | Error _ -> Alcotest.failf "%s missing" path
  in
  let round what =
    ignore (Kernel.sys_read k ~fd:motd ~len:3);
    ignore (Kernel.sys_write k ~fd:log ~data:(Kernel.Shared_data "line2\n"));
    ignore (Vfs.set_contents fs ~path:"/etc/passwd" "changed");
    Vfs.install fs ~attrs:{ Vfs.mode = 0o600; owner = 5; group = 5 } ~path:"/etc/motd" "new\n";
    ignore (Vfs.remove fs "/secret/shadow");
    ignore (Vfs.remove fs "/etc/passwd-0");
    Vfs.install fs ~path:"/etc/passwd-0" "impostor";
    Vfs.install fs ~path:"/tmp/new.txt" "fresh\n";
    ignore (Kernel.sys_write k ~fd:1 ~data:(Kernel.Shared_data "out2"));
    ignore (Kernel.sys_write k ~fd:2 ~data:(Kernel.Shared_data "err2"));
    let conn = Kernel.connect k in
    let fd = Kernel.sys_accept k ~fd:Kernel.listen_fd in
    Alcotest.(check bool) (what ^ ": accepted") true (fd >= 3);
    Alcotest.(check int) (what ^ ": dropped") 1 (Kernel.restore k snap);
    Alcotest.(check bool) (what ^ ": connection closed") true (Socket.server_closed conn);
    Alcotest.(check int) (what ^ ": its slot is free") (-1)
      (fst (Kernel.sys_read k ~fd ~len:1));
    Alcotest.(check string) (what ^ ": appended") "line1\n" (contents "/var/log/app.log");
    Alcotest.(check string) (what ^ ": set") passwd (contents "/etc/passwd");
    Alcotest.(check string) (what ^ ": installed") "welcome\n" (contents "/etc/motd");
    Alcotest.(check bool) (what ^ ": attributes") true
      (attrs "/etc/motd" = { Vfs.mode = 0o644; owner = 0; group = 0 });
    Alcotest.(check string) (what ^ ": removed") "top-secret\n" (contents "/secret/shadow");
    Alcotest.(check int) (what ^ ": removed mode") 0o600 (attrs "/secret/shadow").Vfs.mode;
    Alcotest.(check string) (what ^ ": reinstalled") passwd (contents "/etc/passwd-0");
    Alcotest.(check string) (what ^ ": new file stays") "fresh\n" (contents "/tmp/new.txt");
    Alcotest.(check string) (what ^ ": stdout") "out1" (Kernel.stdout_contents k);
    Alcotest.(check string) (what ^ ": stderr") "err1" (Kernel.stderr_contents k);
    match Kernel.sys_read k ~fd:motd ~len:3 with
    | 3, Kernel.Shared_data data -> Alcotest.(check string) (what ^ ": position") "com" data
    | _ -> Alcotest.failf "%s: motd read" what
  in
  round "first restore";
  round "second restore"

(* ------------------------------------------------------------------ *)
(* Syscall metadata                                                    *)
(* ------------------------------------------------------------------ *)

let test_syscall_signatures () =
  (match Syscall.signature Syscall.sys_read with
  | Some { Syscall.name = "read"; args = [ Syscall.Int; Syscall.Ptr_out; Syscall.Len ]; _ } ->
    ()
  | _ -> Alcotest.fail "read signature");
  (match Syscall.signature Syscall.sys_seteuid with
  | Some { Syscall.args = [ Syscall.Uid ]; ret = Syscall.Ret_int; _ } -> ()
  | _ -> Alcotest.fail "seteuid signature");
  match Syscall.signature Syscall.sys_getuid with
  | Some { Syscall.ret = Syscall.Ret_uid; _ } -> ()
  | _ -> Alcotest.fail "getuid returns uid"

let test_syscall_names () =
  Alcotest.(check string) "uid_value" "uid_value" (Syscall.name Syscall.sys_uid_value);
  Alcotest.(check string) "unknown" "sys#99" (Syscall.name 99)

let test_syscall_detection_range () =
  Alcotest.(check bool) "uid_value" true (Syscall.is_detection_call Syscall.sys_uid_value);
  Alcotest.(check bool) "cc_geq" true (Syscall.is_detection_call Syscall.sys_cc_geq);
  Alcotest.(check bool) "read not" false (Syscall.is_detection_call Syscall.sys_read)

let test_vfs_size_and_read_range () =
  let fs = world () in
  (match Vfs.size fs ~path:"/home/alice/notes.txt" with
  | Ok n -> Alcotest.(check int) "size" 6 n
  | Error e -> Alcotest.failf "size: %s" (Vfs.error_to_string e));
  (match Vfs.size fs ~path:"/etc" with
  | Error Vfs.Eisdir -> ()
  | Ok _ | Error _ -> Alcotest.fail "size of a directory should be Eisdir");
  (match Vfs.read_range fs ~path:"/home/alice/notes.txt" ~pos:1 ~len:3 with
  | Ok s -> Alcotest.(check string) "middle slice" "ell" s
  | Error e -> Alcotest.failf "read_range: %s" (Vfs.error_to_string e));
  (match Vfs.read_range fs ~path:"/home/alice/notes.txt" ~pos:4 ~len:100 with
  | Ok s -> Alcotest.(check string) "clamped at EOF" "o\n" s
  | Error e -> Alcotest.failf "read_range: %s" (Vfs.error_to_string e));
  match Vfs.read_range fs ~path:"/home/alice/notes.txt" ~pos:100 ~len:4 with
  | Ok s -> Alcotest.(check string) "past EOF is empty" "" s
  | Error e -> Alcotest.failf "read_range: %s" (Vfs.error_to_string e)

let () =
  Alcotest.run "nv_os"
    [
      ( "cred",
        [
          Alcotest.test_case "superuser" `Quick test_cred_superuser;
          Alcotest.test_case "setuid root drops all" `Quick test_cred_setuid_root_drops_all;
          Alcotest.test_case "setuid unprivileged" `Quick test_cred_setuid_unprivileged;
          Alcotest.test_case "seteuid toggle" `Quick test_cred_seteuid_toggle;
          Alcotest.test_case "no escalation" `Quick
            test_cred_seteuid_ordinary_user_cannot_escalate;
          Alcotest.test_case "setgid" `Quick test_cred_setgid;
        ] );
      ( "passwd",
        [
          Alcotest.test_case "roundtrip" `Quick test_passwd_roundtrip;
          Alcotest.test_case "lookup" `Quick test_passwd_lookup;
          Alcotest.test_case "parse errors" `Quick test_passwd_parse_errors;
          Alcotest.test_case "reexpress" `Quick test_passwd_reexpress;
          Alcotest.test_case "group roundtrip" `Quick test_passwd_group_roundtrip;
        ]
        @ qsuite [ prop_passwd_reexpress_involution ] );
      ( "passwd-index",
        [
          Alcotest.test_case "sublinear lookups" `Quick test_index_sublinear;
          Alcotest.test_case "size and misses" `Quick test_index_size_and_misses;
          Alcotest.test_case "generate deterministic" `Quick test_generate_deterministic;
        ]
        @ qsuite [ prop_index_agrees_with_linear ] );
      ( "vfs",
        [
          Alcotest.test_case "read perms" `Quick test_vfs_read;
          Alcotest.test_case "root bypasses" `Quick test_vfs_root_bypasses;
          Alcotest.test_case "owner write" `Quick test_vfs_owner_write;
          Alcotest.test_case "enoent/eisdir" `Quick test_vfs_enoent_and_eisdir;
          Alcotest.test_case "list dir" `Quick test_vfs_list_dir;
          Alcotest.test_case "directory search permission" `Quick
            test_vfs_directory_search;
          Alcotest.test_case "install replaces" `Quick test_vfs_install_replaces;
          Alcotest.test_case "stat" `Quick test_vfs_stat;
          Alcotest.test_case "truncate" `Quick test_vfs_truncate;
          Alcotest.test_case "remove" `Quick test_vfs_remove;
          Alcotest.test_case "size and read_range" `Quick test_vfs_size_and_read_range;
          Alcotest.test_case "traversal normalization" `Quick
            test_vfs_traversal_normalization;
        ]
        @ qsuite [ prop_vfs_dotdot_bounded ] );
      ( "socket",
        [
          Alcotest.test_case "basic exchange" `Quick test_socket_basic_exchange;
          Alcotest.test_case "EOF" `Quick test_socket_eof;
          Alcotest.test_case "partial reads" `Quick test_socket_partial_reads;
          Alcotest.test_case "send after close" `Quick test_socket_send_after_close_rejected;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "open/read/close" `Quick test_kernel_open_read_close;
          Alcotest.test_case "open missing" `Quick test_kernel_open_missing;
          Alcotest.test_case "permissions" `Quick test_kernel_permission_enforced;
          Alcotest.test_case "unshared passwd" `Quick test_kernel_unshared_passwd;
          Alcotest.test_case "unshared missing copy" `Quick test_kernel_unshared_missing_copy;
          Alcotest.test_case "other paths stay shared" `Quick
            test_kernel_shared_open_of_registered_other_path;
          Alcotest.test_case "accept flow" `Quick test_kernel_accept_flow;
          Alcotest.test_case "log append" `Quick test_kernel_write_log_file;
          Alcotest.test_case "wronly truncates" `Quick test_kernel_wronly_truncates;
          Alcotest.test_case "readonly write fails" `Quick test_kernel_write_readonly_fd_fails;
          Alcotest.test_case "stdout capture" `Quick test_kernel_stdout_capture;
          Alcotest.test_case "setuid family" `Quick test_kernel_setuid_family;
          Alcotest.test_case "exit" `Quick test_kernel_exit;
          Alcotest.test_case "bad fd" `Quick test_kernel_bad_fd;
          Alcotest.test_case "fd reuse" `Quick test_kernel_fd_reuse;
          Alcotest.test_case "fd exhaustion" `Quick test_kernel_fd_exhaustion;
          Alcotest.test_case "unshared open: no partial truncate" `Quick
            test_kernel_unshared_open_no_partial_truncate;
          Alcotest.test_case "listener fd reserved" `Quick test_kernel_listener_fd_reserved;
          Alcotest.test_case "read error is not EOF" `Quick test_kernel_read_error_not_eof;
          Alcotest.test_case "unshared read error: no partial pos" `Quick
            test_kernel_unshared_read_error_no_partial_pos;
          Alcotest.test_case "unshared write: no partial" `Quick
            test_kernel_unshared_write_no_partial;
          Alcotest.test_case "snapshot and restore" `Quick test_kernel_snapshot_restore;
        ] );
      ( "syscall",
        [
          Alcotest.test_case "signatures" `Quick test_syscall_signatures;
          Alcotest.test_case "names" `Quick test_syscall_names;
          Alcotest.test_case "detection range" `Quick test_syscall_detection_range;
        ] );
    ]
