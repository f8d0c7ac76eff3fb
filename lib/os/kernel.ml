module Metrics = Nv_util.Metrics

let err = Nv_vm.Word.of_signed (-1)

let eagain = Nv_vm.Word.of_signed (-2)

let listen_fd = 3

type file_desc = {
  path : string;
  mutable pos : int;
  writable : bool;
  append : bool;
}

type desc =
  | Dnull
  | Dcapture of Buffer.t
  | Dfile of file_desc
  | Dconn of Socket.conn
  | Dlistener

type slot = Free | Shared of desc | Unshared of desc array

type data = Shared_data of string | Per_variant of string array

type t = {
  vfs : Vfs.t;
  variants : int;
  mutable cred : Cred.t;
  fds : slot array;
  listener : Socket.listener;
  stdout : Buffer.t;
  stderr : Buffer.t;
  unshared_paths : (string, unit) Hashtbl.t;
  mutable exit_status : int option;
  mutable syscalls : int;
  mutable open_fds : int;
  metrics : Metrics.t;
  calls_scope : Metrics.scope;
  calls_by_number : Metrics.counter option array;
  syscalls_c : Metrics.counter;
  shared_bytes_in : Metrics.counter;
  shared_bytes_out : Metrics.counter;
  unshared_bytes_in : Metrics.counter;
  unshared_bytes_out : Metrics.counter;
  fds_open : Metrics.gauge;
  fds_high_water : Metrics.gauge;
  mutable trace : (Nv_util.Trace.ring * (unit -> int)) option;
}

(* One [calls_by_number] slot per syscall number in the ABI table. *)
let call_slots = 1 + List.fold_left (fun m (n, _) -> Int.max m n) 0 Syscall.all

let create ?(fd_limit = 64) ~variants vfs =
  if variants < 1 then invalid_arg "Kernel.create: need at least one variant";
  if fd_limit <= listen_fd then invalid_arg "Kernel.create: fd_limit too small";
  let metrics = Metrics.create () in
  let scope = Metrics.scope metrics "kernel" in
  let io_scope = Metrics.sub scope "io" in
  let fds_scope = Metrics.sub scope "fds" in
  let stdout = Buffer.create 256 in
  let stderr = Buffer.create 256 in
  let fds = Array.make fd_limit Free in
  fds.(0) <- Shared Dnull;
  fds.(1) <- Shared (Dcapture stdout);
  fds.(2) <- Shared (Dcapture stderr);
  fds.(listen_fd) <- Shared Dlistener;
  let t =
    {
      vfs;
      variants;
      cred = Cred.superuser;
      fds;
      listener = Socket.make_listener ();
      stdout;
      stderr;
      unshared_paths = Hashtbl.create 8;
      exit_status = None;
      syscalls = 0;
      open_fds = 4;
      metrics;
      calls_scope = Metrics.sub scope "calls";
      calls_by_number = Array.make call_slots None;
      syscalls_c = Metrics.counter scope "syscalls";
      shared_bytes_in = Metrics.counter io_scope "shared_bytes_in";
      shared_bytes_out = Metrics.counter io_scope "shared_bytes_out";
      unshared_bytes_in = Metrics.counter io_scope "unshared_bytes_in";
      unshared_bytes_out = Metrics.counter io_scope "unshared_bytes_out";
      fds_open = Metrics.gauge fds_scope "open";
      fds_high_water = Metrics.gauge fds_scope "high_water";
      trace = None;
    }
  in
  Metrics.set_gauge t.fds_open (float_of_int t.open_fds);
  Metrics.max_gauge t.fds_high_water (float_of_int t.open_fds);
  t

let vfs t = t.vfs

let variants t = t.variants

let metrics t = t.metrics

let cred t = t.cred

let listener t = t.listener

let connect t = Socket.connect t.listener

let register_unshared t path = Hashtbl.replace t.unshared_paths path ()

let is_unshared t path = Hashtbl.mem t.unshared_paths path

let stdout_contents t = Buffer.contents t.stdout

let stderr_contents t = Buffer.contents t.stderr

let exit_status t = t.exit_status

let syscalls_executed t = t.syscalls

let set_trace t ~ring ~clock = t.trace <- Some (ring, clock)

(* A call's [kernel.calls.<name>] counter is registered at its first
   use, as a lookup by name would, and then kept by number. *)
let count t n =
  t.syscalls <- t.syscalls + 1;
  Metrics.incr t.syscalls_c;
  (match t.calls_by_number.(n) with
  | Some c -> Metrics.incr c
  | None ->
    let c = Metrics.counter t.calls_scope (Syscall.name n) in
    t.calls_by_number.(n) <- Some c;
    Metrics.incr c);
  match t.trace with
  | None -> ()
  | Some (ring, clock) ->
      if Nv_util.Trace.enabled_ring ring then
        Nv_util.Trace.record ring ~ts:(clock ())
          (Nv_util.Trace.Kernel_call { name = Syscall.name n; seq = t.syscalls })

let fd_delta t delta =
  t.open_fds <- t.open_fds + delta;
  Metrics.set_gauge t.fds_open (float_of_int t.open_fds);
  Metrics.max_gauge t.fds_high_water (float_of_int t.open_fds)

let alloc_fd t =
  let rec scan i =
    if i >= Array.length t.fds then None
    else begin
      match t.fds.(i) with Free -> Some i | Shared _ | Unshared _ -> scan (i + 1)
    end
  in
  scan 3

let slot t fd = if fd < 0 || fd >= Array.length t.fds then Free else t.fds.(fd)

(* ------------------------------------------------------------------ *)
(* Syscalls                                                            *)
(* ------------------------------------------------------------------ *)

let sys_exit t ~status =
  count t Syscall.sys_exit;
  t.exit_status <- Some status;
  0

let variant_path path i = Printf.sprintf "%s-%d" path i

let open_access flags =
  if flags land (Syscall.o_wronly lor Syscall.o_append) <> 0 then Vfs.Write_access
  else Vfs.Read_access

(* Validation and descriptor construction are separate steps: a
   multi-path (unshared) open must not truncate any per-variant copy
   until every copy has been validated, or a partial failure leaves
   the diversified files diverged. *)
let check_open t path access =
  match Vfs.open_file t.vfs ~cred:t.cred ~path ~access with
  | Ok () -> true
  | Error _ -> false

let make_desc t path flags access =
  let writable = access = Vfs.Write_access in
  let append = flags land Syscall.o_append <> 0 in
  if writable && not append then ignore (Vfs.set_contents t.vfs ~path "");
  Dfile { path; pos = 0; writable; append }

let sys_open t ~path ~flags =
  count t Syscall.sys_open;
  match alloc_fd t with
  | None -> err
  | Some fd ->
    let access = open_access flags in
    if is_unshared t path then begin
      let paths = Array.init t.variants (variant_path path) in
      if Array.for_all (fun p -> check_open t p access) paths then begin
        t.fds.(fd) <- Unshared (Array.map (fun p -> make_desc t p flags access) paths);
        fd_delta t 1;
        fd
      end
      else err
    end
    else if check_open t path access then begin
      t.fds.(fd) <- Shared (make_desc t path flags access);
      fd_delta t 1;
      fd
    end
    else err

let sys_close t ~fd =
  count t Syscall.sys_close;
  match slot t fd with
  | Free -> err
  | Shared Dlistener ->
    (* The preopened listener slot is reserved: freeing it would let
       [alloc_fd] hand the canonical listen fd to a regular file while
       accept traffic still queues, wedging the server forever. *)
    err
  | Shared (Dconn conn) ->
    Socket.server_close conn;
    t.fds.(fd) <- Free;
    fd_delta t (-1);
    0
  | Shared _ | Unshared _ ->
    t.fds.(fd) <- Free;
    fd_delta t (-1);
    0

(* Whether a read on [desc] can be performed at all — used to validate
   every branch of an unshared read before any descriptor position
   advances. *)
let desc_readable t = function
  | Dnull | Dcapture _ | Dlistener | Dconn _ -> true
  | Dfile f -> Result.is_ok (Vfs.size t.vfs ~path:f.path)

let read_desc t desc len =
  match desc with
  | Dnull -> Ok ""
  | Dcapture _ -> Ok ""
  | Dlistener -> Ok ""
  | Dconn conn -> Ok (Socket.server_read conn ~max:len)
  | Dfile f -> (
    (* One path resolution and one chunk-sized copy per call: guests
       scan fleet-scale passwd variants in small reads, so the read
       path must not touch the whole backing string each time. *)
    match Vfs.read_range t.vfs ~path:f.path ~pos:f.pos ~len with
    | Error _ ->
      (* A vanished backing file is an I/O error, not end-of-file. *)
      Error ()
    | Ok data ->
      f.pos <- f.pos + String.length data;
      Ok data)

let sys_read t ~fd ~len =
  count t Syscall.sys_read;
  let len = Int.max 0 len in
  match slot t fd with
  | Free -> (Nv_vm.Word.to_signed err, Shared_data "")
  | Shared desc -> (
    match read_desc t desc len with
    | Error () -> (Nv_vm.Word.to_signed err, Shared_data "")
    | Ok data ->
      Metrics.add t.shared_bytes_in (String.length data);
      (String.length data, Shared_data data))
  | Unshared descs ->
    if not (Array.for_all (desc_readable t) descs) then
      (* Error on any copy fails the whole call before any copy's
         position advances, so the variants stay in step. *)
      (Nv_vm.Word.to_signed err, Shared_data "")
    else begin
      let chunks =
        Array.map
          (fun desc ->
            match read_desc t desc len with Ok data -> data | Error () -> assert false)
          descs
      in
      Array.iter (fun c -> Metrics.add t.unshared_bytes_in (String.length c)) chunks;
      let n = if Array.length chunks > 0 then String.length chunks.(0) else 0 in
      (n, Per_variant chunks)
    end

(* Whether a write on [desc] can succeed — used to validate every
   branch of an unshared write before any bytes are persisted, so a
   partial failure cannot leave the diversified copies diverged. *)
let desc_writable t = function
  | Dnull | Dcapture _ | Dconn _ -> true
  | Dlistener -> false
  | Dfile f -> f.writable && Result.is_ok (Vfs.size t.vfs ~path:f.path)

let write_desc t desc bytes =
  match desc with
  | Dnull -> String.length bytes
  | Dlistener -> Nv_vm.Word.to_signed err
  | Dcapture buf ->
    Buffer.add_string buf bytes;
    String.length bytes
  | Dconn conn -> Socket.server_write conn bytes
  | Dfile f ->
    if not f.writable then Nv_vm.Word.to_signed err
    else begin
      match Vfs.append_contents t.vfs ~path:f.path bytes with
      | Error _ -> Nv_vm.Word.to_signed err
      | Ok () -> String.length bytes
    end

let write_unshared t descs chunk_of =
  if not (Array.for_all (desc_writable t) descs) then Nv_vm.Word.to_signed err
  else begin
    let results = Array.mapi (fun i desc -> write_desc t desc (chunk_of i)) descs in
    Array.iter (fun r -> if r > 0 then Metrics.add t.unshared_bytes_out r) results;
    Array.fold_left Int.min max_int results
  end

let sys_write t ~fd ~data =
  count t Syscall.sys_write;
  match (slot t fd, data) with
  | (Free, _) -> Nv_vm.Word.to_signed err
  | (Shared desc, Shared_data bytes) ->
    let result = write_desc t desc bytes in
    if result > 0 then Metrics.add t.shared_bytes_out result;
    result
  | (Shared desc, Per_variant chunks) ->
    (* Variants wrote different bytes to a shared descriptor; the
       monitor should have raised an alarm before getting here, but we
       fail safe by writing variant 0's bytes. *)
    let result = write_desc t desc (if Array.length chunks > 0 then chunks.(0) else "") in
    if result > 0 then Metrics.add t.shared_bytes_out result;
    result
  | (Unshared descs, Per_variant chunks) when Array.length chunks = Array.length descs ->
    write_unshared t descs (fun i -> chunks.(i))
  | (Unshared descs, Shared_data bytes) -> write_unshared t descs (fun _ -> bytes)
  | (Unshared _, Per_variant _) -> Nv_vm.Word.to_signed err

let sys_accept t ~fd =
  count t Syscall.sys_accept;
  match slot t fd with
  | Shared Dlistener -> (
    match Socket.accept t.listener with
    | None -> eagain
    | Some conn -> (
      match alloc_fd t with
      | None -> err
      | Some fd ->
        t.fds.(fd) <- Shared (Dconn conn);
        fd_delta t 1;
        fd))
  | Free | Shared _ | Unshared _ -> err

let sys_getuid t =
  count t Syscall.sys_getuid;
  t.cred.Cred.ruid

let sys_geteuid t =
  count t Syscall.sys_geteuid;
  t.cred.Cred.euid

let sys_getgid t =
  count t Syscall.sys_getgid;
  t.cred.Cred.rgid

let sys_getegid t =
  count t Syscall.sys_getegid;
  t.cred.Cred.egid

let apply_setid t result =
  match result with
  | Ok cred ->
    t.cred <- cred;
    0
  | Error Cred.Eperm -> err

let sys_setuid t ~uid =
  count t Syscall.sys_setuid;
  apply_setid t (Cred.setuid t.cred uid)

let sys_seteuid t ~uid =
  count t Syscall.sys_seteuid;
  apply_setid t (Cred.seteuid t.cred uid)

let sys_setgid t ~gid =
  count t Syscall.sys_setgid;
  apply_setid t (Cred.setgid t.cred gid)

let sys_setegid t ~gid =
  count t Syscall.sys_setegid;
  apply_setid t (Cred.setegid t.cred gid)

let fd_is_unshared t ~fd =
  match slot t fd with Unshared _ -> true | Free | Shared _ -> false

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_cred : Cred.t;
  snap_fds : slot array;
  snap_files : Vfs.snapshot;
  snap_stdout : int;
  snap_stderr : int;
  snap_exit : int option;
}

let copy_desc = function
  | Dnull -> Dnull
  (* Capture descriptors alias the kernel's own stdout/stderr buffers,
     whose lengths are checkpointed separately. *)
  | Dcapture buf -> Dcapture buf
  | Dfile f -> Dfile { f with pos = f.pos }
  | Dlistener -> Dlistener
  | Dconn conn -> Dconn conn

(* Connections are live protocol state shared with the outside world;
   they cannot be rolled back, so a checkpoint records their slots as
   free and [restore] closes whatever connections are open. *)
let copy_slot = function
  | Free -> Free
  | Shared (Dconn _) -> Free
  | Shared desc -> Shared (copy_desc desc)
  | Unshared descs -> Unshared (Array.map copy_desc descs)

let snapshot t =
  {
    snap_cred = t.cred;
    snap_fds = Array.map copy_slot t.fds;
    snap_files = Vfs.snapshot t.vfs;
    snap_stdout = Buffer.length t.stdout;
    snap_stderr = Buffer.length t.stderr;
    snap_exit = t.exit_status;
  }

let restore t snap =
  let dropped = ref 0 in
  Array.iter
    (fun s ->
      match s with
      | Shared (Dconn conn) ->
        Socket.server_close conn;
        incr dropped
      | Free | Shared _ | Unshared _ -> ())
    t.fds;
  (* Deep-copy again on the way back so the snapshot stays pristine and
     can be restored any number of times. *)
  Array.iteri (fun i s -> t.fds.(i) <- copy_slot s) snap.snap_fds;
  t.cred <- snap.snap_cred;
  t.exit_status <- snap.snap_exit;
  (* Reinstate checkpointed file contents and attributes (re-linking
     removed files). Files installed after the checkpoint are left in
     place; the fd table restore drops any descriptor for them. *)
  Vfs.restore t.vfs snap.snap_files;
  if Buffer.length t.stdout >= snap.snap_stdout then
    Buffer.truncate t.stdout snap.snap_stdout;
  if Buffer.length t.stderr >= snap.snap_stderr then
    Buffer.truncate t.stderr snap.snap_stderr;
  t.open_fds <-
    Array.fold_left
      (fun acc s -> match s with Free -> acc | Shared _ | Unshared _ -> acc + 1)
      0 t.fds;
  Metrics.set_gauge t.fds_open (float_of_int t.open_fds);
  !dropped
