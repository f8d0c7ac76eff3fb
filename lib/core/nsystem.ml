module Vfs = Nv_os.Vfs
module Passwd = Nv_os.Passwd
module Kernel = Nv_os.Kernel

type t = {
  kernel : Kernel.t;
  monitor : Monitor.t;
  variation : Variation.t;
  supervisor : Supervisor.t option;
}

let install_diversified vfs ~variation ~path ~reexpress_file content =
  Vfs.install vfs ~path content;
  Array.iter
    (fun spec ->
      let f = spec.Variation.uid.Reexpression.encode in
      match reexpress_file ~f content with
      | Ok diversified ->
        Vfs.install vfs ~path:(Printf.sprintf "%s-%d" path spec.Variation.index) diversified
      | Error message -> invalid_arg ("Nsystem.standard_vfs: " ^ message))
    variation.Variation.variants

let standard_vfs ?(users = 0) ~variation () =
  let vfs = Vfs.create () in
  Vfs.mkdir_p vfs "/etc";
  (* The sample entries stay first so the server worker ("www") is
     found in the guest's first passwd read even when a large synthetic
     population is appended behind it. *)
  let entries =
    if users = 0 then Passwd.sample else Passwd.sample @ Passwd.generate users
  in
  let passwd_text = Passwd.serialize entries in
  let group_text = Passwd.serialize_group Passwd.sample_groups in
  let unshared = variation.Variation.unshared_paths in
  if List.mem "/etc/passwd" unshared then
    install_diversified vfs ~variation ~path:"/etc/passwd" ~reexpress_file:Passwd.reexpress
      passwd_text
  else Vfs.install vfs ~path:"/etc/passwd" passwd_text;
  if List.mem "/etc/group" unshared then
    install_diversified vfs ~variation ~path:"/etc/group"
      ~reexpress_file:Passwd.reexpress_group group_text
  else Vfs.install vfs ~path:"/etc/group" group_text;
  Vfs.install vfs
    ~attrs:{ Vfs.mode = 0o600; owner = 0; group = 0 }
    ~path:"/secret/shadow" "root:$6$salt$hashhashhash:19000:0:99999:7:::\n";
  Vfs.install vfs
    ~attrs:{ Vfs.mode = 0o666; owner = 0; group = 0 }
    ~path:"/var/log/httpd.log" "";
  vfs

let create ?vfs ?engine ?segment_size ?recover ~variation images =
  let vfs = match vfs with Some v -> v | None -> standard_vfs ~variation () in
  let kernel = Kernel.create ~variants:(Variation.count variation) vfs in
  let monitor = Monitor.create ?engine ?segment_size ~kernel ~variation images in
  let supervisor =
    Option.map (fun config -> Supervisor.create ~config monitor) recover
  in
  { kernel; monitor; variation; supervisor }

let of_one_image ?vfs ?engine ?segment_size ?recover ~variation image =
  create ?vfs ?engine ?segment_size ?recover ~variation
    (Array.make (Variation.count variation) image)

let kernel t = t.kernel

let monitor t = t.monitor

let supervisor t = t.supervisor

let variation t = t.variation

let metrics t = Monitor.metrics t.monitor

let connect t = Kernel.connect t.kernel

(* All stepping goes through the supervisor when one is attached, so
   recovery applies uniformly to [run], [serve] and everything built
   on them. *)
let run ?fuel t =
  match t.supervisor with
  | Some s -> Supervisor.run ?fuel s
  | None -> Monitor.run ?fuel t.monitor

type serve_result = Served of string | Stopped of Monitor.outcome

let serve ?fuel t request =
  (* Make sure the server is parked on accept before connecting. *)
  let parked =
    match run ?fuel t with
    | Monitor.Blocked_on_accept -> Ok ()
    | other -> Error other
  in
  match parked with
  | Error outcome -> Stopped outcome
  | Ok () -> (
    let conn = Kernel.connect t.kernel in
    Nv_os.Socket.client_send conn request;
    Nv_os.Socket.client_close conn;
    match run ?fuel t with
    | Monitor.Blocked_on_accept -> Served (Nv_os.Socket.client_recv conn)
    | outcome -> Stopped outcome)
