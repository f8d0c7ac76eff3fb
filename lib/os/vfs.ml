type error = Enoent | Eacces | Eisdir | Enotdir | Eexist

let error_to_string = function
  | Enoent -> "no such file or directory"
  | Eacces -> "permission denied"
  | Eisdir -> "is a directory"
  | Enotdir -> "not a directory"
  | Eexist -> "file exists"

type attrs = { mode : int; owner : Cred.uid; group : Cred.gid }

type node =
  | File of { mutable content : string; mutable attrs : attrs }
  | Dir of { entries : (string, node) Hashtbl.t; mutable attrs : attrs }

type t = { root : node }

let default_dir_attrs = { mode = 0o755; owner = 0; group = 0 }

let default_file_attrs = { mode = 0o644; owner = 0; group = 0 }

let create () = { root = Dir { entries = Hashtbl.create 16; attrs = default_dir_attrs } }

(* Split and normalize a path: "." is dropped, ".." pops (stopping at
   the root, as the kernel does). Traversal sequences are resolved
   here, which is what makes the case-study server's "GET
   /../secret/shadow" escape from its document root meaningful. *)
let components path =
  String.split_on_char '/' path
  |> List.filter (fun c -> c <> "" && c <> ".")
  |> List.fold_left
       (fun acc comp ->
         match (comp, acc) with
         | "..", [] -> []
         | "..", _ :: rest -> rest
         | _, _ -> comp :: acc)
       []
  |> List.rev

let rec lookup node = function
  | [] -> Ok node
  | name :: rest -> (
    match node with
    | File _ -> Error Enotdir
    | Dir { entries; _ } -> (
      match Hashtbl.find_opt entries name with
      | None -> Error Enoent
      | Some child -> lookup child rest))

let find t path = lookup t.root (components path)

(* ------------------------------------------------------------------ *)
(* Setup interface                                                     *)
(* ------------------------------------------------------------------ *)

let mkdir_p t ?(attrs = default_dir_attrs) path =
  let rec descend node = function
    | [] -> ()
    | name :: rest -> (
      match node with
      | File _ -> invalid_arg "Vfs.mkdir_p: path component is a file"
      | Dir { entries; _ } -> (
        match Hashtbl.find_opt entries name with
        | Some child -> descend child rest
        | None ->
          let child = Dir { entries = Hashtbl.create 8; attrs } in
          Hashtbl.add entries name child;
          descend child rest))
  in
  descend t.root (components path)

let split_parent path =
  match List.rev (components path) with
  | [] -> invalid_arg "Vfs: empty path"
  | name :: rev_parents -> (List.rev rev_parents, name)

let install t ?(attrs = default_file_attrs) ~path content =
  let parents, name = split_parent path in
  let rec descend node = function
    | [] -> (
      match node with
      | File _ -> invalid_arg "Vfs.install: parent is a file"
      | Dir { entries; _ } -> (
        match Hashtbl.find_opt entries name with
        | Some (File f) ->
          f.content <- content;
          f.attrs <- attrs
        | Some (Dir _) -> invalid_arg "Vfs.install: path is a directory"
        | None -> Hashtbl.add entries name (File { content; attrs })))
    | comp :: rest -> (
      match node with
      | File _ -> invalid_arg "Vfs.install: path component is a file"
      | Dir { entries; _ } -> (
        match Hashtbl.find_opt entries comp with
        | Some child -> descend child rest
        | None ->
          let child = Dir { entries = Hashtbl.create 8; attrs = default_dir_attrs } in
          Hashtbl.add entries comp child;
          descend child rest))
  in
  descend t.root parents

let remove t path =
  let parents, name = split_parent path in
  match lookup t.root parents with
  | Error _ as e -> e
  | Ok (File _) -> Error Enotdir
  | Ok (Dir { entries; _ }) -> (
    match Hashtbl.find_opt entries name with
    | None -> Error Enoent
    | Some (Dir _) -> Error Eisdir
    | Some (File _) ->
      Hashtbl.remove entries name;
      Ok ())

(* ------------------------------------------------------------------ *)
(* Permission checking                                                 *)
(* ------------------------------------------------------------------ *)

type access = Read_access | Write_access

(* Root passes every check; anyone else needs [bit] (4 read, 2 write,
   1 search) among the owner, group or other bits that apply to them. *)
let permits attrs (cred : Cred.t) bit =
  Cred.is_root cred
  ||
  let bits =
    if cred.Cred.euid = attrs.owner then attrs.mode lsr 6
    else if cred.Cred.egid = attrs.group then attrs.mode lsr 3
    else attrs.mode
  in
  bits land bit <> 0

let node_attrs = function File { attrs; _ } -> attrs | Dir { attrs; _ } -> attrs

(* Walk the directory chain checking execute (search) permission on
   each directory, then apply the requested access check on the leaf. *)
let resolve_checked t ~cred ~path ~access =
  let rec walk node = function
    | [] -> Ok node
    | name :: rest -> (
      match node with
      | File _ -> Error Enotdir
      | Dir { entries; attrs } ->
        if not (permits attrs cred 1) then Error Eacces
        else begin
          match Hashtbl.find_opt entries name with
          | None -> Error Enoent
          | Some child -> walk child rest
        end)
  in
  match walk t.root (components path) with
  | Error _ as e -> e
  | Ok node ->
    let bit = match access with Read_access -> 4 | Write_access -> 2 in
    if permits (node_attrs node) cred bit then Ok node else Error Eacces

let open_file t ~cred ~path ~access =
  match resolve_checked t ~cred ~path ~access with
  | Error _ as e -> e
  | Ok (Dir _) -> Error Eisdir
  | Ok (File _) -> Ok ()

(* ------------------------------------------------------------------ *)
(* Unchecked accessors                                                 *)
(* ------------------------------------------------------------------ *)

let contents t ~path =
  match find t path with
  | Error _ as e -> e
  | Ok (Dir _) -> Error Eisdir
  | Ok (File { content; _ }) -> Ok content

let set_contents t ~path content =
  match find t path with
  | Error _ as e -> e
  | Ok (Dir _) -> Error Eisdir
  | Ok (File f) ->
    f.content <- content;
    Ok ()

let append_contents t ~path data =
  match find t path with
  | Error _ as e -> e
  | Ok (Dir _) -> Error Eisdir
  | Ok (File f) ->
    f.content <- f.content ^ data;
    Ok ()

let size t ~path =
  match find t path with
  | Error _ as e -> e
  | Ok (Dir _) -> Error Eisdir
  | Ok (File { content; _ }) -> Ok (String.length content)

let read_range t ~path ~pos ~len =
  match find t path with
  | Error _ as e -> e
  | Ok (Dir _) -> Error Eisdir
  | Ok (File { content; _ }) ->
    let length = String.length content in
    let pos = Int.max 0 (Int.min pos length) in
    let n = Int.max 0 (Int.min len (length - pos)) in
    Ok (String.sub content pos n)

let exists t path = match find t path with Ok _ -> true | Error _ -> false

let stat t path =
  match find t path with Error _ as e -> e | Ok node -> Ok (node_attrs node)

(* A file as a checkpoint saw it: the directory table that linked it
   under [name], the node itself, and its content and attributes then.
   Contents are immutable strings, so nothing is copied. Directories
   are never removed and keep their attributes, so only files are
   recorded. *)
type saved = {
  dir : (string, node) Hashtbl.t;
  name : string;
  node : node;
  content : string;
  attrs : attrs;
}

type snapshot = { snap_root : node; snap_files : saved list }

let snapshot t =
  let rec walk entries acc =
    Hashtbl.fold
      (fun name node acc ->
        match node with
        | File f -> { dir = entries; name; node; content = f.content; attrs = f.attrs } :: acc
        | Dir d -> walk d.entries acc)
      entries acc
  in
  let files = match t.root with Dir d -> walk d.entries [] | File _ -> [] in
  { snap_root = t.root; snap_files = files }

(* Write each saved file back into its node and link the node again
   where a [remove] (or a later [install] over a removed path) left
   another entry or none. *)
let restore t snap =
  if snap.snap_root != t.root then invalid_arg "Vfs.restore: snapshot of another filesystem";
  List.iter
    (fun s ->
      (match s.node with
      | File f ->
        f.content <- s.content;
        f.attrs <- s.attrs
      | Dir _ -> ());
      match Hashtbl.find s.dir s.name with
      | linked when linked == s.node -> ()
      | _ | (exception Not_found) -> Hashtbl.replace s.dir s.name s.node)
    snap.snap_files

let list_dir t path =
  match find t path with
  | Error _ as e -> e
  | Ok (File _) -> Error Enotdir
  | Ok (Dir { entries; _ }) ->
    Ok (Hashtbl.fold (fun name _ acc -> name :: acc) entries [] |> List.sort compare)
