type entry = {
  name : string;
  uid : Cred.uid;
  gid : Cred.gid;
  gecos : string;
  home : string;
  shell : string;
}

type group_entry = { group_name : string; gid : Cred.gid; members : string list }

let nonempty_lines text =
  String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")

let parse_uid_field line s =
  match int_of_string_opt s with
  | Some v when v >= 0 && v <= Nv_vm.Word.max_value -> Ok v
  | Some _ | None -> Error (Printf.sprintf "bad uid/gid field in %S" line)

let parse text =
  let parse_line line =
    match String.split_on_char ':' line with
    | [ name; _password; uid; gid; gecos; home; shell ] -> (
      match (parse_uid_field line uid, parse_uid_field line gid) with
      | Ok uid, Ok gid -> Ok { name; uid; gid; gecos; home; shell }
      | (Error _ as e), _ | _, (Error _ as e) -> e)
    | _ -> Error (Printf.sprintf "malformed passwd line %S" line)
  in
  let rec all acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line line with Ok e -> all (e :: acc) rest | Error _ as e -> e)
  in
  all [] (nonempty_lines text)

let serialize entries =
  entries
  |> List.map (fun e ->
         Printf.sprintf "%s:x:%d:%d:%s:%s:%s" e.name e.uid e.gid e.gecos e.home e.shell)
  |> String.concat "\n"
  |> fun body -> body ^ "\n"

(* The length of [%d]'s output, without allocating it: at a million
   entries [string_of_int] costs [reexpressed_length] about 0.5 s. *)
let rec decimal_length n =
  if n < 0 then 1 + decimal_length (-n) else if n < 10 then 1 else 1 + decimal_length (n / 10)

(* [serialize]'s line format, counted instead of printed: eight fixed
   bytes (":x:", four more ':' and the newline) around the fields. *)
let reexpressed_length ~f entries =
  let line e =
    String.length e.name + decimal_length (f e.uid) + decimal_length (f e.gid)
    + String.length e.gecos + String.length e.home + String.length e.shell + 8
  in
  match entries with [] -> 1 | _ -> List.fold_left (fun n e -> n + line e) 0 entries

let parse_group text =
  let parse_line line =
    match String.split_on_char ':' line with
    | [ group_name; _password; gid; members ] -> (
      match parse_uid_field line gid with
      | Ok gid ->
        let members =
          if members = "" then [] else String.split_on_char ',' members
        in
        Ok { group_name; gid; members }
      | Error _ as e -> e)
    | _ -> Error (Printf.sprintf "malformed group line %S" line)
  in
  let rec all acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line line with Ok e -> all (e :: acc) rest | Error _ as e -> e)
  in
  all [] (nonempty_lines text)

let serialize_group groups =
  groups
  |> List.map (fun g ->
         Printf.sprintf "%s:x:%d:%s" g.group_name g.gid (String.concat "," g.members))
  |> String.concat "\n"
  |> fun body -> body ^ "\n"

let lookup entries name = List.find_opt (fun e -> e.name = name) entries

let lookup_uid entries uid = List.find_opt (fun e -> e.uid = uid) entries

(* ------------------------------------------------------------------ *)
(* Indexed lookup                                                      *)
(* ------------------------------------------------------------------ *)

(* The linear scans above are fine for the five-entry sample database
   but O(n) per request once the population reaches fleet scale. The
   index keeps a hashtable by name and a uid-sorted array for binary
   search, preserving the first-match-in-file-order semantics of the
   scans (duplicate names/uids resolve to the earliest entry). *)

type index = {
  by_name : (string, entry) Hashtbl.t;
  by_uid : entry array;  (* uid-sorted, earliest file entry per uid *)
  mutable comparisons : int;
}

let index entries =
  let by_name = Hashtbl.create (max 16 (List.length entries)) in
  List.iter
    (fun e -> if not (Hashtbl.mem by_name e.name) then Hashtbl.add by_name e.name e)
    entries;
  let tagged = Array.of_list (List.mapi (fun i e -> (i, e)) entries) in
  Array.sort
    (fun (i1, e1) (i2, e2) ->
      match Int.compare e1.uid e2.uid with 0 -> Int.compare i1 i2 | c -> c)
    tagged;
  let keep = ref [] in
  Array.iter
    (fun (_, e) ->
      match !keep with
      | prev :: _ when prev.uid = e.uid -> ()
      | _ -> keep := e :: !keep)
    tagged;
  { by_name; by_uid = Array.of_list (List.rev !keep); comparisons = 0 }

let find idx name =
  idx.comparisons <- idx.comparisons + 1;
  Hashtbl.find_opt idx.by_name name

let find_uid idx uid =
  let a = idx.by_uid in
  let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    idx.comparisons <- idx.comparisons + 1;
    let c = Int.compare a.(mid).uid uid in
    if c = 0 then found := Some a.(mid)
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let index_size idx = Array.length idx.by_uid

let comparisons idx = idx.comparisons

(* ------------------------------------------------------------------ *)
(* Synthetic populations                                               *)
(* ------------------------------------------------------------------ *)

(* UIDs start above the sample database so a generated population can
   be appended to it without collisions. The list is emitted in a
   seed-determined shuffle so nothing downstream can accidentally rely
   on file order being uid order. *)
let generate_base_uid = 10_000

let generate ?(seed = 2008) n =
  if n < 0 then invalid_arg "Passwd.generate: negative population";
  let entries =
    Array.init n (fun i ->
        let name = Printf.sprintf "u%07d" i in
        {
          name;
          uid = generate_base_uid + i;
          gid = generate_base_uid + i;
          gecos = "synthetic user";
          home = "/home/" ^ name;
          shell = "/bin/sh";
        })
  in
  Nv_util.Prng.shuffle (Nv_util.Prng.create ~seed) entries;
  Array.to_list entries

let reexpress ~f text =
  match parse text with
  | Error _ as e -> e
  | Ok entries ->
    Ok (serialize (List.map (fun e -> { e with uid = f e.uid; gid = f e.gid }) entries))

let reexpress_group ~f text =
  match parse_group text with
  | Error _ as e -> e
  | Ok groups -> Ok (serialize_group (List.map (fun g -> { g with gid = f g.gid }) groups))

let sample =
  [
    { name = "root"; uid = 0; gid = 0; gecos = "root"; home = "/root"; shell = "/bin/sh" };
    {
      name = "daemon"; uid = 1; gid = 1; gecos = "daemon"; home = "/usr/sbin";
      shell = "/usr/sbin/nologin";
    };
    {
      name = "www"; uid = 33; gid = 33; gecos = "www data"; home = "/var/www";
      shell = "/usr/sbin/nologin";
    };
    {
      name = "alice"; uid = 1000; gid = 1000; gecos = "Alice"; home = "/home/alice";
      shell = "/bin/sh";
    };
    {
      name = "bob"; uid = 1001; gid = 1001; gecos = "Bob"; home = "/home/bob";
      shell = "/bin/sh";
    };
  ]

let sample_groups =
  [
    { group_name = "root"; gid = 0; members = [] };
    { group_name = "daemon"; gid = 1; members = [] };
    { group_name = "www"; gid = 33; members = [] };
    { group_name = "users"; gid = 100; members = [ "alice"; "bob" ] };
  ]
