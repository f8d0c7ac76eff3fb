(** In-memory virtual filesystem with Unix-style permission bits.

    Paths are absolute, [/]-separated. Each file and directory carries
    an owner UID, a group GID and a mode ([0o644]-style). Permission
    checks follow the usual owner/group/other rules, with effective UID
    0 bypassing them. *)

type t

(** Paths are normalized before resolution: ["."] components are
    dropped and [".."] pops one level (stopping at the root), so
    ["/var/www/../../secret/x"] resolves to ["/secret/x"]. *)

type error = Enoent | Eacces | Eisdir | Enotdir | Eexist

val error_to_string : error -> string

type attrs = { mode : int; owner : Cred.uid; group : Cred.gid }

(* Setup interface: no permission checks; used to populate the image of
   the world before the simulation starts. *)

val create : unit -> t
(** Filesystem containing only the root directory (mode [0o755],
    owned by root). *)

val mkdir_p : t -> ?attrs:attrs -> string -> unit
(** Create a directory chain. Existing components are left untouched.
    Raises [Invalid_argument] if a file is in the way. *)

val install : t -> ?attrs:attrs -> path:string -> string -> unit
(** Create or replace a file with the given content (default attrs:
    [0o644], root/root). Parent directories are created as needed. *)

val remove : t -> string -> (unit, error) result
(** Unlink a file (setup/maintenance interface, no permission checks).
    [Enoent] if missing, [Eisdir] for a directory. *)

(* Runtime interface: permission-checked. *)

type access = Read_access | Write_access

val open_file :
  t -> cred:Cred.t -> path:string -> access:access -> (unit, error) result
(** Check that [cred] may open [path] for [access]: search permission
    on every directory on the way, then read or write permission on the
    file itself ([Eacces] otherwise; [Eisdir] for a directory). *)

(* Unchecked accessors used by the kernel once an open has succeeded. *)

val contents : t -> path:string -> (string, error) result
val set_contents : t -> path:string -> string -> (unit, error) result
val append_contents : t -> path:string -> string -> (unit, error) result

val size : t -> path:string -> (int, error) result
(** File length in bytes without materializing the content; [Eisdir]
    on a directory. *)

val read_range : t -> path:string -> pos:int -> len:int -> (string, error) result
(** Bytes [\[pos, pos+len)] of a file, clamped to the file bounds (so
    reads at or past EOF yield [""]). One path resolution per call —
    the kernel's chunked read path uses this so scanning a fleet-scale
    passwd file costs one lookup and one small copy per chunk. *)

val exists : t -> string -> bool
val stat : t -> string -> (attrs, error) result
val list_dir : t -> string -> (string list, error) result
(** Sorted entry names. *)

type snapshot
(** Every regular file's content and attributes as of {!snapshot},
    held by reference: a file's content is an immutable string, so
    nothing is copied, and no path is built. *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Put every file of the snapshot back: its content, its attributes,
    and its directory entry if it was removed (or removed and installed
    again) since. Files installed since at paths the snapshot did not
    have stay. A snapshot may be restored any number of times; it
    restores only into the filesystem that took it ([Invalid_argument]
    otherwise). Used by kernel checkpointing. *)
