(** The [/etc/passwd] and [/etc/group] file formats, and generation of
    the diversified (reexpressed) copies used as unshared files.

    Section 3.4 of the paper keeps one reexpressed copy of each trusted
    UID-bearing file per variant ([/etc/passwd-0], [/etc/passwd-1]...)
    rather than reexpressing on the read path, which would hand the
    attacker a reusable transformation oracle. *)

type entry = {
  name : string;
  uid : Cred.uid;
  gid : Cred.gid;
  gecos : string;
  home : string;
  shell : string;
}

type group_entry = { group_name : string; gid : Cred.gid; members : string list }

val parse : string -> (entry list, string) result
(** Parse passwd-format text ([name:x:uid:gid:gecos:home:shell] lines;
    blank lines ignored). The error carries the first offending line. *)

val serialize : entry list -> string

val reexpressed_length : f:(Cred.uid -> Cred.uid) -> entry list -> int
(** [String.length (serialize es)], where [es] is [entries] with [f]
    applied to every UID and GID field as {!reexpress} does, computed
    without building the text. *)

val parse_group : string -> (group_entry list, string) result
(** [name:x:gid:member,member...] lines. *)

val serialize_group : group_entry list -> string

val lookup : entry list -> string -> entry option
(** Find an entry by user name (linear scan; the reference semantics
    for {!find}). *)

val lookup_uid : entry list -> Cred.uid -> entry option

(** {1 Indexed lookup}

    O(1)/O(log n) lookups over large populations: a hashtable by name
    and a uid-sorted array searched by bisection. Agrees with
    {!lookup}/{!lookup_uid} on any entry list, including ones with
    duplicate names or uids (first entry in file order wins). *)

type index

val index : entry list -> index

val find : index -> string -> entry option

val find_uid : index -> Cred.uid -> entry option

val index_size : index -> int
(** Distinct uids in the index. *)

val comparisons : index -> int
(** Cumulative key comparisons spent by {!find}/{!find_uid} since the
    index was built — lets tests pin that per-lookup work stays
    O(log n) rather than O(n). *)

val generate : ?seed:int -> int -> entry list
(** [generate n] is a synthetic population of [n] users with distinct
    names and uids (starting at 10000, above {!sample}), emitted in a
    seed-determined shuffle. Raises [Invalid_argument] on a negative
    [n]. *)

val reexpress : f:(Cred.uid -> Cred.uid) -> string -> (string, string) result
(** Apply a UID reexpression function to every UID and GID field of a
    passwd-format file, leaving everything else byte-identical. This is
    how the per-variant unshared copies are produced. *)

val reexpress_group : f:(Cred.uid -> Cred.uid) -> string -> (string, string) result

val sample : entry list
(** A small realistic passwd database: root, daemon, www (the server
    worker), and two ordinary users. Used by tests, examples and the
    case study. *)

val sample_groups : group_entry list
