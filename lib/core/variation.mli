(** Variation configurations: how each variant of an N-variant system
    is diversified.

    A {!variant_spec} fixes, for one variant, its load base (the
    address-space-partitioning dimension), its instruction tag (the
    instruction-set-tagging dimension) and its UID reexpression function
    (this paper's data-diversity dimension). A {!t} bundles the variant
    specs with the set of unshared trusted files. The predefined
    configurations correspond to the evaluation's Table 3 columns and
    the attack-matrix experiments; {!composed} builds arbitrary N >= 3
    compositions of the three axes, and {!portfolio} lists every
    shipped data-diversity configuration whose all-pairs disjointness
    the test suite certifies. *)

type variant_spec = {
  index : int;
  base : int;  (** segment load base *)
  tag : int;  (** expected instruction tag *)
  uid : Reexpression.t;
}

type t = {
  name : string;
  variants : variant_spec array;
  unshared_paths : string list;
      (** trusted files opened per-variant as [path-<i>] *)
}

val count : t -> int

val low_base : int
(** 0x00010000 — variant 0's load base. *)

val high_base : int
(** 0x80010000 — variant 1's base under address partitioning: the high
    address bit is the partition bit. *)

val default_segment_size : int
(** [1 lsl 20] — the per-variant segment size {!Monitor.create}
    assumes by default; staggered bases are validated against it. *)

(** One diversity axis of a composed configuration. [Address] staggers
    load bases (variant 0 at {!low_base}, variant [i >= 1] at
    [high_base + (i-1) * segment_size]); [Tagging] gives variant [i]
    instruction tag [i + 1]; [Uid fam] assigns variant [i] the
    reexpression [fam.(i)]. *)
type axis = Address | Tagging | Uid of Reexpression.t array

val composed : ?name:string -> ?segment_size:int -> n:int -> axis list -> t
(** Compose diversity axes over [n] variants. When [Address] is
    present the staggered bases are validated: every segment must fit
    the 32-bit space and no two may overlap ([Invalid_argument]
    otherwise). The unshared paths are [/etc/passwd] and [/etc/group]
    when a [Uid] axis is present, none otherwise. Raises
    [Invalid_argument] if a [Uid] family has fewer than [n] entries or
    [n < 1]. *)

val single : t
(** One variant, no diversity: the unprotected baseline
    (Configurations 1 and 2 of Table 3, and [minicc]'s run action). *)

val replicated : t
(** Two identical variants (same base, no data diversity): isolates the
    cost of redundant execution alone. *)

val address_partition : t
(** Two variants at disjoint bases (Figure 1; Configuration 3 of
    Table 3). *)

val extended_partition : ?offset:int -> unit -> t
(** Bruschi et al.'s extension (Table 1 row 2): variant 1 is loaded at
    [high_base + offset] (default offset 0x4240), so corresponding
    absolute addresses differ in their {e low} bytes too. This makes
    partial (byte-granularity) overwrites of stored addresses
    detectable with high probability, where plain partitioning only
    breaks attacks that inject complete addresses (Section 2.3's
    discussion). Raises [Invalid_argument] unless [offset] is a
    multiple of the word size (stack alignment must agree across
    variants for pointer canonicalization to hold). *)

val instruction_tagging : t
(** Two variants with distinct instruction tags. *)

val uid_diversity : t
(** The paper's UID variation (Configuration 4): address partitioning
    {e plus} UID reexpression in variant 1 {e plus} unshared
    [/etc/passwd] and [/etc/group]. Composed exactly as in the paper,
    where Configuration 4 is Configuration 3 with the UID variation
    added. *)

val full_diversity : t
(** Composition of all three dimensions (the Section 7 future-work
    direction): address partitioning + instruction tagging + UID
    reexpression + unshared files, in two variants. *)

val uid_diversity_n : ?segment_size:int -> int -> t
(** An [n]-variant UID deployment: variant 0 canonical, variants
    [1..n-1] at staggered bases with {e per-variant} XOR keys
    ({!Reexpression.uid_for_variant}), so pairwise disjointness holds
    for {e every} variant pair — the earlier shared-key form only kept
    the argument for pairs involving variant 0. Staggered bases are
    validated against [segment_size] (default
    {!default_segment_size}): raises [Invalid_argument] on overlap or
    32-bit overflow, or for [n < 1]. *)

val full_diversity_n : int -> t
(** [n]-variant composition of all three axes: staggered bases,
    distinct instruction tags, the certified rotation+XOR UID family
    ({!Reexpression.rotation_family}), unshared files. The rotation
    component also closes the XOR axis's documented bit-31 escape —
    a rotation moves the one bit a 31-bit XOR key cannot touch, so
    bit-31 faults diverge after the rotated variants decode. *)

val seeded_diversity : seed:int -> int -> t
(** [n] variants whose XOR masks are drawn per boot from [seed]
    ({!Reexpression.xor_family}): an attacker who learned the key
    material of one boot (or read the paper) holds nothing valid for
    the next. *)

val rotation_diversity : int -> t
(** [n] variants on the rotation axis composed with certified XOR keys
    ({!Reexpression.rotation_family}). *)

val add_diversity : int -> t
(** [n] variants with additive reexpression mod 2^31
    ({!Reexpression.add_family}). *)

val rotation_only : int -> t
(** [n] variants with {e bare} rotations — deliberately not pairwise
    disjoint (every rotation fixes 0): the attack matrix's
    demonstration that a single axis alone is defeated by a
    zero-injection. Not part of {!portfolio}. *)

val shared_key : int -> t
(** The pre-fix configuration this PR's tentpole removes: every
    variant >= 1 shares variant 1's key, so an attack fooling two
    non-zero variants identically goes undetected. Kept only as the
    regression target of the attack matrix and tests. Not part of
    {!portfolio}. *)

val portfolio : (string * t) list
(** Every shipped data-diversity configuration, by name. The test
    suite asserts, for each entry, the inverse property of every
    variant and {!Reexpression.all_pairs_disjoint} across all variant
    pairs. *)

val pp : Format.formatter -> t -> unit
