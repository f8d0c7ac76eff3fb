(** Data reexpression functions (Section 2 / Table 1 of the paper).

    A reexpression function [R] maps canonical data values to a
    variant's concrete representation; its inverse [R^-1] sits in front
    of the target interpreter (here: the kernel's UID-bearing system
    calls). The N-variant security argument needs two properties:

    - {b inverse}: for all x, [decode (encode x) = x];
    - {b disjointness} (pairwise, between the variants' functions):
      for all x, [decode_i x <> decode_j x] — so a single concrete
      value injected identically into all variants can never be valid
      in more than one of them.

    Disjointness must hold for {e every} variant pair, not just pairs
    involving variant 0: an attack that fools variants 1 and 2
    identically while diverging only from variant 0 would otherwise be
    caught only by luck of the majority vote. Each constructor here
    records its algebraic {!form} so {!disjointness} can decide the
    property exactly rather than by sampling. *)

(** The algebraic shape of a reexpression, the handle the machine
    checker works on. [Linear { rot; key }] is
    [encode x = rol rot x ^ key] — over GF(2) both rotation and XOR
    are linear, so collisions between two [Linear] decodes reduce to a
    32-variable linear system that Gaussian elimination decides
    exactly. [Add31 c] adds [c] modulo [2^31] to the low 31 bits (bit
    31 — the kernel's UID sign bit — passes through). [Opaque] admits
    only sampled refutation. *)
type form =
  | Linear of { rot : int; key : Nv_vm.Word.t }
  | Add31 of Nv_vm.Word.t
  | Opaque

type t = {
  name : string;
  form : form;
  encode : Nv_vm.Word.t -> Nv_vm.Word.t;  (** R *)
  decode : Nv_vm.Word.t -> Nv_vm.Word.t;  (** R^-1 *)
}

val identity : t
(** Variant 0's function in the paper's UID variation. *)

val xor_key : key:Nv_vm.Word.t -> t
(** [R(u) = u ^ key]; self-inverse. The paper uses [key = 0x7FFFFFFF]
    rather than [0xFFFFFFFF] because the kernel treats negative UIDs
    specially — leaving the high bit unflipped, a weakness the attack
    matrix (experiment X2) reproduces. *)

val rotate : k:int -> t
(** [R(u) = rol(u, k)]. A pure rotation is {e never} pointwise
    disjoint from another rotation (0 and 0xFFFFFFFF are fixed points
    of every rotation), so this constructor only earns its keep
    composed with an XOR key — the attack matrix's rotation-only
    column demonstrates the defeat. *)

val rot_xor : k:int -> key:Nv_vm.Word.t -> t
(** [R(u) = rol(u, k) ^ key]: the rotation axis composed with a key.
    Disjointness against other [Linear] forms is decidable (and
    decided) by {!disjointness}. *)

val add_mod31 : offset:Nv_vm.Word.t -> t
(** [R(u) = bit31(u) || (u + offset mod 2^31)]: additive reexpression
    over the kernel's non-negative UID range. Two [Add31] functions
    are pairwise disjoint iff their offsets differ mod [2^31]. *)

val paper_uid_key : Nv_vm.Word.t
(** [0x7FFFFFFF]. *)

val variant_key : int -> Nv_vm.Word.t
(** The per-variant XOR key of the default UID variation: 0 for
    variant 0, {!paper_uid_key} for variant 1 (the paper's published
    two-variant deployment, pinned by Table 1), and fixed-seed derived
    pairwise-distinct 31-bit keys for variants 2 and up. Raises
    [Invalid_argument] on a negative index. *)

val uid_for_variant : int -> t
(** The UID variation, per-variant: variant 0 identity, variant [i]
    [xor_key ~key:(variant_key i)]. Distinct XOR keys are pairwise
    disjoint by construction, so the security argument holds for
    {e every} variant pair — not just pairs involving variant 0, which
    is all the earlier shared-key generalization gave. *)

val inverse_holds : t -> Nv_vm.Word.t -> bool
(** Check the inverse property at one point. *)

val disjoint_at : t -> t -> Nv_vm.Word.t -> bool
(** Check the disjointness property of two variants' functions at one
    point: [decode_i x <> decode_j x]. *)

(** {1 Machine-checkable witnesses} *)

(** Outcome of a disjointness decision. [Proven] covers all [2^32]
    words; [Refuted x] carries a concrete collision
    ([decode_a x = decode_b x]) verified by evaluation; [Unknown]
    means the forms admit no exact decision and sampling found no
    collision. *)
type verdict = Proven | Refuted of Nv_vm.Word.t | Unknown

val disjointness : t -> t -> verdict
(** Decide pointwise disjointness. [Linear]/[Linear] pairs reduce to a
    GF(2) linear system (exact: [Proven] or [Refuted]); [Add31]/[Add31]
    compare offsets; any pair involving [Opaque] falls back to a
    deterministic sampled search. *)

val selfcheck : t -> (unit, Nv_vm.Word.t) result
(** Verify over a structured + pseudo-random probe set that the
    inverse property holds and that [encode] matches the declared
    {!form}; [Error x] carries the first failing word. *)

val all_pairs_disjoint : t array -> (unit, int * int * Nv_vm.Word.t option) result
(** [Proven] for every pair, or the first offending pair [(i, j)] with
    the collision word when the verdict was [Refuted]. *)

(** {1 Families}

    Each family assigns variant [i] its reexpression function and
    certifies all-pairs disjointness before returning (raising
    [Invalid_argument] otherwise — which no shipped family does). *)

val xor_family : seed:int -> int -> t array
(** Per-boot masks: variant 0 identity, variants [1..n-1] XOR keys
    drawn from a {!Nv_util.Prng} stream seeded by the deployment —
    pairwise distinct, nonzero, bit 31 clear. A fresh seed each boot
    defeats attacks that replay a key learned from the binary or a
    previous boot. *)

val rotation_family : int -> t array
(** Variant [i] is [rot_xor ~k:i ~key:ki] with [ki] drawn greedily
    from a fixed-seed key stream and certified [Proven] against every
    earlier variant by the GF(2) solver. At most 32 variants. *)

val rotation_only_family : int -> t array
(** Variant [i] is the bare [rotate ~k:i] — deliberately {e not}
    disjoint (every rotation fixes 0), shipped so the attack matrix
    can demonstrate the single-axis defeat. Not certified. *)

val add_family : int -> t array
(** Variant [i] is [add_mod31 ~offset:(i * 0x01000001)]; offsets are
    pairwise distinct mod [2^31]. *)

(** {1 Table 1} *)

type table1_row = {
  variation : string;
  target_type : string;
  r0 : string;
  r1 : string;
  r0_inv : string;
  r1_inv : string;
}

val table1 : table1_row list
(** The four rows of Table 1 (address-space partitioning, extended
    partitioning, instruction-set tagging, and this paper's UID
    variation), extended with this repo's portfolio rows (per-variant
    keys, per-boot seeded masks, rotation+XOR, addition mod 2^31), for
    the bench harness to print. *)
