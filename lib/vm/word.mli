(** 32-bit machine words.

    Words are represented as OCaml [int]s in the range [\[0, 2^32)].
    All arithmetic wraps modulo 2^32, matching the guest machine's
    semantics. Signed operations interpret bit 31 as the sign. *)

type t = int
(** Always normalized: [0 <= w < 0x1_0000_0000]. *)

val mask : int -> t
(** Truncate an arbitrary [int] to 32 bits. *)

val max_value : t
(** [0xFFFFFFFF]. *)

val high_bit : t
(** [0x80000000], the address-space partition bit and UID sign bit. *)

val to_signed : t -> int
(** Two's-complement signed interpretation (range [-2^31, 2^31)). *)

val of_signed : int -> t
(** Inverse of {!to_signed}; also accepts any int and truncates. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div_signed : t -> t -> t
(** Truncated signed division. Raises [Division_by_zero]. *)

val rem_signed : t -> t -> t
(** Signed remainder (sign of the dividend). Raises [Division_by_zero]. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

val shift_left : t -> int -> t
(** Shift amount is masked to [0..31], like x86. *)

val shift_right_logical : t -> int -> t
val shift_right_arith : t -> int -> t

val lt_signed : t -> t -> bool
val lt_unsigned : t -> t -> bool

val byte : t -> int -> int
(** [byte w i] is byte [i] (0 = least significant) of [w], in
    [\[0,255\]]. Raises [Invalid_argument] unless [0 <= i < 4]. *)

val set_byte : t -> int -> int -> t
(** [set_byte w i b] replaces byte [i] with [b land 0xFF]. *)

val pp : Format.formatter -> t -> unit
(** Hex rendering, e.g. [0x7FFFFFFF]. *)
