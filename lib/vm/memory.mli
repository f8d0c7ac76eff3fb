(** Byte-addressable segmented guest memory.

    A segment maps the absolute address range [\[base, base + size)] to a
    backing byte array. Any access outside the segment raises
    {!Fault}; this is how address-space partitioning turns an injected
    absolute address into a detectable failure: an address that is
    mapped in variant 0's segment is unmapped in variant 1's.

    Words are stored little-endian. *)

type t

type access = Read | Write | Execute

exception Fault of { addr : int; access : access }
(** Raised on any access outside [\[base, base+size)]. *)

val create : base:int -> size:int -> t
(** Fresh zeroed segment. [base] and [size] must be non-negative and
    [base + size <= 2^32], otherwise [Invalid_argument]. *)

val base : t -> int
val size : t -> int

val in_range : t -> int -> bool
(** Whether an absolute address falls inside the segment. *)

val to_offset : t -> int -> int
(** Canonicalize an absolute address to a segment-relative offset (the
    paper's canonicalization function for address partitioning). Raises
    [Fault] if out of range. *)

type snapshot
(** A checkpoint of a segment's bytes (the base/size geometry is not
    captured; a snapshot can only be restored into the segment it was
    taken from, or one with the same size). *)

val snapshot : t -> snapshot
(** Copy of the full segment contents. *)

val restore : t -> snapshot -> unit
(** Overwrite the segment with the snapshot bytes and drop all decoded
    state: every registered compiled block is invalidated (and counted
    in {!block_invalidations}) and every allocated page of the page
    directory is released, since the rollback may change code bytes
    anywhere. The cost follows the few pages that held decoded code,
    not the segment size. Raises [Invalid_argument] on a segment-size
    mismatch. *)

val load_byte : t -> int -> int
val store_byte : t -> int -> int -> unit

val load_word : t -> int -> Word.t
(** Little-endian 32-bit load; all four bytes must be in range. *)

val store_word : t -> int -> Word.t -> unit

val load_bytes : t -> addr:int -> len:int -> bytes
val store_bytes : t -> addr:int -> bytes -> unit

val load_cstring : t -> addr:int -> max_len:int -> string
(** Read a NUL-terminated string starting at [addr]; stops at NUL or
    after [max_len] bytes (whichever comes first; the NUL is not
    included). Faults if it runs off the segment before terminating. *)

val store_cstring : t -> addr:int -> string -> unit
(** Write the string followed by a NUL byte. The whole destination
    range is validated before any byte is written, so a faulting store
    leaves guest memory untouched. *)

val exec_byte : t -> int -> int
(** Like {!load_byte} but faults carry [Execute] access, used by the
    CPU's fetch path so traces distinguish fetch faults. *)

(** {1 Decoded instruction fetch}

    Decoded state lives in a page directory: one entry per 4 KiB page
    of the segment, pointing at a shared empty page until the first
    decode or block registration inside it allocates the page's own
    slots (one per [Isa.instr_size]-aligned window). Decoded state
    therefore follows the few pages of code that actually run, not the
    segment size. Every store ({!store_byte}, {!store_word},
    {!store_bytes}, {!store_cstring}) invalidates exactly the slots it
    overlaps, so self-modifying code and injected code are re-decoded
    (and re-tag-checked) on their next fetch — attack detection is
    byte-for-byte identical to the uncached decoder. *)

val fetch_decoded : t -> int -> (int * Isa.t, Isa.decode_error) result
(** Decode the instruction at an absolute address, returning
    [(tag, instruction)] from the cache when possible. Raises {!Fault}
    with [Execute] access (at the first out-of-range byte) when the
    [Isa.instr_size]-byte window is not fully mapped. Unaligned
    addresses (relative to the segment base) are decoded without
    caching. *)

val fetch_reference : t -> int -> (int * Isa.t, Isa.decode_error) result
(** The uncached reference fetch path: byte-at-a-time Execute-checked
    loads plus a fresh decode. Used by differential tests and the
    [hostperf] benchmark as the pre-cache baseline; semantics are
    identical to {!fetch_decoded}. *)

(** {1 Execution engine selection}

    The VM has two execution tiers sharing one observable semantics:
    the basic-block compiler (see [Block]), which falls back to
    single-stepping through the decode cache ({!fetch_decoded}) when no
    block is dispatchable, and the byte-at-a-time {!fetch_reference}
    decoder, kept as the differential oracle. The segment records which
    tier its CPU runs. *)

type engine = Reference | Block

val set_engine : t -> engine -> unit

val engine : t -> engine

val engine_of_string : string -> engine option
(** Parses ["reference" | "block"]. *)

val engine_to_string : engine -> string

val default_engine : unit -> engine
(** The engine newly created segments start in: [NV_ENGINE] when set to
    a recognized name, otherwise {!Block}. *)

val decoded_pages : t -> int
(** How many 4 KiB pages of the segment currently hold decoded state
    (cached decodes or registered blocks). *)

(** {1 Compiled-block registry}

    The block compiler registers each compiled block's slot span here;
    every store whose range intersects a registered span flips the
    block's shared validity cell, so self-modifying and injected code
    always re-enter the decoder (and the tag check) on their next
    dispatch. *)

val max_block_slots : int
(** Upper bound on a registered block's span in slots; bounds the
    store-path back-scan. *)

type block_code = ..
(** What the block compiler stores for a registered block. The segment
    only keeps it; [Block] extends the type with its compiled code. *)

val register_block : t -> slot:int -> slots:int -> valid:bool ref -> block_code -> unit
(** Register a block spanning [slots] instruction slots starting at
    entry slot [slot], replacing (and invalidating) any block
    previously registered at that entry. [valid] is the block's shared
    validity cell: the segment sets it to [false] when a store
    intersects the span, the segment is {!restore}d, or the entry is
    re-registered, and drops the entry at the same time. *)

val block_at : t -> slot:int -> block_code
(** The code registered at entry slot [slot]; a constructor private to
    this module when nothing is. Every entry found here is valid. *)

val block_invalidations : t -> int
(** How many registered blocks have been invalidated by stores or
    rollbacks since the segment was created. *)

(** {1 Raw access for the block compiler}

    Compiled blocks inline their guest loads and stores directly over
    the backing bytes; anything out of range falls back to
    {!load_word}/{!store_word} for the exact fault. These two values
    exist only for that fast path — all other clients go through the
    checked accessors above. *)

val bytes : t -> Bytes.t
(** The live backing store. The reference is stable for the lifetime of
    the segment ({!restore} blits in place); offset [o] maps to address
    [base + o]. Callers that write through it must follow with
    {!invalidate_window}. *)

val invalidate_window : t -> int -> int -> unit
(** [invalidate_window t off len] performs the store-side cache
    maintenance for a write of [len] bytes at segment offset [off]:
    drops overlapped decode-cache slots and invalidates intersecting
    registered blocks. O(1) — two compares — for stores outside the
    decoded region, one directory load per slot inside it. *)
