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
(** A token for a segment's checkpoint. A segment keeps one checkpoint,
    in a buffer of its own per 4 KiB page, and each {!snapshot}
    replaces it: only the segment's latest snapshot can be restored,
    and it can be restored any number of times. *)

val snapshot : t -> snapshot
(** Checkpoint the segment, replacing its previous checkpoint. Only the
    pages dirtied since the previous snapshot or restore are copied,
    from the list {!invalidate_window} keeps of them, into each page's
    own buffer; a page gets its buffer the first time it is copied
    (until then it shares one zero page with every segment), so a
    warmed snapshot allocates nothing. The cost follows the pages the
    guest wrote, not the segment size. Tokens come from one
    process-wide counter, so no two snapshots share one. *)

val restore : t -> snapshot -> unit
(** Roll the segment back to its checkpoint. Raises [Invalid_argument]
    before touching the segment unless the snapshot is the segment's
    current one: a superseded snapshot, or any snapshot of another
    segment, is refused. Only the pages dirtied since the checkpoint
    or the last restore are rewritten, and the block registry is
    dropped on exactly those pages: their registered blocks are
    invalidated (and counted in {!block_invalidations}) and their
    page-directory entries emptied. Compiled blocks on pages left
    alone stay valid. *)

val load_byte : t -> int -> int
val store_byte : t -> int -> int -> unit

val load_word : t -> int -> Word.t
(** Little-endian 32-bit load; all four bytes must be in range. *)

val store_word : t -> int -> Word.t -> unit

val check_span : t -> addr:int -> len:int -> access -> unit
(** Check a [len]-byte span at [addr] as {!load_bytes}, {!equal_bytes}
    ([Read]) and {!store_bytes} ([Write]) do: raise {!Fault} at [addr]
    when it is unmapped, otherwise at the span's last byte when that
    is. With [len = 0] only [addr] is checked. *)

val load_bytes : t -> addr:int -> len:int -> bytes

val equal_bytes : t -> addr:int -> string -> bool
(** Whether the guest bytes at [addr] equal the string, compared in
    place: nothing is copied or allocated. Faults as {!load_bytes} of
    the same length would. *)

val store_bytes : t -> addr:int -> bytes -> unit

val load_cstring : t -> addr:int -> max_len:int -> string
(** Read a NUL-terminated string starting at [addr]; stops at NUL or
    after [max_len] bytes (whichever comes first; the NUL is not
    included). Faults if it runs off the segment before terminating. *)

val store_cstring : t -> addr:int -> string -> unit
(** Write the string followed by a NUL byte. The whole destination
    range is validated before any byte is written, so a faulting store
    leaves guest memory untouched. *)

val fetch : t -> int -> (int * Isa.t, Isa.decode_error) result
(** Decode the instruction at an absolute address into [(tag,
    instruction)], straight from the segment bytes: the only instruction
    fetch, used by [Cpu.step] under both engines, by the block compiler
    while it discovers a block, and by [Disasm]. Raises {!Fault} with [Execute]
    access, at the first unmapped byte, when the [Isa.instr_size]-byte
    window is not fully mapped. Any offset decodes, aligned or not. *)

(** {1 Execution engine selection}

    The VM has two execution tiers sharing one observable semantics:
    the basic-block compiler (see [Block]), which falls back to
    single-stepping ([Cpu.step]) when no block is dispatchable, and
    that same stepping interpreter on its own, kept as the differential
    oracle. The segment records which tier its CPU runs; a new segment
    starts on [Block]. *)

type engine = Reference | Block

val set_engine : t -> engine -> unit

val engine : t -> engine

val engine_to_string : engine -> string

(** {1 Compiled-block registry}

    The block compiler registers each compiled block's slot span here;
    every store whose range intersects a registered span flips the
    block's shared validity cell, so self-modifying and injected code
    always re-enter the decoder (and the tag check) on their next
    dispatch. The registry lives in a page directory: one entry per
    4 KiB page of the segment, pointing at a shared empty page until the
    first block registration inside it allocates the page's own slots
    (one per [Isa.instr_size]-aligned window). It therefore follows the
    few pages of code that actually run, not the segment size. *)

val decoded_pages : t -> int
(** How many 4 KiB pages of the segment hold a block registry: pages
    with a block registered since they were created or last rewritten by
    a {!restore}. *)

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
    intersects the span, a {!restore} rewrites a page under it, or the
    entry is re-registered, and drops the entry at the same time. *)

val block_at : t -> slot:int -> block_code
(** The code registered at entry slot [slot]; a constructor private to
    this module when nothing is. Every entry found here is valid. *)

val block_invalidations : t -> int
(** How many registered blocks have been invalidated by stores or
    rollbacks since the segment was created. *)

(** {1 Raw access for the block compiler}

    Compiled blocks inline their guest loads and stores directly over
    the backing bytes; anything out of range falls back to
    {!load_word}/{!store_word} for the exact fault. These values exist
    only for that fast path — all other clients go through the checked
    accessors above. *)

val bytes : t -> Bytes.t
(** The live backing store. The reference is stable for the lifetime of
    the segment ({!restore} blits in place); offset [o] maps to address
    [base + o]. Callers that write through it must follow with
    {!invalidate_window}: a write that skips it leaves stale compiled
    blocks and corrupts later checkpoints. *)

val invalidate_window : t -> int -> int -> unit
(** [invalidate_window t off len] performs the store-side maintenance
    for a write of [len] bytes at segment offset [off]: marks the
    overlapped 4 KiB pages dirty, listing each the first time, so the
    next {!snapshot} copies them and the next {!restore} rewrites them,
    and invalidates intersecting registered blocks. It scans cover
    counts only on pages that hold a block registry; a page without one
    costs one directory load. *)

val page_shift : int
(** Pages are [1 lsl page_shift] (4096) bytes. *)

val settled_pages : t -> Bytes.t
(** The page byte map: one byte per 4 KiB page, nonzero exactly when
    the page is dirty and holds no block registry. A store that lands
    only on such pages has nothing for {!invalidate_window} to do, so
    compiled stores call it only when a byte they touch is zero. The
    reference is stable for the lifetime of the segment; callers only
    read it. *)
