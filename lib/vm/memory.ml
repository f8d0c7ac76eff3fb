type access = Read | Write | Execute

exception Fault of { addr : int; access : access }

type engine = Reference | Block

type block_code = ..

type block_code += No_block

(* A compiled basic block registered over the slot span
   [entry slot, be_end). [be_valid] is shared with the compiled closure
   on the CPU side: flipping it to [false] both retires the entry and
   makes an in-flight execution of the block bail out after the store
   that hit it. [be_code] is the block compiler's own payload. *)
type block_entry = { be_end : int; be_valid : bool ref; be_code : block_code }

let no_entry = { be_end = 0; be_valid = ref false; be_code = No_block }

(* The block registry for one 4 KiB page of the segment, one element per
   instruction slot: the block registered at each entry slot, and how
   many live blocks span each slot. *)
type page = { entries : block_entry array; cover : int array }

(* Slot index = offset / instr_size, as a shift on the (non-negative)
   validated offsets the hot paths pass in. *)
let instr_shift = 3

let () = assert (Isa.instr_size = 1 lsl instr_shift)

let page_shift = 12

(* Slots per page (512) and the shift/mask splitting a slot index into
   its page and its position inside the page. *)
let page_slot_shift = page_shift - instr_shift

let page_slots = 1 lsl page_slot_shift

let page_mask = page_slots - 1

(* Every directory entry points here until the first block registration
   inside its page. Its slots read as "no block, no cover", so lookups
   never test for an unallocated page; it is shared by every segment and
   never written. *)
let empty_page =
  { entries = Array.make page_slots no_entry; cover = Array.make page_slots 0 }

(* Every page's checkpoint buffer until a snapshot first copies the
   page: a fresh segment is all zeros. It is shared by every segment and
   never written. *)
let zero_page = Bytes.make (1 lsl page_shift) '\000'

(* The source of snapshot tokens, shared by every segment so that a
   token names one checkpoint of one segment; atomic because systems
   run on several domains. 0 is never handed out. *)
let tokens = Atomic.make 0

type t = {
  base : int;
  size : int;
  data : Bytes.t;
  pages : page array;  (* the page directory: one entry per 4 KiB *)
  (* The segment's one checkpoint, one buffer per 4 KiB page: page [i]
     equals [clean.(i)] (its first [page_length] bytes) while
     [dirty.(i)] is unset. [checkpoint] is the token of the snapshot
     the buffers hold, 0 before the first. *)
  clean : Bytes.t array;
  dirty : bool array;
  mutable checkpoint : int;
  (* The pages marked dirty since the last snapshot or restore, in the
     first [dirty_count] slots: what the next snapshot copies and the
     next restore rewrites. *)
  dirty_pages : int array;
  mutable dirty_count : int;
  (* One byte per page, nonzero exactly while [dirty.(i)] is set and
     [pages.(i)] is [empty_page]: a store into such a page has no
     bookkeeping left to do, which compiled stores test before calling
     [invalidate_window]. *)
  settled : Bytes.t;
  mutable engine : engine;
  mutable block_invalidations : int;
}

let engine_to_string = function Reference -> "reference" | Block -> "block"

let create ~base ~size =
  if base < 0 || size < 0 || base + size > 0x1_0000_0000 then
    invalid_arg "Memory.create: segment outside the 32-bit address space";
  let page_count = (size + (1 lsl page_shift) - 1) lsr page_shift in
  {
    base;
    size;
    data = Bytes.make size '\000';
    pages = Array.make page_count empty_page;
    clean = Array.make page_count zero_page;
    dirty = Array.make page_count false;
    checkpoint = 0;
    dirty_pages = Array.make page_count 0;
    dirty_count = 0;
    settled = Bytes.make page_count '\000';
    engine = Block;
    block_invalidations = 0;
  }

let base t = t.base

let size t = t.size

let in_range t addr = addr >= t.base && addr < t.base + t.size

let check t addr access = if not (in_range t addr) then raise (Fault { addr; access })

(* Fault for a multi-byte access [addr, addr+len): report the first
   out-of-range byte, exactly as the historical byte-at-a-time loops
   did. *)
let fault_range t addr len access =
  let rec first i =
    if i >= len then assert false
    else if not (in_range t (addr + i)) then raise (Fault { addr = addr + i; access })
    else first (i + 1)
  in
  first 0

let to_offset t addr =
  check t addr Read;
  addr - t.base

(* ------------------------------------------------------------------ *)
(* Engine selection                                                    *)
(* ------------------------------------------------------------------ *)

let set_engine t engine = t.engine <- engine

let engine t = t.engine

(* ------------------------------------------------------------------ *)
(* Page directory                                                      *)
(* ------------------------------------------------------------------ *)

let slot_count t = (t.size + Isa.instr_size - 1) lsr instr_shift

(* The page holding [slot], for reading: possibly [empty_page]. *)
let page_of t slot = t.pages.(slot lsr page_slot_shift)

(* The page holding [slot], allocated if this is the first registered
   slot inside it. *)
let writable_page t slot =
  let p = page_of t slot in
  if p != empty_page then p
  else begin
    let p =
      { entries = Array.make page_slots no_entry; cover = Array.make page_slots 0 }
    in
    t.pages.(slot lsr page_slot_shift) <- p;
    Bytes.set t.settled (slot lsr page_slot_shift) '\000';
    p
  end

let decoded_pages t =
  Array.fold_left (fun n p -> if p != empty_page then n + 1 else n) 0 t.pages

(* ------------------------------------------------------------------ *)
(* Compiled-block registry                                             *)
(* ------------------------------------------------------------------ *)

(* Upper bound on a compiled block's slot span. The store path only has
   to back-scan this many entry slots to find a block that covers the
   stored-into slot, so the bound keeps invalidation O(cap) in the worst
   case and O(1) on the common data-store path (cover count is zero). *)
let max_block_slots = 64

let block_invalidations t = t.block_invalidations

let block_at t ~slot = (page_of t slot).entries.(slot land page_mask).be_code

(* An entry is only ever present on an allocated page, and so is every
   slot of its span (registration allocated them). *)
let unregister t slot =
  let p = page_of t slot in
  let e = p.entries.(slot land page_mask) in
  if e != no_entry then begin
    e.be_valid := false;
    p.entries.(slot land page_mask) <- no_entry;
    for s = slot to e.be_end - 1 do
      let q = page_of t s in
      q.cover.(s land page_mask) <- q.cover.(s land page_mask) - 1
    done
  end

let register_block t ~slot ~slots ~valid code =
  if slots < 1 || slots > max_block_slots then
    invalid_arg "Memory.register_block: span out of range";
  if slot < 0 || slot + slots > slot_count t then
    invalid_arg "Memory.register_block: slot out of range";
  unregister t slot;
  (writable_page t slot).entries.(slot land page_mask) <-
    { be_end = slot + slots; be_valid = valid; be_code = code };
  for s = slot to slot + slots - 1 do
    let p = writable_page t s in
    p.cover.(s land page_mask) <- p.cover.(s land page_mask) + 1
  done

(* Store-side maintenance for a write of [len] bytes at segment offset
   [off]: mark the overlapped pages dirty for the next checkpoint (and
   list each one the first time) and invalidate every registered block
   whose span intersects the write. Only pages with a block registry
   have cover counts to scan, so a store into plain data costs one
   directory load per page; only when a store actually lands under a
   compiled block do we back-scan the bounded window of entry slots
   that could span it. *)
let invalidate_window t off len =
  let lo = off lsr instr_shift and hi = (off + len - 1) lsr instr_shift in
  let covered = ref false in
  for p = off lsr page_shift to (off + len - 1) lsr page_shift do
    if not t.dirty.(p) then begin
      t.dirty.(p) <- true;
      t.dirty_pages.(t.dirty_count) <- p;
      t.dirty_count <- t.dirty_count + 1
    end;
    let page = t.pages.(p) in
    if page == empty_page then Bytes.set t.settled p '\001'
    else begin
      let first = p lsl page_slot_shift in
      for s = Int.max lo first to Int.min hi (first + page_mask) do
        if page.cover.(s land page_mask) > 0 then covered := true
      done
    end
  done;
  if !covered then
    for e = Int.max 0 (lo - max_block_slots + 1) to hi do
      let entry = (page_of t e).entries.(e land page_mask) in
      if entry != no_entry && entry.be_end > lo then begin
        unregister t e;
        t.block_invalidations <- t.block_invalidations + 1
      end
    done

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

type snapshot = int

let page_length t i = Int.min (1 lsl page_shift) (t.size - (i lsl page_shift))

(* Copy each page dirtied since the last checkpoint into its buffer, in
   place; a page copied for the first time trades the zero page for a
   buffer of its own. *)
let snapshot t =
  for k = 0 to t.dirty_count - 1 do
    let i = t.dirty_pages.(k) in
    if t.clean.(i) == zero_page then t.clean.(i) <- Bytes.create (1 lsl page_shift);
    Bytes.blit t.data (i lsl page_shift) t.clean.(i) 0 (page_length t i);
    t.dirty.(i) <- false;
    Bytes.set t.settled i '\000'
  done;
  t.dirty_count <- 0;
  t.checkpoint <- Atomic.fetch_and_add tokens 1 + 1;
  t.checkpoint

(* Every page off the dirty list equals its buffer, so only the listed
   pages are rewritten. [invalidate_window] over a rewritten page
   retires every block that touches it, which leaves its directory
   entry empty; pages left alone keep their registry, so blocks on
   untouched code pages survive a rollback. *)
let restore t snap =
  if snap <> t.checkpoint then
    invalid_arg "Memory.restore: not the segment's current checkpoint";
  for k = 0 to t.dirty_count - 1 do
    let i = t.dirty_pages.(k) in
    let off = i lsl page_shift and len = page_length t i in
    Bytes.blit t.clean.(i) 0 t.data off len;
    invalidate_window t off len;
    t.pages.(i) <- empty_page;
    t.dirty.(i) <- false;
    Bytes.set t.settled i '\000'
  done;
  t.dirty_count <- 0

let load_byte t addr =
  check t addr Read;
  Char.code (Bytes.get t.data (addr - t.base))

let store_byte t addr b =
  check t addr Write;
  let off = addr - t.base in
  Bytes.set t.data off (Char.chr (b land 0xFF));
  invalidate_window t off 1

let load_word t addr =
  let off = addr - t.base in
  if off < 0 || off + 4 > t.size then fault_range t addr 4 Read;
  Int32.to_int (Bytes.get_int32_le t.data off) land 0xFFFFFFFF

let store_word t addr w =
  let off = addr - t.base in
  if off < 0 || off + 4 > t.size then fault_range t addr 4 Write;
  Bytes.set_int32_le t.data off (Int32.of_int w);
  invalidate_window t off 4

let check_span t ~addr ~len access =
  check t addr access;
  if len > 0 then check t (addr + len - 1) access

let load_bytes t ~addr ~len =
  if len < 0 then invalid_arg "Memory.load_bytes: negative length";
  check_span t ~addr ~len Read;
  Bytes.sub t.data (addr - t.base) len

let equal_bytes t ~addr s =
  let len = String.length s in
  check_span t ~addr ~len Read;
  let off = addr - t.base in
  (* Eight bytes at a time, then byte by byte from the first word that
     differs or the tail; nothing is allocated. *)
  let i = ref 0 in
  while
    !i + 8 <= len
    && (Bytes.get_int64_le t.data (off + !i) : int64) = String.get_int64_le s !i
  do
    i := !i + 8
  done;
  while !i < len && Bytes.get t.data (off + !i) = s.[!i] do
    incr i
  done;
  !i = len

let store_bytes t ~addr data =
  let len = Bytes.length data in
  check_span t ~addr ~len Write;
  let off = addr - t.base in
  Bytes.blit data 0 t.data off len;
  if len > 0 then invalidate_window t off len

let load_cstring t ~addr ~max_len =
  if max_len <= 0 then ""
  else begin
    check t addr Read;
    let off = addr - t.base in
    (* The scan may stop at a NUL, at [max_len], or fault at the end of
       the segment — whichever comes first. *)
    let window_end = Int.min (off + max_len) t.size in
    let rec find i = if i >= window_end then i else if Bytes.get t.data i = '\000' then i else find (i + 1) in
    let stop = find off in
    if stop >= window_end && window_end < off + max_len then
      (* Ran off the segment before a NUL or the length bound. *)
      raise (Fault { addr = t.base + t.size; access = Read });
    Bytes.sub_string t.data off (stop - off)
  end

let store_cstring t ~addr s =
  (* Validate the whole destination (string plus NUL) before touching
     guest memory, so a faulting store never leaves a partial write. *)
  let len = String.length s + 1 in
  let off = addr - t.base in
  if off < 0 || off + len > t.size then fault_range t addr len Write;
  Bytes.blit_string s 0 t.data off (String.length s);
  Bytes.set t.data (off + String.length s) '\000';
  invalidate_window t off len

(* ------------------------------------------------------------------ *)
(* Instruction fetch                                                   *)
(* ------------------------------------------------------------------ *)

let fetch t addr =
  let off = addr - t.base in
  if off < 0 || off + Isa.instr_size > t.size then
    fault_range t addr Isa.instr_size Execute;
  Isa.decode_at t.data ~pos:off

(* ------------------------------------------------------------------ *)
(* Raw access for the block compiler                                   *)
(* ------------------------------------------------------------------ *)

let bytes t = t.data

let settled_pages t = t.settled
