type access = Read | Write | Execute

exception Fault of { addr : int; access : access }

(* One slot per [Isa.instr_size]-aligned window of the segment. A slot
   caches the full decode result (tag included) so the CPU's fetch path
   is two array loads (directory, then page); stores into the window
   reset it to [Not_decoded]. *)
type decode_slot = Not_decoded | Cached of (int * Isa.t, Isa.decode_error) result

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

(* Decoded state for one 4 KiB page of the segment, one element per
   instruction slot: the decode cache, the block registered at each
   entry slot, and how many live blocks span each slot. *)
type page = { decoded : decode_slot array; entries : block_entry array; cover : int array }

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

(* Every directory entry points here until the first decode or block
   registration inside its page. Its slots read as "nothing decoded, no
   block, no cover", so lookups never test for an unallocated page; it
   is shared by every segment and never written. *)
let empty_page =
  {
    decoded = Array.make page_slots Not_decoded;
    entries = Array.make page_slots no_entry;
    cover = Array.make page_slots 0;
  }

type t = {
  base : int;
  size : int;
  data : Bytes.t;
  pages : page array;  (* the page directory: one entry per 4 KiB *)
  mutable engine : engine;
  mutable block_invalidations : int;
  (* Watermark of slots ever decoded or registered (empty when
     [wm_hi < wm_lo]). Decoded state only ever exists inside it, so a
     store outside the watermark (stack and heap traffic, the
     overwhelmingly common case) skips all invalidation with two
     compares. *)
  mutable wm_lo : int;
  mutable wm_hi : int;
}

let engine_of_string = function
  | "reference" -> Some Reference
  | "block" -> Some Block
  | _ -> None

let engine_to_string = function Reference -> "reference" | Block -> "block"

(* NV_ENGINE pins the execution tier for a whole process (CI runs the
   full test tree under NV_ENGINE=reference against the oracle); unset
   or unknown values select the block compiler. *)
let default_engine () =
  match Option.bind (Sys.getenv_opt "NV_ENGINE") engine_of_string with
  | Some e -> e
  | None -> Block

let create ~base ~size =
  if base < 0 || size < 0 || base + size > 0x1_0000_0000 then
    invalid_arg "Memory.create: segment outside the 32-bit address space";
  {
    base;
    size;
    data = Bytes.make size '\000';
    pages = Array.make ((size + (1 lsl page_shift) - 1) lsr page_shift) empty_page;
    engine = default_engine ();
    block_invalidations = 0;
    wm_lo = max_int;
    wm_hi = -1;
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

(* The page holding [slot], allocated if this is the first decoded or
   registered slot inside it. *)
let writable_page t slot =
  let p = page_of t slot in
  if p != empty_page then p
  else begin
    let p =
      {
        decoded = Array.make page_slots Not_decoded;
        entries = Array.make page_slots no_entry;
        cover = Array.make page_slots 0;
      }
    in
    t.pages.(slot lsr page_slot_shift) <- p;
    p
  end

let decoded_pages t =
  Array.fold_left (fun n p -> if p != empty_page then n + 1 else n) 0 t.pages

let widen_watermark t lo hi =
  if lo < t.wm_lo then t.wm_lo <- lo;
  if hi > t.wm_hi then t.wm_hi <- hi

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
  done;
  (* The store path only looks at slots inside the watermark; grow it
     so the invariant holds even for spans registered without a prior
     decode. *)
  widen_watermark t slot (slot + slots - 1)

(* Store-side maintenance for a write of [len] bytes at segment offset
   [off]: reset the overlapped decode slots and invalidate every
   registered block whose span intersects them. The cover counts make
   the no-block case (every store into plain data) one directory load
   per slot; only when a store actually lands under a compiled block do
   we back-scan the bounded window of entry slots that could span
   it. *)
let invalidate_window t off len =
  let lo = off lsr instr_shift in
  let hi = (off + len - 1) lsr instr_shift in
  if lo <= t.wm_hi && hi >= t.wm_lo then begin
    let covered = ref false in
    for s = lo to hi do
      let p = page_of t s in
      if p != empty_page then begin
        p.decoded.(s land page_mask) <- Not_decoded;
        if p.cover.(s land page_mask) > 0 then covered := true
      end
    done;
    if !covered then
      for e = max 0 (lo - max_block_slots + 1) to hi do
        let entry = (page_of t e).entries.(e land page_mask) in
        if entry != no_entry && entry.be_end > lo then begin
          unregister t e;
          t.block_invalidations <- t.block_invalidations + 1
        end
      done
  end

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

type snapshot = Bytes.t

let snapshot t = Bytes.copy t.data

let restore t snap =
  if Bytes.length snap <> t.size then
    invalid_arg "Memory.restore: snapshot is for a different segment size";
  Bytes.blit snap 0 t.data 0 t.size;
  (* The rolled-back bytes may differ anywhere in the segment, so every
     cached decode and compiled block is suspect: retire every
     registered block, then drop the allocated pages. Only the few
     pages that held decoded code are visited. *)
  Array.iteri
    (fun i p ->
      if p != empty_page then begin
        Array.iter
          (fun e ->
            if e != no_entry then begin
              e.be_valid := false;
              t.block_invalidations <- t.block_invalidations + 1
            end)
          p.entries;
        t.pages.(i) <- empty_page
      end)
    t.pages;
  t.wm_lo <- max_int;
  t.wm_hi <- -1

let load_byte t addr =
  check t addr Read;
  Char.code (Bytes.get t.data (addr - t.base))

let store_byte t addr b =
  check t addr Write;
  let off = addr - t.base in
  Bytes.set t.data off (Char.chr (b land 0xFF));
  invalidate_window t off 1

let exec_byte t addr =
  check t addr Execute;
  Char.code (Bytes.get t.data (addr - t.base))

let load_word t addr =
  let off = addr - t.base in
  if off < 0 || off + 4 > t.size then fault_range t addr 4 Read;
  Int32.to_int (Bytes.get_int32_le t.data off) land 0xFFFFFFFF

let store_word t addr w =
  let off = addr - t.base in
  if off < 0 || off + 4 > t.size then fault_range t addr 4 Write;
  Bytes.set_int32_le t.data off (Int32.of_int w);
  invalidate_window t off 4

let load_bytes t ~addr ~len =
  if len < 0 then invalid_arg "Memory.load_bytes: negative length";
  check t addr Read;
  if len > 0 then check t (addr + len - 1) Read;
  Bytes.sub t.data (addr - t.base) len

let store_bytes t ~addr data =
  let len = Bytes.length data in
  check t addr Write;
  if len > 0 then check t (addr + len - 1) Write;
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
    let window_end = min (off + max_len) t.size in
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
(* Decoded fetch                                                       *)
(* ------------------------------------------------------------------ *)

(* The pre-cache fetch path, kept as the differential-testing and
   benchmarking reference: byte-at-a-time Execute-checked loads into a
   fresh buffer, then a full decode. *)
let fetch_reference t addr =
  let b = Bytes.create Isa.instr_size in
  for i = 0 to Isa.instr_size - 1 do
    Bytes.set b i (Char.chr (exec_byte t (addr + i)))
  done;
  Isa.decode b

let fetch_decoded t addr =
  let off = addr - t.base in
  if
    t.engine = Reference
    || off < 0
    || off + Isa.instr_size > t.size
    || off land (Isa.instr_size - 1) <> 0
  then
    (* Reference engine, out of range (faults like the byte loop), or an
       unaligned fetch that would alias a cache slot: decode fresh. *)
    fetch_reference t addr
  else begin
    let slot = off lsr instr_shift in
    match (page_of t slot).decoded.(slot land page_mask) with
    | Cached r -> r
    | Not_decoded ->
      let r = Isa.decode_at t.data ~pos:off in
      (writable_page t slot).decoded.(slot land page_mask) <- Cached r;
      widen_watermark t slot slot;
      r
  end

(* ------------------------------------------------------------------ *)
(* Raw access for the block compiler                                   *)
(* ------------------------------------------------------------------ *)

let bytes t = t.data
