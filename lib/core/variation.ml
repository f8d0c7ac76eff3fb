type variant_spec = {
  index : int;
  base : int;
  tag : int;
  uid : Reexpression.t;
}

type t = { name : string; variants : variant_spec array; unshared_paths : string list }

let count t = Array.length t.variants

let low_base = 0x00010000

let high_base = 0x80010000

let default_segment_size = 1 lsl 20

let address_space = 0x1_0000_0000

(* Every variant's segment must fit the 32-bit space, and under address
   partitioning no two segments may overlap — a shared page would let a
   single absolute address be valid in two variants at once, which is
   exactly the disjointness the partition exists to provide. *)
let validate_bases ~who ~segment_size bases =
  if segment_size <= 0 then
    invalid_arg (Printf.sprintf "Variation.%s: segment size must be positive" who);
  (* Overlap is diagnosed before overflow: a shared page breaks the
     cross-variant disjointness argument itself, not just the layout. *)
  let n = Array.length bases in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if bases.(i) < bases.(j) + segment_size && bases.(j) < bases.(i) + segment_size
      then
        invalid_arg
          (Printf.sprintf "Variation.%s: variant %d and %d segments overlap" who i j)
    done
  done;
  Array.iteri
    (fun i base ->
      if base < 0 || base + segment_size > address_space then
        invalid_arg
          (Printf.sprintf
             "Variation.%s: variant %d segment overflows the 32-bit address space"
             who i))
    bases

type axis = Address | Tagging | Uid of Reexpression.t array

let composed ?name ?(segment_size = default_segment_size) ~n axes =
  if n < 1 then invalid_arg "Variation.composed: need at least one variant";
  let has_address = List.mem Address axes in
  let has_tagging = List.mem Tagging axes in
  let uid_family =
    List.fold_left
      (fun acc axis -> match axis with Uid fam -> Some fam | _ -> acc)
      None axes
  in
  (match uid_family with
  | Some fam when Array.length fam < n ->
    invalid_arg "Variation.composed: uid family smaller than variant count"
  | _ -> ());
  let bases =
    Array.init n (fun i ->
        if not has_address then low_base
        else if i = 0 then low_base
        else high_base + ((i - 1) * segment_size))
  in
  if has_address then validate_bases ~who:"composed" ~segment_size bases;
  let name =
    match name with
    | Some n -> n
    | None ->
      let parts =
        List.filter_map Fun.id
          [
            (if has_address then Some "addr" else None);
            (if has_tagging then Some "tag" else None);
            (if uid_family <> None then Some "uid" else None);
          ]
      in
      Printf.sprintf "composed-%s-%d"
        (if parts = [] then "plain" else String.concat "+" parts)
        n
  in
  let unshared = if uid_family = None then [] else [ "/etc/passwd"; "/etc/group" ] in
  {
    name;
    variants =
      Array.init n (fun i ->
          {
            index = i;
            base = bases.(i);
            tag = (if has_tagging then i + 1 else 0);
            uid =
              (match uid_family with
              | Some fam -> fam.(i)
              | None -> Reexpression.identity);
          });
    unshared_paths = unshared;
  }

let plain_variant index base =
  { index; base; tag = 0; uid = Reexpression.identity }

let single =
  { name = "single"; variants = [| plain_variant 0 low_base |]; unshared_paths = [] }

let replicated =
  {
    name = "replicated";
    variants = [| plain_variant 0 low_base; plain_variant 1 low_base |];
    unshared_paths = [];
  }

let address_partition =
  {
    name = "address-partition";
    variants = [| plain_variant 0 low_base; plain_variant 1 high_base |];
    unshared_paths = [];
  }

let extended_partition ?(offset = 0x4240) () =
  (* The offset must preserve word alignment, or the two variants'
     stacks would sit at different segment offsets and every pointer
     canonicalization would spuriously diverge. *)
  if offset land 3 <> 0 then
    invalid_arg "Variation.extended_partition: offset must be word-aligned";
  {
    name = Printf.sprintf "extended-partition(+0x%X)" offset;
    variants = [| plain_variant 0 low_base; plain_variant 1 (high_base + offset) |];
    unshared_paths = [];
  }

let instruction_tagging =
  {
    name = "instruction-tagging";
    variants =
      [|
        { index = 0; base = low_base; tag = 1; uid = Reexpression.identity };
        { index = 1; base = low_base; tag = 2; uid = Reexpression.identity };
      |];
    unshared_paths = [];
  }

let uid_specs n = Array.init n Reexpression.uid_for_variant

let uid_diversity =
  composed ~name:"uid-diversity" ~n:2 [ Address; Uid (uid_specs 2) ]

let full_diversity =
  composed ~name:"full-diversity" ~n:2 [ Address; Tagging; Uid (uid_specs 2) ]

let uid_diversity_n ?(segment_size = default_segment_size) n =
  if n < 1 then invalid_arg "Variation.uid_diversity_n: need at least one variant";
  let bases =
    Array.init n (fun i ->
        if i = 0 then low_base else high_base + ((i - 1) * segment_size))
  in
  validate_bases ~who:"uid_diversity_n" ~segment_size bases;
  composed
    ~name:(Printf.sprintf "uid-diversity-%d" n)
    ~segment_size ~n
    [ Address; Uid (uid_specs n) ]

(* The rotation+XOR family rather than bare per-variant XOR keys: a
   rotation moves bit 31, so the composed deployments also close the
   XOR axis's documented bit-31 escape (config4's pinned CORRUPTED
   cell) — bit-31 faults diverge after the rotated variants decode. *)
let full_diversity_n n =
  composed
    ~name:(Printf.sprintf "full-diversity-%d" n)
    ~n
    [ Address; Tagging; Uid (Reexpression.rotation_family n) ]

let seeded_diversity ~seed n =
  composed
    ~name:(Printf.sprintf "seeded-diversity-%d" n)
    ~n
    [ Address; Uid (Reexpression.xor_family ~seed n) ]

let rotation_diversity n =
  composed
    ~name:(Printf.sprintf "rotation-diversity-%d" n)
    ~n
    [ Address; Uid (Reexpression.rotation_family n) ]

let add_diversity n =
  composed
    ~name:(Printf.sprintf "add-diversity-%d" n)
    ~n
    [ Address; Uid (Reexpression.add_family n) ]

let rotation_only n =
  composed
    ~name:(Printf.sprintf "rotation-only-%d" n)
    ~n
    [ Address; Uid (Reexpression.rotation_only_family n) ]

(* The pre-fix configuration: every variant >= 1 shares variant 1's
   key, so pairs (i, j) with i, j >= 1 are NOT disjoint. Kept only as
   the regression target the attack matrix demonstrates against. *)
let shared_key n =
  if n < 1 then invalid_arg "Variation.shared_key: need at least one variant";
  let legacy =
    Array.init n (fun i ->
        if i = 0 then Reexpression.identity
        else Reexpression.xor_key ~key:Reexpression.paper_uid_key)
  in
  composed ~name:(Printf.sprintf "uid-shared-key-%d" n) ~n [ Address; Uid legacy ]

let portfolio =
  [
    ("uid-diversity", uid_diversity);
    ("full-diversity", full_diversity);
    ("uid-diversity-3", uid_diversity_n 3);
    ("uid-diversity-4", uid_diversity_n 4);
    ("full-diversity-3", full_diversity_n 3);
    ("full-diversity-4", full_diversity_n 4);
    ("seeded-diversity-3", seeded_diversity ~seed:0xB007 3);
    ("seeded-diversity-4", seeded_diversity ~seed:0xB007 4);
    ("rotation-diversity-3", rotation_diversity 3);
    ("rotation-diversity-4", rotation_diversity 4);
    ("add-diversity-3", add_diversity 3);
    ("add-diversity-4", add_diversity 4);
  ]

let pp ppf t =
  Format.fprintf ppf "%s (%d variant%s)" t.name (count t)
    (if count t = 1 then "" else "s")
