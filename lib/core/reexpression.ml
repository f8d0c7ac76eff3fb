module Word = Nv_vm.Word
module Prng = Nv_util.Prng

type form =
  | Linear of { rot : int; key : Word.t }
  | Add31 of Word.t
  | Opaque

type t = {
  name : string;
  form : form;
  encode : Word.t -> Word.t;
  decode : Word.t -> Word.t;
}

(* Rotations built from the masked shifts: Word shift counts are taken
   mod 32, so a shift by [32 - 0] would be a shift by 0 — rotate by 0
   must short-circuit. *)
let rol x k =
  let k = k land 31 in
  if k = 0 then Word.mask x
  else Word.logor (Word.shift_left x k) (Word.shift_right_logical x (32 - k))

let ror x k = rol x (32 - (k land 31))

let low31 x = x land 0x7FFFFFFF

let linear ~rot ~key =
  let rot = rot land 31 and key = Word.mask key in
  let name =
    if rot = 0 then
      if key = 0 then "identity" else Printf.sprintf "xor 0x%08X" key
    else if key = 0 then Printf.sprintf "rol %d" rot
    else Printf.sprintf "rol %d ^ 0x%08X" rot key
  in
  {
    name;
    form = Linear { rot; key };
    encode = (fun u -> Word.logxor (rol u rot) key);
    decode = (fun u -> ror (Word.logxor u key) rot);
  }

let identity = linear ~rot:0 ~key:0

let xor_key ~key = linear ~rot:0 ~key

let rotate ~k = linear ~rot:k ~key:0

let rot_xor ~k ~key = linear ~rot:k ~key

let add_mod31 ~offset =
  let offset = low31 offset in
  {
    name = (if offset = 0 then "identity (+0 mod 2^31)"
            else Printf.sprintf "add 0x%08X mod 2^31" offset);
    form = Add31 offset;
    encode =
      (fun u -> Word.logand u Word.high_bit lor low31 (low31 u + offset));
    decode =
      (fun u -> Word.logand u Word.high_bit lor low31 (low31 u - offset));
  }

let paper_uid_key = 0x7FFFFFFF

let inverse_holds t x = t.decode (t.encode x) = x

let disjoint_at a b x = a.decode x <> b.decode x

(* ------------------------------------------------------------------ *)
(* Machine-checkable witnesses.                                        *)

type verdict = Proven | Refuted of Word.t | Unknown

(* Over GF(2) both rotation and XOR are affine: for a [Linear] form,
   [decode x = R (x ^ key)] where [R] is rotate-right — a linear map.
   A collision between two linear decodes,
     [R_a (x ^ k_a) = R_b (x ^ k_b)],
   rearranges to the linear system
     [(R_a ^ R_b) x = R_a k_a ^ R_b k_b].
   Gaussian elimination decides it exactly: inconsistent means no word
   collides (pointwise disjointness is proven for all 2^32 inputs);
   a solution is a concrete counterexample word. *)
let solve_linear ~rot_a ~key_a ~rot_b ~key_b =
  let cols = Array.init 32 (fun j ->
      Word.logxor (ror (1 lsl j) rot_a) (ror (1 lsl j) rot_b))
  in
  let rhs = Word.logxor (ror key_a rot_a) (ror key_b rot_b) in
  (* Row [i] packs the 32 coefficients of output bit [i] in bits 0..31
     and the right-hand side in bit 32. *)
  let rows =
    Array.init 32 (fun i ->
        let coeffs = ref 0 in
        for j = 0 to 31 do
          if cols.(j) land (1 lsl i) <> 0 then coeffs := !coeffs lor (1 lsl j)
        done;
        !coeffs lor (((rhs lsr i) land 1) lsl 32))
  in
  let pivot_of_col = Array.make 32 (-1) in
  let rank = ref 0 in
  for j = 0 to 31 do
    let r = ref (-1) in
    for i = !rank to 31 do
      if !r = -1 && rows.(i) land (1 lsl j) <> 0 then r := i
    done;
    if !r >= 0 then begin
      let tmp = rows.(!rank) in
      rows.(!rank) <- rows.(!r);
      rows.(!r) <- tmp;
      for i = 0 to 31 do
        if i <> !rank && rows.(i) land (1 lsl j) <> 0 then
          rows.(i) <- rows.(i) lxor rows.(!rank)
      done;
      pivot_of_col.(j) <- !rank;
      incr rank
    end
  done;
  let inconsistent = ref false in
  for i = !rank to 31 do
    if rows.(i) land (1 lsl 32) <> 0 then inconsistent := true
  done;
  if !inconsistent then None
  else begin
    (* Particular solution: free variables 0, each pivot variable takes
       its row's right-hand side. *)
    let x = ref 0 in
    for j = 0 to 31 do
      let p = pivot_of_col.(j) in
      if p >= 0 && rows.(p) land (1 lsl 32) <> 0 then x := !x lor (1 lsl j)
    done;
    Some !x
  end

(* Structured probe set for forms with no closed-form decision: the
   boundary words, both keys, and a deterministic pseudo-random sweep.
   Finding a collision refutes disjointness; exhausting the probes
   proves nothing, so the verdict stays [Unknown]. *)
let sampled_refutation a b =
  let prng = Prng.create ~seed:0x5EED51DE in
  let probe = ref None in
  let try_word x =
    let x = Word.mask x in
    if !probe = None && not (disjoint_at a b x) then probe := Some x
  in
  List.iter try_word
    [ 0; 1; 33; 0x7FFFFFFF; 0x80000000; 0xFFFFFFFF; a.encode 0; b.encode 0 ];
  for bit = 0 to 31 do
    try_word (1 lsl bit)
  done;
  for _ = 1 to 4096 do
    try_word (Int64.to_int (Int64.logand (Prng.bits64 prng) 0xFFFFFFFFL))
  done;
  !probe

let disjointness a b =
  match (a.form, b.form) with
  | Linear { rot = rot_a; key = key_a }, Linear { rot = rot_b; key = key_b }
    -> (
    match solve_linear ~rot_a ~key_a ~rot_b ~key_b with
    | None -> Proven
    | Some x -> if disjoint_at a b x then Unknown else Refuted x)
  | Add31 ca, Add31 cb ->
    (* Bit 31 passes through both decodes; the low halves differ at
       every word exactly when the offsets differ mod 2^31. *)
    if ca = cb then Refuted 0 else Proven
  | _ -> (
    match sampled_refutation a b with Some x -> Refuted x | None -> Unknown)

let selfcheck t =
  let prng = Prng.create ~seed:0x1AEA11 in
  let witness = ref None in
  let probe x =
    let x = Word.mask x in
    if !witness = None then begin
      if not (inverse_holds t x) then witness := Some x
      else
        match t.form with
        | Linear { rot; key } ->
          if t.encode x <> Word.logxor (rol x rot) key then witness := Some x
        | Add31 c ->
          if t.encode x <> Word.logand x Word.high_bit lor low31 (low31 x + c)
          then witness := Some x
        | Opaque -> ()
    end
  in
  List.iter probe [ 0; 1; 33; 0x7FFFFFFF; 0x80000000; 0xFFFFFFFF ];
  for bit = 0 to 31 do
    probe (1 lsl bit)
  done;
  for _ = 1 to 4096 do
    probe (Int64.to_int (Int64.logand (Prng.bits64 prng) 0xFFFFFFFFL))
  done;
  match !witness with None -> Ok () | Some x -> Error x

let all_pairs_disjoint specs =
  let n = Array.length specs in
  let bad = ref None in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if !bad = None then
        match disjointness specs.(i) specs.(j) with
        | Proven -> ()
        | Refuted x -> bad := Some (i, j, Some x)
        | Unknown -> bad := Some (i, j, None)
    done
  done;
  match !bad with None -> Ok () | Some w -> Error w

(* ------------------------------------------------------------------ *)
(* Per-variant key families.                                           *)

(* 31-bit keys (bit 31 clear) keep the paper's deliberate weakness —
   the kernel treats negative UIDs specially, so no variant's key may
   flip the sign bit — and distinct XOR keys are pairwise disjoint by
   construction ([x ^ ki = x ^ kj] iff [ki = kj]). *)
let fresh_key31 prng = 1 + Prng.int prng (0x7FFFFFFF - 1)

let keygen ~seed ~reserved n =
  let prng = Prng.create ~seed in
  let taken = ref reserved in
  Array.init n (fun _ ->
      let rec pick budget =
        if budget = 0 then failwith "Reexpression.keygen: key space exhausted";
        let k = fresh_key31 prng in
        if List.mem k !taken then pick (budget - 1)
        else begin
          taken := k :: !taken;
          k
        end
      in
      pick 1_000)

(* Deterministic fixed-seed keys for variants >= 2 of the default UID
   variation. Variant 1 keeps the paper's published key so the Table 1
   row (and the documented bit-31 escape) is reproduced exactly. *)
let derived_keys = lazy (keygen ~seed:0x0D51_2008 ~reserved:[ 0; paper_uid_key ] 62)

let variant_key index =
  if index < 0 then invalid_arg "Reexpression.variant_key: negative variant index";
  if index = 0 then 0
  else if index = 1 then paper_uid_key
  else begin
    let keys = Lazy.force derived_keys in
    if index - 2 >= Array.length keys then
      invalid_arg "Reexpression.variant_key: too many variants";
    keys.(index - 2)
  end

let uid_for_variant index =
  if index = 0 then identity else xor_key ~key:(variant_key index)

let assert_family name specs =
  (match all_pairs_disjoint specs with
  | Ok () -> ()
  | Error (i, j, _) ->
    invalid_arg
      (Printf.sprintf "Reexpression.%s: variants %d and %d are not disjoint"
         name i j));
  specs

let xor_family ~seed n =
  if n < 1 then invalid_arg "Reexpression.xor_family: need at least one variant";
  let keys = keygen ~seed ~reserved:[ 0 ] (n - 1) in
  assert_family "xor_family"
    (Array.init n (fun i -> if i = 0 then identity else xor_key ~key:keys.(i - 1)))

let rotation_family n =
  if n < 1 then invalid_arg "Reexpression.rotation_family: need at least one variant";
  if n > 32 then invalid_arg "Reexpression.rotation_family: at most 32 rotations";
  let prng = Prng.create ~seed:0x0D51_2009 in
  let specs = Array.make n identity in
  for i = 1 to n - 1 do
    (* Greedy: pair rotation [i] with a key the GF(2) solver certifies
       disjoint against every earlier variant. A pure rotation can
       never work (0 and 0xFFFFFFFF are fixed points of every
       rotation), which is exactly why the family composes the axes. *)
    let rec search budget =
      if budget = 0 then
        failwith "Reexpression.rotation_family: no certifiable key found";
      let candidate = rot_xor ~k:i ~key:(fresh_key31 prng) in
      let ok = ref true in
      for j = 0 to i - 1 do
        if disjointness specs.(j) candidate <> Proven then ok := false
      done;
      if !ok then candidate else search (budget - 1)
    in
    specs.(i) <- search 10_000
  done;
  assert_family "rotation_family" specs

let rotation_only_family n =
  if n < 1 then
    invalid_arg "Reexpression.rotation_only_family: need at least one variant";
  if n > 32 then invalid_arg "Reexpression.rotation_only_family: at most 32 rotations";
  Array.init n (fun i -> rotate ~k:i)

let add_family n =
  if n < 1 then invalid_arg "Reexpression.add_family: need at least one variant";
  assert_family "add_family"
    (Array.init n (fun i -> add_mod31 ~offset:(i * 0x0100_0001)))

(* ------------------------------------------------------------------ *)

type table1_row = {
  variation : string;
  target_type : string;
  r0 : string;
  r1 : string;
  r0_inv : string;
  r1_inv : string;
}

let table1 =
  [
    {
      variation = "Address Space Partitioning [16]";
      target_type = "Address";
      r0 = "R0(a) = a";
      r1 = "R1(a) = a + 0x80000000";
      r0_inv = "R0^-1(a) = a";
      r1_inv = "R1^-1(a) = a - 0x80000000";
    };
    {
      variation = "Extended Address Space Partitioning [9]";
      target_type = "Address";
      r0 = "R0(a) = a";
      r1 = "R1(a) = a + 0x80000000 + offset";
      r0_inv = "R0^-1(a) = a";
      r1_inv = "R1^-1(a) = a - 0x80000000 - offset";
    };
    {
      variation = "Instruction Set Tagging [16]";
      target_type = "Instruction";
      r0 = "R0(inst) = 0 || inst";
      r1 = "R1(inst) = 1 || inst";
      r0_inv = "R0^-1(0 || inst) = inst";
      r1_inv = "R1^-1(1 || inst) = inst";
    };
    {
      variation = "UID Variation (this paper)";
      target_type = "UID";
      r0 = "R0(u) = u";
      r1 = "R1(u) = u ^ 0x7FFFFFFF";
      r0_inv = "R0^-1(u) = u";
      r1_inv = "R1^-1(u) = u ^ 0x7FFFFFFF";
    };
    {
      variation = "UID Variation, per-variant keys (N > 2)";
      target_type = "UID";
      r0 = "R0(u) = u";
      r1 = "Ri(u) = u ^ ki (ki pairwise distinct, bit 31 clear)";
      r0_inv = "R0^-1(u) = u";
      r1_inv = "Ri^-1(u) = u ^ ki";
    };
    {
      variation = "UID Variation, per-boot seeded masks";
      target_type = "UID";
      r0 = "R0(u) = u";
      r1 = "Ri(u) = u ^ mask_i (mask_i drawn per boot from a PRNG seed)";
      r0_inv = "R0^-1(u) = u";
      r1_inv = "Ri^-1(u) = u ^ mask_i";
    };
    {
      variation = "UID Rotation + XOR";
      target_type = "UID";
      r0 = "R0(u) = u";
      r1 = "Ri(u) = rol(u, i) ^ ki (key certified by the GF(2) witness)";
      r0_inv = "R0^-1(u) = u";
      r1_inv = "Ri^-1(u) = ror(u ^ ki, i)";
    };
    {
      variation = "UID Addition mod 2^31";
      target_type = "UID";
      r0 = "R0(u) = u";
      r1 = "Ri(u) = bit31(u) || (u + i*stride mod 2^31)";
      r0_inv = "R0^-1(u) = u";
      r1_inv = "Ri^-1(u) = bit31(u) || (u - i*stride mod 2^31)";
    };
  ]
