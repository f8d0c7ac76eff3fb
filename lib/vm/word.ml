type t = int

let width_mask = 0xFFFFFFFF

let mask x = x land width_mask

let max_value = width_mask

let high_bit = 0x80000000

let to_signed w = if w land high_bit <> 0 then w - 0x1_0000_0000 else w

let of_signed x = mask x

let add a b = mask (a + b)

let sub a b = mask (a - b)

let mul a b = mask (a * b)

let div_signed a b =
  let sb = to_signed b in
  if sb = 0 then raise Division_by_zero;
  of_signed (to_signed a / sb)

let rem_signed a b =
  let sb = to_signed b in
  if sb = 0 then raise Division_by_zero;
  of_signed (to_signed a mod sb)

let logand a b = a land b

let logor a b = a lor b

let logxor a b = a lxor b

let shift_left a n = mask (a lsl (n land 31))

let shift_right_logical a n = a lsr (n land 31)

let shift_right_arith a n = of_signed (to_signed a asr (n land 31))

let lt_signed a b = to_signed a < to_signed b

let lt_unsigned a b = a < b

let byte w i =
  if i < 0 || i > 3 then invalid_arg "Word.byte: index out of range";
  (w lsr (8 * i)) land 0xFF

let set_byte w i b =
  if i < 0 || i > 3 then invalid_arg "Word.set_byte: index out of range";
  let shift = 8 * i in
  (w land lnot (0xFF lsl shift) land width_mask) lor ((b land 0xFF) lsl shift)

let pp ppf w = Format.fprintf ppf "0x%08X" w
