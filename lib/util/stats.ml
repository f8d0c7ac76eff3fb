type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (acc /. float_of_int (n - 1))
  end

(* NaN would silently poison a sort: [Float.compare] totally orders it,
   but any order statistic drawn from data containing NaN is garbage, so
   reject it up front rather than return a misleading number. *)
let reject_nan ~what xs =
  Array.iter (fun x -> if Float.is_nan x then invalid_arg (what ^ ": NaN in input")) xs

let sorted_copy xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  sorted

(* Order statistic on an already-sorted array: linear interpolation at
   rank p/100 * (n-1). *)
let percentile_of_sorted sorted p =
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  reject_nan ~what:"Stats.percentile" xs;
  percentile_of_sorted (sorted_copy xs) p

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty array";
  reject_nan ~what:"Stats.summarize" xs;
  let sorted = sorted_copy xs in
  {
    n;
    mean = mean xs;
    stddev = stddev xs;
    min = sorted.(0);
    p50 = percentile_of_sorted sorted 50.0;
    p90 = percentile_of_sorted sorted 90.0;
    p99 = percentile_of_sorted sorted 99.0;
    max = sorted.(n - 1);
  }
