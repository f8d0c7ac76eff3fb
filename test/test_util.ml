(* Unit and property tests for nv_util: Prng, Stats, Tablefmt, Par. *)

open Nv_util

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 in
  let b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 in
  let b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_split_independent () =
  let parent = Prng.create ~seed:7 in
  let child = Prng.split parent in
  let c1 = Prng.bits64 child in
  (* Advancing the parent must not affect the child's future stream. *)
  let parent2 = Prng.create ~seed:7 in
  let child2 = Prng.split parent2 in
  Alcotest.(check int64) "split deterministic" c1 (Prng.bits64 child2)

let test_prng_int_bounds () =
  let t = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Prng.int t 17 in
    Alcotest.(check bool) "in [0,17)" true (x >= 0 && x < 17)
  done

let test_prng_int_invalid () =
  let t = Prng.create ~seed:3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_int_in () =
  let t = Prng.create ~seed:9 in
  for _ = 1 to 1000 do
    let x = Prng.int_in t (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (x >= -5 && x <= 5)
  done

let test_prng_float_bounds () =
  let t = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Prng.float t 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_prng_exponential_positive () =
  let t = Prng.create ~seed:11 in
  for _ = 1 to 500 do
    Alcotest.(check bool) "positive" true (Prng.exponential t ~mean:3.0 > 0.0)
  done

let test_prng_exponential_mean () =
  let t = Prng.create ~seed:13 in
  let n = 20000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential t ~mean:4.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (abs_float (mean -. 4.0) < 0.2)

let test_prng_pick () =
  let t = Prng.create ~seed:17 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    let x = Prng.pick t arr in
    Alcotest.(check bool) "member" true (Array.exists (String.equal x) arr)
  done

let test_prng_shuffle_permutation () =
  let t = Prng.create ~seed:19 in
  let arr = Array.init 50 (fun i -> i) in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let prop_prng_int_uniformish =
  QCheck.Test.make ~name:"prng int covers all buckets" ~count:50
    QCheck.(int_range 1 1000)
    (fun seed ->
      let t = Prng.create ~seed in
      let buckets = Array.make 8 0 in
      for _ = 1 to 4000 do
        let i = Prng.int t 8 in
        buckets.(i) <- buckets.(i) + 1
      done;
      Array.for_all (fun c -> c > 0) buckets)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "empty mean" 0.0 (Stats.mean [||])

let test_stats_stddev () =
  check_float "stddev" (sqrt 2.5) (Stats.stddev [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  check_float "single" 0.0 (Stats.stddev [| 42.0 |])

let test_stats_percentile_exact () =
  let xs = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  check_float "p0" 10.0 (Stats.percentile xs 0.0);
  check_float "p50" 30.0 (Stats.percentile xs 50.0);
  check_float "p100" 50.0 (Stats.percentile xs 100.0)

let test_stats_percentile_interp () =
  let xs = [| 0.0; 10.0 |] in
  check_float "p25" 2.5 (Stats.percentile xs 25.0)

let test_stats_percentile_unsorted_input () =
  let xs = [| 50.0; 10.0; 40.0; 20.0; 30.0 |] in
  check_float "p50 of unsorted" 30.0 (Stats.percentile xs 50.0)

let test_stats_percentile_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [| 1.0 |] 101.0))

let test_stats_summarize () =
  let s = Stats.summarize [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check int) "n" 3 s.Stats.n;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 3.0 s.Stats.max;
  check_float "p50" 2.0 s.Stats.p50

let test_stats_rejects_nan () =
  (* Regression: the polymorphic-compare sort treated NaN as orderable
     and silently produced garbage percentiles; now it is an error. *)
  Alcotest.check_raises "percentile" (Invalid_argument "Stats.percentile: NaN in input")
    (fun () -> ignore (Stats.percentile [| 1.0; nan; 3.0 |] 50.0));
  Alcotest.check_raises "summarize" (Invalid_argument "Stats.summarize: NaN in input")
    (fun () -> ignore (Stats.summarize [| nan |]))

let test_stats_orders_negatives_and_infinities () =
  (* Float.compare orders the full float line (minus NaN). *)
  let xs = [| infinity; -3.0; 0.0; neg_infinity; 2.0 |] in
  check_float "p0" neg_infinity (Stats.percentile xs 0.0);
  check_float "p50" 0.0 (Stats.percentile xs 50.0);
  check_float "p100" infinity (Stats.percentile xs 100.0)

let prop_stats_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 40) (float_range 0.0 100.0))
              (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (xs, (p1, p2)) ->
      let xs = Array.of_list xs in
      let lo = min p1 p2 and hi = max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let prop_stats_mean_between_min_max =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 40) (float_range (-50.0) 50.0))
    (fun xs ->
      let xs = Array.of_list xs in
      let s = Stats.summarize xs in
      s.Stats.min -. 1e-9 <= s.Stats.mean && s.Stats.mean <= s.Stats.max +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Tablefmt                                                            *)
(* ------------------------------------------------------------------ *)

(* Minimal substring helper to avoid external deps in tests. *)
module Astring_contains = struct
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
    n = 0 || scan 0
end

let test_table_basic () =
  let s =
    Tablefmt.render ~header:[ "name"; "value" ]
      ~rows:[ [ "alpha"; "1" ]; [ "beta"; "22" ] ]
      ()
  in
  Alcotest.(check bool) "has alpha" true (Astring_contains.contains s "alpha");
  Alcotest.(check bool) "has header" true (Astring_contains.contains s "value")

let test_table_pads_short_rows () =
  let s = Tablefmt.render ~header:[ "a"; "b"; "c" ] ~rows:[ [ "x" ] ] () in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_table_rejects_wide_rows () =
  Alcotest.check_raises "too wide"
    (Invalid_argument "Tablefmt.render: row wider than header") (fun () ->
      ignore (Tablefmt.render ~header:[ "a" ] ~rows:[ [ "x"; "y" ] ] ()))

let test_table_alignment () =
  let s =
    Tablefmt.render
      ~align:[| Tablefmt.Right; Tablefmt.Left |]
      ~header:[ "n"; "s" ]
      ~rows:[ [ "1"; "ab" ] ]
      ()
  in
  Alcotest.(check bool) "renders with explicit align" true (String.length s > 0)

let test_table_align_mismatch () =
  Alcotest.check_raises "align mismatch"
    (Invalid_argument "Tablefmt.render: align length mismatch") (fun () ->
      ignore (Tablefmt.render ~align:[| Tablefmt.Left |] ~header:[ "a"; "b" ] ~rows:[] ()))

let test_table_equal_line_widths () =
  let s =
    Tablefmt.render ~header:[ "col"; "x" ] ~rows:[ [ "longer-cell"; "1" ] ] ()
  in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let widths = List.map String.length lines in
  match widths with
  | [] -> Alcotest.fail "no lines"
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "same width" w w') rest

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Par                                                                 *)
(* ------------------------------------------------------------------ *)

let test_par_order () =
  List.iter
    (fun n ->
      Alcotest.(check (array int))
        (Printf.sprintf "%d items in order" n)
        (Array.init n (fun i -> i * i))
        (Par.map_array (fun i -> i * i) (Array.init n Fun.id)))
    [ 0; 1; 100 ]

let test_par_lowest_exception () =
  (* Items 3, 5 and 7 raise: every item still runs, whichever domain
     reaches a failure first, and the lowest failed index is raised. *)
  for _ = 1 to 20 do
    let ran = Array.init 8 (fun _ -> Atomic.make false) in
    match
      Par.map_array
        (fun i ->
          Atomic.set ran.(i) true;
          if i >= 3 && i mod 2 = 1 then failwith (string_of_int i) else i)
        (Array.init 8 Fun.id)
    with
    | _ -> Alcotest.fail "expected a failure"
    | exception Failure s ->
      Alcotest.(check string) "lowest index raised" "3" s;
      Alcotest.(check bool) "every item ran" true (Array.for_all Atomic.get ran)
  done

let () =
  Alcotest.run "nv_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "exponential positive" `Quick test_prng_exponential_positive;
          Alcotest.test_case "exponential mean" `Slow test_prng_exponential_mean;
          Alcotest.test_case "pick member" `Quick test_prng_pick;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
        ]
        @ qsuite [ prop_prng_int_uniformish ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile exact" `Quick test_stats_percentile_exact;
          Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile_interp;
          Alcotest.test_case "percentile unsorted" `Quick test_stats_percentile_unsorted_input;
          Alcotest.test_case "percentile invalid" `Quick test_stats_percentile_invalid;
          Alcotest.test_case "summarize" `Quick test_stats_summarize;
          Alcotest.test_case "rejects NaN" `Quick test_stats_rejects_nan;
          Alcotest.test_case "orders negatives and infinities" `Quick
            test_stats_orders_negatives_and_infinities;
        ]
        @ qsuite [ prop_stats_percentile_monotone; prop_stats_mean_between_min_max ] );
      ( "tablefmt",
        [
          Alcotest.test_case "basic" `Quick test_table_basic;
          Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "rejects wide rows" `Quick test_table_rejects_wide_rows;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "align mismatch" `Quick test_table_align_mismatch;
          Alcotest.test_case "equal line widths" `Quick test_table_equal_line_widths;
        ] );
      ( "par",
        [
          Alcotest.test_case "order for empty, single and many items" `Quick test_par_order;
          Alcotest.test_case "all run, lowest exception wins" `Quick
            test_par_lowest_exception;
        ] );
    ]
