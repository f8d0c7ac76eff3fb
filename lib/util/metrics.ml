(* Registry-backed counters/gauges/histograms. Everything here is
   deterministic: histograms keep a fixed-size reservoir maintained by
   Vitter's Algorithm R with a PRNG seeded from the metric's full name,
   so a given observation sequence always yields the same reservoir, and
   timers take their clock as a function so simulated time can drive
   them. *)

let reservoir_capacity = 4096

type counter = { mutable c : int }

type gauge = { mutable g : float }

type histogram = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  samples : float array;  (* uniform reservoir (Algorithm R) once full *)
  mutable filled : int;
  rng : Prng.t;  (* seeded from the metric name: deterministic *)
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { table : (string, metric) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

(* ------------------------------------------------------------------ *)
(* Scopes and registration                                             *)
(* ------------------------------------------------------------------ *)

type scope = { reg : t; prefix : string }

let scope reg name = { reg; prefix = (if name = "" then "" else name ^ ".") }

let sub s name = { s with prefix = s.prefix ^ name ^ "." }

let registry s = s.reg

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let get_or_create s name ~make ~unwrap =
  let full = s.prefix ^ name in
  match Hashtbl.find_opt s.reg.table full with
  | Some existing -> (
    match unwrap existing with
    | Some m -> m
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S is already registered as a %s" full
           (kind_name existing)))
  | None ->
    let wrapped = make full in
    Hashtbl.replace s.reg.table full wrapped;
    (match unwrap wrapped with Some m -> m | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let counter s name =
  get_or_create s name
    ~make:(fun _ -> Counter { c = 0 })
    ~unwrap:(function Counter c -> Some c | _ -> None)

let incr c = c.c <- c.c + 1

let add c n = c.c <- c.c + n

let counter_value c = c.c

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

let gauge s name =
  get_or_create s name
    ~make:(fun _ -> Gauge { g = 0.0 })
    ~unwrap:(function Gauge g -> Some g | _ -> None)

let set_gauge g v = g.g <- v

let max_gauge g v = if v > g.g then g.g <- v

let gauge_value g = g.g

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let histogram s name =
  get_or_create s name
    ~make:(fun full ->
      Histogram
        {
          count = 0;
          sum = 0.0;
          min_v = infinity;
          max_v = neg_infinity;
          samples = Array.make reservoir_capacity 0.0;
          filled = 0;
          rng = Prng.create ~seed:(0x5EED lxor Hashtbl.hash full);
        })
    ~unwrap:(function Histogram h -> Some h | _ -> None)

(* Vitter's Algorithm R: the i-th observation (1-based) replaces a
   uniformly chosen reservoir slot with probability capacity/i, so at
   any point the reservoir is a uniform sample of everything observed —
   not just the most recent window. *)
let observe h v =
  if h.filled < reservoir_capacity then begin
    h.samples.(h.filled) <- v;
    h.filled <- h.filled + 1
  end
  else begin
    let j = Prng.int h.rng (h.count + 1) in
    if j < reservoir_capacity then h.samples.(j) <- v
  end;
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

let histogram_count h = h.count

let histogram_sum h = h.sum

let histogram_percentile h p =
  if h.filled = 0 then 0.0
  else Stats.percentile (Array.sub h.samples 0 h.filled) p

let histogram_p999 h = histogram_percentile h 99.9

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)
(* ------------------------------------------------------------------ *)

type timer = { clock : unit -> float; hist : histogram }

let timer s name ~clock = { clock; hist = histogram s name }

let timer_histogram tm = tm.hist

let start tm =
  let t0 = tm.clock () in
  let stopped = ref false in
  fun () ->
    if not !stopped then begin
      stopped := true;
      observe tm.hist (Float.max 0.0 (tm.clock () -. t0))
    end

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)
(* ------------------------------------------------------------------ *)

let find_counter reg full =
  match Hashtbl.find_opt reg.table full with
  | Some (Counter c) -> Some c.c
  | Some _ | None -> None

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let counters_under reg ~prefix =
  Hashtbl.fold
    (fun name metric acc ->
      match metric with
      | Counter c when starts_with ~prefix name ->
        (String.sub name (String.length prefix) (String.length name - String.length prefix), c.c)
        :: acc
      | _ -> acc)
    reg.table []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type value =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of value list
    | Obj of (string * value) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04X" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let number_to_string x =
    if Float.is_integer x && Float.abs x < 1e15 then
      Printf.sprintf "%.0f" x
    else Printf.sprintf "%.12g" x

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x -> Buffer.add_string buf (number_to_string x)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    write buf v;
    Buffer.contents buf

  exception Parse_error of string

  let of_string text =
    let pos = ref 0 in
    let len = String.length text in
    let fail message = raise (Parse_error (Printf.sprintf "%s at offset %d" message !pos)) in
    let peek () = if !pos < len then Some text.[!pos] else None in
    let advance () = Stdlib.incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some got when got = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      if !pos + String.length word <= len && String.sub text !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'f' -> Buffer.add_char buf '\012'
          | _ -> fail "unsupported escape");
          advance ();
          go ()
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let number_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c when number_char c -> true | _ -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub text start (!pos - start)) with
      | Some x -> x
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields ((key, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> len then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error message -> Error message

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let sorted_metrics reg =
  Hashtbl.fold (fun name metric acc -> (name, metric) :: acc) reg.table []
  |> List.sort compare

let histogram_summary h =
  let pct p = if h.filled = 0 then 0.0 else histogram_percentile h p in
  Json.Obj
    [
      ("count", Json.Num (float_of_int h.count));
      ("sum", Json.Num h.sum);
      ("min", Json.Num (if h.count = 0 then 0.0 else h.min_v));
      ("max", Json.Num (if h.count = 0 then 0.0 else h.max_v));
      ("p50", Json.Num (pct 50.0));
      ("p90", Json.Num (pct 90.0));
      ("p99", Json.Num (pct 99.0));
      ("p999", Json.Num (pct 99.9));
    ]

let to_json_value reg =
  let metrics = sorted_metrics reg in
  let pick f = List.filter_map f metrics in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (pick (function
            | name, Counter c -> Some (name, Json.Num (float_of_int c.c))
            | _ -> None)) );
      ( "gauges",
        Json.Obj
          (pick (function name, Gauge g -> Some (name, Json.Num g.g) | _ -> None)) );
      ( "histograms",
        Json.Obj
          (pick (function
            | name, Histogram h -> Some (name, histogram_summary h)
            | _ -> None)) );
    ]

let to_json reg = Json.to_string (to_json_value reg)

let to_text reg =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, metric) ->
      match metric with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "counter %s %d\n" name c.c)
      | Gauge g ->
        Buffer.add_string buf (Printf.sprintf "gauge %s %s\n" name (Json.number_to_string g.g))
      | Histogram h ->
        Buffer.add_string buf
          (Printf.sprintf
             "histogram %s count=%d sum=%s min=%s max=%s p50=%s p90=%s p99=%s p999=%s\n"
             name h.count
             (Json.number_to_string h.sum)
             (Json.number_to_string (if h.count = 0 then 0.0 else h.min_v))
             (Json.number_to_string (if h.count = 0 then 0.0 else h.max_v))
             (Json.number_to_string (histogram_percentile h 50.0))
             (Json.number_to_string (histogram_percentile h 90.0))
             (Json.number_to_string (histogram_percentile h 99.0))
             (Json.number_to_string (histogram_percentile h 99.9))))
    (sorted_metrics reg);
  Buffer.contents buf

let dump ?(format = `Text) reg oc =
  match format with
  | `Text -> output_string oc (to_text reg)
  | `Json ->
    output_string oc (to_json reg);
    output_char oc '\n'
