type kind =
  | Quantum_begin
  | Quantum_end of { retired : int }
  | Syscall_enter of { number : int; args : int array }
  | Syscall_exit of { number : int; result : int }
  | Rendezvous of { number : int }
  | Signal of { handler : string; immediate : bool }
  | Kernel_call of { name : string; seq : int }
  | Checkpoint of { rendezvous : int }
  | Rollback of { rendezvous : int; dropped : int }
  | Failstop of { rendezvous : int }
  | Health of { replica : int; state : string }
  | Shed of { replica : int }
  | Alarm of { label : string }
  | Note of string

type event = { ts : int; kind : kind }

type t = {
  on : bool Atomic.t;
  capacity : int;
  mutable ring_list : ring list; (* reverse registration order *)
}

and ring = {
  rg_name : string;
  rg_pid : int;
  rg_tid : int;
  rg_session : t;
  buf : event array;
  mutable start : int; (* index of the oldest retained event *)
  mutable len : int;
  mutable rg_dropped : int;
}

let dummy_event = { ts = 0; kind = Quantum_begin }

let create ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { on = Atomic.make false; capacity; ring_list = [] }

let set_enabled t flag = Atomic.set t.on flag
let enabled t = Atomic.get t.on
let enabled_ring r = Atomic.get r.rg_session.on

let ring t ~name ~pid ~tid =
  let r =
    {
      rg_name = name;
      rg_pid = pid;
      rg_tid = tid;
      rg_session = t;
      buf = Array.make t.capacity dummy_event;
      start = 0;
      len = 0;
      rg_dropped = 0;
    }
  in
  t.ring_list <- r :: t.ring_list;
  r

let record r ~ts kind =
  if Atomic.get r.rg_session.on then begin
    let cap = Array.length r.buf in
    let ev = { ts; kind } in
    if r.len < cap then begin
      r.buf.((r.start + r.len) mod cap) <- ev;
      r.len <- r.len + 1
    end
    else begin
      r.buf.(r.start) <- ev;
      r.start <- (r.start + 1) mod cap;
      r.rg_dropped <- r.rg_dropped + 1
    end
  end

let note r ~ts text = record r ~ts (Note text)

let events r =
  let cap = Array.length r.buf in
  List.init r.len (fun i -> r.buf.((r.start + i) mod cap))

let dropped r = r.rg_dropped
let recorded r = r.len + r.rg_dropped
let ring_name r = r.rg_name
let rings t = List.rev t.ring_list

let clear t =
  List.iter
    (fun r ->
      r.start <- 0;
      r.len <- 0;
      r.rg_dropped <- 0;
      Array.fill r.buf 0 (Array.length r.buf) dummy_event)
    t.ring_list

let publish t metrics =
  let scope = Metrics.scope metrics "trace" in
  let rs = rings t in
  Metrics.set_gauge (Metrics.gauge scope "rings") (float_of_int (List.length rs));
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  Metrics.set_gauge (Metrics.gauge scope "events") (float_of_int (sum recorded));
  Metrics.set_gauge (Metrics.gauge scope "dropped") (float_of_int (sum dropped))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let default_syscall_name n = Printf.sprintf "sys#%d" n

let pp_event ?(syscall_name = default_syscall_name) ppf ev =
  match ev.kind with
  | Quantum_begin -> Format.fprintf ppf "[quantum] begin"
  | Quantum_end { retired } -> Format.fprintf ppf "[quantum] end (retired %d)" retired
  | Syscall_enter { number; args } ->
      Format.fprintf ppf "[%s] enter(%s)" (syscall_name number)
        (String.concat ", " (Array.to_list (Array.map string_of_int args)))
  | Syscall_exit { number; result } ->
      Format.fprintf ppf "[%s] exit = %d" (syscall_name number) result
  | Rendezvous { number } -> Format.fprintf ppf "[%s] rendezvous" (syscall_name number)
  | Signal { handler; immediate } ->
      Format.fprintf ppf "[signal] %s delivered (%s)" handler
        (if immediate then "immediate" else "at rendezvous")
  | Kernel_call { name; seq } -> Format.fprintf ppf "[%s] kernel dispatch #%d" name seq
  | Checkpoint { rendezvous } ->
      Format.fprintf ppf "[supervisor] checkpoint @ rendezvous %d" rendezvous
  | Rollback { rendezvous; dropped } ->
      Format.fprintf ppf "[supervisor] rollback to rendezvous %d (%d connection(s) dropped)"
        rendezvous dropped
  | Failstop { rendezvous } ->
      Format.fprintf ppf "[supervisor] fail-stop @ rendezvous %d" rendezvous
  | Health { replica; state } -> Format.fprintf ppf "[replica %d] %s" replica state
  | Shed { replica } ->
      if replica < 0 then Format.fprintf ppf "[balancer] shed (no replica available)"
      else Format.fprintf ppf "[balancer] shed (replica %d)" replica
  | Alarm { label } -> Format.fprintf ppf "[alarm] %s" label
  | Note s -> Format.pp_print_string ppf s

(* ------------------------------------------------------------------ *)
(* JSON sinks                                                          *)

open Metrics.Json

let num i = Num (float_of_int i)
let args_list args = List (Array.to_list (Array.map (fun a -> num a) args))

(* One event as a Chrome trace-event record. [ph] "B"/"E" pairs give
   Perfetto real duration slices; instants use thread scope. *)
let chrome_record ~syscall_name ~pid ~tid ev =
  let base ph name extra =
    Obj
      ([
         ("name", Str name);
         ("ph", Str ph);
         ("ts", num ev.ts);
         ("pid", num pid);
         ("tid", num tid);
       ]
      @ extra)
  in
  let instant name fields =
    base "i" name (("s", Str "t") :: (if fields = [] then [] else [ ("args", Obj fields) ]))
  in
  match ev.kind with
  | Quantum_begin -> base "B" "quantum" []
  | Quantum_end { retired } -> base "E" "quantum" [ ("args", Obj [ ("retired", num retired) ]) ]
  | Syscall_enter { number; args } ->
      base "B" (syscall_name number) [ ("args", Obj [ ("args", args_list args) ]) ]
  | Syscall_exit { number; result } ->
      base "E" (syscall_name number) [ ("args", Obj [ ("result", num result) ]) ]
  | Rendezvous { number } -> instant ("rendezvous:" ^ syscall_name number) []
  | Signal { handler; immediate } ->
      instant ("signal:" ^ handler) [ ("immediate", Bool immediate) ]
  | Kernel_call { name; seq } -> instant ("kernel:" ^ name) [ ("seq", num seq) ]
  | Checkpoint { rendezvous } -> instant "checkpoint" [ ("rendezvous", num rendezvous) ]
  | Rollback { rendezvous; dropped } ->
      instant "rollback" [ ("rendezvous", num rendezvous); ("dropped", num dropped) ]
  | Failstop { rendezvous } -> instant "failstop" [ ("rendezvous", num rendezvous) ]
  | Health { replica; state } -> instant ("health:" ^ state) [ ("replica", num replica) ]
  | Shed { replica } -> instant "shed" [ ("replica", num replica) ]
  | Alarm { label } -> instant ("alarm:" ^ label) []
  | Note s -> instant s []

let to_chrome ?(syscall_name = default_syscall_name) ?(extra = []) t =
  let rs = rings t in
  let seen_pids = Hashtbl.create 8 in
  let metadata =
    List.concat_map
      (fun r ->
        let process =
          if Hashtbl.mem seen_pids r.rg_pid then []
          else begin
            Hashtbl.add seen_pids r.rg_pid ();
            [
              Obj
                [
                  ("name", Str "process_name");
                  ("ph", Str "M");
                  ("pid", num r.rg_pid);
                  ("args", Obj [ ("name", Str (Printf.sprintf "replica %d" r.rg_pid)) ]);
                ];
            ]
          end
        in
        process
        @ [
            Obj
              [
                ("name", Str "thread_name");
                ("ph", Str "M");
                ("pid", num r.rg_pid);
                ("tid", num r.rg_tid);
                ("args", Obj [ ("name", Str r.rg_name) ]);
              ];
          ])
      rs
  in
  let body =
    List.concat_map
      (fun r ->
        List.map (chrome_record ~syscall_name ~pid:r.rg_pid ~tid:r.rg_tid) (events r))
      rs
  in
  Obj
    ([ ("traceEvents", List (metadata @ body)); ("displayTimeUnit", Str "ms") ] @ extra)

let event_to_json ?(syscall_name = default_syscall_name) ev =
  let kind, fields =
    match ev.kind with
    | Quantum_begin -> ("quantum_begin", [])
    | Quantum_end { retired } -> ("quantum_end", [ ("retired", num retired) ])
    | Syscall_enter { number; args } ->
        ( "syscall_enter",
          [
            ("number", num number);
            ("syscall", Str (syscall_name number));
            ("args", args_list args);
          ] )
    | Syscall_exit { number; result } ->
        ( "syscall_exit",
          [
            ("number", num number);
            ("syscall", Str (syscall_name number));
            ("result", num result);
          ] )
    | Rendezvous { number } ->
        ("rendezvous", [ ("number", num number); ("syscall", Str (syscall_name number)) ])
    | Signal { handler; immediate } ->
        ("signal", [ ("handler", Str handler); ("immediate", Bool immediate) ])
    | Kernel_call { name; seq } -> ("kernel_call", [ ("syscall", Str name); ("seq", num seq) ])
    | Checkpoint { rendezvous } -> ("checkpoint", [ ("rendezvous", num rendezvous) ])
    | Rollback { rendezvous; dropped } ->
        ("rollback", [ ("rendezvous", num rendezvous); ("dropped", num dropped) ])
    | Failstop { rendezvous } -> ("failstop", [ ("rendezvous", num rendezvous) ])
    | Health { replica; state } ->
        ("health", [ ("replica", num replica); ("state", Str state) ])
    | Shed { replica } -> ("shed", [ ("replica", num replica) ])
    | Alarm { label } -> ("alarm", [ ("label", Str label) ])
    | Note s -> ("note", [ ("text", Str s) ])
  in
  Obj (("kind", Str kind) :: ("ts", num ev.ts) :: fields)

let ring_events_json ?(syscall_name = default_syscall_name) ?last r =
  let evs = events r in
  let evs =
    match last with
    | None -> evs
    | Some n ->
        let len = List.length evs in
        if len <= n then evs else List.filteri (fun i _ -> i >= len - n) evs
  in
  Obj
    [
      ("name", Str r.rg_name);
      ("pid", num r.rg_pid);
      ("tid", num r.rg_tid);
      ("dropped", num r.rg_dropped);
      ("events", List (List.map (event_to_json ~syscall_name) evs));
    ]
