let instruction memory ~addr =
  match Memory.fetch memory addr with
  | exception Memory.Fault _ -> Error (Printf.sprintf "unmapped address 0x%08X" addr)
  | Ok (tag, instr) -> Ok (tag, instr)
  | Error (Isa.Bad_opcode op) -> Error (Printf.sprintf "bad opcode %d" op)
  | Error (Isa.Bad_selector sel) -> Error (Printf.sprintf "bad selector %d" sel)
  | Error (Isa.Bad_register r) -> Error (Printf.sprintf "bad register %d" r)

let region memory ~start ~count =
  let buf = Buffer.create 256 in
  for i = 0 to count - 1 do
    let addr = start + (i * Isa.instr_size) in
    (match instruction memory ~addr with
    | Ok (tag, instr) ->
      Buffer.add_string buf
        (Format.asprintf "0x%08X [%d] %a" addr tag Isa.pp instr)
    | Error message -> Buffer.add_string buf (Format.asprintf "0x%08X ?? %s" addr message));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
