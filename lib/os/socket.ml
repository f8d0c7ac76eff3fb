type conn = {
  id : int;
  to_server : Buffer.t;
  mutable to_server_pos : int;
  to_client : Buffer.t;
  mutable to_client_pos : int;
  mutable client_closed : bool;
  mutable server_closed : bool;
}

type listener = { queue : conn Queue.t }

(* Atomic: systems in different domains (attack-matrix cells and bench
   configurations under [Par.map_array]) allocate connection ids
   concurrently. *)
let next_id = Atomic.make 0

let make_listener () = { queue = Queue.create () }

let make_conn () =
  {
    id = 1 + Atomic.fetch_and_add next_id 1;
    to_server = Buffer.create 256;
    to_server_pos = 0;
    to_client = Buffer.create 256;
    to_client_pos = 0;
    client_closed = false;
    server_closed = false;
  }

let connect listener =
  let conn = make_conn () in
  Queue.push conn listener.queue;
  conn

let pending listener = Queue.length listener.queue

let accept listener = Queue.take_opt listener.queue

let conn_id conn = conn.id

let client_send conn data =
  if conn.client_closed then invalid_arg "Socket.client_send: connection half-closed";
  Buffer.add_string conn.to_server data

let client_close conn = conn.client_closed <- true

let client_recv conn =
  let available = Buffer.length conn.to_client - conn.to_client_pos in
  if available = 0 then ""
  else begin
    let data = Buffer.sub conn.to_client conn.to_client_pos available in
    conn.to_client_pos <- conn.to_client_pos + available;
    data
  end

let server_closed conn = conn.server_closed

let server_read conn ~max =
  let available = Buffer.length conn.to_server - conn.to_server_pos in
  let n = min max available in
  if n <= 0 then ""
  else begin
    let data = Buffer.sub conn.to_server conn.to_server_pos n in
    conn.to_server_pos <- conn.to_server_pos + n;
    data
  end

let server_has_data conn = Buffer.length conn.to_server > conn.to_server_pos

let server_at_eof conn = conn.client_closed && not (server_has_data conn)

let server_write conn data =
  Buffer.add_string conn.to_client data;
  String.length data

let server_close conn = conn.server_closed <- true
