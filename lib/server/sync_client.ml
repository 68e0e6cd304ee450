module Frame = Gc_net.Frame

type t = {
  sock : Unix.file_descr;
  decoder : Frame.Decoder.t;
  mutable next_rid : int;
  mutable is_closed : bool;
}

type error = Timeout | Closed | Refused of string | Protocol of string

let error_to_string = function
  | Timeout -> "timeout"
  | Closed -> "connection closed"
  | Refused msg -> "refused: " ^ msg
  | Protocol msg -> "protocol error: " ^ msg

let connect addr =
  match Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | sock -> (
      match Unix.connect sock addr with
      | () ->
          (try Unix.setsockopt sock Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          Ok
            {
              sock;
              decoder = Frame.Decoder.create ();
              next_rid = 0;
              is_closed = false;
            }
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close sock with Unix.Unix_error _ -> ());
          Error (Unix.error_message e))

let close t =
  if not t.is_closed then begin
    t.is_closed <- true;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end

let send_payload t payload =
  match Frame.encode payload with
  | Error e -> Error (Protocol (Frame.error_to_string e))
  | Ok frame -> (
      let len = String.length frame in
      match
        let rec write_all off =
          if off < len then
            let n =
              Unix.write_substring t.sock frame off (len - off)
            in
            write_all (off + n)
        in
        write_all 0
      with
      | () -> Ok ()
      | exception Unix.Unix_error _ ->
          close t;
          Error Closed)

(* Wait for the reply matching [rid]; unrelated frames are dropped. *)
let await_reply t ~rid ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec next_frame () =
    match Frame.Decoder.next t.decoder with
    | `Payload (Proto.Cl_reply { rid = r; ok; body }) when r = rid ->
        if ok then Ok body else Error (Refused body)
    | `Payload _ -> next_frame ()
    | `Corrupt e ->
        if Frame.Decoder.dead t.decoder then begin
          close t;
          Error (Protocol (Frame.error_to_string e))
        end
        else next_frame ()
    | `Await ->
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then Error Timeout
        else begin
          Unix.setsockopt_float t.sock Unix.SO_RCVTIMEO remaining;
          match Frame.Decoder.read_from t.decoder (Unix.read t.sock) with
          | 0 ->
              close t;
              Error Closed
          | _ -> next_frame ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              Error Timeout
          | exception Unix.Unix_error _ ->
              close t;
              Error Closed
        end
  in
  next_frame ()

let request t ?(timeout = 10_000.0) make =
  if t.is_closed then Error Closed
  else begin
    let rid = t.next_rid in
    t.next_rid <- rid + 1;
    match send_payload t (make rid) with
    | Error e -> Error e
    | Ok () -> await_reply t ~rid ~timeout:(timeout /. 1000.0)
  end

let put t ?timeout ~key ~value () =
  request t ?timeout (fun rid -> Proto.Cl_put { rid; key; value })

let incr t ?timeout ~key ~delta () =
  request t ?timeout (fun rid -> Proto.Cl_incr { rid; key; delta })

let get t ?timeout ~key () =
  request t ?timeout (fun rid -> Proto.Cl_get { rid; key })

let dump t ?timeout () = request t ?timeout (fun rid -> Proto.Cl_dump { rid })

let stats t ?timeout ?(format = Proto.Stats_json) () =
  request t ?timeout (fun rid -> Proto.Cl_stats { rid; format })

let health t ?timeout () =
  request t ?timeout (fun rid -> Proto.Cl_health { rid })
