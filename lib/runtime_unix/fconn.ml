module Frame = Gc_net.Frame
module Metric = Gc_obs.Metric

let out_cap = 256 * 1024

type stats = {
  bytes_in : int;
  bytes_out : int;
  frames_in : int;
  frames_out : int;
}

type t = {
  loop : Evloop.t;
  sock : Unix.file_descr;
  metrics : Gc_obs.Metrics.t option;
  decoder : Frame.Decoder.t;
  out : Buffer.t;
  mutable out_pos : int; (* flushed prefix of [out] *)
  mutable connecting : bool;
  mutable is_closed : bool;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable frames_in : int;
  mutable frames_out : int;
  on_payload : t -> Gc_net.Payload.t -> unit;
  on_close : t -> unit;
  scratch : Bytes.t;
}

let fd t = t.sock
let closed t = t.is_closed

let stats t =
  {
    bytes_in = t.bytes_in;
    bytes_out = t.bytes_out;
    frames_in = t.frames_in;
    frames_out = t.frames_out;
  }

let count t name by =
  match t.metrics with
  | Some m -> Gc_obs.Metrics.incr ~by m name
  | None -> ()

(* Teardown happens exactly once, no matter which path finds the peer gone
   first (EOF on read, EPIPE/ECONNRESET mid-flush, an explicit close): the
   [is_closed] latch flips before anything else runs, the watcher — read
   AND write callback — is dropped before the descriptor is closed (so a
   reused fd number can never inherit a stale callback), and the out
   buffer is released here rather than waiting for the GC to collect the
   connection (it caps at [out_cap] — 256 KiB of dead bytes otherwise). *)
let close t =
  if not t.is_closed then begin
    t.is_closed <- true;
    Evloop.forget t.loop t.sock;
    Buffer.clear t.out;
    t.out_pos <- 0;
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    t.on_close t
  end

let pending_out t = Buffer.length t.out - t.out_pos

let rec flush t =
  if (not t.is_closed) && not t.connecting then begin
    let n = pending_out t in
    if n = 0 then begin
      (* Drained: compact and stop watching for writability. *)
      Buffer.clear t.out;
      t.out_pos <- 0;
      Evloop.set_write t.loop t.sock None
    end
    else begin
      let chunk = Bytes.unsafe_of_string (Buffer.contents t.out) in
      match Unix.write t.sock chunk t.out_pos n with
      | written ->
          t.out_pos <- t.out_pos + written;
          t.bytes_out <- t.bytes_out + written;
          count t Metric.net_bytes_out written;
          if written = n then flush t
          else Evloop.set_write t.loop t.sock (Some (fun () -> flush t))
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
          Evloop.set_write t.loop t.sock (Some (fun () -> flush t))
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          (* A signal interrupting the write is not a dead peer: the bytes
             are still queued, try again. *)
          flush t
      | exception Unix.Unix_error _ ->
          (* EPIPE / ECONNRESET / anything fatal mid-flush: full teardown.
             [close] drops the write callback with the watcher, so the
             half-flushed buffer can never be retried against a closed
             (or recycled) descriptor. *)
          close t
    end
  end

let send t payload =
  if not t.is_closed then
    match Frame.encode payload with
    | Error _ -> () (* unencodable: dropped, datagram semantics *)
    | Ok frame ->
        if pending_out t + String.length frame <= out_cap then begin
          Buffer.add_string t.out frame;
          t.frames_out <- t.frames_out + 1;
          count t Metric.net_frames_out 1;
          if not t.connecting then flush t
        end

let rec drain_frames t =
  if not t.is_closed then
    match Frame.Decoder.next t.decoder with
    | `Payload p ->
        t.frames_in <- t.frames_in + 1;
        count t Metric.net_frames_in 1;
        t.on_payload t p;
        drain_frames t
    | `Await -> ()
    | `Corrupt _ ->
        (* Body-level rejects are already counted by the decoder; only a
           framing-level corruption is unrecoverable. *)
        if Frame.Decoder.dead t.decoder then close t else drain_frames t

let on_readable t () =
  if not t.is_closed then
    match Unix.read t.sock t.scratch 0 (Bytes.length t.scratch) with
    | 0 -> close t
    | n ->
        t.bytes_in <- t.bytes_in + n;
        count t Metric.net_bytes_in n;
        Frame.Decoder.feed t.decoder t.scratch ~off:0 ~len:n;
        drain_frames t
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        () (* interrupted, not dead: select will report readable again *)
    | exception Unix.Unix_error _ -> close t

let finish_connect t () =
  if t.connecting && not t.is_closed then begin
    match Unix.getsockopt_error t.sock with
    | Some _ -> close t
    | None ->
        t.connecting <- false;
        Evloop.set_write t.loop t.sock None;
        flush t
  end

let attach ~loop ?metrics ?frame_limit ?(connecting = false) sock ~on_payload
    ~on_close =
  Unix.set_nonblock sock;
  (try Unix.setsockopt sock Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  let t =
    {
      loop;
      sock;
      metrics;
      decoder = Frame.Decoder.create ?limit:frame_limit ?metrics ();
      out = Buffer.create 4096;
      out_pos = 0;
      connecting;
      is_closed = false;
      bytes_in = 0;
      bytes_out = 0;
      frames_in = 0;
      frames_out = 0;
      on_payload;
      on_close;
      scratch = Bytes.create 65_536;
    }
  in
  Evloop.set_read loop sock (Some (on_readable t));
  if connecting then Evloop.set_write loop sock (Some (finish_connect t));
  t

let listen ~loop ?(backlog = 64) addr ~on_accept =
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock addr;
  Unix.listen sock backlog;
  Unix.set_nonblock sock;
  let rec accept_ready () =
    match Unix.accept sock with
    | client, peer_addr ->
        Unix.set_nonblock client;
        on_accept client peer_addr;
        accept_ready ()
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  Evloop.set_read loop sock (Some accept_ready);
  sock

let bound_port sock =
  match Unix.getsockname sock with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> 0
