module Frame = Gc_net.Frame
module Metric = Gc_obs.Metric

let out_cap = 256 * 1024

(* Bytes held for the end-of-tick flush are written at once when they
   reach this much, so a tick never holds more than a quarter of [out_cap]
   and the cap drops only bytes the kernel has refused. *)
let hold_max = out_cap / 4

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
  mutable out : Bytes.t; (* frames not yet written: [out_start, out_fill) *)
  mutable out_start : int;
  mutable out_fill : int;
  mutable flush_deferred : bool; (* a flush waits for the end of the tick *)
  mutable await_writable : bool; (* the kernel refused bytes; watching *)
  mutable connecting : bool;
  mutable is_closed : bool;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable frames_in : int;
  mutable frames_out : int;
  on_payload : t -> Gc_net.Payload.t -> unit;
  on_close : t -> unit;
}

(* Every send encodes into this one writer and blits the frame into the
   connection's buffer.  The loop is single-threaded and encoding never
   re-enters [send], so one writer serves every connection. *)
let scratch = Buffer.create 4096

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
   connection (up to [out_cap] — 256 KiB of dead bytes otherwise). *)
let close t =
  if not t.is_closed then begin
    t.is_closed <- true;
    Evloop.forget t.loop t.sock;
    t.out <- Bytes.empty;
    t.out_start <- 0;
    t.out_fill <- 0;
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    t.on_close t
  end

let pending_out t = t.out_fill - t.out_start

let rec flush t =
  if (not t.is_closed) && not t.connecting then begin
    let n = pending_out t in
    if n = 0 then begin
      (* Drained: rewind and stop watching for writability. *)
      t.out_start <- 0;
      t.out_fill <- 0;
      if t.await_writable then begin
        t.await_writable <- false;
        Evloop.set_write t.loop t.sock None
      end
    end
    else
      match Unix.write t.sock t.out t.out_start n with
      | written ->
          t.out_start <- t.out_start + written;
          t.bytes_out <- t.bytes_out + written;
          count t Metric.net_bytes_out written;
          if written = n then flush t else await_writable t
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
          await_writable t
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

and await_writable t =
  if not t.await_writable then begin
    t.await_writable <- true;
    Evloop.set_write t.loop t.sock (Some (fun () -> flush t))
  end

(* Room for [len] more bytes at [out_fill].  [send] keeps the pending
   bytes within [out_cap], so the buffer never outgrows it. *)
let reserve t len =
  if t.out_fill + len > Bytes.length t.out then begin
    let used = pending_out t in
    t.out <- Frame.slide t.out ~pos:t.out_start ~len:used ~cap:(used + len);
    t.out_start <- 0;
    t.out_fill <- used
  end

(* Within a tick the bytes wait for the loop's end-of-tick step, so every
   frame a tick sends on this connection leaves in one write; outside a
   tick [Evloop.defer] runs the flush at once. *)
let schedule_flush t =
  if t.connecting || t.await_writable then ()
    (* [finish_connect] or the writable callback flushes *)
  else if pending_out t >= hold_max then flush t
  else if not t.flush_deferred then begin
    t.flush_deferred <- true;
    Evloop.defer t.loop (fun () ->
        t.flush_deferred <- false;
        flush t)
  end

let send t payload =
  if not t.is_closed then
    match Frame.encode_into scratch payload with
    | Ok len when pending_out t + len <= out_cap ->
        reserve t len;
        Frame.blit_frame scratch t.out t.out_fill;
        t.out_fill <- t.out_fill + len;
        t.frames_out <- t.frames_out + 1;
        count t Metric.net_frames_out 1;
        schedule_flush t
    | Ok _ | Error _ ->
        (* Over the cap or unencodable: dropped, datagram semantics. *)
        count t Metric.net_tx_drop 1

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

(* Reads land straight in the decoder's buffer.  A read that fills all the
   room offered may have left bytes in the socket, so read again once the
   complete frames are handed on. *)
let rec on_readable t () =
  if not t.is_closed then begin
    let room = Frame.Decoder.room t.decoder in
    match Frame.Decoder.read_from t.decoder (Unix.read t.sock) with
    | 0 -> close t
    | n ->
        t.bytes_in <- t.bytes_in + n;
        count t Metric.net_bytes_in n;
        drain_frames t;
        if n = room then on_readable t ()
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        () (* interrupted, not dead: select will report readable again *)
    | exception Unix.Unix_error _ -> close t
  end

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
      out = Bytes.create 4096;
      out_start = 0;
      out_fill = 0;
      flush_deferred = false;
      await_writable = false;
      connecting;
      is_closed = false;
      bytes_in = 0;
      bytes_out = 0;
      frames_in = 0;
      frames_out = 0;
      on_payload;
      on_close;
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
