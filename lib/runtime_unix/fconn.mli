(** A non-blocking TCP connection carrying {!Gc_net.Frame}-framed
    payloads, driven by an {!Evloop}.

    Used for both halves of the real runtime: the peer mesh between
    [gcs_server] daemons and the client connections a server accepts.
    Reads land straight in the frame decoder's buffer and are decoded in
    place; writes are encoded into a send buffer and written once per
    event-loop tick (see {!send}).  Rejected frames are counted
    ([net.frame_reject]) and skipped; a framing-level corruption or peer
    hangup closes the connection and fires [on_close] exactly once. *)

type t

val attach :
  loop:Evloop.t ->
  ?metrics:Gc_obs.Metrics.t ->
  ?frame_limit:int ->
  ?connecting:bool ->
  Unix.file_descr ->
  on_payload:(t -> Gc_net.Payload.t -> unit) ->
  on_close:(t -> unit) ->
  t
(** Take ownership of a socket (sets it non-blocking and [TCP_NODELAY]).
    [connecting] marks an in-progress [Unix.connect]: sends are buffered
    until the socket reports writable and [SO_ERROR] is clean.  Each
    readable event reads into the decoder's buffer (4 KiB, grown only for
    a bigger frame) and hands every complete frame to [on_payload] before
    returning.  With [metrics], the connection counts its traffic and
    drops into the registry (see {!stats} and {!send}). *)

val send : t -> Gc_net.Payload.t -> unit
(** Frame one payload into the connection's send buffer.  Inside an
    {!Evloop.run_once} tick the bytes are held, and every frame the tick
    sends on this connection is written with one [write(2)] at the end of
    the tick ({!Evloop.defer}); once the held bytes reach 64 KiB they are
    written at once.  Outside a tick the frame is written at once.  Bytes
    the kernel refuses wait for writability.  Unencodable payloads and
    frames that would take the unwritten bytes past the cap (256 KiB) are
    dropped — datagram semantics; the reliable-channel layer above
    retransmits — and each drop counts as [net.tx_drop]. *)

val close : t -> unit
(** Idempotent; fires [on_close]. *)

val closed : t -> bool

val fd : t -> Unix.file_descr

type stats = {
  bytes_in : int;  (** bytes read off the socket *)
  bytes_out : int;  (** bytes actually written (not merely buffered) *)
  frames_in : int;  (** complete frames decoded *)
  frames_out : int;  (** frames enqueued for sending *)
}

val stats : t -> stats
(** This connection's lifetime I/O counters — the per-connection load
    the server's [Stats] endpoint reports.  When [attach] was given
    [?metrics], the same quantities also accumulate into the shared
    registry as [net.bytes_in]/[net.bytes_out]/[net.frames_in]/
    [net.frames_out]. *)

val listen :
  loop:Evloop.t ->
  ?backlog:int ->
  Unix.sockaddr ->
  on_accept:(Unix.file_descr -> Unix.sockaddr -> unit) ->
  Unix.file_descr
(** Bind + listen + watch: every inbound connection is handed to
    [on_accept] (the socket is already non-blocking). *)

val bound_port : Unix.file_descr -> int
(** The actual port of a bound socket (for [port 0] binds in tests). *)
