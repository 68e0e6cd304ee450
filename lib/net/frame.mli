(** Length-prefixed framing of {!Payload.t} for stream transports.

    On the wire a frame is a 4-byte big-endian body length followed by the
    {!Payload.encode} bytes.  Encoding and decoding are total: truncated,
    oversized and undecodable frames come back as typed errors — the
    connection layer counts them ([net.frame_reject]) and drops them, it
    never raises mid-read.  An oversized or negative length prefix is
    unrecoverable (the stream cannot be resynchronised) and kills the
    decoder; a frame whose {e body} fails to decode is skipped and the
    stream continues at the next frame boundary. *)

type error =
  | Codec of Payload.codec_error  (** body rejected by the payload codec *)
  | Oversized of { len : int; limit : int }
      (** length prefix beyond the decoder's limit *)
  | Bad_length of int  (** negative length prefix *)

val error_to_string : error -> string

val default_limit : int
(** Default maximum body length (1 MiB). *)

val encode_into : ?limit:int -> Wire.writer -> Payload.t -> (int, error) result
(** Clear the writer, encode one payload's frame body into it and return
    the length of the complete frame (4-byte prefix + body), which
    {!blit_frame} then writes.  On error the writer holds nothing. *)

val blit_frame : Wire.writer -> bytes -> int -> unit
(** [blit_frame w dst off] writes the frame whose body {!encode_into} left
    in [w] at [off] in [dst]: the length prefix, then the body in one
    blit.  [dst] must have room for the length {!encode_into} returned. *)

val encode : ?limit:int -> Payload.t -> (string, error) result
(** Complete frame bytes (prefix + body) for one payload: {!encode_into}
    and {!blit_frame} into a fresh string. *)

val decode_exact : ?limit:int -> string -> (Payload.t, error) result
(** Decode a string holding exactly one frame (tests, datagram-style use).
    Truncated and trailing bytes surface as [Codec] errors. *)

val slide : bytes -> pos:int -> len:int -> cap:int -> bytes
(** [slide b ~pos ~len ~cap] moves the [len] bytes at [pos] in [b] to the
    front of a buffer of at least [cap] bytes: [b] itself when it is big
    enough, else a new one, doubling [b]'s size as often as needed.  The
    send and receive buffers of a framed stream compact and grow with it. *)

(** Incremental decoder for a TCP byte stream. *)
module Decoder : sig
  type t

  val create : ?limit:int -> ?metrics:Gc_obs.Metrics.t -> unit -> t
  (** With [metrics], every rejected frame bumps the [net.frame_reject]
      counter. *)

  val read_from : t -> (bytes -> int -> int -> int) -> int
  (** [read_from d read] calls [read buf off len] once to receive bytes
      straight into the decoder's own buffer, after compacting it, and
      returns what [read] returned (0 means end of stream).  [len] is
      {!room}.  The buffer starts at 4 KiB and grows only when a length
      prefix announces a frame bigger than it.  A dead decoder reads
      nothing and returns 0. *)

  val room : t -> int
  (** The [len] the next {!read_from} offers: a read that returns this
      much may have left more bytes in the stream. *)

  val feed : t -> bytes -> off:int -> len:int -> unit
  (** Append bytes received from the stream (copying them). *)

  val feed_string : t -> string -> unit

  val next : t -> [ `Payload of Payload.t | `Await | `Corrupt of error ]
  (** Pop the next complete frame, decoding its body in place.  The payload
      shares no memory with the buffer, so later reads may overwrite it.
      [`Await] means more bytes are needed; [`Corrupt] reports a rejected
      frame — skippable for body errors, terminal for length errors (see
      {!dead}). *)

  val dead : t -> bool
  (** The stream lost framing (oversized/negative length); the caller
      should close the connection. *)

  val rejected : t -> int
  (** Frames rejected by this decoder so far. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed. *)
end
