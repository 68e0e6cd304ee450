type error =
  | Codec of Payload.codec_error
  | Oversized of { len : int; limit : int }
  | Bad_length of int

let error_to_string = function
  | Codec e -> Payload.codec_error_to_string e
  | Oversized { len; limit } ->
      Printf.sprintf "frame of %d bytes exceeds limit %d" len limit
  | Bad_length n -> Printf.sprintf "negative frame length %d" n

let default_limit = 1 lsl 20

let prefix_len = 4

let encode_into ?(limit = default_limit) w p =
  Buffer.clear w;
  match Payload.encode_to w p with
  | Error e -> Error (Codec e)
  | Ok () ->
      let n = Buffer.length w in
      if n > limit then Error (Oversized { len = n; limit })
      else Ok (prefix_len + n)

let blit_frame w dst off =
  let n = Buffer.length w in
  Bytes.set_int32_be dst off (Int32.of_int n);
  Buffer.blit w 0 dst (off + prefix_len) n

let encode ?limit p =
  let w = Buffer.create 128 in
  match encode_into ?limit w p with
  | Error e -> Error e
  | Ok len ->
      let b = Bytes.create len in
      blit_frame w b 0;
      Ok (Bytes.unsafe_to_string b)

let slide b ~pos ~len ~cap =
  let dst =
    if cap <= Bytes.length b then b
    else begin
      let c = ref (max 1 (Bytes.length b) * 2) in
      while cap > !c do
        c := !c * 2
      done;
      Bytes.create !c
    end
  in
  if len > 0 && (pos > 0 || dst != b) then Bytes.blit b pos dst 0 len;
  dst

module Decoder = struct
  type t = {
    limit : int;
    metrics : Gc_obs.Metrics.t option;
    mutable buf : Bytes.t;  (* received, not yet consumed: [pos, fill) *)
    mutable pos : int;
    mutable fill : int;
    mutable dead : bool;
    mutable rejected : int;
  }

  (* Most frames are a few hundred bytes; a larger one grows the buffer
     when its length prefix arrives, so an idle connection holds 4 KiB,
     not its largest frame. *)
  let initial_capacity = 4096

  let create ?(limit = default_limit) ?metrics () =
    {
      limit;
      metrics;
      buf = Bytes.create initial_capacity;
      pos = 0;
      fill = 0;
      dead = false;
      rejected = 0;
    }

  let buffered t = t.fill - t.pos

  let reject t =
    t.rejected <- t.rejected + 1;
    match t.metrics with
    | Some m -> Gc_obs.Metrics.incr m Gc_obs.Metric.net_frame_reject
    | None -> ()

  (* Move the unconsumed bytes to the front of a buffer of at least [cap]
     bytes. *)
  let compact t cap =
    let used = buffered t in
    t.buf <- slide t.buf ~pos:t.pos ~len:used ~cap;
    t.pos <- 0;
    t.fill <- used

  let room t = Bytes.length t.buf - buffered t

  let read_from t read =
    if t.dead then 0
    else begin
      if t.pos > 0 then compact t 0;
      let n = read t.buf t.fill (Bytes.length t.buf - t.fill) in
      if n > 0 then t.fill <- t.fill + n;
      n
    end

  let feed t src ~off ~len =
    if len > 0 && not t.dead then begin
      if t.fill + len > Bytes.length t.buf then compact t (buffered t + len);
      Bytes.blit src off t.buf t.fill len;
      t.fill <- t.fill + len
    end

  let feed_string t s =
    feed t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

  let next t =
    if t.dead then `Corrupt (Bad_length (-1))
    else if buffered t < prefix_len then `Await
    else begin
      let len = Int32.to_int (Bytes.get_int32_be t.buf t.pos) in
      if len < 0 then begin
        t.dead <- true;
        reject t;
        `Corrupt (Bad_length len)
      end
      else if len > t.limit then begin
        t.dead <- true;
        reject t;
        `Corrupt (Oversized { len; limit = t.limit })
      end
      else if buffered t < prefix_len + len then begin
        (* The only place the buffer grows on the read path: a frame
           announced bigger than it can hold. *)
        if prefix_len + len > Bytes.length t.buf then compact t (prefix_len + len);
        `Await
      end
      else begin
        let body = t.pos + prefix_len in
        t.pos <- body + len;
        (* In place: the codec reads the body through a slice of the
           buffer.  The unsafe view lives only for this call, and the
           decoded payload copies every field out of it, so later reads
           may overwrite the buffer. *)
        match Payload.decode ~pos:body ~len (Bytes.unsafe_to_string t.buf) with
        | Ok p -> `Payload p
        | Error e ->
            reject t;
            `Corrupt (Codec e)
      end
    end

  let dead t = t.dead
  let rejected t = t.rejected
end

let decode_exact ?limit s =
  let d = Decoder.create ?limit () in
  Decoder.feed_string d s;
  match Decoder.next d with
  | `Payload p ->
      if Decoder.buffered d = 0 then Ok p
      else Error (Codec (Payload.Trailing (Decoder.buffered d)))
  | `Await -> Error (Codec Payload.Truncated)
  | `Corrupt e -> Error e
