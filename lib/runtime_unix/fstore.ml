(* File-backed Gc_kernel.Storage: the durable log under gcs_server
   --data-dir.

   Layout: DIR/log holds the delivery log, DIR/snapshot the latest
   application snapshot.  Both use the same CRC framing — a record is

     varint index | str entry | 4-byte LE CRC-32 of the preceding bytes

   so a crash mid-write leaves a tail that fails either the varint/str
   decode (Wire.Short) or the checksum; open truncates the file back to
   the last good frame and counts storage.torn_tail_dropped.

   Appends are buffered; sync writes the batch and fsyncs once (group
   commit).  iter_from is served from an in-memory mirror, so unsynced
   appends are still replayable within the process — durability, not
   visibility, is what sync buys. *)

module Metrics = Gc_obs.Metrics
module Wire = Gc_net.Wire
module Metric = Gc_obs.Metric

type t = {
  dir : string;
  metrics : Metrics.t;
  entries : (int, string) Hashtbl.t;  (* index -> entry, the mirror *)
  mutable lo : int;
  mutable next : int;
  mutable fd : Unix.file_descr;  (* log, append mode *)
  pending : Buffer.t;  (* framed records not yet written *)
  mutable dirty : bool;  (* appends since the last fsync *)
  mutable closed : bool;
}

let log_path dir = Filename.concat dir "log"
let snapshot_path dir = Filename.concat dir "snapshot"

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let read_file path =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
  else ""

(* One framed record into [w]; the CRC covers index + entry bytes. *)
let frame w ~index entry =
  let body = Buffer.create (String.length entry + 8) in
  Wire.varint body index;
  Wire.str body entry;
  let body = Buffer.contents body in
  Buffer.add_string w body;
  let crc = Wire.crc32 body in
  for i = 0 to 3 do
    Buffer.add_char w (Char.chr ((crc lsr (8 * i)) land 0xff))
  done

(* Parse frames from [s]; returns records in order plus the byte offset of
   the first bad/torn frame (= String.length s when the file is clean). *)
let scan s =
  let r = Wire.reader s in
  let records = ref [] in
  let good = ref 0 in
  (try
     while Wire.remaining r > 0 do
       let start = !good in
       let index = Wire.read_varint r in
       let entry = Wire.read_str r in
       let body_len =
         String.length s - Wire.remaining r - start
       in
       let stored =
         let b = ref 0 in
         for i = 0 to 3 do
           b := !b lor (Wire.read_u8 r lsl (8 * i))
         done;
         !b
       in
       if stored <> Wire.crc32 ~pos:start ~len:body_len s then raise Exit;
       records := (index, entry) :: !records;
       good := String.length s - Wire.remaining r
     done
   with Wire.Short | Exit -> ());
  (List.rev !records, !good)

let update_gauge t =
  Metrics.set_gauge t.metrics Metric.storage_log_entries
    (float_of_int (t.next - t.lo))

let write_pending t =
  if Buffer.length t.pending > 0 then begin
    let s = Buffer.contents t.pending in
    Buffer.clear t.pending;
    let n = String.length s in
    let written = ref 0 in
    while !written < n do
      written :=
        !written
        + Unix.write_substring t.fd s !written (n - !written)
    done
  end

(* Flush threshold: append syncs itself once this much is buffered, so a
   long gap between explicit syncs cannot grow the batch without bound. *)
let auto_sync_bytes = 1 lsl 20

(* Clean-store syncs are free: callers that sync eagerly (per-reply
   acked-means-durable mode, the group-commit timer on an idle server)
   pay for an fsync only when something was actually appended since the
   last one. *)
let do_sync t =
  if (not t.closed) && t.dirty then begin
    write_pending t;
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    t.dirty <- false;
    Metrics.incr t.metrics Metric.storage_syncs
  end

let do_append t entry =
  let idx = t.next in
  Hashtbl.replace t.entries idx entry;
  t.next <- idx + 1;
  frame t.pending ~index:idx entry;
  t.dirty <- true;
  Metrics.incr t.metrics Metric.storage_appends;
  update_gauge t;
  if Buffer.length t.pending >= auto_sync_bytes then do_sync t;
  idx

let do_iter_from t from f =
  for idx = max from t.lo to t.next - 1 do
    match Hashtbl.find_opt t.entries idx with
    | Some entry -> f ~index:idx entry
    | None -> ()
  done

(* Rewrite the log with entries >= upto: frame into a temp file, fsync,
   rename over the log, reopen the append fd. *)
let do_truncate_before t upto =
  let upto = min upto t.next in
  if upto > t.lo then begin
    write_pending t;
    let w = Buffer.create 4096 in
    for idx = upto to t.next - 1 do
      match Hashtbl.find_opt t.entries idx with
      | Some entry -> frame w ~index:idx entry
      | None -> ()
    done;
    let tmp = log_path t.dir ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc (Buffer.contents w);
        Out_channel.flush oc;
        try Unix.fsync (Unix.descr_of_out_channel oc)
        with Unix.Unix_error _ -> ());
    Unix.rename tmp (log_path t.dir);
    fsync_dir t.dir;
    Unix.close t.fd;
    t.fd <-
      Unix.openfile (log_path t.dir)
        [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
        0o644;
    for idx = t.lo to upto - 1 do
      Hashtbl.remove t.entries idx
    done;
    t.lo <- upto;
    (* The rewrite durably captured every live entry (temp + fsync +
       rename): nothing is left to sync. *)
    t.dirty <- false;
    Metrics.incr t.metrics Metric.storage_truncations;
    update_gauge t
  end

let do_save_snapshot t ~index blob =
  let w = Buffer.create (String.length blob + 16) in
  frame w ~index blob;
  let tmp = snapshot_path t.dir ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (Buffer.contents w);
      Out_channel.flush oc;
      try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ());
  Unix.rename tmp (snapshot_path t.dir);
  fsync_dir t.dir;
  Metrics.incr t.metrics Metric.storage_snapshots

let do_load_snapshot t =
  let s = read_file (snapshot_path t.dir) in
  if s = "" then None
  else
    match scan s with (index, blob) :: _, _ -> Some (index, blob) | [], _ -> None

let do_close t =
  if not t.closed then begin
    do_sync t;
    t.closed <- true;
    Unix.close t.fd
  end

let create ?metrics ~dir () =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  mkdir_p dir;
  let raw = read_file (log_path dir) in
  let records, good = scan raw in
  if good < String.length raw then begin
    (* Torn or corrupt tail: drop it on disk so the next open is clean. *)
    (try Unix.truncate (log_path dir) good with Unix.Unix_error _ -> ());
    Metrics.incr m Metric.storage_torn_tail_dropped
  end;
  let entries = Hashtbl.create 64 in
  List.iter (fun (idx, entry) -> Hashtbl.replace entries idx entry) records;
  let lo, next =
    match records with
    | (first, _) :: _ ->
        (first, fst (List.nth records (List.length records - 1)) + 1)
    | [] -> (
        (* Empty log: a snapshot pins the index space, else start at 0. *)
        let s = read_file (snapshot_path dir) in
        match scan s with (index, _) :: _, _ -> (index, index) | [], _ -> (0, 0))
  in
  let fd =
    Unix.openfile (log_path dir)
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
      0o644
  in
  let t =
    {
      dir;
      metrics = m;
      entries;
      lo;
      next;
      fd;
      pending = Buffer.create 4096;
      dirty = false;
      closed = false;
    }
  in
  update_gauge t;
  t

let storage t =
  {
    Gc_kernel.Storage.backend = "file";
    append = (fun entry -> do_append t entry);
    sync = (fun () -> do_sync t);
    iter_from = (fun from f -> do_iter_from t from f);
    truncate_before = (fun upto -> do_truncate_before t upto);
    extent = (fun () -> (t.lo, t.next));
    save_snapshot = (fun ~index blob -> do_save_snapshot t ~index blob);
    load_snapshot = (fun () -> do_load_snapshot t);
    close = (fun () -> do_close t);
  }

let open_dir ?metrics ~dir () = storage (create ?metrics ~dir ())
