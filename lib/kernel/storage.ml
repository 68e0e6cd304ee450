(* The durability seam, mirroring Runtime: every persistence capability a
   stack may use, as a record of closures.  The in-memory backend keeps the
   simulator deterministic (no clocks, no RNG, no timers — appending draws
   nothing from the engine); the file-backed backend lives in
   gc_runtime_unix (Fstore) so the kernel stays free of Unix. *)

module Metrics = Gc_obs.Metrics
module Wire = Gc_net.Wire
module Metric = Gc_obs.Metric

module Record = struct
  type t = { origin : int; seq : int; ordered : bool; payload : string }

  let encode r =
    let w = Buffer.create (String.length r.payload + 8) in
    Wire.varint w r.origin;
    Wire.varint w r.seq;
    Wire.u8 w (if r.ordered then 1 else 0);
    Wire.str w r.payload;
    Buffer.contents w

  let decode s =
    let r = Wire.reader s in
    let origin = Wire.read_varint r in
    let seq = Wire.read_varint r in
    let ordered = Wire.read_u8 r <> 0 in
    let payload = Wire.read_str r in
    { origin; seq; ordered; payload }
end

type t = {
  backend : string;
  append : string -> int;
  sync : unit -> unit;
  iter_from : int -> (index:int -> string -> unit) -> unit;
  truncate_before : int -> unit;
  extent : unit -> int * int;
  save_snapshot : index:int -> string -> unit;
  load_snapshot : unit -> (int * string) option;
  close : unit -> unit;
}

let append t = t.append
let sync t = t.sync ()
let iter_from t = t.iter_from
let truncate_before t = t.truncate_before
let extent t = t.extent ()
let save_snapshot t ~index blob = t.save_snapshot ~index blob
let load_snapshot t = t.load_snapshot ()
let close t = t.close ()

let in_memory ?metrics () =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let entries : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let lo = ref 0 and next = ref 0 in
  let snapshot = ref None in
  let update_gauge () =
    Metrics.set_gauge m Metric.storage_log_entries (float_of_int (!next - !lo))
  in
  let append entry =
    let idx = !next in
    Hashtbl.replace entries idx entry;
    next := idx + 1;
    Metrics.incr m Metric.storage_appends;
    update_gauge ();
    idx
  in
  let sync () = Metrics.incr m Metric.storage_syncs in
  let iter_from from f =
    for idx = max from !lo to !next - 1 do
      match Hashtbl.find_opt entries idx with
      | Some entry -> f ~index:idx entry
      | None -> ()
    done
  in
  let truncate_before upto =
    let upto = min upto !next in
    if upto > !lo then begin
      for idx = !lo to upto - 1 do
        Hashtbl.remove entries idx
      done;
      lo := upto;
      Metrics.incr m Metric.storage_truncations;
      update_gauge ()
    end
  in
  let save_snapshot ~index blob =
    snapshot := Some (index, blob);
    Metrics.incr m Metric.storage_snapshots
  in
  let load_snapshot () = !snapshot in
  {
    backend = "memory";
    append;
    sync;
    iter_from;
    truncate_before;
    extent = (fun () -> (!lo, !next));
    save_snapshot;
    load_snapshot;
    close = (fun () -> ());
  }
