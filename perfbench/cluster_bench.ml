(* End-to-end cluster benchmark.

   Boots a three-replica gcs_server cluster in this process on one
   Evloop, TCP over 127.0.0.1, and drives it through the client wire
   protocol over two client connections (one to replica 0, one to
   replica 1).  Everything runs on one thread, so the figures are the
   program's CPU time plus kernel loopback time; nothing injects delay.

   Usage:
     cluster_bench.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 they are the per-layer
   ledger, every ratio printed above it with its base.  See README.md in
   this directory for the workloads and the metric definitions. *)

module Evloop = Gc_runtime_unix.Evloop
module Fconn = Gc_runtime_unix.Fconn
module Fstore = Gc_runtime_unix.Fstore
module Server = Gc_server.Server
module Proto = Gc_server.Proto
module Kv = Gc_server.Kv
module Stack = Gcs.Gcs_stack
module Metrics = Gc_obs.Metrics
module Storage = Gc_kernel.Storage

let n_replicas = 3
let n_conns = 2

(* Run shape.  The timed seconds are split over [epochs] fresh clusters
   (see README.md for why), each window cut into [part_ms] parts whose
   median is reported; [setup_boots] boots, epochs included, give the
   set-up median. *)
let default_epochs = 6
let part_ms = 1000.0
let setup_boots = 15
let warmup_ms = 500.0
let run_dir = "perfbench/_run"
let boot_deadline_ms = 10_000.0
let drain_deadline_ms = 10_000.0
let settle_deadline_ms = 5_000.0

(* ---------- growable columns ---------- *)

module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 1024 dummy; n = 0; dummy }
  let length v = v.n
  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) v.dummy in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

(* ---------- workloads ---------- *)

type kind = Get | Incr | Put

type pacing = Closed of int  (** outstanding requests per connection *)
            | Paced of float  (** op/s over both connections *)

type spec = {
  name : string;
  pacing : pacing;
  get_pct : int;
  incr_pct : int;  (** puts are the rest *)
  keys : int;
  storage : bool;
}

let specs =
  [
    { name = "commute_paced"; pacing = Paced 2000.0; get_pct = 0; incr_pct = 100;
      keys = 8; storage = false };
    { name = "conflict_closed"; pacing = Closed 64; get_pct = 0; incr_pct = 0;
      keys = 64; storage = true };
    { name = "mixed_paced"; pacing = Paced 2000.0; get_pct = 50; incr_pct = 40;
      keys = 64; storage = false };
  ]

let kind_index = function Get -> 0 | Incr -> 1 | Put -> 2
let kind_names = [| "get"; "incr"; "put" |]

(* ---------- spans (traced runs only) ---------- *)

type span_kind = Sp_request | Sp_deliver | Sp_append | Sp_sync | Sp_tick

let span_kind_name = function
  | Sp_request -> "request"
  | Sp_deliver -> "deliver"
  | Sp_append -> "append"
  | Sp_sync -> "sync"
  | Sp_tick -> "tick"

type tracer = {
  mutable on : bool;
  mutable clock : unit -> float;
  sp_kind : span_kind Vec.t;
  sp_id : int Vec.t;  (** request id, -1 when the span has none *)
  sp_where : int Vec.t;  (** replica or connection, -1 for none *)
  sp_start : float Vec.t;
  sp_end : float Vec.t;
  (* (origin, opid) -> first delivery time and replicas delivered so far *)
  first_delivery : (int * int, float * int) Hashtbl.t;
  repl_lag : float Vec.t;
  mutable appends : int;
  mutable append_ms : float;
  mutable syncs : int;
  mutable sync_ms_max : float;
}

let tracer () =
  {
    on = false;
    clock = (fun () -> 0.0);
    sp_kind = Vec.create Sp_tick;
    sp_id = Vec.create 0;
    sp_where = Vec.create 0;
    sp_start = Vec.create 0.0;
    sp_end = Vec.create 0.0;
    first_delivery = Hashtbl.create 1024;
    repl_lag = Vec.create 0.0;
    appends = 0;
    append_ms = 0.0;
    syncs = 0;
    sync_ms_max = 0.0;
  }

let span tr kind ~id ~where t0 t1 =
  Vec.push tr.sp_kind kind;
  Vec.push tr.sp_id id;
  Vec.push tr.sp_where where;
  Vec.push tr.sp_start t0;
  Vec.push tr.sp_end t1

(* The durable store as the server sees it, with append and sync timed
   while tracing is on. *)
let traced_storage tr replica (s : Storage.t) =
  {
    s with
    Storage.append =
      (fun entry ->
        if not tr.on then s.append entry
        else begin
          let t0 = tr.clock () in
          let i = s.append entry in
          let t1 = tr.clock () in
          tr.appends <- tr.appends + 1;
          tr.append_ms <- tr.append_ms +. (t1 -. t0);
          span tr Sp_append ~id:(-1) ~where:replica t0 t1;
          i
        end);
    sync =
      (fun () ->
        if not tr.on then s.sync ()
        else begin
          let t0 = tr.clock () in
          s.sync ();
          let t1 = tr.clock () in
          tr.syncs <- tr.syncs + 1;
          tr.sync_ms_max <- Float.max tr.sync_ms_max (t1 -. t0);
          span tr Sp_sync ~id:(-1) ~where:replica t0 t1
        end);
  }

(* ---------- the cluster ---------- *)

type cluster = {
  loop : Evloop.t;
  loop_metrics : Metrics.t;
  servers : Server.t array;
  mutable peers : (int * Unix.sockaddr) list;
}

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let lo = Unix.inet_addr_loopback

(* One replica as [gcs_server] runs it: default Unix timing, and with
   storage an [Fstore] data directory per replica. *)
let start_server ~loop ~spec ~tr ~data_dir ?join_via ~peer_port id =
  let metrics = Metrics.create () in
  let storage =
    if not spec.storage then None
    else
      let dir = Filename.concat data_dir (Printf.sprintf "r%d" id) in
      mkdir_p dir;
      let s = Fstore.open_dir ~metrics ~dir () in
      Some (match tr with Some tr -> traced_storage tr id s | None -> s)
  in
  Server.create ~loop ~id
    ~initial:(List.init n_replicas Fun.id)
    ~config:(Stack.Config.make ~runtime:Stack.Config.Unix ())
    ~metrics ?storage ?join_via
    ~peer_listen:(Unix.ADDR_INET (lo, peer_port))
    ~client_listen:(Unix.ADDR_INET (lo, 0))
    ()

let boot ~spec ~tr ~data_dir =
  let loop_metrics = Metrics.create () in
  let loop = Evloop.create ~metrics:loop_metrics () in
  let servers =
    Array.init n_replicas (start_server ~loop ~spec ~tr ~data_dir ~peer_port:0)
  in
  let peers =
    Array.to_list
      (Array.mapi
         (fun id s -> (id, Unix.ADDR_INET (lo, Server.peer_port s)))
         servers)
  in
  Array.iter (fun s -> Server.set_peers s peers) servers;
  { loop; loop_metrics; servers; peers }

(* Shut replica 2 down, and [down_s] later restart it on the same data
   directory and peer port, rejoining through replica 0 (reproduces a
   known defect; see README.md). *)
let restart_replica2 ~spec ~data_dir ~down_s (cl : cluster) =
  let old = cl.servers.(2) in
  let peer_port = Server.peer_port old in
  Server.shutdown old;
  Printf.printf "  replica 2 shut down at %.0f ms\n%!" (Evloop.now cl.loop);
  ignore
    (Evloop.schedule cl.loop ~delay:(down_s *. 1000.0) (fun () ->
         let s =
           start_server ~loop:cl.loop ~spec ~tr:None ~data_dir ~join_via:0
             ~peer_port 2
         in
         Server.set_peers s cl.peers;
         cl.servers.(2) <- s;
         Printf.printf "  replica 2 restarted at %.0f ms\n%!" (Evloop.now cl.loop)))

(* ---------- the load generator ---------- *)

(* Per-request columns, indexed by request id. *)
type status = Pending | Answered | Refused | Wrong

type reqs = {
  kind : kind Vec.t;
  conn : int Vec.t;
  key : int Vec.t;
  arg : int Vec.t;  (** incr delta, or put sequence number *)
  start : float Vec.t;  (** due time (paced) or send time (closed) *)
  sent : float Vec.t;
  reply : float Vec.t;  (** nan until answered *)
  status : status Vec.t;
}

type client = {
  spec : spec;
  rng : Random.State.t;
  filler : string;
  value_bytes : int;
  reg_keys : string array;
  ctr_keys : string array;
  loop : Evloop.t;
  cm : Metrics.t;  (** the client connections' own net.* counters *)
  mutable conns : Fconn.t array;
  r : reqs;
  submits : int Vec.t array;
      (** per connection: the request id of its k-th stack submission,
          which the serving replica numbers k (the low 32 bits of opid) *)
  outstanding : int array;
  acked_incr : int array;  (** per counter key: Σ acknowledged deltas *)
  mutable put_seq : int;
  mutable issuing : bool;
  mutable next_due : float;
  mutable due_count : int;
  mutable late_ms_max : float;
  mutable gen_ms : float;  (** time the paced generator spent sending *)
  mutable dup_replies : int;
  mutable unexpected : int;
}

let reqs () =
  {
    kind = Vec.create Get;
    conn = Vec.create 0;
    key = Vec.create 0;
    arg = Vec.create 0;
    start = Vec.create 0.0;
    sent = Vec.create 0.0;
    reply = Vec.create 0.0;
    status = Vec.create Pending;
  }

let put_prefix c key seq = Printf.sprintf "%s/%d/" c.reg_keys.(key) seq

let put_value c key seq =
  let p = put_prefix c key seq in
  let pad = c.value_bytes - String.length p in
  if pad <= 0 then p else p ^ String.sub c.filler 0 pad

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let send ?key c ~conn ~kind ~start =
  let rid = Vec.length c.r.kind in
  let key =
    match key with Some k -> k | None -> Random.State.int c.rng c.spec.keys
  in
  let arg, payload =
    match kind with
    | Get -> (0, Proto.Cl_get { rid; key = c.reg_keys.(key) })
    | Incr ->
        let delta = 1 + Random.State.int c.rng 9 in
        (delta, Proto.Cl_incr { rid; key = c.ctr_keys.(key); delta })
    | Put ->
        let seq = c.put_seq in
        c.put_seq <- seq + 1;
        (seq, Proto.Cl_put { rid; key = c.reg_keys.(key); value = put_value c key seq })
  in
  let now = Evloop.now c.loop in
  Vec.push c.r.kind kind;
  Vec.push c.r.conn conn;
  Vec.push c.r.key key;
  Vec.push c.r.arg arg;
  Vec.push c.r.start start;
  Vec.push c.r.sent now;
  Vec.push c.r.reply Float.nan;
  Vec.push c.r.status Pending;
  if kind <> Get then Vec.push c.submits.(conn) rid;
  c.outstanding.(conn) <- c.outstanding.(conn) + 1;
  Fconn.send c.conns.(conn) payload

let draw_kind c =
  let x = Random.State.int c.rng 100 in
  if x < c.spec.get_pct then Get
  else if x < c.spec.get_pct + c.spec.incr_pct then Incr
  else Put

(* Closed loop: keep [window] requests outstanding on the connection. *)
let refill c conn =
  match c.spec.pacing with
  | Closed window ->
      while c.issuing && c.outstanding.(conn) < window do
        send c ~conn ~kind:(draw_kind c) ~start:(Evloop.now c.loop)
      done
  | Paced _ -> ()

(* Open loop: send every request whose due time has passed, alternating
   connections; its latency is timed from the due time. *)
let pace c =
  match c.spec.pacing with
  | Closed _ -> ()
  | Paced rate ->
      let now = Evloop.now c.loop in
      if c.issuing && c.next_due <= now then begin
        while c.next_due <= now do
          c.late_ms_max <- Float.max c.late_ms_max (now -. c.next_due);
          send c ~conn:(c.due_count mod n_conns) ~kind:(draw_kind c)
            ~start:c.next_due;
          c.due_count <- c.due_count + 1;
          c.next_due <- c.next_due +. (1000.0 /. rate)
        done;
        c.gen_ms <- c.gen_ms +. (Evloop.now c.loop -. now)
      end

let valid_body c rid body =
  let key = Vec.get c.r.key rid in
  let value_length prefix = Int.max c.value_bytes (String.length prefix) in
  match Vec.get c.r.kind rid with
  | Get -> starts_with ~prefix:(c.reg_keys.(key) ^ "/") body
  | Incr -> int_of_string_opt body <> None
  | Put ->
      let prefix = put_prefix c key (Vec.get c.r.arg rid) in
      starts_with ~prefix body && String.length body = value_length prefix

let on_reply c conn payload =
  match payload with
  | Proto.Cl_reply { rid; ok; body } ->
      if rid < 0 || rid >= Vec.length c.r.kind || Vec.get c.r.conn rid <> conn
      then c.unexpected <- c.unexpected + 1
      else if Vec.get c.r.status rid <> Pending then
        c.dup_replies <- c.dup_replies + 1
      else begin
        Vec.set c.r.reply rid (Evloop.now c.loop);
        c.outstanding.(conn) <- c.outstanding.(conn) - 1;
        let status =
          if not ok then Refused
          else if valid_body c rid body then Answered
          else Wrong
        in
        Vec.set c.r.status rid status;
        if status = Answered && Vec.get c.r.kind rid = Incr then begin
          let k = Vec.get c.r.key rid in
          c.acked_incr.(k) <- c.acked_incr.(k) + Vec.get c.r.arg rid
        end;
        refill c conn
      end
  | _ -> c.unexpected <- c.unexpected + 1

let connect c (cl : cluster) =
  c.conns <-
    Array.init n_conns (fun i ->
        let port = Server.client_port cl.servers.(i) in
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.set_nonblock sock;
        let connecting =
          match
            Unix.connect sock (Unix.ADDR_INET (lo, port))
          with
          | () -> false
          | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> true
        in
        Fconn.attach ~loop:cl.loop ~metrics:c.cm ~connecting sock
          ~on_payload:(fun _ p -> on_reply c i p)
          ~on_close:(fun _ -> ()))

let client ~spec ~seed ~value_bytes (cl : cluster) =
  let rng = Random.State.make [| seed |] in
  let filler =
    String.init (Int.max value_bytes 0) (fun _ ->
        Char.chr (97 + Random.State.int rng 26))
  in
  let c =
    {
      spec;
      rng;
      filler;
      value_bytes;
      reg_keys = Array.init spec.keys (Printf.sprintf "k%d");
      ctr_keys = Array.init spec.keys (Printf.sprintf "c%d");
      loop = cl.loop;
      cm = Metrics.create ();
      conns = [||];
      r = reqs ();
      submits = Array.init n_conns (fun _ -> Vec.create 0);
      outstanding = Array.make n_conns 0;
      acked_incr = Array.make spec.keys 0;
      put_seq = 0;
      issuing = false;
      next_due = 0.0;
      due_count = 0;
      late_ms_max = 0.0;
      gen_ms = 0.0;
      dup_replies = 0;
      unexpected = 0;
    }
  in
  connect c cl;
  c

let total_outstanding c = Array.fold_left ( + ) 0 c.outstanding

(* ---------- driving the loop ---------- *)

(* While a paced load is issuing, the loop polls without blocking: a
   blocked select lets the VM park the vCPU, and waking it costs more, and
   varies more, than the program's own work at this rate.  The process
   then stays on CPU, so work per op is read as busy time, not CPU time. *)
let drive ?tr c ~until stop =
  let loop = c.loop in
  while (not (stop ())) && Evloop.now loop < until do
    pace c;
    let max_wait =
      match c.spec.pacing with Paced _ when c.issuing -> 0.0 | _ -> 10.0
    in
    let max_wait = Float.min max_wait (Float.max 0.0 (until -. Evloop.now loop)) in
    match tr with
    | Some tr when tr.on ->
        let t0 = Evloop.now loop in
        Evloop.run_once loop ~max_wait;
        span tr Sp_tick ~id:(-1) ~where:(-1) t0 (Evloop.now loop)
    | _ -> Evloop.run_once loop ~max_wait
  done

(* ---------- measurements taken from outside the program ---------- *)

let proc_field file field =
  try
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | line -> (
              match String.index_opt line ':' with
              | Some i when String.sub line 0 i = field ->
                  let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
                  let v =
                    match String.index_opt v ' ' with
                    | Some j -> String.sub v 0 j
                    | None -> v
                  in
                  float_of_string v
              | _ -> go ())
          | exception End_of_file -> 0.0
        in
        go ())
  with Sys_error _ | Failure _ -> 0.0

type snap = {
  at : float;
  stack : Metrics.t;  (** every replica's registry, merged *)
  lm : Metrics.t;
  cmv : Metrics.t;
  cpu_s : float;
  syscr : float;
  syscw : float;
  minor_words : float;
  major_collections : int;
  hwm_kb : float;  (** VmHWM, peak resident set *)
}

let snap (cl : cluster) c =
  let t = Unix.times () in
  {
    at = Evloop.now cl.loop;
    stack = Metrics.merged (Array.to_list (Array.map Server.metrics cl.servers));
    lm = Metrics.merged [ cl.loop_metrics ];
    cmv = Metrics.merged [ c.cm ];
    cpu_s = t.Unix.tms_utime +. t.Unix.tms_stime;
    syscr = proc_field "/proc/self/io" "syscr";
    syscw = proc_field "/proc/self/io" "syscw";
    minor_words = Gc.minor_words ();
    (* A collection count, not an allocation figure: [quick_stat]'s
       minor_words lags on OCaml 5, its major_collections does not. *)
    major_collections = (Gc.quick_stat ()).Gc.major_collections;
    hwm_kb = proc_field "/proc/self/status" "VmHWM";
  }

let counter_d a b name = float_of_int (Metrics.counter b name - Metrics.counter a name)

(* Window delta of a registry histogram: count, sum, per-bucket counts. *)
let hist_d a b name =
  let get m =
    match Metrics.view m name with
    | Some (Metrics.V_hist h) -> (h.Metrics.hv_count, h.hv_sum, h.hv_buckets)
    | _ -> (0, 0.0, [])
  in
  let ca, sa, ba = get a and cb, sb, bb = get b in
  let buckets = Array.make Metrics.n_buckets 0 in
  List.iter (fun (i, n) -> buckets.(i) <- buckets.(i) + n) bb;
  List.iter (fun (i, n) -> buckets.(i) <- buckets.(i) - n) ba;
  (cb - ca, sb -. sa, buckets)

let hist_mean (count, sum, _) = if count = 0 then 0.0 else sum /. float_of_int count

let hist_quantile (count, _, buckets) q =
  let target = Int.max 1 (Float.to_int (Float.ceil (q *. float_of_int count))) in
  let rec go i acc =
    if i >= Array.length buckets then 0.0
    else if acc + buckets.(i) >= target then Metrics.bucket_upper i
    else go (i + 1) (acc + buckets.(i))
  in
  if count = 0 then 0.0 else go 0 0

(* Exact nearest-rank percentile over per-request samples. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(Int.min (n - 1) (Int.max 0 (Float.to_int (Float.ceil (q *. float_of_int n)) - 1)))

let sorted_of_array a =
  Array.sort Float.compare a;
  a

let sorted_of vec = sorted_of_array (Array.sub vec.Vec.a 0 vec.Vec.n)

(* ---------- output ---------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value =
  let value = if Float.is_finite value then value else 0.0 in
  { name; value; unit_; note }

let ratio name unit_ ~raw ~ops =
  metric name unit_
    (if ops = 0 then 0.0 else raw /. float_of_int ops)
    ~note:(Printf.sprintf "raw %.17g / ops %d" raw ops)

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-36s %14.6g %-9s %s\n" m.name m.value m.unit_ m.note)
    ms

let json_result ~correct ~attempted ~failed ms =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value
             m.unit_)
         ms)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let write_spans tr path =
  let oc = open_out path in
  output_string oc "kind,id,where,start_ms,end_ms\n";
  for i = 0 to Vec.length tr.sp_kind - 1 do
    Printf.fprintf oc "%s,%d,%d,%.4f,%.4f\n"
      (span_kind_name (Vec.get tr.sp_kind i))
      (Vec.get tr.sp_id i) (Vec.get tr.sp_where i) (Vec.get tr.sp_start i)
      (Vec.get tr.sp_end i)
  done;
  close_out oc

(* ---------- one run ---------- *)

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  value_bytes : int;
  epochs : int;
  restart_at : float option;  (** seconds into each window *)
  down_s : float;
}

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("cluster_bench: " ^ msg);
      exit 1)
    fmt

let shutdown_cluster (cl : cluster) c =
  Array.iter Fconn.close c.conns;
  Array.iter Server.shutdown cl.servers

(* Boot, connect, and wait for one stack-submitted reply on each
   connection: the set-up time a user waits before the cluster serves. *)
let boot_and_probe opts spec ~tr ~seed ~data_dir =
  let t0 = Unix.gettimeofday () in
  let cl = boot ~spec ~tr ~data_dir in
  let c = client ~spec ~seed ~value_bytes:opts.value_bytes cl in
  let probe = if spec.incr_pct = 100 then Incr else Put in
  for conn = 0 to n_conns - 1 do
    send c ~conn ~kind:probe ~start:(Evloop.now cl.loop)
  done;
  drive c
    ~until:(Evloop.now cl.loop +. boot_deadline_ms)
    (fun () -> total_outstanding c = 0);
  if total_outstanding c > 0 then
    fail "cluster did not answer its first requests within %.0f s"
      (boot_deadline_ms /. 1000.0);
  (cl, c, Unix.gettimeofday () -. t0)

let counters_ok (cl : cluster) c =
  (* Each replica's counter must lie between the acknowledged deltas and
     the acknowledged plus unanswered ones; equal when all were answered. *)
  let unanswered = Array.make c.spec.keys 0 in
  for rid = 0 to Vec.length c.r.kind - 1 do
    if Vec.get c.r.kind rid = Incr && Vec.get c.r.status rid <> Answered then begin
      let k = Vec.get c.r.key rid in
      unanswered.(k) <- unanswered.(k) + Vec.get c.r.arg rid
    end
  done;
  let ok = ref true in
  Array.iteri
    (fun k key ->
      Array.iter
        (fun s ->
          let v =
            match Kv.get (Server.kv s) key with
            | Some v -> Option.value ~default:(-1) (int_of_string_opt v)
            | None -> 0
          in
          if v < c.acked_incr.(k) || v > c.acked_incr.(k) + unanswered.(k) then begin
            ok := false;
            Printf.printf "  counter %s on replica %d: %d, acknowledged sum %d\n"
              key (Server.id s) v c.acked_incr.(k)
          end)
        cl.servers)
    c.ctr_keys;
  !ok

let settle (cl : cluster) c =
  let same f =
    let v = f cl.servers.(0) in
    Array.for_all (fun s -> f s = v) cl.servers
  in
  let counts s = (Kv.applied_count (Server.kv s), Kv.ordered_count (Server.kv s)) in
  drive c
    ~until:(Evloop.now cl.loop +. settle_deadline_ms)
    (fun () -> same counts);
  (* a few more ticks so trailing acks and stability messages land *)
  drive c ~until:(Evloop.now cl.loop +. 100.0) (fun () -> false);
  let order = same (fun s -> Kv.order_digest (Server.kv s)) in
  let state = same (fun s -> Kv.state_digest (Server.kv s)) in
  Array.iter
    (fun s -> Printf.printf "  replica %d: %s\n" (Server.id s) (Kv.dump (Server.kv s)))
    cl.servers;
  order && state

(* Per-replica delivery subscriber: replication lag and deliver spans. *)
let subscribe tr (cl : cluster) c =
  Array.iteri
    (fun replica s ->
      Stack.on_deliver (Server.stack s) (fun ~origin:_ ~ordered:_ payload ->
          match payload with
          | Proto.Sv_op { origin; opid; _ } when tr.on ->
              let now = Evloop.now cl.loop in
              (match Hashtbl.find_opt tr.first_delivery (origin, opid) with
              | None -> Hashtbl.replace tr.first_delivery (origin, opid) (now, 1)
              | Some (first, k) when k + 1 = n_replicas ->
                  Hashtbl.remove tr.first_delivery (origin, opid);
                  Vec.push tr.repl_lag (now -. first)
              | Some (first, k) ->
                  Hashtbl.replace tr.first_delivery (origin, opid) (first, k + 1));
              let seq = opid land 0xFFFF_FFFF in
              if origin < n_conns && seq < Vec.length c.submits.(origin) then begin
                let rid = Vec.get c.submits.(origin) seq in
                span tr Sp_deliver ~id:rid ~where:replica (Vec.get c.r.sent rid) now
              end
          | _ -> ()))
    cl.servers

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Where a part begins: wall clock, process CPU, and busy time (the
   loop's callback time plus the paced generator's sends). *)
type mark = { m_at : float; m_cpu : float; m_busy : float }

let mark (cl : cluster) c =
  let callbacks =
    match Metrics.view cl.loop_metrics "evloop.callback_ms" with
    | Some (Metrics.V_hist h) -> h.Metrics.hv_sum
    | _ -> 0.0
  in
  { m_at = Evloop.now cl.loop; m_cpu = cpu_now (); m_busy = callbacks +. c.gen_ms }

(* One sub-window of an epoch's timed window. *)
type part = {
  ops_per_s : float;
  cpu_us : float;
  busy_us : float;
  write_p50 : float;
  p95 : float;
  p99 : float;
}

type epoch = {
  setup_s : float;
  parts : part list;
  by_kind : float Vec.t array;  (** latencies over the window, by kind *)
  ops : int;
  window_s : float;
  cpu_s : float;
  attempted : int;
  failed : int;
  correct : bool;
  hwm_boot_kb : float;
  hwm_end_kb : float;
  served : int;  (** ops this cluster answered by the end of the window *)
  ledger : metric list;  (** traced epochs only *)
}

(* The per-layer ledger over a traced window [a, b]. *)
let ledger ~tr ~c ~a ~b ~ops ~by_kind =
  let secs = (b.at -. a.at) /. 1000.0 in
  let cd = counter_d a.stack b.stack and hd = hist_d a.stack b.stack in
  let client_frames_in = counter_d a.cmv b.cmv "net.frames_in" in
  let client_frames_out = counter_d a.cmv b.cmv "net.frames_out" in
  let client_bytes_in = counter_d a.cmv b.cmv "net.bytes_in" in
  let with_count name unit_ f h what =
    let count, _, _ = h in
    metric name unit_ (f h) ~note:(Printf.sprintf "n=%d %s" count what)
  in
  let kind_lat k =
    let v = by_kind.(k) in
    metric
      (Printf.sprintf "client.%s_lat_ms_p50" kind_names.(k))
      "ms"
      (percentile (sorted_of v) 0.5)
      ~note:(Printf.sprintf "n=%d" (Vec.length v))
  in
  let repl_lag = sorted_of tr.repl_lag in
  let majors = b.major_collections - a.major_collections in
  [
    metric "trace.ops_per_s" "1/s" (float_of_int ops /. secs)
      ~note:(Printf.sprintf "n=%d ops in %.3f s, traced" ops secs);
    metric "loadgen.late_ms_max" "ms" c.late_ms_max ~note:"since the load started";
    with_count "evloop.busy_frac" "frac"
      (fun (_, sum, _) -> sum /. (b.at -. a.at))
      (hist_d a.lm b.lm "evloop.callback_ms")
      "ticks, sum callback_ms / wall ms";
    ratio "evloop.ticks_per_op" "1/op" ~raw:(counter_d a.lm b.lm "evloop.ticks") ~ops;
    with_count "evloop.timer_lag_ms_p99" "ms"
      (fun h -> hist_quantile h 0.99)
      (hist_d a.lm b.lm "evloop.timer_lag_ms")
      "timers, histogram";
    ratio "net.peer_frames_per_op" "1/op"
      ~raw:(cd "net.frames_out" -. client_frames_in) ~ops;
    ratio "net.peer_bytes_per_op" "B/op"
      ~raw:(cd "net.bytes_out" -. client_bytes_in) ~ops;
    ratio "net.client_frames_per_op" "1/op"
      ~raw:(client_frames_in +. client_frames_out) ~ops;
    ratio "sys.write_calls_per_op" "1/op" ~raw:(b.syscw -. a.syscw) ~ops;
    ratio "sys.read_calls_per_op" "1/op" ~raw:(b.syscr -. a.syscr) ~ops;
    metric "net.tx_drop" "count" (cd "net.tx_drop");
    metric "net.frame_reject" "count"
      (cd "net.frame_reject" +. counter_d a.cmv b.cmv "net.frame_reject");
    ratio "rchannel.sends_per_op" "1/op" ~raw:(cd "rchannel.sends") ~ops;
    ratio "rchannel.retransmissions_per_op" "1/op"
      ~raw:(cd "rchannel.retransmissions") ~ops;
    metric "rchannel.window_peak" "count"
      (Metrics.gauge b.stack "rchannel.window_peak")
      ~note:"max over replicas, since boot";
    ratio "rbcast.broadcasts_per_op" "1/op" ~raw:(cd "rbcast.broadcasts") ~ops;
    with_count "gbcast.batch_size_mean" "msgs" hist_mean (hd "gbcast.batch_size")
      "batches";
    with_count "gbcast.ack_batch_size_mean" "msgs" hist_mean
      (hd "gbcast.ack_batch_size") "ack batches";
    (let delivered = cd "gbcast.delivered" in
     let fast = cd "gbcast.fast_deliveries" in
     metric "gbcast.fast_frac" "frac"
       (if delivered = 0.0 then 0.0 else fast /. delivered)
       ~note:(Printf.sprintf "fast %.0f / delivered %.0f" fast delivered));
    with_count "gbcast.latency_ms_p50" "ms"
      (fun h -> hist_quantile h 0.5)
      (hd "gbcast.latency_ms") "deliveries, histogram";
    with_count "abcast.submit_batch_size_mean" "msgs" hist_mean
      (hd "abcast.submit_batch_size") "submit batches";
    with_count "abcast.batch_size_mean" "msgs" hist_mean (hd "abcast.batch_size")
      "proposals";
    with_count "abcast.latency_ms_p50" "ms"
      (fun h -> hist_quantile h 0.5)
      (hd "abcast.latency_ms") "deliveries, histogram";
    (* every replica decides every instance: count each once *)
    ratio "consensus.instances_per_op" "1/op"
      ~raw:(cd "consensus.instances_decided" /. float_of_int n_replicas) ~ops;
    with_count "consensus.rounds_mean" "rounds" hist_mean (hd "consensus.rounds")
      "decisions";
    metric "consensus.coordinator_suspicions" "count"
      (cd "consensus.coordinator_suspicions");
    metric "fd.suspicions" "count" (cd "fd.suspicions");
    metric "membership.view_changes" "count" (cd "membership.view_changes");
    ratio "storage.appends_per_op" "1/op" ~raw:(float_of_int tr.appends) ~ops;
    ratio "storage.append_us_per_op" "us/op" ~raw:(tr.append_ms *. 1000.0) ~ops;
    metric "storage.sync_ms_max" "ms" tr.sync_ms_max
      ~note:(Printf.sprintf "n=%d syncs" tr.syncs);
    with_count "server.stack_lat_ms_p50" "ms"
      (fun h -> hist_quantile h 0.5)
      (hd "server.latency_ms") "replies, histogram";
    metric "replication.lag_ms_p99" "ms" (percentile repl_lag 0.99)
      ~note:
        (Printf.sprintf "n=%d ops delivered by all replicas" (Array.length repl_lag));
    ratio "gc.minor_words_per_op" "words/op" ~raw:(b.minor_words -. a.minor_words) ~ops;
    metric "gc.major_collections_per_kop" "1/kop"
      (if ops = 0 then 0.0 else float_of_int majors *. 1000.0 /. float_of_int ops)
      ~note:(Printf.sprintf "raw %d / ops %d" majors ops);
    kind_lat 0;
    kind_lat 1;
    kind_lat 2;
    (let all = Vec.create 0.0 in
     Array.iter (fun v -> for i = 0 to Vec.length v - 1 do Vec.push all (Vec.get v i) done) by_kind;
     metric "client.lat_ms_p99" "ms"
       (percentile (sorted_of all) 0.99)
       ~note:(Printf.sprintf "n=%d, all kinds" (Vec.length all)));
  ]

(* Boot a fresh cluster, load it, measure a timed window, then drain,
   check every replica, and shut it down. *)
let run_epoch opts spec ~tr ~epoch ~data_root =
  let data_dir = Filename.concat data_root (Printf.sprintf "epoch%d" epoch) in
  let hwm_boot_kb = proc_field "/proc/self/status" "VmHWM" in
  let cl, c, setup_s =
    boot_and_probe opts spec ~tr ~seed:((opts.seed * 1000) + epoch) ~data_dir
  in
  Option.iter (fun tr -> tr.clock <- (fun () -> Evloop.now cl.loop)) tr;
  (* Every key a get may read holds a value before the load starts. *)
  if spec.get_pct > 0 then begin
    for key = 0 to spec.keys - 1 do
      send c ~conn:0 ~kind:Put ~key ~start:(Evloop.now cl.loop)
    done;
    drive c ~until:(Evloop.now cl.loop +. boot_deadline_ms) (fun () ->
        total_outstanding c = 0)
  end;
  Option.iter (fun tr -> subscribe tr cl c) tr;
  (* Warm-up, then the timed window in parts. *)
  c.issuing <- true;
  c.next_due <- Evloop.now cl.loop;
  for conn = 0 to n_conns - 1 do refill c conn done;
  drive c ~until:(Evloop.now cl.loop +. warmup_ms) (fun () -> false);
  let window_ms = opts.seconds *. 1000.0 /. float_of_int opts.epochs in
  let parts = Int.max 1 (Float.to_int (Float.round (window_ms /. part_ms))) in
  let s0 = snap cl c in
  let marks = Array.make (parts + 1) (mark cl c) in
  Option.iter
    (fun at ->
      ignore
        (Evloop.schedule cl.loop ~delay:(at *. 1000.0) (fun () ->
             restart_replica2 ~spec ~data_dir ~down_s:opts.down_s cl)))
    opts.restart_at;
  Option.iter (fun tr -> tr.on <- true) tr;
  for j = 1 to parts do
    drive ?tr c
      ~until:(s0.at +. (window_ms *. float_of_int j /. float_of_int parts))
      (fun () -> false);
    marks.(j) <- mark cl c
  done;
  Option.iter (fun tr -> tr.on <- false) tr;
  let s1 = snap cl c in
  (* Drain: stop issuing; anything unanswered by the deadline fails. *)
  c.issuing <- false;
  drive c ~until:(Evloop.now cl.loop +. drain_deadline_ms) (fun () ->
      total_outstanding c = 0);
  let converged = settle cl c in
  let counters = counters_ok cl c in
  (* Tally: failures over the whole epoch, latency samples per part. *)
  let n = Vec.length c.r.kind in
  let failed = ref 0 and wrong = ref 0 and served = ref 0 in
  let part_of t =
    let rec go lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if marks.(mid).m_at <= t then go mid hi else go lo mid
    in
    if t >= marks.(0).m_at && t < marks.(parts).m_at then go 0 parts else -1
  in
  let part_all = Array.init parts (fun _ -> Vec.create 0.0) in
  let part_write = Array.init parts (fun _ -> Vec.create 0.0) in
  let by_kind = Array.init 3 (fun _ -> Vec.create 0.0) in
  for rid = 0 to n - 1 do
    let st = Vec.get c.r.status rid in
    if st <> Answered then incr failed;
    if st = Wrong then incr wrong;
    if st = Answered then begin
      let t = Vec.get c.r.reply rid in
      if t < s1.at then incr served;
      let j = part_of t in
      if j >= 0 then begin
        let lat = t -. Vec.get c.r.start rid in
        let k = Vec.get c.r.kind rid in
        Vec.push part_all.(j) lat;
        Vec.push by_kind.(kind_index k) lat;
        if k <> Get then Vec.push part_write.(j) lat
      end
    end
  done;
  let correct =
    converged && counters && !wrong = 0 && c.dup_replies = 0 && c.unexpected = 0
  in
  let ops = Array.fold_left (fun acc v -> acc + Vec.length v) 0 part_all in
  let parts_list =
    List.init parts (fun j ->
        let n_j = Vec.length part_all.(j) in
        let a = marks.(j) and b = marks.(j + 1) in
        let per_op x = x /. float_of_int (Int.max n_j 1) in
        {
          ops_per_s = float_of_int n_j /. ((b.m_at -. a.m_at) /. 1000.0);
          cpu_us = per_op ((b.m_cpu -. a.m_cpu) *. 1e6);
          busy_us = per_op ((b.m_busy -. a.m_busy) *. 1000.0);
          write_p50 = percentile (sorted_of part_write.(j)) 0.5;
          p95 = percentile (sorted_of part_all.(j)) 0.95;
          p99 = percentile (sorted_of part_all.(j)) 0.99;
        })
  in
  Printf.printf
    "epoch %d: set-up %.4f s; %d ops in %.3f s; %d requests, %d failed, %d \
     wrong, %d duplicate replies, %d unexpected; replicas converged %b; \
     counters match acknowledged increments %b\n"
    epoch setup_s ops ((s1.at -. s0.at) /. 1000.0) n !failed !wrong c.dup_replies
    c.unexpected converged counters;
  let ledger =
    match tr with
    | None -> []
    | Some tr ->
        let l = ledger ~tr ~c ~a:s0 ~b:s1 ~ops ~by_kind in
        (* request spans: send -> reply, for requests answered while traced *)
        for rid = 0 to n - 1 do
          let t = Vec.get c.r.reply rid in
          if Vec.get c.r.status rid = Answered && t >= s0.at && t < s1.at then
            span tr Sp_request ~id:rid ~where:(Vec.get c.r.conn rid)
              (Vec.get c.r.sent rid) t
        done;
        mkdir_p run_dir;
        let path =
          Filename.concat run_dir (Printf.sprintf "spans-%s.csv" spec.name)
        in
        write_spans tr path;
        Printf.printf "  %d spans written to %s\n" (Vec.length tr.sp_kind) path;
        l
  in
  shutdown_cluster cl c;
  (try rm_rf data_dir with Unix.Unix_error _ | Sys_error _ -> ());
  {
    setup_s;
    parts = parts_list;
    by_kind;
    ops;
    window_s = (s1.at -. s0.at) /. 1000.0;
    cpu_s = s1.cpu_s -. s0.cpu_s;
    attempted = n;
    failed = !failed;
    correct;
    hwm_boot_kb;
    hwm_end_kb = s1.hwm_kb;
    served = !served;
    ledger;
  }

let median xs = percentile (sorted_of_array (Array.of_list xs)) 0.5

let run opts spec =
  let data_root =
    Filename.concat run_dir (Printf.sprintf "data-%d" (Unix.getpid ()))
  in
  (* Extra set-up samples: boot, first replies, shut down. *)
  let extra_setups =
    List.init (Int.max 0 (setup_boots - opts.epochs)) (fun b ->
        let data_dir = Filename.concat data_root (Printf.sprintf "boot%d" b) in
        let cl, c, dt = boot_and_probe opts spec ~tr:None ~seed:opts.seed ~data_dir in
        shutdown_cluster cl c;
        (try rm_rf data_dir with Unix.Unix_error _ | Sys_error _ -> ());
        dt)
  in
  (* Collect each finished cluster before the next boots, so the heap an
     epoch leaves behind is reused rather than added to. *)
  let run_epoch opts spec ~tr ~epoch ~data_root =
    Gc.full_major ();
    run_epoch opts spec ~tr ~epoch ~data_root
  in
  let epochs =
    if opts.trace then
      (* one untraced epoch, then the same again traced *)
      let opts = { opts with epochs = 2 } in
      let untraced = run_epoch opts spec ~tr:None ~epoch:1 ~data_root in
      [ untraced; run_epoch opts spec ~tr:(Some (tracer ())) ~epoch:2 ~data_root ]
    else List.init opts.epochs (fun e -> run_epoch opts spec ~tr:None ~epoch:(e + 1) ~data_root)
  in
  (try rm_rf data_root with Unix.Unix_error _ | Sys_error _ -> ());
  let first = List.hd epochs in
  let setups = extra_setups @ List.map (fun e -> e.setup_s) epochs in
  let parts = List.concat_map (fun e -> e.parts) epochs in
  let ops = List.fold_left (fun acc e -> acc + e.ops) 0 epochs in
  let attempted = List.fold_left (fun acc e -> acc + e.attempted) 0 epochs in
  let failed = List.fold_left (fun acc e -> acc + e.failed) 0 epochs in
  let correct = List.for_all (fun e -> e.correct) epochs in
  let per_part = Printf.sprintf "median of %d parts" (List.length parts) in
  let show f = String.concat " " (List.map (fun p -> Printf.sprintf "%.4g" (f p)) parts) in
  let end_to_end =
    [
      metric "setup_s" "s" (median setups)
        ~note:
          (Printf.sprintf "median of %d boots: %s" (List.length setups)
             (String.concat " " (List.map (Printf.sprintf "%.4f") setups)));
      metric "ops_per_s" "1/s"
        (median (List.map (fun p -> p.ops_per_s) parts))
        ~note:(Printf.sprintf "%s; n=%d ops" per_part ops);
      metric "write_lat_p50_ms" "ms"
        (median (List.map (fun p -> p.write_p50) parts))
        ~note:per_part;
      metric "lat_p95_ms" "ms"
        (median (List.map (fun p -> p.p95) parts))
        ~note:(Printf.sprintf "%s; about %d beyond per part" per_part
                 (ops / Int.max 1 (List.length parts) / 20));
      metric "busy_us_per_op" "us"
        (median (List.map (fun p -> p.busy_us) parts))
        ~note:(per_part ^ "; loop callbacks and paced sends, wall time");
      (* The program keeps per-op state, so peak RSS grows with the ops a
         cluster has served; per op, it does not reward a slower program.
         Taken over the first epoch: later ones reuse its heap. *)
      metric "rss_kb_per_op" "KB"
        ((first.hwm_end_kb -. first.hwm_boot_kb) /. float_of_int (Int.max first.served 1))
        ~note:
          (Printf.sprintf "VmHWM %.1f -> %.1f MB over %d ops" (first.hwm_boot_kb /. 1024.0)
             (first.hwm_end_kb /. 1024.0) first.served);
    ]
  in
  let by_kind =
    Array.init 3 (fun k ->
        let v = Vec.create 0.0 in
        List.iter
          (fun e -> for i = 0 to Vec.length e.by_kind.(k) - 1 do Vec.push v (Vec.get e.by_kind.(k) i) done)
          epochs;
        v)
  in
  let kind_p50s =
    List.filter_map
      (fun k ->
        let v = by_kind.(k) in
        if Vec.length v = 0 then None
        else
          Some
            (metric
               (Printf.sprintf "%s_lat_p50_ms" kind_names.(k))
               "ms"
               (percentile (sorted_of v) 0.5)
               ~note:(Printf.sprintf "n=%d" (Vec.length v))))
      [ 0; 1; 2 ]
  in
  let error_rate = ratio "client.error_rate" "frac" ~raw:(float_of_int failed) ~ops:attempted in
  let cpu =
    metric "cpu_us_per_op" "us"
      (median (List.map (fun p -> p.cpu_us) parts))
      ~note:
        (Printf.sprintf "%s; %.3f s user+sys / %d ops overall" per_part
           (List.fold_left (fun acc e -> acc +. e.cpu_s) 0.0 epochs) ops)
  in
  (* Printed, not gated: on the fast path the 99th percentile reads the
     host's rare stalls more than the program (see README.md). *)
  let p99 =
    metric "lat_p99_ms" "ms"
      (median (List.map (fun p -> p.p99) parts))
      ~note:(Printf.sprintf "%s; about %d beyond per part" per_part
               (ops / Int.max 1 (List.length parts) / 100))
  in
  let peak_rss =
    metric "peak_rss_mb" "MB" (proc_field "/proc/self/status" "VmHWM" /. 1024.0)
      ~note:"VmHWM of the whole run"
  in
  Printf.printf "workload %s  seed %d  seconds %g  trace %b\n" spec.name opts.seed
    opts.seconds opts.trace;
  let result =
    if not opts.trace then begin
      print_metrics "end-to-end:" (end_to_end @ [ p99; cpu ] @ kind_p50s @ [ error_rate; peak_rss ]);
      Printf.printf
        "  per part: op/s [%s]\n  per part: busy us/op [%s]\n\
        \  per part: write p50 ms [%s]\n  per part: p95 ms [%s]\n\
        \  per part: p99 ms [%s]\n"
        (show (fun p -> p.ops_per_s)) (show (fun p -> p.busy_us))
        (show (fun p -> p.write_p50)) (show (fun p -> p.p95)) (show (fun p -> p.p99));
      end_to_end
    end
    else begin
      let untraced = first and traced = List.nth epochs 1 in
      let ledger =
        List.hd traced.ledger
        :: metric "trace.untraced_ops_per_s" "1/s"
             (float_of_int untraced.ops /. untraced.window_s)
             ~note:
               (Printf.sprintf "n=%d ops in %.3f s, same set-up untraced"
                  untraced.ops untraced.window_s)
        :: List.tl traced.ledger
        @ [ error_rate ]
      in
      print_metrics "per-layer ledger, traced epoch:" ledger;
      ledger
    end
  in
  json_result ~correct ~attempted ~failed result

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let value_bytes = ref 256 and epochs = ref default_epochs in
  let storage = ref None and rate = ref 0.0 and restart_at = ref 0.0 in
  let down_s = ref 1.0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed seconds, over all epochs");
      ("--trace", Arg.Set_int trace, "0|1 report the per-layer ledger");
      (* The options below serve the defect reproductions in README.md;
         the benchmark runs with their defaults. *)
      ("--epochs", Arg.Set_int epochs, "E fresh clusters the timed seconds are split over (default 6)");
      ("--value-bytes", Arg.Set_int value_bytes, "B put value size (default 256)");
      ( "--storage",
        Arg.Bool (fun b -> storage := Some b),
        "true|false override the workload's storage mode (Fstore per replica)" );
      ("--rate", Arg.Set_float rate, "R op/s of a paced workload (default 2000)");
      ( "--restart-replica2-at",
        Arg.Set_float restart_at,
        "S shut replica 2 down this many seconds into each window and restart \
         it (needs storage)" );
      ("--down", Arg.Set_float down_s, "S how long replica 2 stays down (default 1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "cluster_bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun (s : spec) -> s.name = !workload) specs with
  | None ->
      fail "unknown workload %S (one of: %s)" !workload
        (String.concat ", " (List.map (fun (s : spec) -> s.name) specs))
  | Some spec ->
      if !seconds <= 0.0 || !epochs < 1 then
        fail "--seconds and --epochs must be positive";
      let spec = { spec with storage = Option.value !storage ~default:spec.storage } in
      let spec =
        match spec.pacing with
        | Paced _ when !rate > 0.0 -> { spec with pacing = Paced !rate }
        | _ -> spec
      in
      if !restart_at > 0.0 && not spec.storage then
        fail "--restart-replica2-at needs storage (--storage true)";
      run
        {
          seed = !seed;
          seconds = !seconds;
          trace = !trace <> 0;
          value_bytes = !value_bytes;
          epochs = !epochs;
          restart_at = (if !restart_at > 0.0 then Some !restart_at else None);
          down_s = !down_s;
        }
        spec
