(* E10 — Loopback load generator: the real-network runtime under load.

   Unlike E1–E9 this cell is wall-clock, not simulated: it boots a
   three-replica gcs_server cluster in-process (one select loop, TCP over
   127.0.0.1, port-0 binds) and drives it through the client wire
   protocol with a windowed closed loop of mixed commuting/conflicting
   operations.  Reported: throughput, client-observed latency, and the
   replicas' order/state digests — which must be identical, the same
   oracle the CI smoke job applies to the multi-process cluster. *)

module Evloop = Gc_runtime_unix.Evloop
module Fconn = Gc_runtime_unix.Fconn
module Server = Gc_server.Server
module Proto = Gc_server.Proto
module Kv = Gc_server.Kv
module Stack = Gcs.Gcs_stack
module Metrics = Gc_obs.Metrics
module Metric = Gc_obs.Metric

let n = 3
let total_ops = 600
let window = 16
let conflicting_pct = 25
let settle_ms = 400.0
let deadline_ms = 60_000.0

let connect_client ~loop ~metrics ~port ~on_payload =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock sock;
  let connecting =
    match Unix.connect sock addr with
    | () -> false
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> true
  in
  Fconn.attach ~loop ~metrics ~connecting sock ~on_payload
    ~on_close:(fun _ -> ())

let run () =
  Bench_util.section "E10: loopback load generator (real TCP runtime)"
    "the same protocol stack serves a live TCP cluster; all replicas \
     deliver one total order";
  let lm = Metrics.create () in
  let loop = Evloop.create ~metrics:lm () in
  let lo = Unix.inet_addr_loopback in
  let metrics = Array.init n (fun _ -> Metrics.create ()) in
  let servers =
    Array.init n (fun id ->
        Server.create ~loop ~id ~initial:(List.init n Fun.id)
          ~config:
            (Stack.Config.make ~runtime:Stack.Config.Unix ~hb_period:25.0
               ~consensus_timeout:400.0 ())
          ~metrics:metrics.(id)
          ~peer_listen:(Unix.ADDR_INET (lo, 0))
          ~client_listen:(Unix.ADDR_INET (lo, 0))
          ())
  in
  let peers =
    Array.to_list
      (Array.mapi
         (fun id s -> (id, Unix.ADDR_INET (lo, Server.peer_port s)))
         servers)
  in
  Array.iter (fun s -> Server.set_peers s peers) servers;
  (* The load generator: one client connection per server, windowed. *)
  let cm = Metrics.create () in
  let sent_at : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let completed = ref 0 in
  let next_op = ref 0 in
  let conns = Array.make n None in
  let rec pump target =
    if !next_op < total_ops && Hashtbl.length sent_at < window then begin
      let i = !next_op in
      incr next_op;
      let tgt = (target + i) mod n in
      match conns.(tgt) with
      | None -> ()
      | Some conn ->
          Hashtbl.replace sent_at (tgt, i) (Evloop.now loop);
          let payload =
            if i * 100 < conflicting_pct * total_ops then
              Proto.Cl_put
                { rid = i; key = Printf.sprintf "reg%d" (i mod 8);
                  value = string_of_int i }
            else Proto.Cl_incr { rid = i; key = "hits"; delta = 1 }
          in
          Fconn.send conn payload;
          pump target
    end
  in
  let on_reply tgt payload =
    match payload with
    | Proto.Cl_reply { rid; ok; _ } ->
        (match Hashtbl.find_opt sent_at (tgt, rid) with
        | Some t0 ->
            Hashtbl.remove sent_at (tgt, rid);
            incr completed;
            Metrics.observe cm Metric.client_latency (Evloop.now loop -. t0);
            if not ok then Metrics.incr cm Metric.client_refused
        | None -> ());
        pump tgt
    | _ -> Metrics.incr cm Metric.client_unexpected
  in
  Array.iteri
    (fun tgt s ->
      conns.(tgt) <-
        Some
          (connect_client ~loop ~metrics:cm ~port:(Server.client_port s)
             ~on_payload:(fun _ p -> on_reply tgt p)))
    servers;
  let t0 = Evloop.now loop in
  pump 0;
  while !completed < total_ops && Evloop.now loop -. t0 < deadline_ms do
    Evloop.run_once loop ~max_wait:20.0;
    pump (!completed mod n)
  done;
  let elapsed = Evloop.now loop -. t0 in
  Evloop.run_for loop settle_ms;
  let dumps = Array.map (fun s -> Kv.dump (Server.kv s)) servers in
  let digests =
    Array.map (fun s -> Kv.order_digest (Server.kv s)) servers
  in
  Array.iteri
    (fun id d -> Printf.printf "  replica %d: %s\n" id d)
    dumps;
  let order_ok = Array.for_all (fun d -> d = digests.(0)) digests in
  Printf.printf "\n  %d/%d ops in %.0f ms (%.0f op/s), p50 %.1f ms, p99 %.1f ms\n"
    !completed total_ops elapsed
    (float_of_int !completed /. elapsed *. 1000.0)
    (Metrics.quantile cm "client.latency" 0.5)
    (Metrics.quantile cm "client.latency" 0.99);
  if !completed < total_ops || not order_ok then begin
    incr Bench_util.audit_failures;
    Printf.printf "\nAUDIT FAILURE [e10/loopback]: %s\n"
      (if not order_ok then "replica order digests diverge"
       else "load generator did not complete")
  end
  else
    Bench_util.conclude
      "identical total order on every replica over real TCP loopback";
  (* Client-observed percentiles as explicit gauges, so the perf report
     reads them without re-deriving quantiles from bucket arrays. *)
  let q p = Metrics.quantile cm "client.latency" p in
  Metrics.set_gauge cm Metric.client_latency_p50 (q 0.50);
  Metrics.set_gauge cm Metric.client_latency_p90 (q 0.90);
  Metrics.set_gauge cm Metric.client_latency_p99 (q 0.99);
  Metrics.set_gauge cm Metric.client_latency_max
    (Metrics.hist_max cm "client.latency");
  Bench_util.note_metrics ~experiment:"e10" ~cell:"loopback"
    (Metrics.merged (cm :: lm :: Array.to_list metrics));
  Array.iter Server.shutdown servers
