(* E5 — Section 4.4: sender blocking during view changes.

   Traditional view synchrony implements "sending view delivery": during a
   view change every member must stop sending until the flush completes
   (Ensemble's Sync layer).  The generic-broadcast-based membership gives
   "same view delivery" with no sender blocking.

   Workload: a steady totally-ordered stream while one member leaves and
   rejoins on a cycle.  We measure cumulative sender-blocked time and the
   latency distribution of messages sent during churn. *)

open Bench_util

let n = 4
let horizon = 20_000.0
let load_period = 10.0
let churner = n - 1

let load_count = int_of_float ((horizon -. 2_000.0) /. load_period)

let run_new ~churn_period ~seed =
  let config =
    Stack.Config.make ~runtime:Stack.Config.Sim ~state_transfer_delay:20.0 ()
  in
  let w = new_world ~config ~seed ~n () in
  drive_load w
    ~send:(fun s p -> if not (Stack.left s) then Stack.abcast s p)
    ~start:500.0 ~period:load_period ~count:load_count;
  (* Churn cycle: the churner leaves, then forces a rejoin. *)
  let rec cycle at =
    if at +. churn_period < horizon -. 2_000.0 then begin
      ignore
        (Engine.schedule w.engine ~delay:at (fun () ->
             Stack.remove w.stacks.(churner) churner));
      ignore
        (Engine.schedule w.engine
           ~delay:(at +. (churn_period /. 2.0))
           (fun () -> Stack.join ~force:true w.stacks.(churner) ~via:0));
      cycle (at +. churn_period)
    end
  in
  cycle 1_000.0;
  Engine.run ~until:horizon w.engine;
  let lat = latencies_of w 0 in
  note_world_metrics ~experiment:"e5"
    ~cell:(Printf.sprintf "new-churn%.0f" churn_period)
    w;
  ( delivered_count w 0,
    Sample.mean lat,
    Sample.percentile lat 95.0,
    Sample.max_value lat,
    0.0,
    Gc_membership.Group_membership.view_changes (Stack.membership w.stacks.(0)) )

let run_trad ~churn_period ~seed =
  let config =
    { Tr.default_config with state_transfer_delay = 20.0 }
  in
  let w = trad_world ~config ~seed ~n () in
  drive_load w
    ~send:(fun s p -> if Tr.is_member s then Tr.abcast s p)
    ~start:500.0 ~period:load_period ~count:load_count;
  let rec cycle at =
    if at +. churn_period < horizon -. 2_000.0 then begin
      ignore
        (Engine.schedule w.engine ~delay:at (fun () -> Tr.leave w.stacks.(churner)));
      ignore
        (Engine.schedule w.engine
           ~delay:(at +. (churn_period /. 2.0))
           (fun () -> Tr.join w.stacks.(churner) ~via:0));
      cycle (at +. churn_period)
    end
  in
  cycle 1_000.0;
  Engine.run ~until:horizon w.engine;
  let lat = latencies_of w 0 in
  let blocked =
    Array.fold_left (fun acc s -> acc +. Tr.blocked_time_total s) 0.0 w.stacks
  in
  note_world_metrics ~experiment:"e5"
    ~cell:(Printf.sprintf "trad-churn%.0f" churn_period)
    w;
  ( delivered_count w 0,
    Sample.mean lat,
    Sample.percentile lat 95.0,
    Sample.max_value lat,
    blocked,
    Tr.view_changes w.stacks.(0) )

let run () =
  section "E5  Sender blocking during view changes (Section 4.4)"
    "sending view delivery forces senders to block during the change; the \
     generic-broadcast solution delivers the same view everywhere without \
     blocking anybody";
  let rows =
    List.concat_map
      (fun churn_period ->
        let nd, nm, np, nmax, nb, nv = run_new ~churn_period ~seed:501L in
        let td, tm, tp, tmax, tb, tv = run_trad ~churn_period ~seed:501L in
        [
          [
            Printf.sprintf "%.0f ms" churn_period;
            "new";
            fmt_int nd;
            fmt_f1 nm;
            fmt_f1 np;
            fmt_f1 nmax;
            fmt_f1 nb;
            fmt_int nv;
          ];
          [
            "";
            "traditional";
            fmt_int td;
            fmt_f1 tm;
            fmt_f1 tp;
            fmt_f1 tmax;
            fmt_f1 tb;
            fmt_int tv;
          ];
        ])
      [ 5_000.0; 2_000.0; 1_000.0 ]
  in
  print_table
    ~header:
      [
        "churn cycle"; "arch"; "delivered"; "mean ms"; "p95 ms"; "max ms";
        "sender blocked ms"; "view changes";
      ]
    rows;
  conclude
    "the traditional stack accumulates sender-blocked time proportional to \
     the churn rate (every member pauses for each flush; with larger groups \
     or slower state the pauses stretch); the new stack never blocks \
     senders — view changes are just messages in the total order."
