(* E7 — Failure-free characterisation of both stacks as the group grows.

   Not a paper table per se, but the background the architectural claims sit
   on: the consensus-based atomic broadcast pays more messages than a fixed
   sequencer in the failure-free case — the price of not depending on the
   membership.  Crossover appears as soon as failures or churn enter
   (E3/E4/E5). *)

open Bench_util

let count = 40
let period = 25.0

let run_cell ~kind ~n ~seed =
  match kind with
  | `Totem ->
      let w = totem_world ~seed ~n () in
      Engine.run ~until:500.0 w.engine;
      Netsim.reset_counters w.net;
      drive_load w ~send:(fun s p -> Tt.abcast s p) ~start:0.0 ~period ~count;
      Engine.run
        ~until:(500.0 +. (float_of_int count *. period) +. 1_500.0)
        w.engine;
      let lat = latencies_of w (n - 1) in
      note_world_metrics ~experiment:"e7" ~cell:(Printf.sprintf "totem-n%d" n) w;
      (Sample.mean lat, Sample.percentile lat 95.0, Netsim.messages_sent w.net)
  | `New ->
      let w = new_world ~seed ~n () in
      Engine.run ~until:500.0 w.engine;
      Netsim.reset_counters w.net;
      drive_load w
        ~send:(fun s p -> Stack.abcast s p)
        ~start:0.0 ~period ~count;
      Engine.run
        ~until:(500.0 +. (float_of_int count *. period) +. 1_500.0)
        w.engine;
      let lat = latencies_of w (n - 1) in
      note_world_metrics ~experiment:"e7" ~cell:(Printf.sprintf "new-n%d" n) w;
      (Sample.mean lat, Sample.percentile lat 95.0, Netsim.messages_sent w.net)
  | `Trad ->
      let w = trad_world ~seed ~n () in
      Engine.run ~until:500.0 w.engine;
      Netsim.reset_counters w.net;
      drive_load w ~send:(fun s p -> Tr.abcast s p) ~start:0.0 ~period ~count;
      Engine.run
        ~until:(500.0 +. (float_of_int count *. period) +. 1_500.0)
        w.engine;
      let lat = latencies_of w (n - 1) in
      note_world_metrics ~experiment:"e7" ~cell:(Printf.sprintf "trad-n%d" n) w;
      (Sample.mean lat, Sample.percentile lat 95.0, Netsim.messages_sent w.net)

let run () =
  section "E7  Failure-free scalability of both stacks"
    "(context for Sections 4.1/4.3) the new architecture trades failure-free \
     message economy for membership-independence; who wins failure-free and \
     by how much should be visible";
  let rows =
    List.map
      (fun n ->
        let nm, np, nmsg = run_cell ~kind:`New ~n ~seed:701L in
        let tm, tp, tmsg = run_cell ~kind:`Trad ~n ~seed:701L in
        let om, op, omsg = run_cell ~kind:`Totem ~n ~seed:701L in
        [
          fmt_int n;
          fmt_f1 nm;
          fmt_f1 np;
          fmt_f1 (float_of_int nmsg /. float_of_int count);
          fmt_f1 tm;
          fmt_f1 tp;
          fmt_f1 (float_of_int tmsg /. float_of_int count);
          fmt_f1 om;
          fmt_f1 op;
          fmt_f1 (float_of_int omsg /. float_of_int count);
        ])
      [ 3; 5; 7; 9; 11 ]
  in
  print_table
    ~header:
      [
        "n"; "new mean ms"; "new p95 ms"; "new msgs/cast";
        "trad mean ms"; "trad p95 ms"; "trad msgs/cast";
        "totem mean ms"; "totem p95 ms"; "totem msgs/cast";
      ]
    rows;
  conclude
    "failure-free, the sequencer-based traditional stack is leaner (as the \
     paper concedes); the new stack's consensus batches keep latency flat \
     but cost more messages — the premium it pays to stay responsive under \
     failures (E3/E4)."
