(* E1 — Section 4.1 / Figures 1-9: "the ordering problem is solved once".

   Part A is the structural audit: which components of each architecture
   implement an ordering protocol.  Part B runs identical failure-free
   workloads on both stacks and counts protocol messages — per totally
   ordered broadcast and per view change — for several group sizes. *)

open Bench_util

let structural_audit () =
  print_endline "A. Where is ordering implemented? (structural audit)";
  print_endline "";
  print_table
    ~header:
      [ "architecture"; "ordering protocol"; "component"; "orders what" ]
    [
      [ "traditional (GM-VS)"; "1. view agreement"; "membership"; "views" ];
      [ ""; "2. flush/cut"; "view synchrony"; "messages vs views" ];
      [ ""; "3. sequencer"; "atomic broadcast"; "application messages" ];
      [ "totem (ring)"; "1. ring agreement"; "membership+recovery"; "views, refills" ];
      [ ""; "2. token sequencing"; "atomic broadcast"; "application messages" ];
      [ "new (AB-GB)"; "1. consensus batches"; "atomic broadcast"; "everything:" ];
      [ ""; ""; ""; "messages, views, cuts" ];
    ];
  print_endline "";
  print_endline
    "  (in this repository: lib/traditional implements all three traditional\n\
    \   protocols; in lib/core the single ordering engine is lib/consensus,\n\
    \   reused by lib/abcast for messages, lib/membership for views and\n\
    \   lib/gbcast for conflict cuts)";
  print_endline ""

let messages_per_abcast () =
  print_endline "B. Protocol messages per totally-ordered broadcast (failure-free)";
  print_endline "";
  let count = 50 in
  let row n =
    let new_msgs =
      let w = new_world ~seed:101L ~n () in
      (* Let heartbeats reach steady state before measuring. *)
      Engine.run ~until:500.0 w.engine;
      Netsim.reset_counters w.net;
      drive_load w
        ~send:(fun s p -> Stack.abcast s p)
        ~start:0.0 ~period:20.0 ~count;
      Engine.run ~until:(500.0 +. (float_of_int count *. 20.0) +. 1_000.0)
        w.engine;
      note_world_metrics ~experiment:"e1" ~cell:(Printf.sprintf "new-n%d" n) w;
      Netsim.messages_sent w.net
    in
    let trad_msgs =
      let w = trad_world ~seed:101L ~n () in
      Engine.run ~until:500.0 w.engine;
      Netsim.reset_counters w.net;
      drive_load w ~send:(fun s p -> Tr.abcast s p) ~start:0.0 ~period:20.0
        ~count;
      Engine.run ~until:(500.0 +. (float_of_int count *. 20.0) +. 1_000.0)
        w.engine;
      note_world_metrics ~experiment:"e1" ~cell:(Printf.sprintf "trad-n%d" n) w;
      Netsim.messages_sent w.net
    in
    (* Heartbeat background over the same horizon, to subtract. *)
    let hb_background stacks_kind =
      let horizon = (float_of_int count *. 20.0) +. 1_000.0 in
      let msgs =
        match stacks_kind with
        | `New ->
            let w = new_world ~seed:101L ~n () in
            Engine.run ~until:500.0 w.engine;
            Netsim.reset_counters w.net;
            Engine.run ~until:(500.0 +. horizon) w.engine;
            Netsim.messages_sent w.net
        | `Trad ->
            let w = trad_world ~seed:101L ~n () in
            Engine.run ~until:500.0 w.engine;
            Netsim.reset_counters w.net;
            Engine.run ~until:(500.0 +. horizon) w.engine;
            Netsim.messages_sent w.net
      in
      msgs
    in
    let totem_msgs =
      let w = totem_world ~seed:101L ~n () in
      Engine.run ~until:500.0 w.engine;
      Netsim.reset_counters w.net;
      drive_load w ~send:(fun s p -> Tt.abcast s p) ~start:0.0 ~period:20.0
        ~count;
      Engine.run ~until:(500.0 +. (float_of_int count *. 20.0) +. 1_000.0)
        w.engine;
      Netsim.messages_sent w.net
    in
    let totem_background () =
      (* Heartbeats plus idle token rotation. *)
      let w = totem_world ~seed:101L ~n () in
      Engine.run ~until:500.0 w.engine;
      Netsim.reset_counters w.net;
      Engine.run
        ~until:(500.0 +. (float_of_int count *. 20.0) +. 1_000.0)
        w.engine;
      Netsim.messages_sent w.net
    in
    let per_cast total background =
      float_of_int (total - background) /. float_of_int count
    in
    [
      fmt_int n;
      fmt_f1 (per_cast new_msgs (hb_background `New));
      fmt_f1 (per_cast trad_msgs (hb_background `Trad));
      fmt_f1 (per_cast totem_msgs (totem_background ()));
    ]
  in
  print_table
    ~header:
      [
        "n"; "new arch msgs/abcast"; "traditional msgs/abcast";
        "totem ring msgs/abcast";
      ]
    (List.map row [ 3; 5; 7 ]);
  print_endline ""

let messages_per_view_change () =
  print_endline "C. Protocol messages per view change (remove one member)";
  print_endline
    "   (same world: idle window vs change window, slow heartbeats to keep\n\
    \    the background small)";
  print_endline "";
  let window = 800.0 in
  let row n =
    let measure ~idle_then_change =
      let idle, change = idle_then_change () in
      change - idle
    in
    let new_diff =
      measure ~idle_then_change:(fun () ->
          let config = Stack.Config.make ~runtime:Stack.Config.Sim ~hb_period:250.0 () in
          let w = new_world ~config ~seed:103L ~n () in
          Engine.run ~until:1_000.0 w.engine;
          Netsim.reset_counters w.net;
          Engine.run ~until:(1_000.0 +. window) w.engine;
          let idle = Netsim.messages_sent w.net in
          Netsim.reset_counters w.net;
          Stack.remove w.stacks.(0) (n - 1);
          Engine.run ~until:(1_000.0 +. (2.0 *. window)) w.engine;
          (idle, Netsim.messages_sent w.net))
    in
    let trad_diff =
      measure ~idle_then_change:(fun () ->
          let config = { Tr.default_config with hb_period = 250.0 } in
          let w = trad_world ~config ~seed:103L ~n () in
          Engine.run ~until:1_000.0 w.engine;
          Netsim.reset_counters w.net;
          Engine.run ~until:(1_000.0 +. window) w.engine;
          let idle = Netsim.messages_sent w.net in
          Netsim.reset_counters w.net;
          Tr.leave w.stacks.(n - 1);
          Engine.run ~until:(1_000.0 +. (2.0 *. window)) w.engine;
          (idle, Netsim.messages_sent w.net))
    in
    [ fmt_int n; fmt_int new_diff; fmt_int trad_diff ]
  in
  print_table
    ~header:[ "n"; "new arch msgs/view change"; "traditional msgs/view change" ]
    (List.map row [ 3; 5; 7 ]);
  print_endline ""

let run () =
  section "E1  Architectural complexity (Section 4.1, Figures 1-9)"
    "ordering is solved once (consensus) instead of three times; the \
     redundancy costs protocol machinery, not necessarily messages";
  structural_audit ();
  messages_per_abcast ();
  messages_per_view_change ();
  conclude
    "one ordering engine (consensus) serves messages, views and cuts in the \
     new architecture; the traditional stack runs three ordering protocols \
     (and its sequencer is message-cheaper failure-free, as expected)."
