(* E3 — Section 4.3: responsiveness after a crash, as a function of the
   failure-detection timeout.

   A steady totally-ordered stream runs while the round-1 coordinator /
   sequencer crashes mid-run, under background delay jitter that makes small
   timeouts produce wrong suspicions.  For each timeout we report the post-crash
   recovery (time until the first message sent after the crash is delivered) and the number of
   wrongful exclusions.

   The paper's argument: in the new architecture the timeout can be small
   (a wrong suspicion costs a consensus round), so the recovery tracks the
   timeout down; the traditional architecture must keep the timeout large,
   because at small timeouts its wrong suspicions turn into exclusions and
   state-transfer rejoins. *)

open Bench_util

let n = 4
let crash_at = 3_000.0
let horizon = 9_000.0
let load_period = 20.0
let spike_rate = 1.0 (* per second *)
let spike_extra = 130.0
let spike_width = 250.0

let run_new ?(adaptive = false) ~timeout ~seed () =
  let config =
    Stack.Config.make ~runtime:Stack.Config.Sim ~consensus_timeout:timeout ~consensus_adaptive:adaptive
      ~exclusion_timeout:3_000.0 (* conservative, independent of [timeout] *) ()
  in
  let w = new_world ~config ~seed ~n () in
  drive_load w
    ~send:(fun s p -> if Stack.alive s then Stack.abcast s p)
    ~start:500.0 ~period:load_period
    ~count:(int_of_float ((horizon -. 1_000.0) /. load_period));
  inject_spikes w ~until:horizon ~rate:spike_rate ~extra:spike_extra
    ~width:spike_width ();
  ignore
    (Engine.schedule w.engine ~delay:crash_at (fun () ->
         Stack.crash w.stacks.(0)));
  Engine.run ~until:horizon w.engine;
  let recovery = recovery_after w 1 ~crash_at in
  let wrongful =
    Array.to_list w.stacks
    |> List.filter Stack.alive
    |> List.fold_left
         (fun acc s ->
           acc
           + Gc_monitoring.Monitoring.wrongful_exclusions_proposed
               (Stack.monitoring s))
         0
  in
  if seed = 301L then
    note_world_metrics ~experiment:"e3"
      ~cell:
        (Printf.sprintf "new%s-timeout%.0f"
           (if adaptive then "-adaptive" else "")
           timeout)
      w;
  (recovery, wrongful, delivered_count w 1)

let run_trad ~timeout ~seed =
  let config =
    { Tr.default_config with fd_timeout = timeout; state_transfer_delay = 100.0 }
  in
  let w = trad_world ~config ~seed ~n () in
  drive_load w
    ~send:(fun s p -> if Tr.alive s then Tr.abcast s p)
    ~start:500.0 ~period:load_period
    ~count:(int_of_float ((horizon -. 1_000.0) /. load_period));
  inject_spikes w ~until:horizon ~rate:spike_rate ~extra:spike_extra
    ~width:spike_width ();
  ignore
    (Engine.schedule w.engine ~delay:crash_at (fun () -> Tr.crash w.stacks.(0)));
  Engine.run ~until:horizon w.engine;
  let recovery = recovery_after w 1 ~crash_at in
  let wrongful =
    Array.to_list w.stacks
    |> List.filter Tr.alive
    |> List.fold_left (fun acc s -> acc + Tr.exclusions_suffered s) 0
  in
  if seed = 301L then
    note_world_metrics ~experiment:"e3"
      ~cell:(Printf.sprintf "trad-timeout%.0f" timeout)
      w;
  (recovery, wrongful, delivered_count w 1)

let avg3 f =
  let runs = List.map f [ 301L; 302L; 303L ] in
  let recovery =
    List.fold_left (fun a (b, _, _) -> a +. b) 0.0 runs /. 3.0
  in
  let wrongful = List.fold_left (fun a (_, x, _) -> a + x) 0 runs in
  let delivered =
    List.fold_left (fun a (_, _, d) -> a + d) 0 runs / 3
  in
  (recovery, wrongful, delivered)

let run () =
  section
    "E3  Post-crash responsiveness vs detection timeout (Section 4.3)"
    "decoupling suspicion from exclusion lets the new architecture run small \
     timeouts: blackout shrinks with the timeout while wrong suspicions stay \
     harmless; the traditional stack pays exclusions + rejoins at small \
     timeouts";
  let rows =
    List.map
      (fun timeout ->
        let nb, nw, nd = avg3 (fun seed -> run_new ~timeout ~seed ()) in
        let tb, tw, td = avg3 (fun seed -> run_trad ~timeout ~seed) in
        [
          Printf.sprintf "%.0f" timeout;
          fmt_f1 nb;
          fmt_int nw;
          fmt_int nd;
          fmt_f1 tb;
          fmt_int tw;
          fmt_int td;
        ])
      [ 50.0; 100.0; 200.0; 400.0; 800.0; 1600.0; 3200.0 ]
  in
  print_table
    ~header:
      [
        "timeout ms"; "new recovery ms"; "new wrongful excl";
        "new delivered"; "trad recovery ms"; "trad wrongful excl";
        "trad delivered";
      ]
    rows;
  (* Ablation: the adaptive consensus monitor self-tunes — no timeout knob
     at all. *)
  let ab, aw, ad =
    avg3 (fun seed -> run_new ~adaptive:true ~timeout:0.0 ~seed ())
  in
  Printf.printf
    "\n  ablation — new arch with ADAPTIVE consensus monitor (no timeout to \
     tune):\n  recovery %s ms, wrongful exclusions %d, delivered %d\n"
    (fmt_f1 ab) aw ad;
  conclude
    "the new architecture's recovery tracks the timeout down to tens of ms \
     with zero wrongful exclusions; the traditional stack suffers wrongful \
     exclusions at small timeouts (churn, state transfers) and so needs a \
     large timeout, i.e. slow recovery after real crashes."
