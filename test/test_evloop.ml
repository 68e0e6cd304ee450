(* The select loop's wakeup order: watched descriptors are polled and
   dispatched in ascending fd order, whatever order they were registered
   in.  Hashtbl iteration order depends on insertion history, so before
   the sort a run's callback interleaving was an accident of connection
   arrival order — this pins the deterministic order down. *)

module Evloop = Gc_runtime_unix.Evloop
open Support

let with_pipes n f =
  let pipes = List.init n (fun _ -> Unix.pipe ()) in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (r, w) ->
          (try Unix.close r with Unix.Unix_error _ -> ());
          try Unix.close w with Unix.Unix_error _ -> ())
        pipes)
    (fun () -> f pipes)

let test_watched_sorted () =
  with_pipes 5 (fun pipes ->
      let loop = Evloop.create () in
      (* register in reverse order: the loop must not care *)
      List.iter
        (fun (r, _) -> Evloop.set_read loop r (Some ignore))
        (List.rev pipes);
      let fds = Evloop.watched_fds loop in
      Alcotest.(check int) "all watched" 5 (List.length fds);
      Alcotest.(check bool) "ascending fd order" true
        (fds = List.sort compare fds);
      List.iter (fun (r, _) -> Evloop.forget loop r) pipes;
      Alcotest.(check int) "forget empties" 0
        (List.length (Evloop.watched_fds loop)))

let test_dispatch_order () =
  with_pipes 6 (fun pipes ->
      let loop = Evloop.create () in
      let fired = ref [] in
      (* scrambled registration: middle, last, first, ... *)
      let scrambled =
        match pipes with
        | [ a; b; c; d; e; f ] -> [ d; f; a; e; b; c ]
        | _ -> assert false
      in
      List.iter
        (fun (r, _) ->
          Evloop.set_read loop r (Some (fun () -> fired := r :: !fired)))
        scrambled;
      (* make every descriptor ready before the tick *)
      List.iter
        (fun (_, w) -> ignore (Unix.write w (Bytes.of_string "x") 0 1))
        pipes;
      Evloop.run_once loop ~max_wait:0.0;
      let order = List.rev !fired in
      Alcotest.(check int) "every callback fired" 6 (List.length order);
      Alcotest.(check bool) "fired in ascending fd order" true
        (order = List.sort compare order))

module Fconn = Gc_runtime_unix.Fconn
module Proto = Gc_server.Proto

(* The flush-path teardown regression: kill the peer between two partial
   writes.  The first write fills the (shrunk) socket buffer and parks the
   rest behind a write callback; the peer then dies; the retry hits
   EPIPE/ECONNRESET.  The connection must tear down exactly once — one
   [on_close], watcher gone (no stale write callback left to fire against
   a recycled fd), out buffer released — and a later explicit [close] must
   be a no-op. *)
let test_peer_death_between_partial_writes () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096
   with Unix.Unix_error _ -> ());
  let loop = Evloop.create () in
  let closes = ref 0 in
  let conn =
    Fconn.attach ~loop a
      ~on_payload:(fun _ _ -> ())
      ~on_close:(fun _ -> incr closes)
  in
  (* Bigger than any plausible socket buffer, smaller than out_cap: the
     send leaves a flushed prefix and a parked suffix. *)
  let big = String.make 200_000 'x' in
  Fconn.send conn (Proto.Cl_put { rid = 1; key = "k"; value = big });
  Alcotest.(check bool) "partial write does not close" false (Fconn.closed conn);
  Unix.close b;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Fconn.closed conn)) && Unix.gettimeofday () < deadline do
    Evloop.run_once loop ~max_wait:20.0
  done;
  Alcotest.(check bool) "dead peer detected" true (Fconn.closed conn);
  Alcotest.(check int) "on_close fired exactly once" 1 !closes;
  Alcotest.(check int) "watcher torn down" 0
    (List.length (Evloop.watched_fds loop));
  (* sending and closing after death are no-ops, not double teardowns *)
  Fconn.send conn (Proto.Cl_put { rid = 2; key = "k"; value = "v" });
  Fconn.close conn;
  Alcotest.(check int) "close is idempotent" 1 !closes

module Frame = Gc_net.Frame
module Metrics = Gc_obs.Metrics

let put rid value = Proto.Cl_put { rid; key = "k"; value }

let frame_len p =
  match Frame.encode p with
  | Ok f -> String.length f
  | Error e -> Alcotest.failf "frame encode: %s" (Frame.error_to_string e)

(* Decode [n] frames off a blocking socket the test owns. *)
let read_frames sock n =
  let d = Frame.Decoder.create () in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match Frame.Decoder.next d with
      | `Payload p -> go (p :: acc) (k - 1)
      | `Corrupt e -> Alcotest.failf "corrupt frame: %s" (Frame.error_to_string e)
      | `Await ->
          if Frame.Decoder.read_from d (Unix.read sock) = 0 then
            Alcotest.fail "peer hung up early";
          go acc k
  in
  go [] n

(* Sends made inside a tick are held for the loop's end-of-tick step and
   leave together; a send made outside any tick is written at once. *)
let test_tick_coalesces_writes () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let loop = Evloop.create () in
      let conn =
        Fconn.attach ~loop a ~on_payload:(fun _ _ -> ()) ~on_close:ignore
      in
      let n = 20 in
      let payloads = List.init n (fun rid -> put rid (String.make rid 'v')) in
      let in_tick_out = ref (-1) in
      ignore
        (Evloop.schedule loop ~delay:0.0 (fun () ->
             List.iter (Fconn.send conn) payloads;
             in_tick_out := (Fconn.stats conn).bytes_out));
      Evloop.run_once loop ~max_wait:0.0;
      check_int "nothing written inside the tick" 0 !in_tick_out;
      let total = List.fold_left (fun acc p -> acc + frame_len p) 0 payloads in
      check_int "all frames written by the end of the tick" total
        (Fconn.stats conn).bytes_out;
      let rids =
        List.map
          (function Proto.Cl_put { rid; _ } -> rid | _ -> -1)
          (read_frames b n)
      in
      check_list_int "peer decodes every frame in order" (List.init n Fun.id)
        rids;
      let p = put n "outside" in
      Fconn.send conn p;
      check_int "a send outside any tick is written at once"
        (total + frame_len p) (Fconn.stats conn).bytes_out;
      Fconn.close conn)

type Gc_net.Payload.t += Unregistered

(* Both silent drops count as [net.tx_drop]: a send past the out-buffer
   cap while the peer reads nothing, and a payload no codec claims.
   Neither closes the connection. *)
let test_send_drops_counted () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096
       with Unix.Unix_error _ -> ());
      let loop = Evloop.create () in
      let m = Metrics.create () in
      let conn =
        Fconn.attach ~loop ~metrics:m a
          ~on_payload:(fun _ _ -> ())
          ~on_close:ignore
      in
      Fconn.send conn Unregistered;
      check_int "unencodable payload counted" 1
        (Metrics.counter m "net.tx_drop");
      let value = String.make 16_384 'x' in
      for rid = 1 to 64 do
        Fconn.send conn (put rid value)
      done;
      check_bool "sends past the cap counted" true
        (Metrics.counter m "net.tx_drop" > 1);
      check_bool "connection still open" false (Fconn.closed conn);
      Fconn.close conn)

let suite =
  [
    ( "evloop",
      [
        Alcotest.test_case "watched_fds is sorted" `Quick test_watched_sorted;
        Alcotest.test_case "ready callbacks dispatch in fd order" `Quick
          test_dispatch_order;
        Alcotest.test_case "peer death between partial writes" `Quick
          test_peer_death_between_partial_writes;
        Alcotest.test_case "a tick's sends leave at its end" `Quick
          test_tick_coalesces_writes;
        Alcotest.test_case "dropped sends count as net.tx_drop" `Quick
          test_send_drops_counted;
      ] );
  ]
