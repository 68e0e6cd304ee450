(* Planted B1 violations: a read callback reaches [Unix.sleep] through two
   ordinary calls, and a callback deferred to the end of the tick reaches
   [Unix.sleepf].  The unit never calls [Unix.set_nonblock], and both are
   hard blockers anyway — the loop would stall. *)

module Evloop = Gc_runtime_unix.Evloop

let slow_step () = Unix.sleep 1
let helper () = slow_step ()
let slow_flush () = Unix.sleepf 0.5

let _install loop fd =
  Evloop.set_read loop fd (Some (fun () -> helper ()))

let _defer loop = Evloop.defer loop (fun () -> slow_flush ())
