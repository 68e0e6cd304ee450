(* Planted E2 violations at string-literal read sites: a name that is not
   declared in Gc_obs.Metric (a typo reads a metric that never exists) and
   a declared counter read through a histogram API (kind mismatch).  The
   matching read stays silent. *)

module Metrics = Gc_obs.Metrics

let _read m =
  ignore (Metrics.counter m "fixture.not_declared");
  ignore (Metrics.quantile m "abcast.delivered" 0.5);
  ignore (Metrics.counter m "abcast.delivered")
