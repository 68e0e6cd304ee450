(** Immutable captures of a {!Metrics} registry — the unit of the live
    telemetry plane.

    A running daemon answers a [Stats] request with one snapshot; a
    monitoring client ([gcs_top], the CI scrape) subtracts consecutive
    snapshots with {!delta} to get per-window rates and latency
    distributions; the [--telemetry-interval] time-series file is one
    snapshot per JSONL line.

    Two exposition formats are supported: the registry's compact JSON
    (bit-compatible with {!Metrics.to_json}, so one reader parses
    snapshots, [BENCH_metrics.json] cells and [Stats] replies) and
    Prometheus text exposition ({!to_prometheus}). *)

type t
(** A frozen, sorted capture.  Capturing is O(registry) and the result
    never changes as recording continues. *)

val of_metrics : Metrics.t -> t

(** {1 Reading} *)

val names : t -> string list
val find : t -> string -> Metrics.view option

val counter : t -> string -> int
(** 0 when absent. *)

val gauge : t -> string -> float
(** 0.0 when absent. *)

val hist : t -> string -> Metrics.hist_view option
val hist_count : t -> string -> int

val quantile : t -> string -> float -> float
(** [quantile s name 0.99] — [nan] when absent or empty; same estimator
    and clamping as the live registry. *)

val quantile_of_view : Metrics.hist_view -> float -> float

val hist_max : t -> string -> float
val hist_mean : t -> string -> float

(** {1 Delta} *)

val delta : before:t -> after:t -> t
(** The window between two captures of the same registry: counters and
    histogram buckets subtract, gauges keep the [after] reading.  A
    counter or histogram that {e decreased} means the source restarted
    between captures; the [after] value then stands alone (the Prometheus
    counter-reset convention).  A delta histogram's min/max are bounded
    by the edges of the window's occupied buckets (the exact extremes of
    just the window are unknowable from cumulative captures). *)

(** {1 Exposition} *)

val to_json : ?include_zeros:bool -> t -> Json.t
(** Same shape and defaults as {!Metrics.to_json}. *)

val of_json : Json.t -> t
(** Inverse of {!to_json}.
    @raise Invalid_argument when the value is not an object. *)

val to_prometheus :
  ?namespace:string -> ?labels:(string * string) list -> t -> string
(** Prometheus text exposition: [# TYPE] comments, dotted metric names
    mapped to [namespace_layer_metric] (default namespace ["gcs"]),
    histograms as cumulative [_bucket{le="..."}] series plus [_sum] and
    [_count].  [labels] are attached to every sample; label values are
    escaped per the exposition format (backslash, double quote,
    newline). *)

val pp : Format.formatter -> t -> unit
(** Human-readable table, one metric per line (same as {!Metrics.pp}). *)
