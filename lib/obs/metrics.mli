(** Per-node registry of named counters, gauges and log-bucketed latency
    histograms.

    The registry is designed to be left on in every run: recording a
    counter is one table lookup and one integer increment, recording a
    histogram sample is one lookup, one array bump and four scalar
    updates.  Recorders take the typed names declared in {!Metric}; the
    registry keys entries by their flat dotted string
    ([layer.metric], e.g. ["consensus.instances_decided"]), which is also
    what the readers below take.  Entries are created lazily on first
    record, so a metric that never fired is absent.

    Histograms use 4 log-spaced buckets per octave starting at 0.001 ms
    (128 buckets total), giving quantile estimates within ~19% relative
    error over the whole simulated-latency range; exact min/max/sum/count
    are kept alongside and quantiles are clamped to the observed extremes.

    A metric name denotes one kind for the lifetime of the registry —
    recording into an entry rebuilt as a different kind (by {!of_views}
    or {!of_json}) raises [Invalid_argument]. *)

type t

val create : unit -> t

(** {1 Recording} *)

val incr : ?by:int -> t -> Metric.counter Metric.t -> unit
(** Bump a counter (created at 0 on first use). *)

val set_gauge : t -> Metric.gauge Metric.t -> float -> unit
(** Set a gauge to its latest reading. *)

val observe : t -> Metric.histogram Metric.t -> float -> unit
(** Record one histogram sample (unit: whatever the metric's name says,
    milliseconds for the built-in [*_ms] metrics). *)

(** {1 Reading} *)

val counter : t -> string -> int
(** 0 when absent. *)

val gauge : t -> string -> float
(** 0.0 when absent. *)

val hist_count : t -> string -> int

val quantile : t -> string -> float -> float
(** [quantile t name 0.99] — [nan] when the histogram is absent or empty. *)

val hist_max : t -> string -> float
val hist_mean : t -> string -> float

val names : t -> string list
(** All registered metric names, sorted. *)

(** {1 Frozen views}

    An immutable copy of one entry, cheap to capture and safe to hold
    across further recording.  {!Snapshot} builds its whole API on these;
    they are exposed here because only this module sees the registry's
    internals. *)

type hist_view = {
  hv_count : int;
  hv_sum : float;
  hv_min : float;  (** [infinity] when empty *)
  hv_max : float;  (** [neg_infinity] when empty *)
  hv_buckets : (int * int) list;
      (** sparse [(bucket index, count)], ascending, non-empty buckets
          only *)
}

type view = V_counter of int | V_gauge of float | V_hist of hist_view

val view : t -> string -> view option
val views : t -> (string * view) list
(** All entries as frozen views, sorted by name. *)

val of_views : (string * view) list -> t
(** Rebuild a registry from frozen views (inverse of {!views}). *)

val n_buckets : int
(** Number of histogram buckets (shared by every histogram). *)

val bucket_upper : int -> float
(** Upper edge of bucket [i] — the representative value quantile
    estimation reports for samples in that bucket. *)

(** {1 Merging}

    Cross-node aggregation: counters and histogram buckets add, gauges
    keep the maximum (the interesting cross-node reading for e.g. blocked
    time). *)

val merged : t list -> t

(** {1 Serialisation} *)

val to_json : ?include_zeros:bool -> t -> Json.t
(** Self-describing object: each entry carries its ["type"], counters and
    gauges their ["value"], histograms count/sum/min/max, derived
    p50/p90/p95/p99, and sparse non-empty buckets.  Zero counters and
    empty histograms are omitted unless [include_zeros] (default false)
    — pass [true] when diffing dumps across runs or replicas, where a
    metric that never fired must stay distinguishable from one that was
    never registered. *)

val of_json : Json.t -> t
(** Inverse of {!to_json} (derived quantiles are recomputed from buckets).
    @raise Invalid_argument when the value is not an object. *)

val pp : Format.formatter -> t -> unit
(** Human-readable table, one metric per line. *)
