(** Deterministic, splittable pseudo-random number generator.

    The simulator must be reproducible: every run with the same seed makes
    exactly the same random choices.  This module implements the splitmix64
    generator, which is fast, has a 64-bit state, and supports {e splitting}:
    deriving an independent stream from a parent stream.  Splitting lets each
    simulated component own its own stream, so adding random choices to one
    component does not perturb the choices seen by another. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of the
    subsequent outputs of [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state; both generators then produce the
    same stream. *)

val derive : int64 -> string -> int64
(** [derive seed label] is a sub-seed deterministically derived from
    [seed] and [label]; distinct labels give unrelated streams.  Lets one
    recorded seed (e.g. a fault script's) drive several independent
    concerns — the simulation engine, the fault generator, the workload —
    without their draws perturbing each other. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal: [exp] of a Gaussian with parameters [mu], [sigma]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a list -> 'a
(** Uniformly chosen element.  Raises [Invalid_argument] on the empty
    list. *)
