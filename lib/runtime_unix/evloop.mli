(** Single-threaded [Unix.select] event loop: the real-time counterpart of
    the discrete-event {!Gc_sim.Engine}.

    Owns a wall-clock timer heap and a registry of watched file
    descriptors.  One loop drives everything in a process — every
    {!Runtime_unix} node, every framed client connection — so protocol
    code keeps the single-threaded execution model it has under the
    simulator.  Times are milliseconds since {!create}. *)

type t

val create : ?metrics:Gc_obs.Metrics.t -> unit -> t
(** With [metrics], the loop profiles itself into the registry: per-tick
    histograms [evloop.tick_ms] (whole iteration),
    [evloop.select_wait_ms] (blocked in [select]) and
    [evloop.callback_ms] (dispatching descriptor callbacks, timers and
    deferred callbacks);
    per-timer [evloop.timer_lag_ms] (firing time minus deadline) with
    counter [evloop.timer_overdue] for lags over 5 ms; counter
    [evloop.ticks] and gauge [evloop.open_fds] (watched descriptors).
    Without it the loop records nothing. *)

val now : t -> float
(** Milliseconds of wall-clock time since the loop was created. *)

val schedule : t -> delay:float -> (unit -> unit) -> Gc_kernel.Runtime.timer
(** Run the callback [delay] ms from now (never before). *)

val set_read : t -> Unix.file_descr -> (unit -> unit) option -> unit
(** Install ([Some]) or remove ([None]) the readable-callback for a
    descriptor. *)

val set_write : t -> Unix.file_descr -> (unit -> unit) option -> unit
(** Install or remove the writable-callback. *)

val forget : t -> Unix.file_descr -> unit
(** Drop both callbacks (before closing the descriptor). *)

val defer : t -> (unit -> unit) -> unit
(** Inside a {!run_once} tick, run the callback at the end of that tick,
    after every descriptor callback and due timer, in the order deferred.
    Outside a tick, run it at once.  {!Fconn} defers its writes this way,
    so a connection written to several times in one tick costs one
    [write(2)]. *)

val watched_fds : t -> Unix.file_descr list
(** The currently watched descriptors in ascending fd order — the order
    {!run_once} polls and dispatches them in, independent of registration
    history. *)

val run_once : t -> max_wait:float -> unit
(** One iteration (a tick): wait up to [max_wait] ms (bounded by the next
    timer deadline) for descriptor activity, dispatch ready callbacks,
    fire due timers, then run the callbacks {!defer}red during the tick
    (including any they defer in turn).  The deferred step is part of the
    tick's [evloop.callback_ms]. *)

val run_for : t -> float -> unit
(** Iterate for the given number of milliseconds (tests, demos). *)

val stop : t -> unit
(** Make {!run} return after the current iteration. *)

val run : t -> unit
(** Iterate until {!stop}. *)
