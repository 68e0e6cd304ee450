(** Typed lifecycle events for the causal flight recorder.

    Every protocol layer emits events drawn from this shared vocabulary
    instead of ad-hoc strings; each event carries the emitting node's
    Lamport clock and, when it concerns a particular message, a stable
    message id (e.g. ["ab:0.3"] for atomic-broadcast message 3 of origin
    0).  The auditor ({!Audit}) replays lists of these events to check
    the paper's ordering properties. *)

type kind =
  | Send  (** a message enters the layer at its origin *)
  | Recv  (** a datagram arrives at a node (network layer) *)
  | Propose  (** a value is proposed (consensus, cut proposal) *)
  | Decide  (** a consensus instance decides *)
  | Deliver  (** a message is delivered to the layer above *)
  | ViewInstall  (** a membership view is installed *)
  | Suspect  (** a failure detector starts suspecting a peer *)
  | Trust  (** a failure detector stops suspecting a peer *)
  | Exclude  (** a process is excluded from the group *)
  | Crash  (** a process crashes (environment event) *)
  | Custom of string  (** layer-specific event outside the vocabulary *)

type t = {
  time : float;  (** virtual time of the event *)
  node : int;  (** emitting process, [-1] for the environment *)
  lamport : int;  (** Lamport clock of the emitting node at the event *)
  component : string;  (** e.g. "consensus", "gbcast" *)
  kind : kind;
  msg : string option;  (** stable message id, when the event concerns one *)
  attrs : (string * string) list;  (** structured attributes *)
}

val kind_to_string : kind -> string
(** Canonical lowercase tag: ["send"], ["view_install"], ... ; [Custom s]
    maps to [s] itself. *)

val kind_of_string : string -> kind
(** Total inverse of {!kind_to_string}: unknown tags become [Custom]. *)

val attr : t -> string -> string option
(** [attr e k] is the value of attribute [k], if present. *)

val detail : t -> string
(** Attributes rendered as ["k=v k=v ..."]. *)

val pp : Format.formatter -> t -> unit

(** {1 JSONL serialisation}

    One event per line, compact JSON.  Field names are short on purpose
    — a recorded run easily holds 10^5 events. *)

val to_json : t -> Json.t

val of_json : Json.t -> t
(** @raise Failure on a JSON value not produced by {!to_json}. *)

val write_jsonl : out_channel -> t list -> unit

val save_jsonl : string -> t list -> unit

val load_jsonl : string -> t list
(** Blank lines are skipped.  @raise Failure on a malformed line. *)

(** {1 Chrome trace_event export} *)

val to_chrome : t list -> Json.t
(** The events as a Chrome [trace_event] JSON document (instant events,
    one thread per node, plus flow arrows connecting [Send] to [Deliver]
    for events carrying a message id) — loadable in chrome://tracing or
    https://ui.perfetto.dev. *)
