(* Every metric name the repository records, declared once with its kind.

   The recorders ([Metrics.incr], [Metrics.set_gauge], [Metrics.observe]
   and their [Gc_kernel.Process] forwarders) take these typed names, so a
   misspelt name or a counter recorded as a histogram does not compile.
   Rule E2 of gcs_lint checks [all ()] against the DESIGN.md section 8
   table, and checks every string-literal read ([Metrics.counter m "..."])
   against it. *)

type kind = Counter | Gauge | Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

module Name : sig
  type counter
  type gauge
  type histogram

  type 'k t
  (** A declared metric name whose kind is ['k]. *)

  val name : _ t -> string

  val counter : string -> counter t
  val gauge : string -> gauge t
  val histogram : string -> histogram t
  (** Declare a name.  @raise Invalid_argument when it is already declared. *)

  val all : unit -> (string * kind) list
  (** Every declaration, in declaration order. *)
end = struct
  type counter
  type gauge
  type histogram
  type 'k t = string

  let name n = n
  let declared = ref []

  let declare kind name =
    if List.mem_assoc name !declared then
      invalid_arg ("Metric: " ^ name ^ " is declared twice");
    declared := (name, kind) :: !declared;
    name

  let counter = declare Counter
  let gauge = declare Gauge
  let histogram = declare Histogram
  let all () = List.rev !declared
end

include Name

(* consensus *)
let consensus_instances_started = counter "consensus.instances_started"
let consensus_instances_decided = counter "consensus.instances_decided"
let consensus_rounds = histogram "consensus.rounds"
let consensus_coordinator_suspicions = counter "consensus.coordinator_suspicions"

(* abcast *)
let abcast_submitted = counter "abcast.submitted"
let abcast_proposals = counter "abcast.proposals"
let abcast_batch_size = histogram "abcast.batch_size"
let abcast_delivered = counter "abcast.delivered"
let abcast_latency_ms = histogram "abcast.latency_ms"
let abcast_pending_size = gauge "abcast.pending_size"
let abcast_submit_batch_size = histogram "abcast.submit_batch_size"

(* gbcast *)
let gbcast_submitted = counter "gbcast.submitted"
let gbcast_fast_deliveries = counter "gbcast.fast_deliveries"
let gbcast_cut_deliveries = counter "gbcast.cut_deliveries"
let gbcast_delivered = counter "gbcast.delivered"
let gbcast_latency_ms = histogram "gbcast.latency_ms"
let gbcast_freezes = counter "gbcast.freezes"
let gbcast_cuts_proposed = counter "gbcast.cuts_proposed"
let gbcast_check_ms = histogram "gbcast.check_ms"
let gbcast_batch_size = histogram "gbcast.batch_size"
let gbcast_ack_batch_size = histogram "gbcast.ack_batch_size"
let gbcast_conflict_class_occupancy = gauge "gbcast.conflict_class_occupancy"

(* rbcast / rchannel *)
let rbcast_broadcasts = counter "rbcast.broadcasts"
let rbcast_delivered = counter "rbcast.delivered"
let rchannel_sends = counter "rchannel.sends"
let rchannel_retransmissions = counter "rchannel.retransmissions"
let rchannel_retransmit_burst = histogram "rchannel.retransmit_burst"
let rchannel_stale_gen_ignored = counter "rchannel.stale_gen_ignored"
let rchannel_window_occupancy = gauge "rchannel.window_occupancy"
let rchannel_window_peak = gauge "rchannel.window_peak"
let rchannel_stuck_detections = counter "rchannel.stuck_detections"
let rchannel_stream_resets = counter "rchannel.stream_resets"

(* failure detection / membership / monitoring *)
let fd_suspicions = counter "fd.suspicions"
let fd_wrong_suspicions = counter "fd.wrong_suspicions"
let fd_retractions = counter "fd.retractions"
let fd_mistake_ms = histogram "fd.mistake_ms"
let membership_view_changes = counter "membership.view_changes"
let membership_join_ms = histogram "membership.join_ms"
let membership_change_ms = histogram "membership.change_ms"
let membership_sender_blocked_ms_total = gauge "membership.sender_blocked_ms_total"
let membership_resyncs = counter "membership.resyncs"
let monitoring_exclusions_proposed = counter "monitoring.exclusions_proposed"
let monitoring_wrongful_exclusions = counter "monitoring.wrongful_exclusions"

(* competing stacks and replication *)
let traditional_flushes = counter "traditional.flushes"
let traditional_view_changes = counter "traditional.view_changes"
let traditional_exclusions = counter "traditional.exclusions"
let traditional_blocked_ms = histogram "traditional.blocked_ms"
let traditional_blocked_ms_total = gauge "traditional.blocked_ms_total"
let totem_recoveries = counter "totem.recoveries"
let totem_view_changes = counter "totem.view_changes"
let totem_exclusions = counter "totem.exclusions"
let passive_discards = counter "passive.discards"
let passive_primary_changes = counter "passive.primary_changes"

(* event loop (runtime_unix) *)
let evloop_ticks = counter "evloop.ticks"
let evloop_select_wait_ms = histogram "evloop.select_wait_ms"
let evloop_callback_ms = histogram "evloop.callback_ms"
let evloop_tick_ms = histogram "evloop.tick_ms"
let evloop_timer_lag_ms = histogram "evloop.timer_lag_ms"
let evloop_timer_overdue = counter "evloop.timer_overdue"
let evloop_open_fds = gauge "evloop.open_fds"

(* wire transport (framing + TCP backend + simulated net) *)
let net_frames_in = counter "net.frames_in"
let net_frames_out = counter "net.frames_out"
let net_bytes_in = counter "net.bytes_in"
let net_bytes_out = counter "net.bytes_out"
let net_frame_reject = counter "net.frame_reject"
let net_reconnects = counter "net.reconnects"
let net_tx_drop = counter "net.tx_drop"
let net_dropped_gone = counter "net.dropped_gone"
let net_dropped_policy = counter "net.dropped_policy"
let net_duplicated = counter "net.duplicated"

(* durable delivery log (Storage seam + file backend) *)
let storage_appends = counter "storage.appends"
let storage_syncs = counter "storage.syncs"
let storage_snapshots = counter "storage.snapshots"
let storage_truncations = counter "storage.truncations"
let storage_torn_tail_dropped = counter "storage.torn_tail_dropped"
let storage_append_skipped = counter "storage.append_skipped"
let storage_log_entries = gauge "storage.log_entries"

(* gcs_server facade *)
let server_applied = counter "server.applied"
let server_bad_delivery = counter "server.bad_delivery"
let server_bad_request = counter "server.bad_request"
let server_client_accepts = counter "server.client_accepts"
let server_health_requests = counter "server.health_requests"
let server_stats_requests = counter "server.stats_requests"
let server_latency_ms = histogram "server.latency_ms"
let server_latency_abcast_ms = histogram "server.latency_abcast_ms"
let server_latency_rbcast_ms = histogram "server.latency_rbcast_ms"
let server_delta_transfers = counter "server.delta_transfers"
let server_full_transfers = counter "server.full_transfers"
let server_delta_rejected = counter "server.delta_rejected"
let server_reply_syncs = counter "server.reply_syncs"
let server_recovered_ops = counter "server.recovered_ops"
let server_dup_ops_skipped = counter "server.dup_ops_skipped"
let server_recovery_ms = histogram "server.recovery_ms"
