(** The reliable device: a replicated block device behind the ordinary
    device interface.

    This is the paper's headline artifact — "a device [that] appears to the
    file system as an ordinary block-structured device, but is implemented
    as a set of server processes on several sites".  It satisfies
    [Blockdev.Device_intf.S], so any client of that signature (notably
    [Fs.Flat_fs]) runs on it unchanged. *)

type t

val create :
  ?home:int ->
  ?policy:Retry.policy ->
  ?settle:float ->
  ?rng:Random.State.t ->
  ?admission:int ->
  Cluster.t ->
  t
(** Wrap a cluster (any scheme) as a device, forwarding through a
    {!Driver_stub} homed at [home] with the given retry [policy] and
    failover settle barrier [settle] (see {!Driver_stub.create} for the
    defaults).  [rng] drives decorrelated retry jitter (mandatory when the
    policy asks for it).  [admission] bounds the number of in-flight
    asynchronous operations (default: the cluster config's
    [robustness.admission]); beyond it, {!read_block_async} and
    {!write_block_async} fail fast with [Overloaded] instead of piling
    more load onto a struggling cluster.  Raises [Invalid_argument] if the
    limit is below 1. *)

val of_config :
  ?policy:Retry.policy -> ?settle:float -> ?rng:Random.State.t -> ?admission:int -> Config.t -> t
(** Convenience: build the cluster too. *)

val cluster : t -> Cluster.t
val stub : t -> Driver_stub.t

include Blockdev.Device_intf.S with type t := t

val write_blocks : t -> (Blockdev.Block.id * Blockdev.Block.t) list -> bool
(** Batched write-behind target of the write-back cache: the whole dirty
    group commits in one stub rotation.  [false] without touching the
    cluster when the batch is empty, has an id out of range or repeats an
    id, as {!write_block} answers an out-of-range id. *)

val last_error : t -> Types.failure_reason option
(** Reason for the most recent [None]/[false] answer, for diagnostics. *)

(** {1 Asynchronous operations}

    Callback-style operations for open-loop load generation (the brown-out
    benchmark): the caller schedules arrivals on the engine and each
    operation settles through the cluster without driving the clock
    itself.  Async operations skip the stub's failover rotation and retry
    loop — they are issued once, at the stub's home site, with the stub's
    deadline budget applied — because an open-loop client must never block
    the virtual clock.  They pass through the admission gate: when
    [admission] in-flight operations are already pending the operation is
    {e shed}, failing immediately with [Overloaded].

    Raise [Invalid_argument] on an out-of-range block id (unlike the sync
    facade, which answers [None]/[false]): the async path is bench-facing
    and a bad id there is a harness bug.

    Caveat: if the home site crashes while operations are queued in its
    entry queue, those callbacks never fire and the in-flight count leaks;
    open-loop campaigns should inject overload and gray slowness, not site
    crashes, on the async path. *)

val read_block_async : t -> Blockdev.Block.id -> (Types.read_result -> unit) -> unit
val write_block_async : t -> Blockdev.Block.id -> Blockdev.Block.t -> (Types.write_result -> unit) -> unit

val in_flight : t -> int
(** Asynchronous operations currently pending. *)

(** {1 Degradation statistics}

    A structured snapshot of how hard the device is working to stay
    reliable: request and failover counts from the stub, retry/timeout
    counters from the {!Retry} layer, overload/gray-failure counters from
    the cluster's robustness stack, fault-injection totals from the
    network, and the most recent errors.  All zeros on a healthy,
    fault-free cluster. *)

type degradation = {
  requests : int;  (** logical block requests: sync + async + shed *)
  site_attempts : int;  (** per-site service attempts (incl. probes) *)
  failovers : int;  (** requests moved on from the home site *)
  retries : int;  (** rotations re-attempted after backoff *)
  succeeded : int;  (** requests that completed with a success *)
  recovered : int;  (** requests that failed first and then succeeded *)
  timeouts : int;  (** requests abandoned at a retry or op deadline *)
  gave_up : int;  (** requests abandoned after exhausting attempts *)
  rejected : int;  (** refused by the retryable predicate or [Overloaded] downstream *)
  shed : int;  (** async operations refused at the device admission gate *)
  hedged : int;  (** reads that issued a hedge at a second site *)
  hedge_wins : int;  (** hedged reads whose hedge answered first *)
  breaker_trips : int;  (** closed-to-open circuit-breaker transitions *)
  messages_shed : int;  (** protocol messages dropped at full site queues *)
  faults_injected : int;  (** total network fault injections, 0 if none *)
  frames_rejected : int;  (** frames the hardened ingress refused to decode *)
  frames_quarantined : int;  (** frames discarded undecoded under quarantine *)
  frames_retransmitted : int;  (** link-layer redeliveries of rejected frames *)
  quarantine_trips : int;  (** links that entered poison-frame quarantine *)
  corrupted_deliveries : int;  (** deliveries the injector actually damaged *)
  corrupt_rejected : int;  (** ... of which the decoder caught *)
  corrupt_quarantined : int;  (** ... of which quarantine discarded undecoded *)
  corrupt_survived : int;  (** ... of which still decoded (identity splice) *)
  last_errors : (float * string) list;  (** newest first *)
}

val degradation : t -> degradation

val degradation_conserved : degradation -> bool
(** Counter conservation: with no operation in flight every operation
    terminated exactly one way —
    [requests = succeeded + timeouts + gave_up + rejected + shed]. *)

val wire_conserved : degradation -> bool
(** The ingress conservation identity: every corruption the injector
    counted was classified exactly one way —
    [corrupted_deliveries = corrupt_rejected + corrupt_quarantined +
    corrupt_survived].  (Frame rejects themselves surface to the client
    as retries/timeouts, already inside {!degradation_conserved}.) *)

val pp_degradation : Format.formatter -> degradation -> unit
