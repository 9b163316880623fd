(** The reliable device: a replicated block device behind the ordinary
    device interface, and the driver stub that forwards its requests
    (Figures 1 and 2 of the paper).

    This is the paper's headline artifact — "a device [that] appears to the
    file system as an ordinary block-structured device, but is implemented
    as a set of server processes on several sites".  It satisfies
    [Blockdev.Device_intf.S], so any client of that signature (notably
    [Fs.Hier_fs]) runs on it unchanged.

    In the UNIX deployment the kernel's driver stub receives block requests
    from the file system and forwards them to a user-state server, which
    runs the consistency-control algorithms; under MACH the same role is
    played by IPC to a server task.  Here the device forwards requests into
    the cluster at a {e home} server site, and — because the server need
    not live on any particular site — fails over to another operational
    site when the home site is down or cannot serve (it is this freedom
    that lets the reliable device serve diskless workstations).

    The home is {e sticky but not migratory}: every request starts at the
    home, so a transient home outage costs one failed probe per request
    while it lasts and service moves back automatically the moment the
    home recovers.  When a whole rotation fails (e.g. messages lost to an
    injected fault), the device retries it on {!Retry}'s fixed schedule,
    in units of the cluster's [op_timeout], instead of failing the request
    outright.

    Because the copy schemes propagate updates fire-and-forget, the device
    also imposes a {e settle barrier}: before handing a request to an
    available site other than the one that served the previous success, it
    advances virtual time by the cluster's [op_timeout] so in-flight update
    broadcasts drain first.  A single client therefore never observes the
    propagation window of its own last write across a failover — the
    analogue of a real driver draining its request queue before switching
    servers.

    With [Config.robustness.deadlines] enabled, every request is given an
    absolute deadline of now plus [Config.robustness.op_budget] (default:
    the retry schedule's budget, [64 op_timeout]), which flows through
    failover, every retry and every protocol round — see
    {!deadline_budget}. *)

type t

val create : ?home:int -> Cluster.t -> t
(** Wrap a cluster (any scheme) as a device forwarding to site [home]
    (default 0).  Raises [Invalid_argument] on a site out of range. *)

val of_config : Config.t -> t
(** Convenience: build the cluster too, and home the device at site 0. *)

val cluster : t -> Cluster.t

val home : t -> int
(** The home site; requests always probe it first. *)

val deadline_budget : t -> float option
(** The per-operation virtual-time budget, when deadline propagation is
    enabled in the cluster's robustness config. *)

include Blockdev.Device_intf.S with type t := t
(** [read_block] and [write_block] forward one request synchronously,
    driving the engine: on [Site_not_available] the request moves on once
    to each other site in id order, and the whole rotation is retried
    on the {!Retry} schedule when it fails outright.  [None]/[false] without
    touching the cluster on an out-of-range id. *)

val write_blocks : t -> (Blockdev.Block.id * Blockdev.Block.t) list -> bool
(** Group commit, the batched write-behind target of the write-back
    cache: the whole dirty group rides one rotation, so failover probes,
    the settle barrier and bounded retries are paid once per batch rather
    than once per block.  A batch of one behaves exactly like
    {!write_block}.  [false] without touching the cluster or any counter
    when the batch fails {!Cluster.valid_batch} (empty, an id out of range
    or a repeated id), as {!write_block} answers an out-of-range id. *)

(** {1 Operation observers}

    Per-request completion events for the checking subsystem: an observer
    sees one event per logical request, after failover and retry
    resolution, which is the client-visible history a consistency oracle
    must judge.  A batched write reports one event per block; a batch the
    device refuses as malformed reports none.  Asynchronous operations are
    not observed. *)

type kind = Read | Write

type op_view = {
  kind : kind;
  block : Blockdev.Block.id;
  site : int;  (** site that served (success) or was last tried (failure) *)
  invoked : float;
  responded : float;
  payload : Blockdev.Block.t option;
      (** data written (all writes) or returned (successful reads) *)
  version : int option;  (** version assigned/served, on success *)
  error : Types.failure_reason option;
}

val add_observer : t -> (op_view -> unit) -> unit

(** {1 Asynchronous operations}

    Callback-style operations for open-loop load generation (the brown-out
    benchmark): the caller schedules arrivals on the engine and each
    operation settles through the cluster without driving the clock
    itself.  Async operations skip the failover rotation and retry loop —
    they are issued once, at the home site, with the deadline budget
    applied — because an open-loop client must never block the virtual
    clock.  They pass through the admission gate: when
    [Config.robustness.admission] operations are already in flight the
    operation is {e shed}, failing immediately with [Overloaded].

    Every admitted operation answers exactly once, including one queued at
    a site that crashes before serving it ([Site_not_available], see
    {!Cluster.read}).

    Raise [Invalid_argument] on an out-of-range block id (unlike the sync
    facade, which answers [None]/[false]): the async path is bench-facing
    and a bad id there is a harness bug. *)

val read_block_async : t -> Blockdev.Block.id -> (Types.read_result -> unit) -> unit
val write_block_async : t -> Blockdev.Block.id -> Blockdev.Block.t -> (Types.write_result -> unit) -> unit

val in_flight : t -> int
(** Asynchronous operations currently pending. *)

(** {1 Degradation statistics}

    A structured snapshot of how hard the device is working to stay
    reliable.  The device keeps one ledger: sync and async requests count
    into the same fields, which this snapshot reads as they are, beside
    the cluster's four overload/gray-failure counts.  All zeros on a
    healthy, fault-free cluster.  What the wire did is not copied here:
    read the injector's {!Net.Faults.counters} ({!Cluster.faults}) and the
    network's ingress ledger ([Runtime.Transport.ingress]). *)

type degradation = {
  requests : int;  (** logical block requests: sync + async + shed *)
  site_attempts : int;  (** per-site service attempts (incl. probes) *)
  failovers : int;  (** requests moved on from the home site *)
  retries : int;  (** rotations re-attempted after backoff *)
  succeeded : int;  (** requests that completed with a success *)
  recovered : int;  (** requests that failed first and then succeeded *)
  timeouts : int;  (** requests abandoned at a retry or op deadline *)
  gave_up : int;  (** requests abandoned after exhausting attempts *)
  rejected : int;  (** async requests refused with [Overloaded] downstream *)
  shed : int;  (** async operations refused at the device admission gate *)
  hedged : int;  (** reads that issued a hedge at a second site *)
  hedge_wins : int;  (** hedged reads whose hedge answered first *)
  breaker_trips : int;  (** closed-to-open circuit-breaker transitions *)
  messages_shed : int;  (** protocol messages dropped at full site queues *)
  last_errors : (float * string) list;
      (** the 8 most recent failed sync attempts, newest first: (virtual
          time, failure reason) *)
}

val degradation : t -> degradation

val degradation_conserved : degradation -> bool
(** Counter conservation: with no operation in flight every operation
    terminated exactly one way —
    [requests = succeeded + timeouts + gave_up + rejected + shed].
    Frame rejects surface to the client as retries and timeouts, so they
    are inside this identity; the wire's own identity is
    [Runtime.Transport.corruption_conserved]. *)
