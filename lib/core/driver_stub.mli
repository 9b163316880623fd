(** The device-driver stub (Figures 1 and 2 of the paper).

    In the UNIX deployment the kernel's driver stub receives block requests
    from the file system and forwards them to a user-state server, which
    runs the consistency-control algorithms; under MACH the same role is
    played by IPC to a server task.  Here the stub forwards requests into
    the cluster at a {e home} server site, and — because the server need
    not live on any particular site — fails over to another operational
    site when the home site is down or cannot serve (it is this freedom
    that lets the reliable device serve diskless workstations).

    The home is {e sticky but not migratory}: every request starts at the
    configured home, so a transient home outage costs one failed probe per
    request while it lasts and service moves back automatically the moment
    the home recovers.  When a whole rotation fails (e.g. messages lost to
    an injected fault), the stub retries with bounded exponential backoff
    under its {!Retry.policy} instead of failing the request outright.

    Because the copy schemes propagate updates fire-and-forget, the stub
    additionally imposes a {e settle barrier}: before handing a request to
    an available site other than the one that served the previous success,
    it advances virtual time by [settle] so in-flight update broadcasts
    drain first.  A single client therefore never observes the propagation
    window of its own last write across a failover — the analogue of a real
    driver draining its request queue before switching servers. *)

type t

val create :
  ?home:int -> ?policy:Retry.policy -> ?settle:float -> ?rng:Random.State.t -> Cluster.t -> t
(** [create ?home ?policy ?settle ?rng cluster] forwards requests to site
    [home] (default 0).  [policy] defaults to {!Retry.default_policy}
    scaled by the cluster's [op_timeout]; pass {!Retry.no_retry} for the
    paper's original fail-fast behaviour.  [settle] (default the cluster's
    [op_timeout]; [0.0] disables) is the virtual-time drain imposed before
    switching service between available sites.  [rng] drives decorrelated
    retry jitter; a [Decorrelated] policy without one is rejected here
    ([Invalid_argument]) rather than on the first forwarded request.

    With [Config.robustness.deadlines] enabled, every request is given an
    absolute deadline of now plus [Config.robustness.op_budget] (default:
    the retry policy's own deadline), propagated through failover,
    retries and every protocol round — see {!deadline_budget}. *)

val deadline_budget : t -> float option
(** The per-operation virtual-time budget, when deadline propagation is
    enabled in the cluster's robustness config. *)

val home : t -> int
(** The configured home site; requests always probe it first. *)

val read_block : t -> Blockdev.Block.id -> Types.read_result
(** Forward a read; on [Site_not_available] retries once at each other
    site in id order, and repeats the whole rotation under the retry
    policy when it fails outright.  Synchronous: drives the engine. *)

val write_block : t -> Blockdev.Block.id -> Blockdev.Block.t -> Types.write_result

(** {1 Group commit}

    Batched forwarding of the write-back cache's dirty groups: the whole
    group rides one rotation, so failover probes, the settle barrier and
    bounded retries are paid once per batch rather than once per block.
    A batch of one behaves exactly like {!write_block}. *)

val write_blocks : t -> (Blockdev.Block.id * Blockdev.Block.t) list -> Types.batch_write_result
(** Raises [Invalid_argument] before any counter moves unless the blocks
    pass {!Cluster.valid_batch}. *)

val requests : t -> int
(** Logical block requests forwarded (one per [read_block] /
    [write_block] call — failover probes and retries are counted
    separately so per-request traffic ratios stay honest). *)

val batch_requests : t -> int
(** Batched requests forwarded (one per [write_blocks] call; also counted
    in [requests]). *)

val batched_blocks : t -> int
(** Total blocks carried by batched requests; [batched_blocks /.
    batch_requests] is the realised mean batch size. *)

val site_attempts : t -> int
(** Individual per-site service attempts, including failover probes and
    retried rotations; [site_attempts >= requests]. *)

val failovers : t -> int
(** Times the stub had to move a request on to another site. *)

val retry_stats : t -> Retry.stats
(** Degradation counters of the bounded-retry layer (retries, timeouts,
    abandoned operations, recent errors). *)

val policy : t -> Retry.policy

val settle : t -> float
(** The drain imposed before switching service between available sites. *)

val last_served : t -> int
(** The site that served the most recent successful request (the home
    until one succeeds elsewhere). *)

(** {1 Operation observers}

    Per-request completion events for the checking subsystem: an observer
    sees one event per logical request, after failover and retry
    resolution, which is the client-visible history a consistency oracle
    must judge.  A batched write reports one event per block. *)

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
