(** The replicated block cluster: the public face of the core library.

    A cluster binds a simulation engine, a network, [n] block-holding sites
    and one of the three consistency protocols, and exposes block reads and
    writes, failure injection, traffic counters and an availability monitor.

    Operations are asynchronous (the callback fires through the engine);
    {!read_sync} and {!write_sync} drive the engine until the operation
    settles, for clients written in a direct style (the file system, the
    examples). *)

type t

val create : Config.t -> t
val config : t -> Config.t

(** [runtime t] is the underlying runtime, for tooling that needs raw site
    access (checkpointing, white-box tests).  Mutating it bypasses the
    protocol; ordinary clients should never need it. *)
val runtime : t -> Runtime.t
val engine : t -> Sim.Engine.t
val traffic : t -> Net.Traffic.t
val network : t -> Runtime.Transport.t
val monitor : t -> Availability_monitor.t
val scheme : t -> Types.scheme
val n_sites : t -> int
val n_blocks : t -> int

(** {1 Block access} *)

val read :
  t -> ?deadline:float -> site:int -> block:Blockdev.Block.id -> (Types.read_result -> unit) -> unit
(** With a service model configured the operation first rides the
    coordinator site's bounded work queue (admission): a full queue fails
    it immediately with [Overloaded], and a coordinator that crashes with
    the operation still queued fails it with [Site_not_available] on the
    next tick, as an aborted round does.  With hedging configured
    ([Config.robustness.hedge]) a second copy of the read races at another
    available site after the configured latency quantile; the first answer
    wins, and a hedge answer only counts when its version is at or above
    what the primary site already stores.  Hedging also turns a full
    primary queue into spillover rather than rejection: the read is
    diverted to the hedge site immediately and fails with [Overloaded]
    only when no breaker-trusted peer can take it either.  [deadline]
    (absolute virtual time) propagates into every protocol round the
    operation opens. *)

val write :
  t ->
  ?deadline:float ->
  site:int ->
  block:Blockdev.Block.id ->
  Blockdev.Block.t ->
  (Types.write_result -> unit) ->
  unit

val read_sync : ?deadline:float -> t -> site:int -> block:Blockdev.Block.id -> Types.read_result
(** Issue the read and run the engine until it settles.  Other pending
    simulation events up to that moment run too (this is a simulation,
    time passes). *)

val write_sync :
  ?deadline:float -> t -> site:int -> block:Blockdev.Block.id -> Blockdev.Block.t -> Types.write_result

(** {1 Group commit}

    Batched block writes.  Blocks must pass {!valid_batch}
    ([Invalid_argument] otherwise).  A batch of one is delegated to the
    single-block path, so it is bit-identical to {!write} — same wire
    traffic, same result.  Larger batches run the scheme's amortized group
    round (one vote collection and one update multicast for voting; one
    update multicast for the copy schemes); dynamic voting has no shared
    round — its per-block update groups cannot ride one message — and
    transparently chains the single-block writes instead.  Reads have no
    batched form: each block costs one {!read}. *)

val valid_batch : t -> Blockdev.Block.id list -> bool
(** The precondition of {!write_blocks}: the blocks are non-empty, in
    range and distinct. *)

val write_blocks :
  t ->
  ?deadline:float ->
  site:int ->
  (Blockdev.Block.id * Blockdev.Block.t) list ->
  (Types.batch_write_result -> unit) ->
  unit

val write_blocks_sync :
  ?deadline:float ->
  t ->
  site:int ->
  (Blockdev.Block.id * Blockdev.Block.t) list ->
  Types.batch_write_result

(** {1 Failure injection} *)

val fail_site : t -> int -> unit
val repair_site : t -> int -> unit
(** Starts the scheme's recovery; the site may stay comatose for a while
    (run the engine to let recovery complete). *)

val partition : t -> int list list -> unit
(** Split network connectivity into the given groups (see
    {!Runtime.Transport.partition}).  Available copy is documented not to
    survive this; the demo and the adversarial tests use it to show why. *)

val heal : t -> unit
(** Restore full connectivity. *)

val faults : t -> Net.Faults.t option
(** The network's fault injector, if the config's profile was not pristine
    (or one was installed later).  The wire's counts live in two records:
    the injector's {!Net.Faults.counters} and the network's ingress
    ledger, [Runtime.Transport.ingress (network t)]. *)

val install_faults : t -> Net.Faults.t -> unit
(** Install a fault injector on the running cluster's network (per-link
    overrides included); affects deliveries from now on. *)

val corrupt_link : t -> from:int -> dst:int -> unit
(** Turn one directed link into a persistent corruptor (every delivery
    gets a bit flipped): the [wire-corrupt] chaos event.  Installs a
    pristine injector first when the cluster has none (see
    {!Runtime.injector}); either way the injector is then corrupting, so
    the network carries encoded frames from here on. *)

val heal_link : t -> from:int -> dst:int -> unit
(** Restore a corrupted link to the injector's default profile. *)

(** {1 Storage faults}

    Media-level fault injection into a site's {!Blockdev.Durable_store}.
    All default-off: a cluster that never calls these behaves bit-identically
    to one without the durable layer. *)

val arm_torn_write : t -> int -> unit
(** Arm site [i]'s next crash ({!fail_site}) to tear the in-place apply of
    its most recent journaled write.  The intention survives and the
    recovery scrub replays it. *)

val inject_bitrot : t -> site:int -> block:Blockdev.Block.id -> unit
(** Latent sector error: silently rot one stored copy.  Detected at the
    next checksum verification; the protocols then quarantine the copy and
    heal it from a peer (read-repair or recovery transfer). *)

val replace_disk : t -> int -> unit
(** Swap site [i]'s medium: the site is failed (if up) and its disk reset
    to blank — zeroed blocks at version 0, metadata at defaults.  A later
    {!repair_site} regenerates the replica through the ordinary recovery
    exchange (the paper's fresh-replica case). *)

val checksum_ok : t -> site:int -> block:Blockdev.Block.id -> bool
val effective_version : t -> site:int -> block:Blockdev.Block.id -> int
(** Stored version if the checksum verifies, 0 otherwise. *)

val storage_counters : t -> Blockdev.Durable_store.counters
(** Fresh record summing every site's storage-fault counters. *)

(** {1 Overload and gray failure}

    Counters and knobs of the robustness stack.  All of them read zero /
    do nothing unless the config installed a service model or enabled the
    corresponding feature. *)

val client_shed : t -> int
(** Client operations rejected at admission (full entry queue). *)

val hedged : t -> int
(** Reads that issued a hedge at a second coordinator. *)

val hedge_wins : t -> int
(** Hedged reads whose hedge answered first (with an acceptable version). *)

val breaker_trips : t -> int
(** Closed-to-open circuit-breaker transitions, summed over all
    coordinator/peer pairs. *)

val messages_shed : t -> int
(** Protocol messages dropped at full per-site work queues (distinct from
    {!client_shed}, which counts whole client operations). *)

val server : t -> int -> Sim.Server.t option
(** Site [i]'s work queue, when a service model is installed. *)

val set_rate_factor : t -> int -> float -> unit
(** Gray failure: scale site [i]'s service times by the factor (e.g. 10.0
    = a 10x-slow site that is still up and still answers). *)

val flood_site : t -> int -> count:int -> unit
(** Burst-inject [count] queue jobs at site [i] (chaos: queue pressure
    without wire traffic). *)

val site_state : t -> int -> Types.site_state
val site_versions : t -> int -> Blockdev.Version_vector.t
val site_was_available : t -> int -> Types.Int_set.t

(** {1 System state} *)

val system_available : t -> bool
(** The scheme's availability predicate: quorum of up sites (voting) or at
    least one available site (copy schemes). *)

val run_until : t -> float -> unit
(** Advance virtual time (delivering messages, completing recoveries). *)

val settle : t -> unit
(** Run the engine dry — only meaningful when no recurrent processes (e.g.
    failure generators) are attached. *)

val consistent_available_stores : t -> bool
(** Invariant checked by the test-suite: all available sites hold identical
    stores (contents and versions).  Vacuously true with fewer than two
    available sites.  Under voting, checked only across up-to-date sites
    (stale but reachable copies are legal there), so this flavour asserts
    instead that every quorum's maximum version is held by some up site.
    Checksum-aware throughout: a quarantined (checksum-invalid) copy is
    excused — it refuses to serve rather than serving divergent bytes —
    and version comparisons use effective (verified) versions. *)
