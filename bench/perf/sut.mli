(** The benchmark's whole contact surface with the library.

    Every call the benchmark makes into [lib/] is declared here and made
    from [sut.ml]; no other benchmark module names a library module, with
    one exception: the churn_dv lane spawn ([Sim.Shard_engine.map_list])
    sits in [workloads.ml] next to its lane body, because blockrep-lint
    proves a lane thunk's captures only at a spawn site that names the
    body directly.  A library refactor that changes this list changes the
    benchmark, so it must be reviewed as a benchmark change.

    Results cross this boundary as the library's own [result] values
    (matched only on [Ok]/[Error]) or as the benchmark-owned records
    below. *)

(** {1 Cluster shapes} *)

type scheme = Voting | Available_copy | Dynamic_voting
type latency = Constant of float | Exponential of float

type shape = {
  scheme : scheme;
  n_sites : int;
  n_blocks : int;
  latency : latency;  (** one-hop message latency *)
  ssd_sync : bool;  (** charge the SSD fsync cost at each journal commit *)
  brownout : bool;
      (** default service model plus the brown-out robustness stack:
          deadlines, op budget 8.0, hedge q=0.9 floor 1.0, breaker 5/20.0,
          admission 96 *)
  cluster_seed : int;  (** master seed of the cluster's own random streams *)
}

type cluster
type device
type engine
type block

val cluster : shape -> cluster
(** Build the config and the cluster. *)

val device : shape -> device
(** Build the config, the cluster and a reliable device on it (home site 0,
    default retry policy). *)

val device_cluster : device -> cluster
val engine : cluster -> engine
val saturation_rate : unit -> float
(** Ops per virtual second one site serves under the default service
    model. *)

val ssd_fsync : float
(** Virtual time charged per journal commit under the SSD profile. *)

(** {1 Blocks} *)

val payload : block:int -> op:int -> block
(** A block image tagged with its block id and the op index that wrote it;
    the rest is filler derived from both. *)

val tag : block -> (int * int) option
(** [(block, op)] of a {!payload}; [None] for the all-zero block. *)

(** {1 Client operations} *)

type reason
(** Why the cluster refused an operation. *)

val dev_read : device -> int -> block option
val dev_write : device -> int -> block -> bool
val dev_read_async : device -> int -> ((block * int, reason) result -> unit) -> unit
val dev_write_async : device -> int -> block -> ((int, reason) result -> unit) -> unit

val write : cluster -> site:int -> block:int -> block -> ((int, reason) result -> unit) -> unit
(** Asynchronous write issued at a site (no stub, no retry). *)

val write_sync : cluster -> site:int -> block:int -> block -> bool

val read_sync : cluster -> site:int -> block:int -> (block * int) option
val read_async : cluster -> site:int -> block:int -> (unit -> unit) -> unit
(** Asynchronous read whose outcome is ignored (layer probes). *)

val in_flight : device -> int

(** {1 Failures and system state} *)

val fail_site : cluster -> int -> unit
val repair_site : cluster -> int -> unit
val system_available : cluster -> bool
val consistent_available_stores : cluster -> bool
val settle : cluster -> unit

(** {1 Engine} *)

val new_engine : unit -> engine
val now : engine -> float
val step : engine -> bool
val schedule_at : engine -> float -> (unit -> unit) -> unit
val schedule : engine -> float -> (unit -> unit) -> unit
val pending : engine -> int
val events_fired : engine -> int

(** {1 Counters} *)

type traffic = {
  msgs : int;
  bytes : int;
  by_category : int array;  (** indexed like {!categories} *)
  recovery_msgs : int;  (** Recovery + Repair operations *)
  cells : string;  (** canonical rendering of every non-zero cell *)
}

val categories : string array
val traffic : cluster -> traffic
val deliveries : cluster -> int
val journal_commits : cluster -> int
val server_depth : cluster -> int -> int
(** Site [i]'s work-queue depth; 0 without a service model. *)

val on_round_start : cluster -> (unit -> unit) -> unit

type client = {
  requests : int;
  attempts : int;
  retries : int;
  succeeded : int;
  hedged : int;
  hedge_wins : int;
  shed : int;
  breaker_trips : int;
  msgs_shed : int;
  conserved : bool;  (** requests = succeeded + timeouts + gave_up + rejected + shed *)
}

val device_client : device -> client
val cluster_client : cluster -> client
(** Cluster-level counters for workloads without a device; attempts,
    retries and requests read 0. *)

(** {1 Layer probes} *)

type message

val sample_message : shape -> int -> message
(** A message of category [i] (see {!categories}) sized like the shape's:
    block payloads, version vectors over [n_blocks], was-available sets
    over [n_sites]. *)

val is_broadcast : int -> bool
(** Whether the protocols multicast category [i]. *)

val wire_size : message -> int
val wire_encode : message -> Bytes.t
val wire_decode_ok : Bytes.t -> bool
val crc : Bytes.t -> int

type transport

val transport : engine -> shape -> transport
(** A bare network of the shape's size and latency with no-op handlers. *)

val send : transport -> from:int -> dst:int -> message -> unit
val broadcast : transport -> from:int -> message -> unit

type store

val store : capacity:int -> store
val store_write : store -> int -> block -> version:int -> unit
val store_read_verified : store -> int -> bool
