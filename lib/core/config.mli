(** Cluster configuration. *)

type t = private {
  scheme : Types.scheme;
  n_sites : int;  (** number of sites holding copies (>= 1) *)
  n_blocks : int;  (** capacity of the reliable device, in blocks *)
  net_mode : Net.Network.mode;
  latency : Util.Dist.t;  (** one-hop message latency *)
  op_timeout : float;
      (** how long a coordinator waits for outstanding replies before acting
          on what it has; must exceed two latencies or operations would time
          out even when everyone is up *)
  quorum : Quorum.t;  (** voting only; ignored by the copy schemes *)
  witnesses : Types.Int_set.t;
      (** voting only: sites that vote (version number + weight) but store
          no data — Pâris's witness refinement of weighted voting (the
          paper's reference [10] family).  Witnesses cut storage to a
          version vector; reads must additionally reach a data site holding
          the current version.  Must leave at least one data site. *)
  track_liveness : bool;
      (** available-copy only.  [false] (the paper's Section 3.2 protocol):
          was-available sets are refreshed only by writes and repairs.
          [true]: available sites also observe peer failures, modelling the
          idealised algorithm whose availability the Figure 7 chain computes
          — the last site to fail then always knows it can recover alone. *)
  seed : int;  (** master seed for every random stream of the cluster *)
  fault_profile : Net.Faults.profile;
      (** default per-link fault injection ({!Net.Faults.pristine} unless
          overridden): with the pristine profile no injector is installed
          at all, so the cluster is bit-identical to one built before the
          fault layer existed.  A profile with non-trivial corruption also
          switches the network to encoded frames and the hardened ingress
          (see {!Net.Network.Make.install_faults}); every other profile
          keeps in-heap delivery. *)
  service : Net.Service_model.t option;
      (** per-site service model: [None] (the default) keeps sites
          infinitely fast, exactly the paper's environment; [Some m] puts
          a bounded work queue in front of every site (see
          {!Net.Service_model}), enabling overload and gray failure *)
  robustness : Robustness.t;
      (** client-side robustness stack (deadlines, hedged reads, circuit
          breakers, admission control); {!Robustness.off} by default *)
  sync_profile : Blockdev.Sync_cost.profile option;
      (** stable-storage sync-write cost charged at client-visible journal
          commit points (see {!Blockdev.Sync_cost}): [None] (the default)
          charges nothing — the paper's free-disk environment,
          bit-identical to pre-model behaviour *)
}

val make_exn :
  scheme:Types.scheme ->
  n_sites:int ->
  ?n_blocks:int ->
  ?net_mode:Net.Network.mode ->
  ?latency:Util.Dist.t ->
  ?op_timeout:float ->
  ?quorum:Quorum.t ->
  ?witnesses:int list ->
  ?track_liveness:bool ->
  ?seed:int ->
  ?fault_profile:Net.Faults.profile ->
  ?service:Net.Service_model.t ->
  ?robustness:Robustness.t ->
  ?sync_profile:Blockdev.Sync_cost.profile ->
  unit ->
  t
(** Defaults: 64 blocks, multicast, constant latency 0.5 time units,
    timeout 8 latencies, majority quorum, no witnesses,
    [track_liveness = false], seed 42, pristine fault profile, no service
    model, robustness off, no sync-write cost.  Raises [Invalid_argument]
    on an inconsistent configuration. *)

val pp : Format.formatter -> t -> unit
