(** Packaged experiments: one call per measured point of Figures 9–12.

    These are the simulation counterparts of the analytic curves in
    [Analysis]; benches and the CLI call them to put measured points next
    to the model's. *)

type availability_sample = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  rho : float;
  horizon : float;
  availability : float;  (** time-weighted, from the cluster monitor *)
  failures : int;
  repairs : int;
  truncated_outage : float option;
      (** elapsed duration of an outage still open at the horizon — absent
          from the monitor's completed outage-duration stats, so it must
          be reported or MTTR reads biased low *)
}

val measure_availability :
  scheme:Blockrep.Types.scheme ->
  n_sites:int ->
  rho:float ->
  ?horizon:float ->
  ?seed:int ->
  ?track_liveness:bool ->
  unit ->
  availability_sample
(** Run a cluster under Poisson failures (λ = ρ, μ = 1) for [horizon]
    virtual time units (default 50_000) and report the observed
    availability.  [track_liveness] defaults to [true] so the
    available-copy run matches the idealised chain of Figure 7 (see
    DESIGN.md); it is irrelevant to the other schemes. *)

type traffic_sample = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  env : Net.Network.mode;
  reads_per_write : float;
  writes : int;
  reads : int;
  read_cost_measured : float;  (** transmissions per successful read *)
  write_cost_measured : float;  (** transmissions per successful write *)
  messages_per_write_group : float;
      (** [write_cost + reads_per_write * read_cost], measured — the
          dependent axis of Figures 11 and 12, directly comparable to
          [Analysis.Traffic_model.workload_cost] at the same ratio *)
  bytes_per_write_group : float;
      (** same, in payload bytes — the Section 5 remark that a size-based
          comparison is "similar, though slightly less pronounced" *)
  recovery_messages : int;
}

val measure_traffic :
  scheme:Blockrep.Types.scheme ->
  n_sites:int ->
  env:Net.Network.mode ->
  reads_per_write:float ->
  ?ops:int ->
  ?seed:int ->
  ?fault_profile:Net.Faults.profile ->
  unit ->
  traffic_sample
(** Failure-free closed-loop run of [ops] operations (default 2000) at the
    given read:write mix, counting high-level transmissions.
    [fault_profile] (default pristine, i.e. the paper's reliable network)
    injects per-link message faults; Section 5 accounting still charges
    every transmission at send time, so drops raise the measured cost per
    {e successful} operation. *)

type amortization_sample = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  env : Net.Network.mode;
  batch : int;  (** blocks per group-commit batch *)
  groups : int;  (** batched writes issued *)
  blocks_committed : int;  (** [groups * batch] *)
  write_messages : int;  (** Write-operation transmissions charged *)
  write_bytes : int;
  messages_per_block : float;
  bytes_per_block : float;
}

val measure_batch_amortization :
  scheme:Blockrep.Types.scheme ->
  n_sites:int ->
  env:Net.Network.mode ->
  batch:int ->
  ?groups:int ->
  ?seed:int ->
  unit ->
  amortization_sample
(** Failure-free group-commit run: [groups] batches (default 100) of
    [batch] distinct blocks each, written through the driver stub's
    batched path, measuring Write transmissions and payload bytes per
    committed block.  [batch = 1] takes the unbatched
    single-block path and is the baseline the larger batches amortize
    against; under voting in multicast a k-block batch costs one vote
    round and one update multicast in total, so messages per block fall
    roughly as 1/k while bytes per block stay nearly flat (the payloads
    still have to travel). *)

type repair_sample = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  ops : int;
  bitrot_injected : int;  (** maskable latent faults that actually landed *)
  repaired_blocks : int;  (** quarantined copies healed from a peer *)
  scrub_replayed : int;  (** torn applies replayed from the journal *)
  repair_messages : int;  (** Repair-operation transmissions *)
  repair_bytes : int;
  total_messages : int;  (** all transmissions in the run *)
  repair_overhead : float;  (** [repair_messages / total_messages] *)
}

val measure_repair_cost :
  scheme:Blockrep.Types.scheme ->
  n_sites:int ->
  ?ops:int ->
  ?rot_every:int ->
  ?seed:int ->
  unit ->
  repair_sample
(** Closed-loop run of [ops] operations (default 400) at a 2:1 read:write
    mix with a seeded bitrot injection every [rot_every] operations
    (default 10) on a rotating, always-maskable victim, followed by a full
    readback of every copy so nothing stays quarantined.  The Repair cells
    of the traffic matrix are exactly the peer read-repair cost of
    surviving the decay — zero in a fault-free run, so the overhead column
    is the marginal price of the storage fault model. *)

type campaign_sample = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  n_blocks : int;  (** total logical block space across all groups *)
  groups : int;  (** virtual groups the space was partitioned into *)
  shards : int;  (** execution width requested *)
  lanes_used : int;  (** lanes actually used, [min shards groups] *)
  parallel : bool;  (** whether lanes ran on OCaml 5 domains *)
  issued : int;
  read_ok : int;
  read_failed : int;
  write_ok : int;
  write_failed : int;
  read_latency : Util.Stats.t;  (** merged across groups (Chan et al.) *)
  write_latency : Util.Stats.t;
  latency_hist : Util.Stats.Histogram.t;
      (** merged per-group latency histograms, bin-exact *)
  traffic : Net.Traffic.t;  (** cell-wise sum of every group's table *)
  total_messages : int;
  total_bytes : int;
}

val measure_campaign :
  scheme:Blockrep.Types.scheme ->
  n_sites:int ->
  n_blocks:int ->
  shards:int ->
  ?groups:int ->
  ?ops_per_group:int ->
  ?reads_per_write:float ->
  ?seed:int ->
  unit ->
  campaign_sample
(** Large-block-space campaign, sharded over domains.  The block space is
    partitioned into [groups] (default 16) virtual groups by stable hash
    of the block id; each group runs [ops_per_group] closed-loop
    operations (default 200) on its own cluster, seeded from the campaign
    [seed] and its group id.  [shards] sets only how many parallel lanes
    execute the groups — the partition, the per-group seeds and the
    group-id-order merge are all independent of it, so every field except
    [shards]/[lanes_used]/[parallel] is bit-identical across
    shard counts (and across the OCaml 4.14 sequential fallback). *)

type degradation_sample = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  fault_profile : Net.Faults.profile;
  ops : int;
  completed : int;  (** operations that succeeded through the device *)
  failed : int;  (** operations the device finally refused *)
  retries : int;
  recovered : int;
  timeouts : int;
  gave_up : int;
  faults_injected : int;
}

val measure_degradation :
  scheme:Blockrep.Types.scheme ->
  n_sites:int ->
  fault_profile:Net.Faults.profile ->
  ?reads_per_write:float ->
  ?ops:int ->
  ?seed:int ->
  unit ->
  degradation_sample
(** Drive [ops] operations (default 200) through a {!Blockrep.Reliable_device}
    over a lossy network and report how the bounded-retry layer coped — the
    simulation counterpart of the robustness question Sections 4–5 leave
    open by assuming reliable delivery. *)

type brownout_sample = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  offered_rate : float;  (** Poisson arrival rate, ops per virtual second *)
  robustness_on : bool;
  horizon : float;  (** arrival window length *)
  issued : int;
  succeeded : int;
  timeouts : int;  (** deadline expiries ([Timed_out]) *)
  gave_up : int;  (** other terminal failures *)
  rejected : int;  (** [Overloaded] from full site entry queues *)
  shed : int;  (** refused at the device admission gate *)
  goodput : float;  (** successful operations per virtual second *)
  latency_p50 : float;  (** successful-operation response time quantiles *)
  latency_p99 : float;
  hedged : int;
  hedge_wins : int;
  breaker_trips : int;
  messages_shed : int;
  conserved : bool;
      (** counter conservation held after the drain:
          [issued = succeeded + timeouts + gave_up + rejected + shed]
          with nothing left in flight *)
}

val saturation_rate : unit -> float
(** Reference saturation arrival rate of one site under the default
    service model (reciprocal mean client admission cost) — size brown-out
    offered loads as multiples of this. *)

val measure_brownout :
  scheme:Blockrep.Types.scheme ->
  n_sites:int ->
  offered_rate:float ->
  robustness:bool ->
  ?slow:int * float ->
  ?reads_per_write:float ->
  ?horizon:float ->
  ?seed:int ->
  unit ->
  brownout_sample
(** Open-loop brown-out: Poisson arrivals at [offered_rate] hit the async
    device path for [horizon] virtual seconds (default 400) with every
    site behind {!Net.Service_model.default}, then the system drains.
    [robustness] toggles the whole client-side stack (deadlines at twice
    the op budget, hedged reads with full-queue spillover, circuit
    breakers, admission control at 96 in-flight ops)
    against {!Blockrep.Robustness.off}; the arrival stream is identical
    either way.  [slow] optionally makes one site gray-slow for the whole
    run, e.g. [(1, 10.0)].  Past saturation the robustness-on flavour
    sheds and deadline-fails work fast, keeping goodput and tail latency
    of the survivors; the off flavour lets queues stall everything. *)
