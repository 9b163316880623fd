(** Seeded chaos schedules over a live workload, with a consistency verdict.

    A chaos run builds a cluster, derives a randomized {e schedule} of
    fault events from the seed, installs a message-fault profile, and
    drives a closed-loop client workload through a
    {!Blockrep.Reliable_device} while the schedule plays out.  At the end
    it lets the system drain, runs {!Invariant} scans (once as-is, once
    after repairing every site and healing the network), reads every block
    back, and hands the recorded history to the {!Oracle}.  Everything is
    derived from the seed: same environment + same seed = same run, bit
    for bit.

    {b The envelope.}  An {!env} names the faults in scope: a message-fault
    profile (which may include byte-level corruption) plus a set of fault
    {!family} values, each a seeded event process.  {!default_env} is each
    scheme's supported envelope; {!media}, {!overload} and {!wire} are
    layers over it that compose in any order:

    - {e available copy} and {e naive available copy}: site failures +
      total failures + benign message faults (duplicate, reorder, jitter,
      extra delay).  Partitions excluded, as the paper itself notes
      (available-copy schemes assume failures are clean).
    - {e voting} and {e dynamic voting}: benign message faults only.
      Site failures, partitions and total failures are {e excluded}: the
      paper's one-round write commits on votes and propagates the new
      version with one unacknowledged update multicast (that is what
      makes its multicast write cost 1+u), so a voter that crashes — or
      is cut off — between its counted vote and the update's delivery
      keeps a stale disk, and a later read quorum formed without the
      writer can be jointly stale.  Adding {!Failures} to a voting
      envelope is the canonical demonstration that the oracle catches
      this.

    Message {e drops} are outside every envelope: update propagation is
    fire-and-forget in all three protocols, so a dropped update is lost
    for good.  Forcing drops/partitions/failures beyond the envelope, or
    weakening the quorum thresholds via {!Blockrep.Quorum.unsafe}, turns
    the harness into a demonstration that the oracle catches real
    violations.

    Every run uses 8 blocks, a 2.5 : 1 read/write mix with mean think time
    2.5, and generates schedule events on [\[0, 260\]]; each family's
    rates and episode lengths are constants beside its generator. *)

(** {1 Fault verbs}

    The cluster-fault vocabulary shared by chaos schedules and the
    scenario DSL: one parser and one executor here, one printer behind
    {!pp_event}. *)

type fault =
  | Fail of int
  | Repair of int
  | Partition of int list list  (** groups of site ids; none empty *)
  | Heal
  | Crash_torn of int
      (** arm the site's next crash to tear its most recent journaled
          write, then fail it — the committed intention survives, so the
          recovery scrub replays the write (even a sole survivor loses
          nothing acknowledged) *)
  | Bitrot of int * int  (** (site, block): silent sector decay of one stored copy *)
  | Disk_replace of int  (** swap the site's medium for a blank one (fails the site) *)
  | Slow_site of int * float
      (** (site, rate factor): gray failure — the site's service times are
          scaled by the factor from now on (1.0 restores full speed).  The
          site stays up and still answers; no-op without a service model *)
  | Queue_flood of int * int
      (** (site, count): inject [count] junk jobs into the site's work
          queue ahead of legitimate traffic; no-op without a service
          model *)
  | Wire_corrupt of int * int
      (** (from, dst): the directed link becomes a {e persistent}
          corruptor — every frame it carries is bit-flipped until healed
          (see {!Blockrep.Cluster.corrupt_link}: never a no-op).  A
          persistent corruptor defeats the bounded redelivery budget by
          design, turning corruption into message loss on that link —
          outside every scheme's envelope, and the circuit breaker's job
          to contain. *)
  | Wire_heal of int * int  (** (from, dst): restore the link to the run's ambient profile *)

val fault_of_words : string list -> (fault, string) result option
(** Parse one verb and its arguments (already split into words).  [None]
    when the first word is not a fault verb, [Some (Error why)] when it is
    but its arguments are malformed (wrong count, a non-number, an empty
    partition group). *)

val apply : Blockrep.Cluster.t -> fault -> unit
(** Inject the fault into the cluster, unconditionally. *)

(** {1 Schedules} *)

type event =
  | Fault of fault
      (** applied through {!apply}, behind a chaos-only filter: failures
          and repairs act only on a site in the matching state, a torn
          crash only on an available site, and media faults only when
          maskable — bitrot and disk replacement are dropped unless some
          other mounted site holds a verified copy at least as new as
          everything the fault wipes out (destroying the only current
          copy is unmaskable by any replication protocol; the paper's
          disks are fail-stop) *)
  | Burst of int
      (** the workload loop issues its next [n] operations back-to-back
          (no think time): closed-loop arrival pressure *)

type schedule = (float * event) list
(** Timed events, ascending. *)

(** {1 Envelopes} *)

type family =
  | Failures  (** independent per-site failure/repair processes *)
  | Partitions  (** random two-way splits, each healed after an episode *)
  | Total_failures  (** whole-system crashes (staggered site failures) *)
  | Torn_writes  (** {!Crash_torn} crashes, each paired with a repair *)
  | Latent_rot  (** {!Bitrot} injections *)
  | Disk_swaps  (** {!Disk_replace}ments, each paired with a repair *)
  | Overload
      (** slow-site episodes, client bursts and queue floods; also runs
          every site behind {!Net.Service_model.default} and turns the
          client robustness stack on (deadlines, hedged reads, circuit
          breakers, admission control) *)
  | Corrupt_links  (** {!Wire_corrupt} episodes, each paired with a {!Wire_heal} *)

type env = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  seed : int;
  ops : int;  (** workload operations issued by the client *)
  batch : int;
      (** > 1 routes the workload through a write-back cache over the
          device: writes are absorbed until [batch] blocks are dirty,
          then commit as one batched group request.  The harness also
          flushes the dirty set just before each injected failure or
          partition (flush-on-failover, skipped if a client operation is
          mid-flight — the oracle judges single-client histories, so a
          nested commit may not be recorded inside another operation)
          and again after final recovery.
          The client-visible history then contains the {e committed}
          operations, so the oracle judges what the replicated layer
          actually did — the cache's absorption delay is invisible to
          it.  [1] (the default) is the unbatched path. *)
  faults : Net.Faults.profile;
      (** message-fault profile for the run; non-trivial corruption makes
          the network carry encoded frames through the hardened ingress *)
  weaken_read : int option;  (** voting: forced (unsafe) read threshold *)
  weaken_write : int option;  (** voting: forced (unsafe) write threshold *)
  families : family list;  (** fault families in scope; order and repeats do not matter *)
}

val default_env : ?seed:int -> Blockrep.Types.scheme -> env
(** The scheme's supported envelope (see above): 3 sites, 110 operations,
    batch 1, benign-fault profile {!supported_faults}; families
    [[Failures; Total_failures]] for the copy schemes, none for voting. *)

val media : env -> env
(** Adds the scheme's {e storage-fault} envelope, inside which it must
    stay violation-free: the copy schemes get {!Torn_writes},
    {!Latent_rot} and {!Disk_swaps}; the voting flavours get {!Latent_rot}
    only (torn crashes and replacement take a site down, and any site
    failure is already outside the one-round-write voting envelope). *)

val overload : env -> env
(** The {e overload + gray-failure} layer, inside which every scheme —
    voting included — must stay violation-free: adds {!Overload} and
    removes {!Failures} and {!Total_failures}.  None of the overload
    events takes a site down or destroys an acknowledged message, so
    correctness must hold while tail latency degrades. *)

val wire : env -> env
(** The {e hostile-bytes} layer, inside which every scheme must stay
    violation-free: sets the profile's corruption to
    {!supported_corruption}, so the injector damages frame bytes on top
    of the other message faults.  The hardened ingress (CRC/shape
    rejection, bounded link-layer redelivery, poison-frame quarantine)
    must absorb all of it; on top of the oracle verdict, the run fails
    with a [wire-unconserved] violation if any injected corruption went
    unaccounted for by the ingress conservation identity.  {!Corrupt_links}
    stays off: persistent corruptors turn corruption into message loss,
    which is outside every envelope. *)

val supported_faults : Net.Faults.profile
(** duplicate 0.05, reorder 0.05 with jitter ~ U(0,1), extra delay 0.1 —
    and no drops. *)

val supported_corruption : Net.Faults.corruption
(** Ambient byte damage of {!wire}: bit flip 0.02; truncate, garbage
    prefix/suffix and splice 0.01 each.  At these rates the bounded
    redelivery budget makes residual frame loss negligible
    (~[rate^(budget+1)]). *)

val families : family list
(** Every family, in schedule-generation order. *)

val flag : family -> (string * string) option
(** The [chaos] CLI flag that adds the family, with its help text; [None]
    for {!Overload} (the [--overload] layer adds it) and {!Corrupt_links}. *)

val label : env -> string
(** A sweep label: the scheme, a suffix per enabled family ([+fail],
    [+part], [+total], [+torn], [+rot], [+swap], [+over], [+corruptor]),
    then [+wire] when the profile corrupts. *)

val generate_schedule : env -> schedule
(** The seed-derived schedule for [env] (empty when no family is
    enabled).  Each family draws from its own salted streams and the
    streams are merged by time, so adding a family never moves another
    family's events. *)

val schedule_to_string : schedule -> string
(** One event per line ([@time fail 2], [@time partition 0 1 | 2], ...);
    round-trips through {!schedule_of_string} for replay. *)

val schedule_of_string : string -> (schedule, string) result

val pp_event : Format.formatter -> float * event -> unit
val pp_schedule : Format.formatter -> schedule -> unit

(** {1 Running} *)

type outcome = {
  seed : int;
  schedule : schedule;  (** the schedule that was played *)
  history : History.t;
  oracle : Violation.t list;
  invariants_mid : Violation.t list;
      (** scan after the workload drained, before forced repairs — the
          partial-failure state the run ended in *)
  invariants_final : Violation.t list;
      (** scan after every site repaired, the network healed and recovery
          completed *)
  ops_ok : int;
  ops_failed : int;
  faults_injected : int;
  storage : Blockdev.Durable_store.counters;
      (** summed storage-fault counters across all sites: faults injected
          (torn writes, bitrot, replacements) and the repair work the
          protocols did about them (scrub replays, quarantines, peer
          repairs, refused installs) *)
  end_time : float;
}

val violations : outcome -> Violation.t list
(** Oracle + both scans, in that order. *)

val passed : outcome -> bool

val cluster_of_env : env -> Blockrep.Cluster.t
(** A fresh cluster for [env] (applies the weakened quorum, the fault
    profile, and the {!Overload} family's service model and robustness
    stack). *)

val run_against : env -> cluster:Blockrep.Cluster.t -> schedule:schedule -> outcome
(** Play [schedule] and the client workload against an existing cluster —
    the entry point for checkpoint-resume checks.  Events scheduled
    before the cluster's current virtual time are skipped.  The oracle
    baseline is captured from the cluster's stores at entry, so a
    restored cluster's prior contents are legal initial reads. *)

val run : ?schedule:schedule -> env -> outcome
(** Fresh cluster + generated (or given) schedule + workload + verdict. *)

(** {1 Shrinking and sweeping} *)

val shrink : ?max_runs:int -> env -> schedule -> schedule * outcome
(** Greedy ddmin-style minimization: repeatedly drop chunks of the
    schedule while some violation still reproduces (failure/repair and
    partition events are individually removable — a repair of an up site
    or a stray heal is a no-op).  Returns the smallest failing schedule
    found within [max_runs] (default 300) re-runs and its outcome; if the
    given schedule does not fail at all, returns it unchanged. *)

type run_summary = {
  run_seed : int;
  run_passed : bool;
  run_violations : int;
  run_ops_ok : int;
  run_ops_failed : int;
  run_faults : int;
  run_storage_faults : int;  (** torn writes + bitrot + disk replacements *)
}

type sweep_result = {
  sweep_env : env;
  summaries : run_summary list;
  failing : int list;  (** seeds whose run had any violation *)
  first_failure : (int * outcome) option;
  shrunk : (schedule * outcome) option;
      (** minimized schedule of the first failing seed (when shrinking) *)
}

val sweep :
  ?shrink_failures:bool ->
  ?max_shrink_runs:int ->
  ?shards:int ->
  env ->
  seeds:int list ->
  sweep_result
(** Run [{env with seed}] for every seed; shrink the first failure
    (default on).  [shards] (default 1) runs the seeds on up to that many
    parallel domains (OCaml 5; sequential on 4.14): every run is
    self-contained, results merge in seed-list order, and [first_failure]
    is still the first failing seed of the {e list}, so the result is
    bit-identical across shard counts. *)
