(** A site's disk: its block copies and their version numbers, with the
    honest failure model the protocols must actually survive.

    Payloads are real bytes in a {!Block_file} image with an (offset,
    length, version, checksum) index.  The disk survives site failures (a
    failed site that repairs still has its — possibly stale — blocks and
    versions), which is why recovery only transfers the blocks modified
    during the outage.  On top of that ideal disk this module keeps:

    - {b per-block CRC-32 checksums} over the (payload bytes, version)
      pair, kept in the {!Block_file} index and sealed only at this
      module's commit points, so rotten or torn bytes are detected
      instead of served;
    - {b an intention journal} making a block write and its version
      update crash-atomic as a pair: one slot holding the last intention
      (the new data and its pre-image), committed in the same step that
      records it and before the in-place apply.  A crash can tear only
      that apply, and the recovery {!scrub} replays the committed
      intention;
    - {b journaled metadata} ([set_meta]) for the crash-critical protocol
      state that nominally "lives on disk" — was-available sets, dynamic
      voting groups — with registered defaults to fall back to when a torn
      metadata write is discovered;
    - {b seeded fault hooks}: torn writes armed at crash boundaries
      ({!arm_torn_write} + {!crash}), latent sector errors
      ({!inject_bitrot}), and whole-disk replacement ({!replace_disk},
      the paper's fresh-replica regeneration case).

    No unverified byte leaves this module: every function that returns
    block contents returns only checksum-valid ones.

    {b Quarantine discipline.}  A checksum-invalid block is {e quarantined}:
    its {!effective_version} is 0 (it serves nothing, votes 0 on reads, and
    is never transferred to a peer), but its stored {!version} remains
    trustworthy — sector decay corrupts data bytes, not the separately
    journaled version table — and acts as a floor: the block only accepts
    verified replacement data at a version [>=] the stored one, so a
    quarantined copy can never be silently regressed below a version this
    disk acknowledged.  Offers below the floor are refused (counted in
    {!counters}) and the block stays quarantined until a current peer or a
    fresh write supersedes it.

    With no faults injected every checksum verifies, so the checked
    accessors return exactly what was written. *)

type t

type counters = {
  mutable torn_writes : int;  (** armed tears that fired at a crash *)
  mutable bitrot_injected : int;
  mutable refused_installs : int;
      (** offers below a quarantined block's version floor *)
  mutable repaired_blocks : int;
      (** quarantined blocks healed by verified data *)
  mutable scrub_runs : int;
  mutable scrub_replayed : int;
  mutable scrub_quarantined : int;
  mutable scrub_meta_reset : int;
  mutable disk_replacements : int;
  mutable journal_commits : int;
      (** intentions committed, one per {!write} and one per {!set_meta}:
          the sync-write (fsync) points a real journal would pay for; see
          {!Sync_cost} *)
}

val zero_counters : unit -> counters
val accumulate_counters : counters -> counters -> unit
(** [accumulate_counters acc c] adds [c] into [acc] (cluster totals). *)

type scrub_report = {
  replayed : int;  (** committed intentions whose torn apply was redone *)
  quarantined : int;  (** checksum-invalid blocks awaiting peer repair *)
  meta_reset : string list;  (** metadata keys reset to their defaults *)
}

val create : capacity:int -> t
(** A fresh durable store over a blank disk: zeroed blocks at version 0,
    all checksums valid.  Raises [Invalid_argument] unless [capacity] is
    positive. *)

val capacity : t -> int

(** {1 Versions}

    Every accessor taking a block id raises [Invalid_argument] out of
    range. *)

val version : t -> Block.id -> int
(** The stored version: a verified block's version, and a quarantined
    block's floor. *)

val versions : t -> Version_vector.t
(** A fresh copy of the stored version vector. *)

val checksum_ok : t -> Block.id -> bool

val effective_version : t -> Block.id -> int
(** The stored version when the checksum is valid, 0 otherwise. *)

val effective_versions : t -> Version_vector.t

(** {1 Checked contents} *)

val read_verified : t -> Block.id -> (Block.t * int) option
(** Contents and version, or [None] when quarantined. *)

val serve : t -> Block.id -> int * Block.t
(** What this disk may answer a peer's block request with: the effective
    version and its verified contents, or [(0, Block.zero)] when the block
    is quarantined — a copy that can prove nothing claims nothing. *)

val verified_blocks_newer_than : t -> Version_vector.t -> (Block.id * int * Block.t) list
(** [(id, version, contents)] for every checksum-valid block whose stored
    version is strictly newer than in the vector, in ascending id order:
    the transfer set of a recovery exchange.  A transfer never ships
    quarantined bytes to a peer.  Raises [Invalid_argument] when the
    vector's length is not the capacity. *)

(** {1 Installs} *)

val write : t -> Block.id -> Block.t -> version:int -> unit
(** Journalled write (intention commit, then apply).  Raises
    [Invalid_argument] on a version regression over a {e verified} block
    (an equal version is allowed and re-installs); over a quarantined block
    a below-floor version is refused silently (counted) and an
    at-or-above-floor version heals the block. *)

val absorb : t -> Block.id -> Block.t -> version:int -> bool
(** The replica rule for an offered copy (a peer's update, a pulled
    transfer, a read-repair reply): a journalled {!write} iff the offer is
    newer than the stored version, or reaches a quarantined block's floor.  Returns whether it
    installed; never raises on a stale offer and never lowers a version. *)

val apply_updates : t -> (Block.id * int * Block.t) list -> unit
(** Install a recovery transfer set of {e verified peer data} entry by
    entry under the {!absorb} rule.  Not journalled — a crash
    mid-recovery leaves the site failed and the next recovery re-runs the
    exchange. *)

(** {1 Journaled metadata} *)

val set_meta : t -> string -> int list -> unit
(** Durably record a metadata value through the same intention journal as
    block writes (so a crash can tear it, and the scrub can tell). *)

val get_meta : t -> string -> int list option

val set_meta_default : t -> string -> int list -> unit
(** Register the conservative fallback for a key — what the scrub restores
    when the key's last write was torn, and what {!replace_disk} installs.
    Also initialises the key if unset (without journaling). *)

(** {1 Faults} *)

val arm_torn_write : t -> unit
(** Arm the next {!crash} to tear the in-place apply of the most recent
    intention. *)

val crash : t -> unit
(** The site lost power.  If a tear is armed, the apply of the journal's
    intention is torn: a block write leaves garbage data bytes under its
    intact version, which the {!scrub} replays (an acknowledged write
    survives), and a metadata write leaves its key for the scrub to reset
    to its default.  Otherwise the disk survives intact, as the paper
    assumes.  Idempotent once disarmed. *)

val inject_bitrot : t -> Block.id -> unit
(** Latent sector error: deterministically flip an actual byte of the
    block's region in the backing image, leaving its version intact.
    The corruption is silent until a checksum verification runs the
    real CRC over the damaged bytes. *)

val replace_disk : t -> unit
(** The medium was swapped: every block returns to verified (zero,
    version 0) and all metadata falls back to its registered defaults —
    the blank-disk / fresh-replica regeneration case. *)

(** {1 Recovery} *)

val scrub : t -> scrub_report
(** Recovery-time integrity pass, run before a repaired site rejoins:
    replay a committed intention whose apply was torn, reset a torn
    metadata key to its default, and count the quarantined blocks left for
    peer transfer to heal. *)

val last_scrub : t -> scrub_report option

val counters : t -> counters
(** Live counters for this store (shared, not a snapshot). *)
