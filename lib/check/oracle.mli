(** Per-block atomic-register (one-copy serializability) checker.

    The reliable device claims to behave like a single block device.  For
    a sequential client history — each operation invoked after the
    previous one responded, which is what {!History.attach} records —
    that claim has a simple per-block shape the oracle checks directly:

    - versions of successful writes are strictly increasing, and no two
      operations bind different payloads to one version;
    - every successful read returns a payload some write actually wrote
      (or the initial/baseline contents), at a version consistent with it;
    - a read never returns a version below one already committed: the
      {e floor} is the largest version among the baseline and all writes
      that succeeded before the read was invoked ([stale-read]);
    - observed versions never regress between reads ([read-regression]) —
      this also pins down writes that {e failed} at the client but were
      partially applied: the register may or may not have absorbed them,
      but once a read observes one, later reads must not lose it.

    Failed writes are "maybe" operations: their payloads may legitimately
    surface at any later version (a retried rotation can even re-apply one
    twice), so the oracle accepts them wherever a read observes them and
    only holds the register to what it has already revealed.

    The [baseline] gives the pre-history contents (version and payload per
    block) for histories that start on a used cluster — e.g. resuming
    after a checkpoint restore; the default is the all-zero initial
    device. *)

val check :
  ?baseline:(int -> int * Blockdev.Block.t) -> History.t -> Violation.t list
(** All violations, in history order (empty = the history is explainable
    as a single consistent device).  Violation codes:
    ["non-sequential-history"], ["version-collision"],
    ["write-version-regression"], ["stale-read"], ["read-regression"],
    ["read-value-conflict"], ["phantom-read"]. *)
