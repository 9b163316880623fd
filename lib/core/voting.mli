(** Majority consensus voting at the block level (Section 3.1).

    Reads and writes each collect votes — version number plus weight — from
    all reachable sites and proceed only when the configured quorum is met.
    Because any quorum contains a most-current copy, a repaired site rejoins
    service {e immediately} with no recovery traffic: out-of-date blocks are
    detected by their version numbers and refreshed lazily, when the file
    system actually asks for them.  This lazy, per-block recovery is the
    paper's block-level refinement of classic weighted voting.

    Deviation noted for traffic accounting: refreshing a stale local copy
    costs us a block-request plus a block-transfer (2 messages) where the
    paper charges 1; the difference only arises on reads at stale sites,
    which never occurs in the failure-free runs behind Figures 11–12. *)

type t

val create : Runtime.t -> t
(** Builds the protocol over a runtime and installs its message handler. *)

val read :
  t -> ?deadline:float -> site:int -> block:Blockdev.Block.id -> (Types.read_result -> unit) -> unit
(** Figure 3.  The callback fires (via the engine) with the block contents,
    or [No_quorum] / [Site_not_available] / [Timed_out].

    [deadline] (absolute virtual time) propagates into every round the
    operation opens: rounds stop waiting at the deadline, and follow-up
    sub-requests (the block pull after the votes) are not issued at all
    once it has passed — the operation fails [Timed_out] instead.  Same
    contract on every operation below. *)

val write :
  t ->
  ?deadline:float ->
  site:int ->
  block:Blockdev.Block.id ->
  Blockdev.Block.t ->
  (Types.write_result -> unit) ->
  unit
(** Figure 4: collect votes, take max version + 1, push the block to every
    reachable site. *)

(** {1 Group commit}

    The k-block analogue of Figure 4: one vote collection covers every
    block of the batch, and all k new versions travel in a single update
    multicast.  A batch therefore costs the same {e number} of
    transmissions as one single-block write (their sizes grow with k),
    which is the whole amortization argument of the group-commit fast
    path.  Blocks must be distinct; a batch of one is semantically
    identical to {!write}. *)

val write_batch :
  t ->
  ?deadline:float ->
  site:int ->
  (Blockdev.Block.id * Blockdev.Block.t) list ->
  (Types.batch_write_result -> unit) ->
  unit
(** One vote round, per-block max version + 1, one batch-update multicast.
    Returns the new versions in batch order. *)

val on_repair : t -> int -> unit
(** Voting recovery: none.  The site simply becomes available again. *)

val quorum_up : t -> bool
(** Whether the sites currently up can form both quorums — the availability
    predicate A_V measures. *)
