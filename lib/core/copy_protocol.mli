(** The available copy family (Sections 3.2 and 3.3).

    One engine implements both variants:

    - {b Standard} (Figure 5): writes go to every available copy; replies to
      each write refresh the writer's was-available set W_s, and W sets are
      piggybacked on writes (the paper's delayed-propagation relaxation of
      atomic broadcast) and updated on repairs.  After a total failure a
      recovering site waits only for the sites in the closure C*(W_s).
    - {b Naive} (Figure 6): no availability bookkeeping at all — W is
      pinned to the full site set, writes are fire-and-forget (a single
      multicast transmission), and after a total failure a site waits for
      {e every} copy to return.

    Reads are always local at an available site and cost no messages.

    Recovery runs as: broadcast a probe (everyone operational replies with
    state, version vector and W), then either repair from any available
    site, or — when the closure has fully recovered — from its
    highest-versioned member, via one version-vector exchange.  A site that
    completes recovery answers the probes it remembers with a deferred
    reply, implementing the "when ∃u available" arm of the select for
    waiters that probed earlier. *)

type variant = Standard | Naive

type t

val create : Runtime.t -> variant -> t
(** Builds the protocol and installs its message handler.  With
    [Config.track_liveness] and [Standard], available sites additionally
    observe peer failures and keep W equal to the live available set — the
    idealised algorithm whose availability the Figure 7 chain computes. *)

val variant : t -> variant

val read :
  t -> ?deadline:float -> site:int -> block:Blockdev.Block.id -> (Types.read_result -> unit) -> unit
(** Local read at an available site; no network traffic.  Fails with
    [Site_not_available] at a failed or comatose site.

    [deadline] (absolute virtual time) only matters on the peer
    read-repair path a quarantined local copy takes: the repair round
    stops waiting at the deadline and is not issued at all once it has
    passed.  A healthy local serve ignores it (no sub-request is sent). *)

val write :
  t ->
  ?deadline:float ->
  site:int ->
  block:Blockdev.Block.id ->
  Blockdev.Block.t ->
  (Types.write_result -> unit) ->
  unit
(** Write to all available copies.  [deadline] clamps the Standard ack
    round and refuses the operation outright (before the local write) once
    expired.  The ack round also routes around breaker-open peers: they
    still receive the update multicast and still enter W — only the
    waiting is skipped, so W never shrinks below the send-time
    was-available set. *)

(** {1 Group commit}

    Batched counterpart of [write]: every block of the batch travels in a
    single update multicast and (Standard) one ack per peer covers the
    whole batch, so the transmission count of a k-block group equals that
    of a single write.  Its ack round and W rule are [write]'s.  A batch
    of one is semantically identical to the single-block operation. *)

val write_batch :
  t ->
  ?deadline:float ->
  site:int ->
  (Blockdev.Block.id * Blockdev.Block.t) list ->
  (Types.batch_write_result -> unit) ->
  unit

val on_repair : t -> int -> unit
(** Bring a failed site back as comatose and start the recovery protocol of
    Figure 5 (Standard) or Figure 6 (Naive). *)

val any_available : t -> bool
(** The copy-scheme availability predicate: at least one available site. *)
