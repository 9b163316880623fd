(** An LRU buffer cache over any block device — write-through by
    default, with an opt-in write-back (group commit) mode.

    Figure 1 of the paper has the file system consult its buffer cache
    before the device driver; only misses reach the (possibly replicated)
    device.  This functor reproduces that layer: it implements the same
    {!Blockdev.Device_intf.S} it consumes, so it can be slotted between
    [Fs.Hier_fs] and a [Blockrep.Reliable_device] — cutting the voting
    scheme's per-read quorum traffic by exactly the hit rate.

    {b Write-through} (the default) sends every write to the device
    immediately; the cache is never dirty and a crash loses nothing.
    This mode is bit-identical to the historical behaviour.

    {b Write-back} absorbs writes into the cache and commits the dirty
    set later — on {!flush}, when a dirty frame must be evicted, or when
    the configured coalescing window closes.  Over a batched device the
    whole dirty set rides {e one} group request (one quorum round and
    one update multicast under voting), which is the group-commit
    amortization the bench measures.  The price is the classic one: a
    crash before the flush (modelled by {!invalidate}) silently loses
    the absorbed updates — see {!lost_updates}. *)

(** When writes reach the device. *)
type policy = Write_through | Write_back

(** The cache over a natively batched device: dirty sets flush as one
    group request. *)
module Make_batched (Dev : Blockdev.Device_intf.BATCHED) : sig
  type t

  val create :
    ?policy:policy ->
    ?scheduler:(float -> (unit -> unit) -> unit) ->
    ?window:float ->
    capacity:int ->
    Dev.t ->
    t
  (** [create ~capacity dev] caches up to [capacity] blocks of [dev];
      [capacity] must be positive.  [policy] defaults to
      [Write_through].  Under [Write_back], a non-zero [window] arms a
      coalescing timer on the first dirtying write: [scheduler delay k]
      must run [k] after [delay] units of virtual time (pass a closure
      over [Sim.Engine.schedule]; the cache takes a scheduler rather
      than an engine so [fs] stays independent of [sim]).  Writes
      landing within the window coalesce into one batched flush when it
      closes.  With no scheduler the dirty set grows until an explicit
      {!flush} or a capacity eviction. *)

  val device : t -> Dev.t

  include Blockdev.Device_intf.S with type t := t
  (** [capacity] is the device's addressable block count, every block of
      which reads and writes reach; the [~capacity] given to {!create}
      only bounds how many of them are cached.

      Under [Write_back], [write_block] only fails on out-of-range ids:
      availability errors surface at flush time, not write time. *)

  val policy : t -> policy

  val flush : t -> bool
  (** Commit every dirty block to the device as one batched group
      request, eldest block id first.  If the device rejects the group
      (e.g. quorum lost for some blocks mid-rotation), the batch is
      split in half and each half retried recursively, so every block
      that can commit does.  Returns [true] when the cache is entirely
      clean afterwards.  Idempotent: a second call with nothing dirty
      issues no device requests.  Under [Write_through] this is a no-op
      returning [true]. *)

  val invalidate : t -> unit
  (** Forget everything {e without} writing anything back — after direct
      writes to the underlying device by another client, or to model a
      crash of the caching host.  Dirty blocks present at the time are
      counted in {!lost_updates}: under [Write_back] their updates are
      silently lost, which is precisely the durability cost group
      commit trades for its message savings. *)

  val dirty_blocks : t -> int
  (** Currently dirty (absorbed, not yet committed) blocks. *)

  val hits : t -> int
  val misses : t -> int

  val hit_rate : t -> float
  (** Fraction of reads served from the cache; [nan] before any read. *)

  val cached_blocks : t -> int

  val write_backs : t -> int
  (** Device write requests issued by the cache (each batched group —
      including each half of a split — counts once). *)

  val blocks_written_back : t -> int
  (** Total blocks carried by those requests; [blocks_written_back /.
      write_backs] is the realised flush batch size. *)

  val lost_updates : t -> int
  (** Dirty blocks dropped by {!invalidate} over the cache's lifetime. *)
end

(** The cache over a plain device, batched by looping (no wire
    amortization, identical semantics). *)
module Make (Dev : Blockdev.Device_intf.S) : sig
  include module type of Make_batched (Blockdev.Device_intf.Batched_of_simple (Dev))
end
