(** The ordinary block-device interface.

    This is the boundary the paper's reliable device preserves: a file
    system written against this signature cannot tell one disk from a set
    of replicated server processes.  [Fs.Hier_fs] is a functor over it, and
    both {!Mem_device} (one local disk) and [Blockrep.Reliable_device] (the
    replicated device) implement it. *)

module type S = sig
  type t

  val capacity : t -> int
  (** Number of addressable blocks. *)

  val read_block : t -> Block.id -> Block.t option
  (** [None] when the device cannot currently serve the request (replica
      quorum lost, all servers down...).  A plain disk never says [None]
      for an in-range block. *)

  val write_block : t -> Block.id -> Block.t -> bool
  (** [false] when the write could not be performed. *)
end

(** A device that can also commit a group of block writes in one request.

    The replicated device implements this natively (a whole batch rides
    one quorum round — the group-commit fast path); {!Batched_of_simple}
    lifts any plain [S] by looping, so clients of [BATCHED] run on
    either.  Reads stay per block: group commit amortizes writes only. *)
module type BATCHED = sig
  include S

  val write_blocks : t -> (Block.id * Block.t) list -> bool
  (** Block ids must be distinct: a batch is a set of blocks, and the
      replicated device answers [false] to a repeated id without
      committing anything.  [false] when the group could not be fully
      committed.  Not necessarily atomic: a loop-lifted device (see
      {!Batched_of_simple}) may have applied a prefix. *)
end

(** Lift a plain device to the batched interface by looping.  No
    amortization — each block still costs one device request — but it
    lets batch-aware clients (the write-back cache) run over any [S]. *)
module Batched_of_simple (Dev : S) : BATCHED with type t = Dev.t = struct
  include Dev

  let write_blocks t writes = writes <> [] && List.for_all (fun (k, d) -> Dev.write_block t k d) writes
end
