(** A single in-memory disk: the non-replicated baseline device.

    Implements {!Device_intf.S}; useful for testing the file system in
    isolation and as the "one ordinary device" a reliable device is
    compared against.  Backed by a {!Durable_store}, so the same media
    faults the replicated cluster masks — torn writes at a crash, bit
    rot, disk replacement — can be injected here too: the single disk
    scrubs what its journal can repair on {!revive}, but a rotten sector
    is simply a failed read, because there is no peer to repair from. *)

type t

val create : capacity:int -> t

include Device_intf.S with type t := t

val fail : t -> unit
(** Simulate the single disk dying (a crash: an armed torn write fires):
    all subsequent operations return [None] / [false] — the contrast
    motivating replication. *)

val revive : t -> unit
(** Power back on: runs the journal scrub, then serves again. *)

(** {1 Media faults} *)

val arm_torn_write : t -> unit
(** Arm the next {!fail} to tear the in-place apply of the most recent
    write; {!revive}'s scrub replays it from the journal. *)

val inject_bitrot : t -> Block.id -> unit
(** Silently rot one block; the next [read_block] of it returns [None]. *)

val replace_disk : t -> unit
(** Swap the medium for a blank one: all data gone, all reads legal. *)

val checksum_ok : t -> Block.id -> bool
val storage_counters : t -> Durable_store.counters
