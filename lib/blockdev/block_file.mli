(** ADR-060-style block file: flat payload image + compact
    (offset, version, checksum) index.  Every resident region is
    [Block.size] bytes long, so the index keeps no length.

    Payloads live as real bytes in one image buffer, appended on first
    write and overwritten in place thereafter; never-written blocks are
    non-resident and read as the zero block.  The index checksum is
    CRC-32 over the payload mixed with the version.

    {b Sealing discipline}: {!write} updates payload and version but
    leaves the index checksum stale; only {!seal} recomputes it.  The
    owner of the durability story (the intention journal in
    {!Durable_store}, the only module of [blockdev] that uses this one)
    seals at commit points — everything else, including byte-level fault
    injection, is caught by {!checksum_ok}. *)

type t

val create : capacity:int -> t
val capacity : t -> int

val read : t -> Block.id -> Block.t
(** Current payload (the zero block when non-resident). *)

val version : t -> Block.id -> int

val write : t -> Block.id -> Block.t -> version:int -> unit
(** Store payload bytes and version.  Does {e not} reseal — see the
    sealing discipline above.  No version-regression policy here; that
    is {!Durable_store}'s contract. *)

val seal : t -> Block.id -> unit
(** Recompute the index checksum from the current (payload, version). *)

val checksum_ok : t -> Block.id -> bool
(** Whether the sealed checksum matches the bytes in the image now. *)

val reset : t -> unit
(** Truncate the image and return every block to the fresh non-resident
    sealed-zero state (disk replacement). *)

val flip_byte : t -> Block.id -> pos:int -> mask:int -> unit
(** XOR one actual image byte of the block's region (bitrot). *)

val blit_suffix : t -> Block.id -> from:int -> string -> unit
(** Overwrite bytes [[from, Block.size)] of the block's region with the
    same range of [s] (a torn in-place apply: the prefix of the new
    write landed, the suffix still holds pre-image bytes). *)
