(** Fixed-size data blocks.

    The reliable device presents the file system with an ordinary
    block-structured device, so the unit of replication — and of versioning —
    is the fixed-size block. *)

type id = int
(** Index of a block on the device, [0 .. capacity-1]. *)

type t
(** Immutable block contents.  Immutability keeps replicas safe to share in
    the simulator: handing a block to another site can never alias live
    mutable state. *)

val size : int
(** Bytes per block (512, the classic device sector). *)

val zero : t
(** The all-zeroes block: initial contents of every block on a fresh
    device. *)

val of_bytes : bytes -> t
(** [of_bytes b] copies [b] into a block, truncating or zero-padding to
    {!size}. *)

val of_string : string -> t
(** Like {!of_bytes}, from a string. *)

val to_bytes : t -> bytes
(** A fresh copy of the contents. *)

val to_string : t -> string

val get : t -> int -> char
(** Byte at an offset; raises [Invalid_argument] out of range. *)

val set : t -> int -> char -> t
(** Functional update of a single byte (copies). *)

val blit_into : t -> bytes -> int -> unit
(** [blit_into b dst off] copies the block into [dst] at [off]. *)

val equal : t -> t -> bool
