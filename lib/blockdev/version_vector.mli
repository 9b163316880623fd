(** Per-block version numbers, exchanged during recovery.

    A version vector [v] maps every block index to the version number of the
    copy a site holds.  Recovery (Figures 5 and 6 of the paper) is a
    version-vector exchange: the recovering site sends its [v], the source
    answers with its own [v'] plus the blocks whose versions differ. *)

type t

val create : int -> t
(** [create n] is the all-zero vector over [n] blocks: a freshly initialised
    device where nothing has been written. *)

val length : t -> int

val get : t -> int -> int
(** Version of one block; raises [Invalid_argument] out of range. *)

val set : t -> int -> int -> unit

val bump : t -> int -> int
(** [bump t k] increments block [k]'s version and returns the new value. *)

val stale_blocks : mine:t -> theirs:t -> int list
(** [stale_blocks ~mine ~theirs] is the ascending list of block indices where
    [theirs] is strictly newer — the blocks a recovering site must fetch.
    The vectors must have equal length. *)

val dominates : t -> t -> bool
(** [dominates a b] iff every component of [a] is [>=] the matching
    component of [b]: [a]'s holder is at least as current everywhere. *)

val max_merge : t -> t -> t
(** Component-wise maximum (fresh vector). *)

val equal : t -> t -> bool
