(** A polymorphic binary min-heap with user-supplied ordering.

    Used as the pending-event set of {!Engine}.  Ties must be broken by the
    ordering function itself (the engine orders by [(time, sequence)]), so
    extraction order is fully deterministic. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (minimum first). *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the smallest element. *)

val clear : 'a t -> unit

val filter_in_place : 'a t -> ('a -> bool) -> unit
(** [filter_in_place h keep] drops every element for which [keep] is false
    and restores the heap invariant over the survivors, in O(n) — the
    compaction primitive behind the engine's lazy event deletion.  Dropped
    elements are not retained by the backing array: after the call nothing
    they reference is reachable from [h] (even when every element was
    dropped). *)
