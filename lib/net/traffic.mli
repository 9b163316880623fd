(** Transmission accounting.

    Counts are incremented when a transmission is {e sent}, not when it is
    delivered: under unique addressing a writer sends to all [n-1] remote
    sites whether or not they are up, which is exactly how Section 5 counts
    (e.g. an available-copy write costs [n-1] sends plus the operational
    sites' replies).  What arrives — rejected and quarantined frames — is
    the receiver's business: see {!Network.ingress}. *)

type t

val create : unit -> t
val reset : t -> unit

val record : t -> ?bytes:int -> Message.operation -> Message.category -> int -> unit
(** [record t ?bytes op cat k] adds [k] transmissions of category [cat] on
    behalf of operation [op], carrying [bytes] payload bytes in total
    (default 0 — callers that do not model sizes still get counts).

    Section 5 argues congestion tracks the {e number} of messages, but also
    notes a size-based comparison is "similar, though slightly less
    pronounced"; tracking both lets the harness reproduce that remark. *)

val accumulate : into:t -> t -> unit
(** [accumulate ~into src] adds every cell of [src] (counts and bytes)
    into [into].  Merging per-shard tables in shard-id order yields the
    same totals as a single unsharded run. *)

val total : t -> int
(** All transmissions since creation/reset. *)

val total_bytes : t -> int

val by_category : t -> Message.category -> int
val by_operation : t -> Message.operation -> int
val bytes_by_operation : t -> Message.operation -> int

val of_cell : t -> Message.operation -> Message.category -> int
(** Count for one (operation, category) pair. *)

val bytes_of_cell : t -> Message.operation -> Message.category -> int

val snapshot : t -> (Message.operation * Message.category * int) list
(** Non-zero cells, for reports. *)

val pp : Format.formatter -> t -> unit
(** Table of non-zero cells plus totals. *)
