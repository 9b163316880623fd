(** Cursor writer/reader over [Bytes].

    The writer has two modes with one field-emission API: a counting
    pass ([counter]) that only measures, and a writing pass ([writer])
    that fills a buffer.  Encoders written once against [w] therefore
    serve both a measured, allocation-free [size] and a single-alloc
    [encode].  Counters carry no shared state, so sizing is domain-safe
    for sharded benches.

    Readers raise {!Short} / {!Bad} on malformed input; these are meant
    to be caught at the frame-decode boundary and turned into typed
    errors — public decoders built on this module must never let them
    escape. *)

type w

val counter : unit -> w
(** Counting-mode writer: advances length without touching memory. *)

val writer : int -> w
(** [writer capacity] is a writing-mode writer.  The buffer grows if
    exceeded, but sizing with a counting pass first avoids any growth. *)

val length : w -> int
(** Bytes emitted (or counted) so far. *)

val contents : w -> Bytes.t
(** Copy of the emitted prefix.  Writing-mode only use. *)

val u8 : w -> int -> unit
val u32 : w -> int -> unit
(** Fixed-width little-endian, value truncated to 8/32 bits. *)

val varint : w -> int -> unit
(** LEB128 varint over the int's 63-bit representation (logical shifts:
    negative ints round-trip as 9-byte encodings). *)

val raw_string : w -> string -> unit
(** Bytes with no length prefix (fixed-size payloads, e.g. blocks). *)

val string : w -> string -> unit
(** Varint length prefix followed by the bytes. *)

exception Short
(** Reader ran out of bytes. *)

exception Bad of string
(** Structurally invalid input (overlong varint, negative length). *)

type r

val reader : Bytes.t -> pos:int -> len:int -> r
val remaining : r -> int
val at_end : r -> bool

val r_u8 : r -> int
val r_u32 : r -> int
val r_varint : r -> int
val r_raw_string : r -> int -> string
val r_string : r -> string
