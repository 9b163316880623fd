(** Length-prefixed, CRC-32-checksummed framing over {!Buf}.

    Layout: [[magic u8][payload_len u32le][crc32 u32le][payload]] — a
    9-byte header; the CRC covers exactly the payload.  [decode]
    validates magic, length and CRC before the payload is exposed, so a
    payload decoder only ever runs over checksummed bytes. *)

val magic : int
val header_bytes : int

type error =
  | Truncated of { expected : int; got : int }
      (** Buffer shorter than the header or the declared frame. *)
  | Bad_magic of int
  | Trailing of int  (** Bytes left over after the declared frame. *)
  | Crc_mismatch of { stored : int; computed : int }

val pp_error : Format.formatter -> error -> unit

val encoded_size : payload:(Buf.w -> unit) -> int
(** Size of the frame [encode] would produce, via a counting pass —
    no allocation. *)

val encode : payload:(Buf.w -> unit) -> Bytes.t
(** Frame the payload emitter's output: one counting pass, one
    exactly-sized allocation, one writing pass, CRC patched in place. *)

val decode : Bytes.t -> (Buf.r, error) result
(** Validate the whole buffer as exactly one frame and return a reader
    over its payload.  Never raises. *)

val decode_sub : Bytes.t -> pos:int -> len:int -> (Buf.r, error) result
(** [decode] over a sub-region. *)
