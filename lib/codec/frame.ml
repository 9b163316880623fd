(* Length-prefixed, checksummed framing.

   Layout (9-byte header, little-endian fixed-width fields):

     offset 0      1            5           9
            [magic][payload len][crc32     ][payload bytes ...]
             u8     u32le        u32le

   The CRC covers exactly the payload region.  [decode] validates
   magic, declared length against the buffer, and CRC *before* handing
   the payload to the caller, so payload decoders only ever see
   checksummed bytes.  Encoding is two passes over the payload emitter
   (count, then write into one exactly-sized buffer) — no intermediate
   allocation. *)

let magic = 0xB5
let header_bytes = 9
let crc_offset = 5

type error =
  | Truncated of { expected : int; got : int }
  | Bad_magic of int
  | Trailing of int
  | Crc_mismatch of { stored : int; computed : int }

let pp_error ppf = function
  | Truncated { expected; got } ->
      Format.fprintf ppf "truncated frame: need %d bytes, have %d" expected got
  | Bad_magic b -> Format.fprintf ppf "bad frame magic 0x%02x" b
  | Trailing n -> Format.fprintf ppf "%d trailing bytes after frame" n
  | Crc_mismatch { stored; computed } ->
      Format.fprintf ppf "crc mismatch: stored 0x%08x, computed 0x%08x" stored
        computed

let encoded_size ~payload =
  let w = Buf.counter () in
  payload w;
  header_bytes + Buf.length w

let encode ~payload =
  let w = Buf.counter () in
  payload w;
  let plen = Buf.length w in
  let out = Buf.writer (header_bytes + plen) in
  Buf.u8 out magic;
  Buf.u32 out plen;
  Buf.u32 out 0;
  payload out;
  let buf = Buf.contents out in
  let crc = Crc.digest_sub buf ~pos:header_bytes ~len:plen in
  Bytes.unsafe_set buf crc_offset (Char.unsafe_chr (crc land 0xff));
  Bytes.unsafe_set buf (crc_offset + 1) (Char.unsafe_chr ((crc lsr 8) land 0xff));
  Bytes.unsafe_set buf (crc_offset + 2) (Char.unsafe_chr ((crc lsr 16) land 0xff));
  Bytes.unsafe_set buf (crc_offset + 3) (Char.unsafe_chr ((crc lsr 24) land 0xff));
  buf

let decode_sub buf ~pos ~len =
  if len < header_bytes then
    Error (Truncated { expected = header_bytes; got = len })
  else begin
    let hdr = Buf.reader buf ~pos ~len:header_bytes in
    let m = Buf.r_u8 hdr in
    if m <> magic then Error (Bad_magic m)
    else begin
      let plen = Buf.r_u32 hdr in
      let stored = Buf.r_u32 hdr in
      let total = header_bytes + plen in
      if len < total then Error (Truncated { expected = total; got = len })
      else if len > total then Error (Trailing (len - total))
      else begin
        let computed = Crc.digest_sub buf ~pos:(pos + header_bytes) ~len:plen in
        if computed <> stored then Error (Crc_mismatch { stored; computed })
        else Ok (Buf.reader buf ~pos:(pos + header_bytes) ~len:plen)
      end
    end
  end

let decode buf = decode_sub buf ~pos:0 ~len:(Bytes.length buf)
