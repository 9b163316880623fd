(* ADR-060-style block file: one flat byte image holding block payloads
   appended in first-write order, plus a compact index of
   (offset, length, version, checksum) per block.

   A block that has never been written is not resident in the image
   (offset -1): it reads as the shared zero block and its index
   checksum covers the zero payload, so it is valid by construction.
   The first write appends a [Block.size] region (the image doubles as
   needed); later writes overwrite that region in place — blocks are
   fixed-size, so regions never move and offsets are stable.

   The index checksum is CRC-32 over the payload bytes mixed with the
   version, so a checksum is valid only for the (payload, version) pair
   it was sealed over.  Crucially, [write] does NOT reseal: payload and
   version land in the image/index and the checksum goes stale until an
   explicit [seal].  The durable layer seals at its commit points;
   anything that bypasses them (a byte fault injected into the image) is
   caught by verification until verified data supersedes it — which is
   exactly the quarantine discipline the media chaos exercises.

   Fault injection operates on actual image bytes ([flip_byte],
   [blit_suffix]), so torn writes and bitrot are byte-accurate: the
   scrub's verdicts come from real checksum arithmetic over the damaged
   region, not from a modeled flag. *)

type t = {
  mutable image : Bytes.t;
  mutable used : int;
  offs : int array; (* -1 = not resident *)
  lens : int array; (* Block.size when resident, 0 otherwise *)
  vers : int array;
  sums : int array;
}

(* Version mixed into the checksum (cf. the sealing comment above). *)
let mix version = version * 0x9e3779b land 0xFFFFFFFF

let zero_block_sum = Codec.Crc.digest_string (Block.to_string Block.zero)

let seal_value t k =
  let crc =
    if t.offs.(k) < 0 then zero_block_sum
    else Codec.Crc.digest_sub t.image ~pos:t.offs.(k) ~len:Block.size
  in
  crc lxor mix t.vers.(k)

let create ~capacity =
  if capacity <= 0 then invalid_arg "Block_file.create: capacity must be positive";
  {
    image = Bytes.empty;
    used = 0;
    offs = Array.make capacity (-1);
    lens = Array.make capacity 0;
    vers = Array.make capacity 0;
    sums = Array.make capacity (zero_block_sum lxor mix 0);
  }

let capacity t = Array.length t.offs

let check t k name =
  if k < 0 || k >= capacity t then
    invalid_arg (Printf.sprintf "Block_file.%s: block %d out of range" name k)

(* Append a region for block [k] holding its current logical payload
   (the zero block).  Doubling growth keeps appends amortised O(1); the
   image only ever holds regions for blocks actually written or faulted,
   so sparse million-block devices stay sparse. *)
let ensure_resident t k =
  if t.offs.(k) < 0 then begin
    let need = t.used + Block.size in
    if need > Bytes.length t.image then begin
      let cap = max need (max 4096 (2 * Bytes.length t.image)) in
      let image = Bytes.create cap in
      Bytes.blit t.image 0 image 0 t.used;
      t.image <- image
    end;
    Bytes.fill t.image t.used Block.size '\000';
    t.offs.(k) <- t.used;
    t.lens.(k) <- Block.size;
    t.used <- need
  end

let read t k =
  check t k "read";
  if t.offs.(k) < 0 then Block.zero
  else Block.of_string (Bytes.sub_string t.image t.offs.(k) Block.size)

let version t k =
  check t k "version";
  t.vers.(k)

let write t k data ~version =
  check t k "write";
  ensure_resident t k;
  Bytes.blit_string (Block.to_string data) 0 t.image t.offs.(k) Block.size;
  t.vers.(k) <- version

let seal t k =
  check t k "seal";
  t.sums.(k) <- seal_value t k

let checksum_ok t k =
  check t k "checksum_ok";
  t.sums.(k) = seal_value t k

let reset t =
  t.used <- 0;
  for k = 0 to capacity t - 1 do
    t.offs.(k) <- -1;
    t.lens.(k) <- 0;
    t.vers.(k) <- 0;
    t.sums.(k) <- zero_block_sum lxor mix 0
  done

let flip_byte t k ~pos ~mask =
  check t k "flip_byte";
  if pos < 0 || pos >= Block.size then invalid_arg "Block_file.flip_byte: offset out of range";
  ensure_resident t k;
  let i = t.offs.(k) + pos in
  Bytes.unsafe_set t.image i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.image i) lxor (mask land 0xff)))

let blit_suffix t k ~from s =
  check t k "blit_suffix";
  if from < 0 || from > Block.size then invalid_arg "Block_file.blit_suffix: bad tear point";
  if String.length s <> Block.size then invalid_arg "Block_file.blit_suffix: payload size";
  ensure_resident t k;
  Bytes.blit_string s from t.image (t.offs.(k) + from) (Block.size - from)
