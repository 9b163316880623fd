type id = int

type t = string
(* A block is a [size]-byte string; strings are immutable in OCaml, which
   gives the sharing guarantee advertised in the interface for free. *)

let size = 512

let zero = String.make size '\000'

let normalize s =
  let len = String.length s in
  if len = size then s
  else if len > size then String.sub s 0 size
  else s ^ String.make (size - len) '\000'

let of_string s = normalize s

let of_bytes b = normalize (Bytes.to_string b)

let to_string t = t

let to_bytes t = Bytes.of_string t

let get t i =
  if i < 0 || i >= size then invalid_arg "Block.get: offset out of range";
  t.[i]

let set t i c =
  if i < 0 || i >= size then invalid_arg "Block.set: offset out of range";
  let b = Bytes.of_string t in
  Bytes.set b i c;
  Bytes.unsafe_to_string b

let blit_into t dst off = Bytes.blit_string t 0 dst off size

let equal = String.equal
