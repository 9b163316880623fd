(* SplitMix64 (Steele, Lea & Flood 2014), owned by the benchmark so that no
   library change can change its inputs.  The state lives in a Bytes cell
   so that drawing allocates nothing. *)

type t = Bytes.t

let create seed =
  let s = Bytes.create 8 in
  Bytes.set_int64_le s 0 (Int64.of_int seed);
  s

(* 62 uniform bits as a non-negative int. *)
let bits t =
  let z = Int64.add (Bytes.get_int64_le t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.shift_right_logical (Int64.logxor z (Int64.shift_right_logical z 31)) 2)

(* The stream for [(seed, stream)]: its state is a mixed output of the
   pair, so neighbouring seeds and streams start far apart. *)
let derive seed stream = create (bits (create (seed lxor (stream * 0x1E3779B97F4A7C15))))

let int t bound = bits t mod bound

(* Uniform on (0, 1]. *)
let unit_pos t = Float.of_int ((bits t lsr 9) + 1) *. 0x1p-53

let exponential t ~rate = -.log (unit_pos t) /. rate
