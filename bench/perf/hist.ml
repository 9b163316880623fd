(* Log-linear histogram of positive floats: 128 linear sub-buckets per
   power of two, indexed straight from the IEEE-754 exponent and the top
   seven mantissa bits.  A bucket spans at most 1/128 of its lower bound,
   so any point in it is within 0.8% of every value it holds.  Values
   below 2^-40 count as zero; values at or above 2^40 land in the top
   bucket. *)

let sub_bits = 7
let sub = 1 lsl sub_bits
let min_exp = 1023 - 40
let max_exp = 1023 + 40
let n_buckets = (max_exp - min_exp) * sub

(* [sum] is a one-cell float array so that adding stores an unboxed float. *)
type t = { counts : int array; mutable n : int; mutable zeros : int; sum : Float.Array.t }

let create () = { counts = Array.make n_buckets 0; n = 0; zeros = 0; sum = Float.Array.make 1 0.0 }

let add t v =
  t.n <- t.n + 1;
  Float.Array.set t.sum 0 (Float.Array.get t.sum 0 +. v);
  let bits = Int64.to_int (Int64.bits_of_float v) in
  let e = (bits lsr 52) land 0x7ff in
  if v <= 0.0 || e < min_exp then t.zeros <- t.zeros + 1
  else
    let i =
      if e >= max_exp then n_buckets - 1
      else ((e - min_exp) lsl sub_bits) lor ((bits lsr (52 - sub_bits)) land (sub - 1))
    in
    t.counts.(i) <- t.counts.(i) + 1
[@@inline]

let reset t =
  Array.fill t.counts 0 n_buckets 0;
  t.n <- 0;
  t.zeros <- 0;
  Float.Array.set t.sum 0 0.0
let mean t = if t.n = 0 then 0.0 else Float.Array.get t.sum 0 /. Float.of_int t.n

let merge ~into t =
  into.n <- into.n + t.n;
  into.zeros <- into.zeros + t.zeros;
  Float.Array.set into.sum 0 (Float.Array.get into.sum 0 +. Float.Array.get t.sum 0);
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts

let lower i =
  let e = (i lsr sub_bits) + min_exp - 1023 and m = i land (sub - 1) in
  Float.ldexp (1.0 +. (Float.of_int m /. Float.of_int sub)) e

(* The value at rank ceil(q * n), placed inside its bucket by linear
   interpolation over the bucket's samples; 0 when empty. *)
let quantile t q =
  if t.n = 0 then 0.0
  else
    let rank = max 1 (Float.to_int (Float.ceil (q *. Float.of_int t.n))) in
    if rank <= t.zeros then 0.0
    else
      let rec go i seen =
        let c = t.counts.(i) in
        if seen + c >= rank || i = n_buckets - 1 then
          let lo = lower i in
          let width = lo /. Float.of_int (sub + (i land (sub - 1))) in
          lo +. (width *. ((Float.of_int (rank - seen) -. 0.5) /. Float.of_int (max c 1)))
        else go (i + 1) (seen + c)
      in
      go 0 t.zeros

(* Canonical text of the non-empty buckets, for fingerprints. *)
let render t =
  let b = Buffer.create 256 in
  Printf.bprintf b "n=%d z=%d" t.n t.zeros;
  Array.iteri (fun i c -> if c > 0 then Printf.bprintf b " %d:%d" i c) t.counts;
  Buffer.contents b
