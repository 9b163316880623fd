type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () = { n = 0; mean = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity }

let add s x =
  s.n <- s.n + 1;
  let delta = x -. s.mean in
  s.mean <- s.mean +. (delta /. float_of_int s.n);
  s.m2 <- s.m2 +. (delta *. (x -. s.mean));
  if x < s.min_v then s.min_v <- x;
  if x > s.max_v then s.max_v <- x

let count s = s.n
let mean s = if s.n = 0 then nan else s.mean
let variance s = if s.n < 2 then nan else s.m2 /. float_of_int (s.n - 1)
let stddev s = sqrt (variance s)
let min_value s = s.min_v
let max_value s = s.max_v

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
    in
    { n; mean; m2; min_v = Float.min a.min_v b.min_v; max_v = Float.max a.max_v b.max_v }
  end

module Timed = struct
  type t = {
    start : float;
    mutable last_time : float;
    mutable last_value : float;
    mutable accum : float;
  }

  let create ~at ~value = { start = at; last_time = at; last_value = value; accum = 0.0 }

  let update t ~at ~value =
    if at < t.last_time then invalid_arg "Stats.Timed.update: time went backwards";
    t.accum <- t.accum +. (t.last_value *. (at -. t.last_time));
    t.last_time <- at;
    t.last_value <- value

  let integral t ~upto =
    if upto < t.last_time then invalid_arg "Stats.Timed.integral: upto precedes last update";
    t.accum +. (t.last_value *. (upto -. t.last_time))

  let average t ~upto =
    let span = upto -. t.start in
    if span <= 0.0 then nan else integral t ~upto /. span
end

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    width : float;
    counts : int array;
    mutable total : int;
    mutable underflow : int;
    mutable overflow : int;
  }

  let create ~lo ~hi ~bins =
    if bins <= 0 then invalid_arg "Stats.Histogram.create: bins must be positive";
    if hi <= lo then invalid_arg "Stats.Histogram.create: hi must exceed lo";
    {
      lo;
      hi;
      width = (hi -. lo) /. float_of_int bins;
      counts = Array.make bins 0;
      total = 0;
      underflow = 0;
      overflow = 0;
    }

  (* Out-of-range samples used to be clamped into the edge bins, which
     dragged the edge quantiles toward the range limits; they are now
     tracked separately so the in-range quantiles stay faithful. *)
  let add h x =
    h.total <- h.total + 1;
    if x < h.lo then h.underflow <- h.underflow + 1
    else if x >= h.hi then h.overflow <- h.overflow + 1
    else begin
      let bins = Array.length h.counts in
      let idx = int_of_float ((x -. h.lo) /. h.width) in
      let idx = if idx >= bins then bins - 1 else idx in
      h.counts.(idx) <- h.counts.(idx) + 1
    end

  let merge a b =
    if a.lo <> b.lo || a.hi <> b.hi || Array.length a.counts <> Array.length b.counts then
      invalid_arg "Stats.Histogram.merge: incompatible geometries";
    let counts = Array.make (Array.length a.counts) 0 in
    for i = 0 to Array.length counts - 1 do
      counts.(i) <- a.counts.(i) + b.counts.(i)
    done;
    {
      lo = a.lo;
      hi = a.hi;
      width = a.width;
      counts;
      total = a.total + b.total;
      underflow = a.underflow + b.underflow;
      overflow = a.overflow + b.overflow;
    }

  let counts h = Array.copy h.counts
  let total h = h.total
  let underflow h = h.underflow
  let overflow h = h.overflow
  let in_range h = h.total - h.underflow - h.overflow

  let quantile h q =
    let n = in_range h in
    if n = 0 then nan
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let target = q *. float_of_int n in
      let rec walk i seen =
        if i >= Array.length h.counts then h.hi
        else
          let seen' = seen +. float_of_int h.counts.(i) in
          if seen' >= target && h.counts.(i) > 0 then
            let frac = (target -. seen) /. float_of_int h.counts.(i) in
            h.lo +. ((float_of_int i +. frac) *. h.width)
          else walk (i + 1) seen'
      in
      walk 0 0.0
    end
end
