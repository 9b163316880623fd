type t = { weights : int array; read_threshold : int; write_threshold : int; total : int }

let create ~weights ?read_threshold ?write_threshold () =
  if Array.length weights = 0 then Error "no sites"
  else if Array.exists (fun w -> w <= 0) weights then Error "weights must be positive"
  else begin
    let total = Array.fold_left ( + ) 0 weights in
    let default = (total / 2) + 1 in
    let read_threshold = Option.value read_threshold ~default in
    let write_threshold = Option.value write_threshold ~default in
    if read_threshold <= 0 || write_threshold <= 0 then Error "thresholds must be positive"
    else if read_threshold + write_threshold <= total then
      Error "read + write thresholds must exceed total weight"
    else if 2 * write_threshold <= total then Error "write threshold must exceed half the total weight"
    else Ok { weights = Array.copy weights; read_threshold; write_threshold; total }
  end

let unsafe ~weights ~read_threshold ~write_threshold =
  if Array.length weights = 0 then invalid_arg "Quorum.unsafe: no sites";
  if Array.exists (fun w -> w <= 0) weights then
    invalid_arg "Quorum.unsafe: weights must be positive";
  let total = Array.fold_left ( + ) 0 weights in
  if read_threshold <= 0 || write_threshold <= 0 then
    invalid_arg "Quorum.unsafe: thresholds must be positive";
  if read_threshold > total || write_threshold > total then
    invalid_arg "Quorum.unsafe: thresholds exceed total weight";
  { weights = Array.copy weights; read_threshold; write_threshold; total }

let majority ~n =
  if n < 1 then invalid_arg "Quorum.majority: need n >= 1";
  let weights = if n mod 2 = 1 then Array.make n 1 else Array.init n (fun i -> if i = 0 then 3 else 2) in
  match create ~weights () with
  | Ok q -> q
  | Error msg -> invalid_arg ("Quorum.majority: " ^ msg)

let n_sites t = Array.length t.weights

let weight t i =
  if i < 0 || i >= Array.length t.weights then invalid_arg "Quorum.weight: bad site";
  t.weights.(i)

let total_weight t = t.total
let read_threshold t = t.read_threshold
let write_threshold t = t.write_threshold

let weight_of t sites = List.fold_left (fun acc s -> acc + weight t s) 0 sites

let read_quorum_met t w = w >= t.read_threshold
let write_quorum_met t w = w >= t.write_threshold
