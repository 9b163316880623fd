type scheme = Voting | Available_copy | Naive_available_copy

let scheme_to_string = function
  | Voting -> "voting"
  | Available_copy -> "available-copy"
  | Naive_available_copy -> "naive-available-copy"

let all_schemes = [ Voting; Available_copy; Naive_available_copy ]

type environment = Multicast | Unique_address

let check ~n ~rho name =
  if n < 2 then invalid_arg (Printf.sprintf "Traffic_model.%s: need n >= 2" name);
  if rho < 0.0 then invalid_arg (Printf.sprintf "Traffic_model.%s: rho must be non-negative" name)

let participation scheme ~n ~rho =
  check ~n ~rho "participation";
  match scheme with
  | Voting -> Voting_model.participation ~n ~rho
  | Available_copy -> Ac_model.participation ~n ~rho
  | Naive_available_copy -> Nac_model.participation ~n ~rho

let write_cost env scheme ~n ~rho =
  check ~n ~rho "write_cost";
  let u = participation scheme ~n ~rho in
  let nf = float_of_int n in
  match (env, scheme) with
  | Multicast, Voting -> 1.0 +. u
  | Multicast, Available_copy -> u
  | Multicast, Naive_available_copy -> 1.0
  | Unique_address, Voting -> nf +. (2.0 *. u) -. 3.0
  | Unique_address, Available_copy -> nf +. u -. 2.0
  | Unique_address, Naive_available_copy -> nf -. 1.0

let read_cost ?(stale = false) env scheme ~n ~rho =
  check ~n ~rho "read_cost";
  let extra = if stale then 1.0 else 0.0 in
  match (env, scheme) with
  | Multicast, Voting -> participation Voting ~n ~rho +. extra
  | Unique_address, Voting -> float_of_int n +. participation Voting ~n ~rho -. 2.0 +. extra
  | (Multicast | Unique_address), (Available_copy | Naive_available_copy) -> 0.0

let recovery_cost env scheme ~n ~rho =
  check ~n ~rho "recovery_cost";
  match (env, scheme) with
  | (Multicast | Unique_address), Voting -> 0.0
  | Multicast, (Available_copy | Naive_available_copy) -> participation scheme ~n ~rho +. 2.0
  | Unique_address, (Available_copy | Naive_available_copy) ->
      float_of_int n +. participation scheme ~n ~rho

let workload_cost env scheme ~n ~rho ~reads_per_write =
  if reads_per_write < 0.0 then invalid_arg "Traffic_model.workload_cost: negative read ratio";
  write_cost env scheme ~n ~rho +. (reads_per_write *. read_cost env scheme ~n ~rho)
