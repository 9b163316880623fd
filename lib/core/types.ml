module Int_set = Set.Make (Int)

type site_state = Failed | Comatose | Available

let site_state_to_string = function
  | Failed -> "failed"
  | Comatose -> "comatose"
  | Available -> "available"

let pp_site_state ppf s = Format.pp_print_string ppf (site_state_to_string s)

type scheme = Voting | Available_copy | Naive_available_copy | Dynamic_voting

let scheme_to_string = function
  | Voting -> "voting"
  | Available_copy -> "available-copy"
  | Naive_available_copy -> "naive-available-copy"
  | Dynamic_voting -> "dynamic-voting"

let all_schemes = [ Voting; Available_copy; Naive_available_copy; Dynamic_voting ]

let pp_scheme ppf s = Format.pp_print_string ppf (scheme_to_string s)

type failure_reason = No_quorum | Site_not_available | Timed_out | Current_copy_unreachable | Overloaded

let failure_reason_to_string = function
  | No_quorum -> "no quorum"
  | Site_not_available -> "local site not available"
  | Timed_out -> "timed out"
  | Current_copy_unreachable -> "no reachable data site holds the current version"
  | Overloaded -> "overloaded: admission refused or queue full"

type read_result = (Blockdev.Block.t * int, failure_reason) result
type write_result = (int, failure_reason) result
type batch_write_result = (int list, failure_reason) result

let int_set_of_list l = Int_set.of_list l

let pp_int_set ppf s =
  Format.fprintf ppf "{";
  let first = ref true in
  Int_set.iter
    (fun x ->
      if !first then first := false else Format.fprintf ppf ",";
      Format.fprintf ppf "%d" x)
    s;
  Format.fprintf ppf "}"
