let binomial n k =
  if k < 0 || k > n then 0.0
  else begin
    (* Multiplicative form, exact in float for the modest n used here. *)
    let k = Int.min k (n - k) in
    let rec go acc i =
      if i > k then acc else go (acc *. float_of_int (n - k + i) /. float_of_int i) (i + 1)
    in
    go 1.0 1
  end

let check ~n ~rho name =
  if n < 1 then invalid_arg (Printf.sprintf "Voting_model.%s: need n >= 1" name);
  if rho < 0.0 then invalid_arg (Printf.sprintf "Voting_model.%s: rho must be non-negative" name)

let site_availability ~rho = 1.0 /. (1.0 +. rho)

(* P(exactly k of n sites up) with site availability 1/(1+rho):
   C(n,k) rho^(n-k) / (1+rho)^n. *)
let p_up ~n ~rho k = binomial n k *. (rho ** float_of_int (n - k)) /. ((1.0 +. rho) ** float_of_int n)

(* Sum both tails, the tie term split half and half, and answer from the
   smaller one: its rounding error is tiny next to its own size, so the
   result stays inside [0,1] where a large sum of rounded terms could
   land just above 1. *)
let availability ~n ~rho =
  check ~n ~rho "availability";
  let majority = ref 0.0 and minority = ref 0.0 in
  for k = 0 to n do
    let p = p_up ~n ~rho k in
    if 2 * k > n then majority := !majority +. p
    else if 2 * k < n then minority := !minority +. p
    else begin
      majority := !majority +. (0.5 *. p);
      minority := !minority +. (0.5 *. p)
    end
  done;
  if !majority <= !minority then !majority else 1.0 -. !minority

let availability_upper_bound ~n ~rho =
  check ~n ~rho "availability_upper_bound";
  if n mod 2 = 0 then invalid_arg "Voting_model.availability_upper_bound: odd n only";
  let half = (n + 1) / 2 in
  1.0 -. (binomial n half *. (rho ** float_of_int half) /. ((1.0 +. rho) ** float_of_int n))

let participation ~n ~rho =
  check ~n ~rho "participation";
  let nf = float_of_int n in
  nf *. ((1.0 +. rho) ** (nf -. 1.0)) /. (((1.0 +. rho) ** nf) -. (rho ** nf))

let participation_approx ~n ~rho =
  check ~n ~rho "participation_approx";
  float_of_int n *. (1.0 -. rho)
