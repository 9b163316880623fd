(* Tests for Analysis: Voting_model, Ac_model, Nac_model, Traffic_model. *)

let check_close ?(tol = 1e-9) msg expected actual = Alcotest.(check (float tol)) msg expected actual

let rhos = [ 0.0; 0.01; 0.05; 0.1; 0.2; 0.5; 1.0 ]

(* ------------------------------------------------------------------ *)
(* Voting model                                                        *)
(* ------------------------------------------------------------------ *)

let test_binomial () =
  Alcotest.(check (float 1e-9)) "C(5,2)" 10.0 (Analysis.Voting_model.binomial 5 2);
  Alcotest.(check (float 1e-9)) "C(7,0)" 1.0 (Analysis.Voting_model.binomial 7 0);
  Alcotest.(check (float 1e-9)) "C(7,7)" 1.0 (Analysis.Voting_model.binomial 7 7);
  Alcotest.(check (float 1e-9)) "C(4,5)=0" 0.0 (Analysis.Voting_model.binomial 4 5);
  Alcotest.(check (float 1e-9)) "C(4,-1)=0" 0.0 (Analysis.Voting_model.binomial 4 (-1));
  Alcotest.(check (float 1e-3)) "C(20,10)" 184756.0 (Analysis.Voting_model.binomial 20 10)

let test_voting_perfect_sites () =
  List.iter
    (fun n -> check_close (Printf.sprintf "A_V(%d) at rho=0" n) 1.0 (Analysis.Voting_model.availability ~n ~rho:0.0))
    [ 1; 3; 5; 8 ]

let test_voting_single_copy () =
  List.iter
    (fun rho ->
      check_close "A_V(1)=1/(1+rho)" (1.0 /. (1.0 +. rho)) (Analysis.Voting_model.availability ~n:1 ~rho))
    rhos

let test_voting_three_copies_closed_form () =
  (* A_V(3) = (1 + 3 rho) / (1+rho)^3. *)
  List.iter
    (fun rho ->
      check_close
        (Printf.sprintf "A_V(3) rho=%g" rho)
        ((1.0 +. (3.0 *. rho)) /. ((1.0 +. rho) ** 3.0))
        (Analysis.Voting_model.availability ~n:3 ~rho))
    rhos

let test_voting_even_odd_identity () =
  List.iter
    (fun rho ->
      List.iter
        (fun k ->
          check_close
            (Printf.sprintf "A_V(%d)=A_V(%d)" (2 * k) ((2 * k) - 1))
            (Analysis.Voting_model.availability ~n:((2 * k) - 1) ~rho)
            (Analysis.Voting_model.availability ~n:(2 * k) ~rho))
        [ 1; 2; 3; 4; 5 ])
    rhos

let test_voting_more_copies_help () =
  (* For rho < 1, more (odd) copies mean more availability. *)
  List.iter
    (fun rho ->
      let a3 = Analysis.Voting_model.availability ~n:3 ~rho in
      let a5 = Analysis.Voting_model.availability ~n:5 ~rho in
      let a7 = Analysis.Voting_model.availability ~n:7 ~rho in
      if not (a7 > a5 && a5 > a3) then Alcotest.failf "monotonicity fails at rho=%g" rho)
    [ 0.01; 0.05; 0.1; 0.2 ]

let test_voting_upper_bound () =
  List.iter
    (fun rho ->
      List.iter
        (fun n ->
          let a = Analysis.Voting_model.availability ~n ~rho in
          let bound = Analysis.Voting_model.availability_upper_bound ~n ~rho in
          if a >= bound then Alcotest.failf "bound violated at n=%d rho=%g" n rho)
        [ 3; 5; 7 ])
    [ 0.01; 0.1; 0.5; 1.0 ]

let test_voting_upper_bound_rejects_even () =
  Alcotest.check_raises "even n rejected"
    (Invalid_argument "Voting_model.availability_upper_bound: odd n only") (fun () ->
      ignore (Analysis.Voting_model.availability_upper_bound ~n:4 ~rho:0.1))

let test_participation_limits () =
  (* Perfect sites: everyone participates. *)
  check_close "U_V = n at rho=0" 5.0 (Analysis.Voting_model.participation ~n:5 ~rho:0.0);
  (* Approximation n(1-rho) for small rho. *)
  check_close ~tol:0.01 "first-order approx" (Analysis.Voting_model.participation_approx ~n:5 ~rho:0.02)
    (Analysis.Voting_model.participation ~n:5 ~rho:0.02)

(* ------------------------------------------------------------------ *)
(* AC model                                                            *)
(* ------------------------------------------------------------------ *)

let test_ac_equation_2 () =
  let rho = 0.3 in
  check_close "eq (2)"
    ((1.0 +. (3.0 *. rho) +. (rho *. rho)) /. ((1.0 +. rho) ** 3.0))
    (Analysis.Ac_model.availability ~n:2 ~rho)

let test_ac_closed_vs_chain () =
  List.iter
    (fun rho ->
      List.iter
        (fun n ->
          check_close
            (Printf.sprintf "A_A(%d) rho=%g" n rho)
            (Markov.Chains.ac_availability ~n ~rho)
            (Analysis.Ac_model.availability ~n ~rho))
        [ 1; 2; 3; 4; 5; 6 ])
    [ 0.01; 0.1; 0.5 ]

let test_ac_closed_form_coverage () =
  Alcotest.(check bool) "closed form for n<=4" true
    (List.for_all (fun n -> Analysis.Ac_model.availability_closed ~n ~rho:0.1 <> None) [ 1; 2; 3; 4 ]);
  Alcotest.(check bool) "no closed form beyond" true
    (Analysis.Ac_model.availability_closed ~n:5 ~rho:0.1 = None)

let test_ac_lower_bound () =
  List.iter
    (fun rho ->
      List.iter
        (fun n ->
          let a = Analysis.Ac_model.availability ~n ~rho in
          let b = Analysis.Ac_model.lower_bound ~n ~rho in
          if a <= b then Alcotest.failf "bound (5) violated n=%d rho=%g (%g <= %g)" n rho a b)
        [ 2; 3; 4; 5; 6; 7 ])
    [ 0.01; 0.1; 0.5; 1.0 ]

let test_theorem_4_1 () =
  (* A_A(n) > A_V(2n-1) = A_V(2n) for rho <= 1. *)
  List.iter
    (fun rho ->
      List.iter
        (fun n ->
          let ac = Analysis.Ac_model.availability ~n ~rho in
          let v = Analysis.Voting_model.availability ~n:((2 * n) - 1) ~rho in
          if ac <= v then Alcotest.failf "theorem fails n=%d rho=%g" n rho)
        [ 2; 3; 4; 5; 6 ])
    [ 0.01; 0.1; 0.5; 1.0 ]

let test_theorem_sufficient_condition () =
  (* Inequality (6) holds for n >= 4 and rho <= 1, per the proof. *)
  List.iter
    (fun rho ->
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "condition (6) n=%d rho=%g" n rho)
            true
            (Analysis.Ac_model.theorem_4_1_sufficient ~n ~rho))
        [ 4; 5; 6; 7; 8 ])
    [ 0.1; 0.5; 1.0 ]

(* ------------------------------------------------------------------ *)
(* NAC model                                                           *)
(* ------------------------------------------------------------------ *)

let test_nac_b_poly_n1 () =
  (* B(1;rho) = 1 for any rho: single term j=k=1, coefficient 0!0!/0!1! = 1. *)
  check_close "B(1;rho)" 1.0 (Analysis.Nac_model.b_poly ~n:1 ~rho:0.37)

let test_nac_single_copy () =
  List.iter
    (fun rho ->
      if rho > 0.0 then
        check_close "A_NA(1) = 1/(1+rho)" (1.0 /. (1.0 +. rho)) (Analysis.Nac_model.availability ~n:1 ~rho))
    rhos

let test_nac_equals_v3 () =
  List.iter
    (fun rho ->
      check_close
        (Printf.sprintf "A_NA(2)=A_V(3) rho=%g" rho)
        (Analysis.Voting_model.availability ~n:3 ~rho)
        (Analysis.Nac_model.availability ~n:2 ~rho))
    rhos

let test_nac_below_ac () =
  List.iter
    (fun rho ->
      List.iter
        (fun n ->
          let nac = Analysis.Nac_model.availability ~n ~rho in
          let ac = Analysis.Ac_model.availability ~n ~rho in
          if nac > ac +. 1e-12 then Alcotest.failf "NAC above AC at n=%d rho=%g" n rho)
        [ 2; 3; 4; 5 ])
    [ 0.05; 0.2; 0.5; 1.0 ]

let test_nac_rejects_bad_rho () =
  Alcotest.check_raises "rho=0 in b_poly" (Invalid_argument "Nac_model.b_poly: rho must be positive")
    (fun () -> ignore (Analysis.Nac_model.b_poly ~n:3 ~rho:0.0))

(* ------------------------------------------------------------------ *)
(* Traffic model                                                       *)
(* ------------------------------------------------------------------ *)

let test_traffic_failure_free_limits () =
  (* With rho -> 0 every participation is n, giving the table of Section 5
     with U = n. *)
  let open Analysis.Traffic_model in
  let n = 5 and rho = 1e-9 in
  let nf = 5.0 in
  check_close ~tol:1e-6 "mc voting write" (1.0 +. nf) (write_cost Multicast Voting ~n ~rho);
  check_close ~tol:1e-6 "mc voting read" nf (read_cost Multicast Voting ~n ~rho);
  check_close ~tol:1e-6 "mc ac write" nf (write_cost Multicast Available_copy ~n ~rho);
  check_close ~tol:1e-6 "mc nac write" 1.0 (write_cost Multicast Naive_available_copy ~n ~rho);
  check_close ~tol:1e-6 "mc copy read free" 0.0 (read_cost Multicast Available_copy ~n ~rho);
  check_close ~tol:1e-6 "ua voting write" ((3.0 *. nf) -. 3.0) (write_cost Unique_address Voting ~n ~rho);
  check_close ~tol:1e-6 "ua voting read" ((2.0 *. nf) -. 2.0) (read_cost Unique_address Voting ~n ~rho);
  check_close ~tol:1e-6 "ua ac write" ((2.0 *. nf) -. 2.0)
    (write_cost Unique_address Available_copy ~n ~rho);
  check_close ~tol:1e-6 "ua nac write" (nf -. 1.0)
    (write_cost Unique_address Naive_available_copy ~n ~rho)

let test_traffic_stale_read_penalty () =
  let open Analysis.Traffic_model in
  let base = read_cost Multicast Voting ~n:5 ~rho:0.05 in
  let stale = read_cost ~stale:true Multicast Voting ~n:5 ~rho:0.05 in
  check_close "one extra message" 1.0 (stale -. base)

let test_traffic_recovery () =
  let open Analysis.Traffic_model in
  check_close ~tol:1e-6 "voting free recovery" 0.0 (recovery_cost Multicast Voting ~n:5 ~rho:0.05);
  let ac = recovery_cost Multicast Available_copy ~n:5 ~rho:0.05 in
  let u = participation Available_copy ~n:5 ~rho:0.05 in
  check_close "ac recovery = U+2" (u +. 2.0) ac;
  let ua = recovery_cost Unique_address Naive_available_copy ~n:5 ~rho:0.05 in
  let un = participation Naive_available_copy ~n:5 ~rho:0.05 in
  check_close "ua nac recovery = n+U" (5.0 +. un) ua

let test_traffic_workload_linear_in_reads () =
  let open Analysis.Traffic_model in
  let w = workload_cost Multicast Voting ~n:5 ~rho:0.05 in
  let r = read_cost Multicast Voting ~n:5 ~rho:0.05 in
  check_close "x=0 is write cost" (write_cost Multicast Voting ~n:5 ~rho:0.05)
    (w ~reads_per_write:0.0);
  check_close "slope is read cost" r (w ~reads_per_write:3.0 -. w ~reads_per_write:2.0)

let test_traffic_ordering_at_typical_ratio () =
  (* The paper's conclusion: NAC < AC < voting at any realistic mix. *)
  let open Analysis.Traffic_model in
  List.iter
    (fun env ->
      List.iter
        (fun n ->
          let cost s = workload_cost env s ~n ~rho:0.05 ~reads_per_write:2.5 in
          let v = cost Voting and ac = cost Available_copy and nac = cost Naive_available_copy in
          if not (nac < ac && ac < v) then
            Alcotest.failf "ordering fails at n=%d: v=%g ac=%g nac=%g" n v ac nac)
        [ 2; 3; 5; 8; 10 ])
    [ Multicast; Unique_address ]

let test_traffic_nac_write_constant_multicast () =
  let open Analysis.Traffic_model in
  List.iter
    (fun n ->
      check_close "nac multicast write always 1" 1.0
        (write_cost Multicast Naive_available_copy ~n ~rho:0.05))
    [ 2; 4; 8 ]

let test_traffic_rejects_small_n () =
  Alcotest.check_raises "n=1 rejected" (Invalid_argument "Traffic_model.write_cost: need n >= 2")
    (fun () ->
      ignore (Analysis.Traffic_model.write_cost Analysis.Traffic_model.Multicast Analysis.Traffic_model.Voting ~n:1 ~rho:0.1))

(* A seed of the property below once drew rho = 0x1.0f72606bfe8p-12, where
   summing the rounded majority terms at n = 12, shrunk to n = 9, landed
   just above 1. *)
let test_voting_unit_interval_regression () =
  let rho = 0x1.0f72606bfe8p-12 in
  List.iter
    (fun n ->
      let a = Analysis.Voting_model.availability ~n ~rho in
      Alcotest.(check bool) (Printf.sprintf "A_V(%d) = %.17g in [0,1]" n a) true (a >= 0.0 && a <= 1.0))
    [ 9; 12 ]

let prop_voting_availability_in_unit_interval =
  QCheck.Test.make ~name:"A_V within [0,1]" ~count:300
    QCheck.(pair (int_range 1 12) (float_range 0.0 5.0))
    (fun (n, rho) ->
      let a = Analysis.Voting_model.availability ~n ~rho in
      a >= 0.0 && a <= 1.0)

let prop_nac_availability_in_unit_interval =
  QCheck.Test.make ~name:"A_NA within [0,1]" ~count:300
    QCheck.(pair (int_range 1 8) (float_range 0.001 5.0))
    (fun (n, rho) ->
      let a = Analysis.Nac_model.availability ~n ~rho in
      a >= 0.0 && a <= 1.0)

let () =
  Alcotest.run "analysis"
    [
      ( "voting-model",
        [
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "perfect sites" `Quick test_voting_perfect_sites;
          Alcotest.test_case "single copy" `Quick test_voting_single_copy;
          Alcotest.test_case "A_V(3) closed form" `Quick test_voting_three_copies_closed_form;
          Alcotest.test_case "even = odd identity" `Quick test_voting_even_odd_identity;
          Alcotest.test_case "more copies help" `Quick test_voting_more_copies_help;
          Alcotest.test_case "upper bound" `Quick test_voting_upper_bound;
          Alcotest.test_case "upper bound odd-only" `Quick test_voting_upper_bound_rejects_even;
          Alcotest.test_case "participation limits" `Quick test_participation_limits;
          Alcotest.test_case "within [0,1] near rho = 0" `Quick test_voting_unit_interval_regression;
          QCheck_alcotest.to_alcotest prop_voting_availability_in_unit_interval;
        ] );
      ( "ac-model",
        [
          Alcotest.test_case "equation (2)" `Quick test_ac_equation_2;
          Alcotest.test_case "closed vs chain" `Quick test_ac_closed_vs_chain;
          Alcotest.test_case "closed form coverage" `Quick test_ac_closed_form_coverage;
          Alcotest.test_case "lower bound (5)" `Quick test_ac_lower_bound;
          Alcotest.test_case "theorem 4.1" `Quick test_theorem_4_1;
          Alcotest.test_case "sufficient condition (6)" `Quick test_theorem_sufficient_condition;
        ] );
      ( "nac-model",
        [
          Alcotest.test_case "B(1;rho)" `Quick test_nac_b_poly_n1;
          Alcotest.test_case "single copy" `Quick test_nac_single_copy;
          Alcotest.test_case "A_NA(2)=A_V(3)" `Quick test_nac_equals_v3;
          Alcotest.test_case "NAC below AC" `Quick test_nac_below_ac;
          Alcotest.test_case "bad rho rejected" `Quick test_nac_rejects_bad_rho;
          QCheck_alcotest.to_alcotest prop_nac_availability_in_unit_interval;
        ] );
      ( "traffic-model",
        [
          Alcotest.test_case "failure-free limits" `Quick test_traffic_failure_free_limits;
          Alcotest.test_case "stale read penalty" `Quick test_traffic_stale_read_penalty;
          Alcotest.test_case "recovery costs" `Quick test_traffic_recovery;
          Alcotest.test_case "linearity in reads" `Quick test_traffic_workload_linear_in_reads;
          Alcotest.test_case "scheme ordering" `Quick test_traffic_ordering_at_typical_ratio;
          Alcotest.test_case "nac write constant" `Quick test_traffic_nac_write_constant_multicast;
          Alcotest.test_case "small n rejected" `Quick test_traffic_rejects_small_n;
        ] );
    ]
