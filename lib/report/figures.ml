type availability_row = {
  rho : float;
  voting : float;
  ac_closed : float;
  ac_chain : float;
  nac_closed : float;
  nac_chain : float;
  ac_sim : float option;
  nac_sim : float option;
  voting_sim : float option;
}

let default_rhos = List.init 11 (fun i -> 0.02 *. float_of_int i)

let simulate_availability scheme ~n_sites ~rho ~horizon =
  if rho <= 0.0 then 1.0
  else
    (Workload.Experiment.measure_availability ~scheme ~n_sites ~rho ~horizon ()).availability

let figure_9_10 ~n_copies ?(rhos = default_rhos) ?(simulate = false) ?(sim_horizon = 50_000.0) () =
  if n_copies < 2 then invalid_arg "Figures.figure_9_10: need at least two copies";
  let voting_n = 2 * n_copies in
  let row rho =
    let nac_closed = if rho = 0.0 then 1.0 else Analysis.Nac_model.availability ~n:n_copies ~rho in
    let sim scheme n = if simulate then Some (simulate_availability scheme ~n_sites:n ~rho ~horizon:sim_horizon) else None in
    {
      rho;
      voting = Analysis.Voting_model.availability ~n:voting_n ~rho;
      ac_closed = Analysis.Ac_model.availability ~n:n_copies ~rho;
      ac_chain = Markov.Chains.ac_availability ~n:n_copies ~rho;
      nac_closed;
      nac_chain = Markov.Chains.nac_availability ~n:n_copies ~rho;
      ac_sim = sim Blockrep.Types.Available_copy n_copies;
      nac_sim = sim Blockrep.Types.Naive_available_copy n_copies;
      voting_sim = sim Blockrep.Types.Voting voting_n;
    }
  in
  List.map row rhos

type traffic_row = {
  n_sites : int;
  voting_x1 : float;
  voting_x2 : float;
  voting_x4 : float;
  ac : float;
  nac : float;
  ac_sim : float option;
  nac_sim : float option;
  voting_x2_sim : float option;
}

let default_sites = [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let traffic_figure env net_env ?(rho = 0.05) ?(sites = default_sites) ?(simulate = false) () =
  let open Analysis.Traffic_model in
  let row n =
    let cost scheme x = workload_cost env scheme ~n ~rho ~reads_per_write:x in
    let sim scheme =
      if simulate then
        Some
          (Workload.Experiment.measure_traffic ~scheme ~n_sites:n ~env:net_env ~reads_per_write:2.0 ())
            .messages_per_write_group
      else None
    in
    {
      n_sites = n;
      voting_x1 = cost Voting 1.0;
      voting_x2 = cost Voting 2.0;
      voting_x4 = cost Voting 4.0;
      ac = cost Available_copy 2.0;
      nac = cost Naive_available_copy 2.0;
      ac_sim = sim Blockrep.Types.Available_copy;
      nac_sim = sim Blockrep.Types.Naive_available_copy;
      voting_x2_sim = sim Blockrep.Types.Voting;
    }
  in
  List.map row sites

let figure_11 ?rho ?sites ?simulate () =
  traffic_figure Analysis.Traffic_model.Multicast Net.Network.Multicast ?rho ?sites ?simulate ()

let figure_12 ?rho ?sites ?simulate () =
  traffic_figure Analysis.Traffic_model.Unique_address Net.Network.Unicast ?rho ?sites ?simulate ()

type identity_row = { label : string; lhs : float; rhs : float; holds : bool }

let close a b = Float.abs (a -. b) <= 1e-9 +. (1e-6 *. Float.max (Float.abs a) (Float.abs b))

let identity_checks ?(rhos = [ 0.01; 0.05; 0.1; 0.2; 0.5; 1.0 ]) () =
  let rows = ref [] in
  let push label lhs rhs holds = rows := { label; lhs; rhs; holds } :: !rows in
  List.iter
    (fun rho ->
      (* A_V(2k) = A_V(2k-1) for k = 2, 3, 4. *)
      List.iter
        (fun k ->
          let lhs = Analysis.Voting_model.availability ~n:(2 * k) ~rho in
          let rhs = Analysis.Voting_model.availability ~n:((2 * k) - 1) ~rho in
          push (Printf.sprintf "A_V(%d)=A_V(%d) @ rho=%.2f" (2 * k) ((2 * k) - 1) rho) lhs rhs
            (close lhs rhs))
        [ 2; 3; 4 ];
      (* A_NA(2) = A_V(3). *)
      let lhs = Analysis.Nac_model.availability ~n:2 ~rho in
      let rhs = Analysis.Voting_model.availability ~n:3 ~rho in
      push (Printf.sprintf "A_NA(2)=A_V(3) @ rho=%.2f" rho) lhs rhs (close lhs rhs);
      (* Closed forms (2)-(4) vs the Figure 7 chain. *)
      List.iter
        (fun n ->
          let lhs =
            match Analysis.Ac_model.availability_closed ~n ~rho with Some a -> a | None -> nan
          in
          let rhs = Markov.Chains.ac_availability ~n ~rho in
          push (Printf.sprintf "eq(%d): A_A(%d) closed=chain @ rho=%.2f" n n rho) lhs rhs (close lhs rhs))
        [ 2; 3; 4 ];
      (* Lower bound (5). *)
      List.iter
        (fun n ->
          let a = Markov.Chains.ac_availability ~n ~rho in
          let bound = Analysis.Ac_model.lower_bound ~n ~rho in
          push (Printf.sprintf "bound(5): A_A(%d) > 1-n rho^n/(1+rho)^n @ rho=%.2f" n rho) a bound
            (a > bound))
        [ 2; 3; 4; 5; 6 ];
      (* Theorem 4.1 for rho <= 1. *)
      if rho <= 1.0 then
        List.iter
          (fun n ->
            let a_ac = Markov.Chains.ac_availability ~n ~rho in
            let a_v = Analysis.Voting_model.availability ~n:((2 * n) - 1) ~rho in
            push (Printf.sprintf "thm4.1: A_A(%d) > A_V(%d) @ rho=%.2f" n ((2 * n) - 1) rho) a_ac a_v
              (a_ac > a_v))
          [ 2; 3; 4; 5 ];
      (* U_V closed form vs chain. *)
      List.iter
        (fun n ->
          let lhs = Analysis.Voting_model.participation ~n ~rho in
          let rhs = Markov.Chains.voting_participation ~n ~rho in
          push (Printf.sprintf "U_V(%d) closed=chain @ rho=%.2f" n rho) lhs rhs (close lhs rhs))
        [ 3; 5; 7 ])
    rhos;
  List.rev !rows

let pp_opt ppf = function None -> Format.fprintf ppf "%9s" "-" | Some v -> Format.fprintf ppf "%9.5f" v

let print_availability ppf ~title rows =
  Format.fprintf ppf "@[<v>%s@," title;
  Format.fprintf ppf "%5s %9s %9s %9s %9s %9s %9s %9s %9s@," "rho" "A_V" "A_A" "A_A.mc" "A_NA"
    "A_NA.mc" "A_A.sim" "A_NA.sim" "A_V.sim";
  List.iter
    (fun r ->
      Format.fprintf ppf "%5.2f %9.5f %9.5f %9.5f %9.5f %9.5f %a %a %a@," r.rho r.voting r.ac_closed
        r.ac_chain r.nac_closed r.nac_chain pp_opt r.ac_sim pp_opt r.nac_sim pp_opt r.voting_sim)
    rows;
  Format.fprintf ppf "@]"

let print_traffic ppf ~title rows =
  Format.fprintf ppf "@[<v>%s@," title;
  Format.fprintf ppf "%3s %9s %9s %9s %9s %9s %9s %9s %9s@," "n" "V(x=1)" "V(x=2)" "V(x=4)" "AC" "NAC"
    "AC.sim" "NAC.sim" "V2.sim";
  List.iter
    (fun r ->
      Format.fprintf ppf "%3d %9.3f %9.3f %9.3f %9.3f %9.3f %a %a %a@," r.n_sites r.voting_x1
        r.voting_x2 r.voting_x4 r.ac r.nac pp_opt r.ac_sim pp_opt r.nac_sim pp_opt r.voting_x2_sim)
    rows;
  Format.fprintf ppf "@]"

let print_identities ppf rows =
  Format.fprintf ppf "@[<v>Analytic identities and theorems (Section 4/5)@,";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-55s %12.8f %12.8f  %s@," r.label r.lhs r.rhs
        (if r.holds then "ok" else "VIOLATED"))
    rows;
  let failed = List.length (List.filter (fun r -> not r.holds) rows) in
  Format.fprintf ppf "%d checks, %d violated@]" (List.length rows) failed

(* --- group-commit amortization (the PR's perf target, not a paper figure) --- *)

type amortization_row = {
  batch : int;
  per_scheme : (Blockrep.Types.scheme * Workload.Experiment.amortization_sample) list;
}

let amortization_table ?(n_sites = 5) ?(env = Net.Network.Multicast)
    ?(schemes = [ Blockrep.Types.Voting; Blockrep.Types.Available_copy; Blockrep.Types.Naive_available_copy ])
    ?(batches = [ 1; 4; 16; 64 ]) ?(groups = 100) ?(seed = 31) () =
  List.map
    (fun batch ->
      {
        batch;
        per_scheme =
          List.map
            (fun scheme ->
              ( scheme,
                Workload.Experiment.measure_batch_amortization ~scheme ~n_sites ~env ~batch
                  ~groups ~seed () ))
            schemes;
      })
    batches

let print_amortization ppf ~title rows =
  Format.fprintf ppf "@[<v>%s@," title;
  (match rows with
  | [] -> ()
  | first :: _ ->
      Format.fprintf ppf "%5s" "batch";
      List.iter
        (fun (scheme, _) ->
          let tag =
            match scheme with
            | Blockrep.Types.Voting -> "V"
            | Blockrep.Types.Available_copy -> "AC"
            | Blockrep.Types.Naive_available_copy -> "NAC"
            | Blockrep.Types.Dynamic_voting -> "DV"
          in
          Format.fprintf ppf " %11s %11s" (tag ^ ".msg/blk") (tag ^ ".KB/blk"))
        first.per_scheme;
      Format.fprintf ppf "@,";
      List.iter
        (fun row ->
          Format.fprintf ppf "%5d" row.batch;
          List.iter
            (fun (_, s) ->
              Format.fprintf ppf " %11.3f %11.3f" s.Workload.Experiment.messages_per_block
                (s.Workload.Experiment.bytes_per_block /. 1024.0))
            row.per_scheme;
          Format.fprintf ppf "@,")
        rows);
  Format.fprintf ppf "@]"
