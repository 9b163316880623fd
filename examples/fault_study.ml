(* Fault study: how hard does the reliable device work on a lossy wire?

   The paper's evaluation (Sections 4-5) assumes messages are never lost.
   This study relaxes that assumption: it sweeps the per-delivery drop
   probability and drives a fixed workload through a reliable device for
   each of the three consistency schemes, reporting how many operations
   needed the bounded-retry layer to complete, and how many were finally
   abandoned.  A second pass shows the per-device degradation table from
   [Report.Degradation].

   Run:  dune exec examples/fault_study.exe *)

let printf = Printf.printf

let sweep_drop_rates () =
  printf "operations completed under message loss (n=3, 200 ops, 2 reads/write)\n";
  printf "%-22s %8s %10s %8s %8s %8s %8s %8s\n" "scheme" "drop" "completed" "failed" "retries"
    "recover" "timeout" "faults";
  List.iter
    (fun scheme ->
      List.iter
        (fun drop ->
          let profile = Net.Faults.make_exn ~drop () in
          let s =
            Workload.Experiment.measure_degradation ~scheme ~n_sites:3 ~fault_profile:profile ()
          in
          let d = s.Workload.Experiment.device in
          printf "%-22s %8.2f %10d %8d %8d %8d %8d %8d\n"
            (Blockrep.Types.scheme_to_string scheme)
            drop d.succeeded (s.ops - d.succeeded) d.retries d.recovered d.timeouts
            s.faults_injected)
        [ 0.0; 0.05; 0.1; 0.2 ];
      printf "\n")
    [
      Blockrep.Types.Voting; Blockrep.Types.Available_copy; Blockrep.Types.Naive_available_copy;
    ]

let degradation_table () =
  printf "per-device degradation detail (voting, n=3, 60 ops)\n\n";
  let rows =
    List.map
      (fun drop ->
        let config =
          Blockrep.Config.make_exn ~scheme:Blockrep.Types.Voting ~n_sites:3 ~n_blocks:16 ~seed:51
            ~fault_profile:(Net.Faults.make_exn ~drop ~duplicate:(drop /. 2.0) ())
            ()
        in
        let device = Blockrep.Reliable_device.of_config config in
        for i = 0 to 59 do
          let block = i mod 16 in
          if i mod 3 = 0 then
            ignore
              (Blockrep.Reliable_device.write_block device block
                 (Blockdev.Block.of_string (Printf.sprintf "w%d" i)))
          else ignore (Blockrep.Reliable_device.read_block device block)
        done;
        Report.Degradation.collect ~label:(Printf.sprintf "voting drop=%.2f" drop) device)
      [ 0.0; 0.1; 0.2 ]
  in
  Report.Degradation.print Format.std_formatter ~errors:true rows;
  Format.pp_print_newline Format.std_formatter ()

let () =
  sweep_drop_rates ();
  degradation_table ()
