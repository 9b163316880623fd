(* Paper harness: regenerates every simulation and analytic table of the
   paper and of the repo's ablations and extensions, deterministically.

   Sections:
     1. Figure 9   availability, 3 copies vs 6 voting copies (model + sim)
     2. Figure 10  availability, 4 copies vs 8 voting copies (model + sim)
     3. Figure 11  multicast traffic per write group (model + sim)
     4. Figure 12  unique-address traffic per write group (model + sim)
     5. Identities A_V(2k)=A_V(2k-1), A_NA(2)=A_V(3), eqs (2)-(4), bound
                   (5), Theorem 4.1, U_V closed form
     6. Ablations  repair-time distribution (Section 4.4 discussion);
                   was-available maintenance policy; lazy vs eager voting
                   recovery
     7. Extensions size-based comparison, reliability, latency, witnesses,
                   dynamic voting, codec frame sizes, group commit, buffer
                   cache, storage-fault repair, brown-out, wire corruption

   Everything printed is a function of the seeds alone: no host clock is
   read, so the output is byte-identical on every machine.  The --quick
   run (CI-sized horizons and op counts) is pinned by the golden rule in
   test/dune against test/paper_tables.expected, which also makes the
   brown-out and corruption gates below run on every `dune runtest`.
   Host-time measurement lives in bench/perf.  Absolute numbers are
   simulator-dependent; the shapes (who wins, by what factor, where the
   curves sit) are the reproduction targets — see EXPERIMENTS.md. *)

let section title =
  Format.printf "@.==================================================================@.";
  Format.printf "%s@." title;
  Format.printf "==================================================================@."

(* --quick shrinks every simulation horizon and op count to CI size. *)
let quick =
  match Array.to_list Sys.argv with
  | [ _ ] -> false
  | [ _; "--quick" ] -> true
  | _ ->
      prerr_endline "usage: main.exe [--quick]";
      exit 2

(* ------------------------------------------------------------------ *)
(* 1-4: figures                                                        *)
(* ------------------------------------------------------------------ *)

let sim_horizon = if quick then 500.0 else 20_000.0
let ablation_horizon = if quick then 500.0 else 20_000.0
let extension_horizon = if quick then 500.0 else 10_000.0

let figures () =
  section "Figure 9: availability, 3 copies (voting: 6 copies), rho in [0, 0.20]";
  Format.printf "%a@."
    (fun ppf -> Report.Figures.print_availability ppf ~title:"")
    (Report.Figures.figure_9_10 ~n_copies:3 ~simulate:true ~sim_horizon ());
  section "Figure 10: availability, 4 copies (voting: 8 copies), rho in [0, 0.20]";
  Format.printf "%a@."
    (fun ppf -> Report.Figures.print_availability ppf ~title:"")
    (Report.Figures.figure_9_10 ~n_copies:4 ~simulate:true ~sim_horizon ());
  section "Figure 11: multicast transmissions per (1 write + x reads), rho = 0.05";
  Format.printf "%a@."
    (fun ppf -> Report.Figures.print_traffic ppf ~title:"(sim columns measured at x = 2)")
    (Report.Figures.figure_11 ~simulate:true ());
  section "Figure 12: unique-address transmissions per (1 write + x reads), rho = 0.05";
  Format.printf "%a@."
    (fun ppf -> Report.Figures.print_traffic ppf ~title:"(sim columns measured at x = 2)")
    (Report.Figures.figure_12 ~simulate:true ())

let identities () =
  section "Section 4/5 identities and theorems";
  Format.printf "%a@." Report.Figures.print_identities (Report.Figures.identity_checks ())

(* ------------------------------------------------------------------ *)
(* 6: ablations                                                        *)
(* ------------------------------------------------------------------ *)

(* Section 4.4: with repair-time coefficient of variation < 1 sites tend to
   recover in failure order, so conventional AC loses its edge over naive
   AC after total failures.  Compare both schemes under exponential and
   Erlang-4 repairs at aggressive rho where total failures actually occur. *)
let ablation_repair_distribution () =
  section "Ablation (Section 4.4): repair-time distribution, AC vs NAC, n = 3";
  Format.printf "%8s %12s %12s %12s %12s@." "rho" "AC/exp" "NAC/exp" "AC/erlang4" "NAC/erlang4";
  List.iter
    (fun rho ->
      let measure scheme repair =
        let config =
          Blockrep.Config.make_exn ~scheme ~n_sites:3 ~n_blocks:4
            ~latency:(Util.Dist.Constant 0.001) ~track_liveness:true ~seed:5 ()
        in
        let cluster = Blockrep.Cluster.create config in
        let gen =
          Workload.Failure_gen.attach_dist cluster ~rng:(Util.Prng.create 17)
            ~up_time:(Util.Dist.Exponential rho) ~down_time:repair
        in
        Blockrep.Cluster.run_until cluster ablation_horizon;
        Workload.Failure_gen.stop gen;
        Blockrep.Availability_monitor.availability (Blockrep.Cluster.monitor cluster)
      in
      (* Same mean repair time 1.0 in both cases; only the shape changes. *)
      let exp_d = Util.Dist.Exponential 1.0 in
      let erl_d = Util.Dist.Erlang (4, 4.0) in
      Format.printf "%8.2f %12.5f %12.5f %12.5f %12.5f@." rho
        (measure Blockrep.Types.Available_copy exp_d)
        (measure Blockrep.Types.Naive_available_copy exp_d)
        (measure Blockrep.Types.Available_copy erl_d)
        (measure Blockrep.Types.Naive_available_copy erl_d))
    [ 0.2; 0.5; 1.0 ]

(* Was-available maintenance: the paper's protocol refreshes W only on
   writes and repairs; the idealised variant tracks liveness.  The idealised
   one matches the chain; the write-driven one approaches it as the write
   rate grows past the failure rate. *)
let ablation_w_maintenance () =
  section "Ablation (Section 3.2): W-set maintenance policy, AC, n = 3, rho = 0.2";
  let rho = 0.2 in
  let chain = Markov.Chains.ac_availability ~n:3 ~rho in
  let nac_chain = Markov.Chains.nac_availability ~n:3 ~rho in
  Format.printf "Figure 7 chain (idealised AC): %.5f    Figure 8 chain (NAC): %.5f@." chain nac_chain;
  let measure ~track_liveness ~write_rate =
    let config =
      Blockrep.Config.make_exn ~scheme:Blockrep.Types.Available_copy ~n_sites:3 ~n_blocks:4
        ~latency:(Util.Dist.Constant 0.001) ~track_liveness ~seed:23 ()
    in
    let cluster = Blockrep.Cluster.create config in
    let gen = Workload.Failure_gen.attach cluster ~rng:(Util.Prng.create 29) ~lambda:rho ~mu:1.0 in
    (if write_rate > 0.0 then begin
       let access =
         Workload.Access_gen.create ~rng:(Util.Prng.create 31) ~n_blocks:4 ~reads_per_write:0.0 ()
       in
       ignore
         (Workload.Runner.run_open_loop cluster access ~site:0 ~rate:write_rate ~horizon:ablation_horizon
           : Workload.Runner.results)
     end);
    Blockrep.Cluster.run_until cluster ablation_horizon;
    Workload.Failure_gen.stop gen;
    Blockrep.Availability_monitor.availability (Blockrep.Cluster.monitor cluster)
  in
  Format.printf "idealised (track liveness)      : %.5f@." (measure ~track_liveness:true ~write_rate:0.0);
  List.iter
    (fun rate ->
      Format.printf "write-driven W, write rate %5.1f : %.5f@." rate
        (measure ~track_liveness:false ~write_rate:rate))
    [ 0.0; 1.0; 10.0 ]

(* Lazy (the paper's block-level refinement) vs eager voting recovery:
   after a failure window with w writes over b blocks, eager recovery
   transfers every stale block at repair time; lazy recovery pays one
   request+transfer only when a stale block is actually read. *)
let ablation_lazy_recovery () =
  section "Ablation (Section 3.1): lazy vs eager recovery under voting, n = 3";
  Format.printf "%18s %14s %18s %14s@." "writes while down" "stale blocks" "eager transfers"
    "lazy transfers";
  List.iter
    (fun (writes, reads_after) ->
      let config =
        Blockrep.Config.make_exn ~scheme:Blockrep.Types.Voting ~n_sites:3 ~n_blocks:64 ~seed:47 ()
      in
      let cluster = Blockrep.Cluster.create config in
      let rng = Util.Prng.create 53 in
      Blockrep.Cluster.fail_site cluster 2;
      for i = 1 to writes do
        ignore
          (Blockrep.Cluster.write_sync cluster ~site:0 ~block:(Util.Prng.int rng 64)
             (Blockdev.Block.of_string (Printf.sprintf "w%d" i))
            : Blockrep.Types.write_result)
      done;
      Blockrep.Cluster.repair_site cluster 2;
      Blockrep.Cluster.run_until cluster (Sim.Engine.now (Blockrep.Cluster.engine cluster) +. 10.0);
      (* Stale blocks at repair = what eager recovery would transfer. *)
      let versions_repaired = Blockrep.Cluster.site_versions cluster 2 in
      let versions_current = Blockrep.Cluster.site_versions cluster 0 in
      let stale =
        List.length
          (Blockdev.Version_vector.stale_blocks ~mine:versions_repaired ~theirs:versions_current)
      in
      let before =
        Net.Traffic.by_category (Blockrep.Cluster.traffic cluster) Net.Message.Block_transfer
      in
      for _ = 1 to reads_after do
        ignore
          (Blockrep.Cluster.read_sync cluster ~site:2 ~block:(Util.Prng.int rng 64)
            : Blockrep.Types.read_result)
      done;
      let after =
        Net.Traffic.by_category (Blockrep.Cluster.traffic cluster) Net.Message.Block_transfer
      in
      Format.printf "%18d %14d %18d %14d@." writes stale (2 * stale) (after - before))
    [ (8, 16); (32, 16); (128, 16) ]

(* Reliability companion metrics: the introduction motivates replication by
   availability AND reliability; report MTTF (mean time to first service
   interruption, all sites initially up) for each scheme and copy count. *)
let reliability_table () =
  section "Reliability: mean time to first service interruption (mu = 1, rho = 0.05)";
  let rho = 0.05 in
  Format.printf "%3s %16s %16s %16s@." "n" "voting" "available-copy" "naive-ac";
  (* Odd n only: the site-count chain cannot express the even-n
     tie-breaking weight, which matters for first-passage times (it does
     not for steady-state availability). *)
  List.iter
    (fun n ->
      let voting =
        let chain = Markov.Chains.voting_chain ~n ~rho in
        let initial = Array.init (n + 1) (fun k -> if k = n then 1.0 else 0.0) in
        Markov.Transient.mean_time_to_failure chain ~initial ~operational:(fun k -> 2 * k > n)
      in
      let copy build =
        let chain = build ~n ~rho in
        let initial = Array.init (2 * n) (fun s -> if s = n - 1 then 1.0 else 0.0) in
        Markov.Transient.mean_time_to_failure chain ~initial ~operational:(fun s -> s < n)
      in
      Format.printf "%3d %16.1f %16.1f %16.1f@." n voting
        (copy Markov.Chains.ac_chain)
        (copy Markov.Chains.nac_chain))
    [ 3; 5; 7 ];
  (* MTTF is about the first interruption, so AC and NAC coincide: they
     differ only in how they come back. *)
  Format.printf "(AC and NAC agree by construction: they differ only after the first outage)@."

(* Operation latency in virtual time (one-hop latency 0.5): copy-scheme
   reads are local and immediate, NAC writes are fire-and-forget, while
   voting pays a vote round trip on every operation — the responsiveness
   side of the Section 5 comparison. *)
let latency_table () =
  section "Operation latency (virtual time units; one-hop latency = 0.5)";
  Format.printf "%-22s %12s %12s@." "scheme" "read" "write";
  List.iter
    (fun scheme ->
      let c =
        Blockrep.Cluster.create
          (Blockrep.Config.make_exn ~scheme ~n_sites:5 ~n_blocks:16
             ~latency:(Util.Dist.Constant 0.5) ~seed:71 ())
      in
      let gen =
        Workload.Access_gen.create ~rng:(Util.Prng.create 73) ~n_blocks:16 ~reads_per_write:2.5 ()
      in
      let r = Workload.Runner.run_closed_loop c gen ~site:0 ~ops:500 in
      Format.printf "%-22s %12.3f %12.3f@."
        (Blockrep.Types.scheme_to_string scheme)
        (Workload.Runner.mean_read_latency r)
        (Workload.Runner.mean_write_latency r))
    Blockrep.Types.all_schemes;
  (* The durable layer's journal commits are sync-write points; charging
     them the Mingardi-Vieira device-class latencies shows how much of
     the write path a real fsync would dominate at each class. *)
  Format.printf
    "@.mean write latency by journal sync profile (fsync charged per commit, simulated ms)@.";
  Format.printf "%-22s %12s %12s %12s %12s@." "scheme" "none" "hdd" "ssd" "nvme";
  List.iter
    (fun scheme ->
      let write_latency sync_profile =
        let c =
          Blockrep.Cluster.create
            (Blockrep.Config.make_exn ~scheme ~n_sites:5 ~n_blocks:16
               ~latency:(Util.Dist.Constant 0.5) ?sync_profile ~seed:71 ())
        in
        let gen =
          Workload.Access_gen.create ~rng:(Util.Prng.create 73) ~n_blocks:16 ~reads_per_write:2.5 ()
        in
        let r =
          Workload.Runner.run_closed_loop c gen ~site:0 ~ops:(if quick then 100 else 500)
        in
        Workload.Runner.mean_write_latency r
      in
      Format.printf "%-22s %12.3f %12.3f %12.3f %12.3f@."
        (Blockrep.Types.scheme_to_string scheme)
        (write_latency None)
        (write_latency (Some Blockdev.Sync_cost.Hdd))
        (write_latency (Some Blockdev.Sync_cost.Ssd))
        (write_latency (Some Blockdev.Sync_cost.Nvme)))
    Blockrep.Types.all_schemes

(* Extension (the paper's reference [10] family): voting with witnesses —
   replicas that vote and version but store no data.  Compare availability
   (model + protocol simulation with a background write stream keeping
   repaired data sites current) and storage cost against full replication. *)
let extension_witnesses () =
  section "Extension: weighted voting with witnesses (cf. reference [10]), rho = 0.1";
  let rho = 0.1 in
  Format.printf "%14s %12s %12s %14s@." "configuration" "model" "simulated" "storage-blocks";
  let simulate ~data ~witnesses =
    let n = data + witnesses in
    let config =
      Blockrep.Config.make_exn ~scheme:Blockrep.Types.Voting ~n_sites:n ~n_blocks:2
        ~witnesses:(List.init witnesses (fun i -> data + i))
        ~latency:(Util.Dist.Constant 0.001) ~seed:59 ()
    in
    let cluster = Blockrep.Cluster.create config in
    let gen = Workload.Failure_gen.attach cluster ~rng:(Util.Prng.create 61) ~lambda:rho ~mu:1.0 in
    let access =
      Workload.Access_gen.create ~rng:(Util.Prng.create 67) ~n_blocks:2 ~reads_per_write:0.5 ()
    in
    ignore
      (Workload.Runner.run_open_loop cluster access ~site:0 ~rate:20.0 ~horizon:extension_horizon
        : Workload.Runner.results);
    Workload.Failure_gen.stop gen;
    Blockrep.Availability_monitor.availability (Blockrep.Cluster.monitor cluster)
  in
  List.iter
    (fun (data, witnesses) ->
      let model = Analysis.Witness_model.majority_availability ~data ~witnesses ~rho in
      let sim = simulate ~data ~witnesses in
      let _, storage = Analysis.Witness_model.storage_blocks ~data ~witnesses ~n_blocks:64 in
      Format.printf "%8dd + %dw %12.5f %12.5f %14d@." data witnesses model sim storage)
    [ (3, 0); (2, 1); (1, 2); (5, 0); (3, 2) ]

(* Extension: dynamic voting (the reference [10] line) — quorums follow the
   last update group, so with writes interleaved, service survives failure
   sequences deeper than static majority voting can.  Measure how many
   sequential failures each scheme survives (writes between failures), and
   availability under Poisson churn with a background write stream. *)
let extension_dynamic_voting () =
  section "Extension: dynamic voting vs static voting, 5 sites";
  let survivable scheme =
    let c =
      Blockrep.Cluster.create
        (Blockrep.Config.make_exn ~scheme ~n_sites:5 ~n_blocks:2 ~seed:83 ())
    in
    let settle () =
      Blockrep.Cluster.run_until c (Sim.Engine.now (Blockrep.Cluster.engine c) +. 20.0)
    in
    let rec kill i =
      if i >= 4 then 4
      else begin
        Blockrep.Cluster.fail_site c (4 - i);
        match
          Blockrep.Cluster.write_sync c ~site:0 ~block:0
            (Blockdev.Block.of_string (Printf.sprintf "k%d" i))
        with
        | Ok _ ->
            settle ();
            kill (i + 1)
        | Error _ -> i
      end
    in
    kill 0
  in
  Format.printf "sequential failures survived (writes interleaved): static=%d dynamic=%d@."
    (survivable Blockrep.Types.Voting)
    (survivable Blockrep.Types.Dynamic_voting);
  let churn (scheme, rho) =
    let c =
      Blockrep.Cluster.create
        (Blockrep.Config.make_exn ~scheme ~n_sites:5 ~n_blocks:2
           ~latency:(Util.Dist.Constant 0.01) ~seed:89 ())
    in
    let gen = Workload.Failure_gen.attach c ~rng:(Util.Prng.create 97) ~lambda:rho ~mu:1.0 in
    let writes =
      Workload.Access_gen.create ~rng:(Util.Prng.create 101) ~n_blocks:2 ~reads_per_write:0.0 ()
    in
    ignore
      (Workload.Runner.run_open_loop c writes ~site:0 ~rate:20.0 ~horizon:extension_horizon
        : Workload.Runner.results);
    Workload.Failure_gen.stop gen;
    Blockrep.Availability_monitor.availability (Blockrep.Cluster.monitor c)
  in
  (* Every (scheme, rho) cell is a self-contained simulation, so the six
     cells run on as many lanes as the runtime recommends; the result list
     keeps cell order whatever the lane count, so the rows below do not
     depend on it. *)
  let rhos = [ 0.1; 0.3; 0.5 ] in
  let cells =
    List.concat_map
      (fun rho -> [ (Blockrep.Types.Voting, rho); (Blockrep.Types.Dynamic_voting, rho) ])
      rhos
  in
  let avail =
    Sim.Shard_engine.map_list ~shards:(Sim.Domains_compat.recommended_domains ()) cells churn
  in
  Format.printf "%8s %12s %12s %12s@." "rho" "static-sim" "dynamic-sim" "A_V(5) chain";
  List.iteri
    (fun i rho ->
      match (List.nth_opt avail (2 * i), List.nth_opt avail ((2 * i) + 1)) with
      | Some static_a, Some dynamic_a ->
          Format.printf "%8.2f %12.5f %12.5f %12.5f@." rho static_a dynamic_a
            (Markov.Chains.voting_availability ~n:5 ~rho)
      | _ -> ())
    rhos;
  Format.printf
    "(dynamic survives one more sequential failure, but under churn it does not beat static:@.";
  Format.printf
    " the two agree within noise at rho = 0.1, static leads from 0.3, and at extreme churn@.";
  Format.printf
    " dynamic groups get trapped at pairs — the known pathology later work fixes with tie-breakers)@."

(* Section 5's size remark: "while it is possible to instead focus on the
   sizes of the messages ... the differences are similar ... though
   slightly less pronounced".  Compare the voting/NAC ratio measured in
   transmissions against the one measured in payload bytes. *)
let size_based_comparison () =
  section "Section 5 remark: message-count vs byte-count comparison (x = 2, multicast)";
  Format.printf "%3s %12s %12s %12s %14s %14s@." "n" "V/NAC msgs" "V/NAC bytes" "less?" "V/AC msgs"
    "V/AC bytes";
  List.iter
    (fun n ->
      let sample scheme =
        Workload.Experiment.measure_traffic ~scheme ~n_sites:n ~env:Net.Network.Multicast
          ~reads_per_write:2.0
          ~ops:(if quick then 200 else 1500)
          ()
      in
      let v = sample Blockrep.Types.Voting in
      let ac = sample Blockrep.Types.Available_copy in
      let nac = sample Blockrep.Types.Naive_available_copy in
      let msg_ratio_nac = v.messages_per_write_group /. nac.messages_per_write_group in
      let byte_ratio_nac = v.bytes_per_write_group /. nac.bytes_per_write_group in
      let msg_ratio_ac = v.messages_per_write_group /. ac.messages_per_write_group in
      let byte_ratio_ac = v.bytes_per_write_group /. ac.bytes_per_write_group in
      Format.printf "%3d %12.2f %12.2f %12s %14.2f %14.2f@." n msg_ratio_nac byte_ratio_nac
        (if byte_ratio_nac < msg_ratio_nac then "yes" else "no")
        msg_ratio_ac byte_ratio_ac)
    [ 3; 5; 8 ]

(* ------------------------------------------------------------------ *)
(* Codec: bytes on the wire                                           *)
(* ------------------------------------------------------------------ *)

(* The exact frame size Net.Traffic charges for one representative
   message per wire category, each checked to round-trip, and the
   batching payoff — one Batch_update carrying 16 blocks against 16
   single-block frames.  Encode/decode cost is host time, measured by
   bench/perf's codec ledger. *)
let codec_section () =
  section "Codec: binary frame bytes per message and per block";
  let module W = Blockrep.Wire in
  let set = Blockrep.Types.int_set_of_list in
  let vv l =
    let v = Blockdev.Version_vector.create (List.length l) in
    List.iteri (fun i x -> Blockdev.Version_vector.set v i x) l;
    v
  in
  let info =
    {
      W.origin = 2;
      state = Blockrep.Types.Available;
      versions = vv [ 3; 0; 7; 1 ];
      was_available = set [ 0; 2; 3 ];
    }
  in
  let block c = Blockdev.Block.of_string (String.make 8 c) in
  let writes n = List.init n (fun i -> (i, i + 1, block (Char.chr (Char.code 'a' + (i mod 26))))) in
  let samples =
    [
      ("vote-request", W.Vote_request { rid = 1; block = 5; purpose = Net.Message.Write });
      ("vote-reply", W.Vote_reply { rid = 1; block = 5; version = 9; weight = 2; group_size = 4 });
      ( "block-update",
        W.Block_update
          { rid = Some 2; block = 0; version = 3; data = block 'd'; carried_w = set [ 0; 1; 3 ] } );
      ("write-ack", W.Write_ack { rid = 2; block = 0 });
      ("block-request", W.Block_request { rid = 3; block = 7 });
      ("block-transfer", W.Block_transfer { rid = 3; block = 7; version = 4; data = block 'x' });
      ("recovery-probe", W.Recovery_probe { rid = 4; info });
      ("recovery-reply", W.Recovery_reply { rid = 4; info });
      ("vv-send", W.Vv_send { rid = 5; versions = vv [ 1; 2; 0; 0 ]; w_of_sender = set [ 1 ] });
      ( "vv-reply",
        W.Vv_reply
          {
            rid = 5;
            versions = vv [ 2; 2; 1; 0 ];
            updates = [ (0, 2, block 'a'); (2, 1, block 'b') ];
            w_of_source = set [ 0; 1; 2 ];
          } );
      ("group-fix", W.Group_fix { block = 3; version = 6; group = set [ 0; 2 ] });
      ( "batch-update-16",
        W.Batch_update { rid = Some 7; writes = writes 16; carried_w = set [ 1; 2 ] } );
    ]
  in
  Format.printf "%-18s %8s@." "message" "bytes";
  List.iter
    (fun (label, m) ->
      let encoded = W.encode m in
      (match W.decode encoded with
      | Ok _ -> ()
      | Error e -> failwith ("bench: codec round-trip failed for " ^ label ^ ": " ^ W.decode_error_to_string e));
      Format.printf "%-18s %8d@." label (Bytes.length encoded))
    samples;
  let single =
    Bytes.length
      (W.encode
         (W.Block_update
            { rid = Some 1; block = 0; version = 1; data = block 's'; carried_w = set [ 0; 1 ] }))
  in
  let batch16 =
    Bytes.length (W.encode (W.Batch_update { rid = Some 1; writes = writes 16; carried_w = set [ 0; 1 ] }))
  in
  Format.printf
    "bytes/block: one Block_update frame = %d; one Batch_update x16 frame = %d (%.1f per block, %.2fx the unbatched frames)@."
    single batch16
    (float_of_int batch16 /. 16.0)
    (float_of_int batch16 /. (16.0 *. float_of_int single))

(* ------------------------------------------------------------------ *)
(* Group commit: batched-write amortization and the write-back cache   *)
(* ------------------------------------------------------------------ *)

let amortization () =
  section "Group commit: Write transmissions / bytes per block vs batch size (n = 5, multicast)";
  let rows = Report.Figures.amortization_table ~groups:(if quick then 25 else 100) () in
  Format.printf "%a@."
    (fun ppf ->
      Report.Figures.print_amortization ppf
        ~title:"(per committed block; batch 1 = the unbatched baseline)")
    rows;
  (match
     ( List.find_opt (fun (r : Report.Figures.amortization_row) -> r.batch = 1) rows,
       List.find_opt (fun (r : Report.Figures.amortization_row) -> r.batch = 16) rows )
   with
  | Some b1, Some b16 -> (
      match
        ( List.assoc_opt Blockrep.Types.Voting b1.per_scheme,
          List.assoc_opt Blockrep.Types.Voting b16.per_scheme )
      with
      | Some s1, Some s16 ->
          Format.printf "voting batch-16 amortization: %.2fx fewer Write transmissions per block@."
            (s1.Workload.Experiment.messages_per_block /. s16.Workload.Experiment.messages_per_block)
      | _ -> ())
  | _ -> ())

type cache_run = {
  cache_policy : string;
  cache_hits : int;
  cache_misses : int;
  cache_hit_rate : float;
  cache_write_backs : int;
  cache_blocks_written_back : int;
  cache_events_fired : int;
  cache_write_messages : int;
}

(* The full stack the tentpole adds: workload -> write-back cache ->
   batched reliable device (voting).  Write-through over the same
   workload is the baseline; the write-back column shows the same
   client work reaching the wire in far fewer Write transmissions. *)
let cache_section () =
  section "Buffer cache over the reliable device: write-through vs write-back (voting, n = 5)";
  let module C = Fs.Buffer_cache.Make_batched (Blockrep.Reliable_device) in
  let run policy tag =
    let device =
      Blockrep.Reliable_device.of_config
        (Blockrep.Config.make_exn ~scheme:Blockrep.Types.Voting ~n_sites:5 ~n_blocks:64
           ~net_mode:Net.Network.Multicast ~seed:131 ())
    in
    let cluster = Blockrep.Reliable_device.cluster device in
    let engine = Blockrep.Cluster.engine cluster in
    let cache =
      C.create ~policy
        ~scheduler:(fun delay k -> ignore (Sim.Engine.schedule engine ~delay k : Sim.Engine.handle))
        ~window:10.0 ~capacity:16 device
    in
    let gen =
      Workload.Access_gen.create ~rng:(Util.Prng.create 137) ~n_blocks:64 ~reads_per_write:3.0 ()
    in
    let ops = if quick then 200 else 2000 in
    for _ = 1 to ops do
      Blockrep.Cluster.run_until cluster (Sim.Engine.now engine +. 0.5);
      match Workload.Access_gen.next gen with
      | Workload.Access_gen.Read block -> ignore (C.read_block cache block : Blockdev.Block.t option)
      | Workload.Access_gen.Write (block, data) -> ignore (C.write_block cache block data : bool)
    done;
    ignore (C.flush cache : bool);
    Blockrep.Cluster.settle cluster;
    let traffic = Blockrep.Cluster.traffic cluster in
    {
      cache_policy = tag;
      cache_hits = C.hits cache;
      cache_misses = C.misses cache;
      cache_hit_rate = C.hit_rate cache;
      cache_write_backs = C.write_backs cache;
      cache_blocks_written_back = C.blocks_written_back cache;
      cache_events_fired = Sim.Engine.events_fired engine;
      cache_write_messages = Net.Traffic.by_operation traffic Net.Message.Write;
    }
  in
  let wt = run Fs.Buffer_cache.Write_through "write-through" in
  let wb = run Fs.Buffer_cache.Write_back "write-back" in
  Format.printf "%-14s %8s %8s %9s %11s %11s %12s %12s@." "policy" "hits" "misses" "hit-rate"
    "write-backs" "blks-wrtbk" "write-msgs" "events";
  List.iter
    (fun s ->
      Format.printf "%-14s %8d %8d %9.3f %11d %11d %12d %12d@." s.cache_policy s.cache_hits
        s.cache_misses s.cache_hit_rate s.cache_write_backs s.cache_blocks_written_back
        s.cache_write_messages s.cache_events_fired)
    [ wt; wb ];
  if wb.cache_write_messages > 0 then
    Format.printf "write-back cut Write transmissions by %.2fx for the same client workload@."
      (float_of_int wt.cache_write_messages /. float_of_int wb.cache_write_messages)

(* ------------------------------------------------------------------ *)
(* Storage faults: scrub and peer read-repair cost                      *)
(* ------------------------------------------------------------------ *)

(* The marginal wire price of surviving media decay: a closed loop with
   periodic maskable bitrot, then a full readback so every quarantined
   copy is healed from a peer.  Repair cells are zero in a fault-free
   run, so the overhead column is exactly the cost of the fault model. *)
let repair_cost () =
  section "Storage faults: peer read-repair traffic under periodic bitrot (n = 3)";
  let ops = if quick then 120 else 400 in
  let samples =
    List.map
      (fun scheme -> Workload.Experiment.measure_repair_cost ~scheme ~n_sites:3 ~ops ())
      [
        Blockrep.Types.Available_copy;
        Blockrep.Types.Naive_available_copy;
        Blockrep.Types.Voting;
        Blockrep.Types.Dynamic_voting;
      ]
  in
  Format.printf "%-22s %6s %7s %9s %8s %12s %12s %10s@." "scheme" "ops" "bitrot" "repaired"
    "replayed" "repair-msgs" "total-msgs" "overhead";
  List.iter
    (fun (s : Workload.Experiment.repair_sample) ->
      Format.printf "%-22s %6d %7d %9d %8d %12d %12d %9.4f@." (Blockrep.Types.scheme_to_string s.scheme) s.ops
        s.bitrot_injected s.repaired_blocks s.scrub_replayed s.repair_messages s.total_messages
        s.repair_overhead)
    samples;
  Format.printf "overhead = Repair transmissions / all transmissions; every injected fault is@.";
  Format.printf "maskable by construction.  Voting schemes mask rot inside the ordinary quorum@.";
  Format.printf "read (Block traffic), so their Repair cells stay zero; available-copy pays with@.";
  Format.printf "explicit Repair messages.  Dynamic voting may leave a copy outside a block's@.";
  Format.printf "current majority group quarantined until the group re-expands (repaired < bitrot)@."

(* ------------------------------------------------------------------ *)
(* Brown-out: goodput and tail latency vs offered load                 *)
(* ------------------------------------------------------------------ *)

(* Each row tags its sample with the offered-load multiple of the
   saturation rate and the gray-slow site, if any. *)
type brownout_row = {
  bo_multiple : float;
  bo_slow : (int * float) option;
  bo_sample : Workload.Experiment.brownout_sample;
}

(* Overload and gray failure: open-loop Poisson arrivals against bounded
   per-site work queues, with the client-side robustness stack (deadlines,
   hedged reads with spillover, breakers, admission) toggled on and off
   over the identical arrival stream.  Past saturation the off flavour
   queues until latency is all queueing delay; the on flavour sheds and
   spills instead.  The 2x comparison is asserted, not just printed: the
   stack must buy both goodput AND tail latency or the bench fails. *)
let brownout_section () =
  section "Brown-out: goodput and p99 vs offered load (available-copy, n = 3, robustness on vs off)";
  let horizon = if quick then 200.0 else 400.0 in
  let sat = Workload.Experiment.saturation_rate () in
  let run ~mult ~robustness ?slow () =
    {
      bo_multiple = mult;
      bo_slow = slow;
      bo_sample =
        Workload.Experiment.measure_brownout ~scheme:Blockrep.Types.Available_copy ~n_sites:3
          ~offered_rate:(mult *. sat) ~robustness ?slow ~horizon ();
    }
  in
  let rows =
    List.concat_map
      (fun mult -> [ run ~mult ~robustness:false (); run ~mult ~robustness:true () ])
      [ 0.5; 1.0; 2.0; 3.0 ]
    @ [
        (* gray failure: the coordinator site serves everything 10x slow *)
        run ~mult:2.0 ~slow:(0, 10.0) ~robustness:false ();
        run ~mult:2.0 ~slow:(0, 10.0) ~robustness:true ();
      ]
  in
  Format.printf "saturation ~ %.1f ops/s at one site under the default service model@." sat;
  Format.printf "%6s %6s %7s %7s %6s %5s %6s %6s %8s %7s %7s %7s %6s %6s@." "load" "slow"
    "robust" "issued" "ok" "t/o" "reject" "shed" "goodput" "p50" "p99" "hedged" "wins" "trips";
  List.iter
    (fun { bo_multiple; bo_slow; bo_sample = s } ->
      let d = s.device in
      Format.printf "%5.1fx %6s %7B %7d %6d %5d %6d %6d %8.2f %7.3f %7.3f %7d %6d %6d@."
        bo_multiple
        (match bo_slow with Some (site, f) -> Printf.sprintf "%d@%gx" site f | None -> "-")
        s.robustness_on s.issued d.succeeded d.timeouts d.rejected d.shed s.goodput s.latency_p50
        s.latency_p99 d.hedged d.hedge_wins d.breaker_trips)
    rows;
  Format.printf "goodput = successful ops per virtual second of the arrival window; latencies@.";
  Format.printf "are successful-op response times.  Robustness on = deadlines + hedged reads@.";
  Format.printf "(with full-queue spillover to a peer) + circuit breakers + admission control.@.";
  List.iter
    (fun { bo_multiple; bo_slow; bo_sample = s } ->
      if not s.conserved then
        failwith
          (Printf.sprintf
             "bench: brown-out counters do not reconcile at %.1fx (slow=%b robust=%b)" bo_multiple
             (bo_slow <> None) s.robustness_on))
    rows;
  let sample ~mult ~slow ~robust =
    List.find
      (fun r -> r.bo_multiple = mult && r.bo_slow <> None = slow && r.bo_sample.robustness_on = robust)
      rows
  in
  List.iter
    (fun (mult, slow) ->
      let off = (sample ~mult ~slow ~robust:false).bo_sample in
      let on = (sample ~mult ~slow ~robust:true).bo_sample in
      if not (on.goodput > off.goodput && on.latency_p99 < off.latency_p99) then
        failwith
          (Printf.sprintf
             "bench: robustness stack not strictly better at %.1fx saturation (slow=%b): goodput \
              %.3f vs %.3f, p99 %.3f vs %.3f"
             mult slow on.goodput off.goodput on.latency_p99 off.latency_p99))
    [ (2.0, false); (3.0, false); (2.0, true) ]

(* ------------------------------------------------------------------ *)
(* Wire corruption: goodput and tail latency                           *)
(* ------------------------------------------------------------------ *)

type corruption_row = {
  co_rate : float;  (* ambient per-frame corruption rate *)
  co_issued : int;
  co_ok : int;
  co_violations : int;  (* read-your-write check failures *)
  co_goodput : float;  (* successful ops per virtual second *)
  co_p50 : float;
  co_p99 : float;
  co_corrupted : int;
  co_rejected : int;
  co_retx : int;
  co_conserved : bool;
}

(* Closed-loop write/read pairs on a voting cluster with ambient byte
   damage at 0 / 0.1% / 1% per frame (spread over the injector's five
   kinds).  A damaging injector makes the frames cross the network
   encoded; the rate-0 row has none and runs in-heap.  Every read of a
   block this client just wrote is model-checked against the written
   payload — a decoder that ever let a damaged frame through as a
   different valid payload would show up here as a violation.  All gates
   are asserted, not just printed. *)
let corruption_section () =
  section "Wire corruption: goodput and p99 vs frame-corruption rate (voting, n = 3)";
  let pairs = if quick then 300 else 1200 in
  let n_blocks = 16 in
  let run rate =
    let corruption =
      {
        Net.Faults.bit_flip = 0.6 *. rate;
        truncate = 0.1 *. rate;
        garbage_prefix = 0.1 *. rate;
        garbage_suffix = 0.1 *. rate;
        splice = 0.1 *. rate;
      }
    in
    let config =
      Blockrep.Config.make_exn ~scheme:Blockrep.Types.Voting ~n_sites:3 ~n_blocks ~seed:4242
        ~fault_profile:(Net.Faults.make_exn ~corruption ())
        ()
    in
    let device = Blockrep.Reliable_device.of_config config in
    let engine = Blockrep.Cluster.engine (Blockrep.Reliable_device.cluster device) in
    let latencies = Array.make (2 * pairs) 0.0 in
    let ok = ref 0 and violations = ref 0 in
    let t0 = Sim.Engine.now engine in
    for i = 0 to pairs - 1 do
      let block = i mod n_blocks in
      let tag = Printf.sprintf "co%06d" i in
      let t_w = Sim.Engine.now engine in
      let wrote = Blockrep.Reliable_device.write_block device block (Blockdev.Block.of_string tag) in
      latencies.(2 * i) <- Sim.Engine.now engine -. t_w;
      if wrote then incr ok;
      let t_r = Sim.Engine.now engine in
      (match Blockrep.Reliable_device.read_block device block with
      | Some b ->
          incr ok;
          if wrote && String.sub (Blockdev.Block.to_string b) 0 (String.length tag) <> tag then
            incr violations
      | None -> ());
      latencies.(2 * i + 1) <- Sim.Engine.now engine -. t_r
    done;
    let span = Sim.Engine.now engine -. t0 in
    Array.sort compare latencies;
    let quantile q = latencies.(min (Array.length latencies - 1) (int_of_float (q *. float_of_int (Array.length latencies)))) in
    let cluster = Blockrep.Reliable_device.cluster device in
    let net = Blockrep.Cluster.network cluster in
    let ingress = Blockrep.Runtime.Transport.ingress net in
    {
      co_rate = rate;
      co_issued = 2 * pairs;
      co_ok = !ok;
      co_violations = !violations;
      co_goodput = (if span > 0.0 then float_of_int !ok /. span else 0.0);
      co_p50 = quantile 0.5;
      co_p99 = quantile 0.99;
      co_corrupted =
        (match Blockrep.Cluster.faults cluster with
        | Some f -> (Net.Faults.counters f).corrupted
        | None -> 0);
      co_rejected = Net.Network.frames_rejected ingress;
      co_retx = ingress.retransmitted;
      co_conserved =
        Blockrep.Runtime.Transport.corruption_conserved net
        && Blockrep.Reliable_device.degradation_conserved
             (Blockrep.Reliable_device.degradation device);
    }
  in
  let rows = List.map run [ 0.0; 0.001; 0.01 ] in
  Format.printf "%7s %6s %6s %5s %8s %7s %7s %9s %6s %6s %5s@." "rate" "issued" "ok" "viol"
    "goodput" "p50" "p99" "corrupted" "frej" "retx" "cons";
  List.iter
    (fun r ->
      Format.printf "%7.4f %6d %6d %5d %8.2f %7.3f %7.3f %9d %6d %6d %5B@." r.co_rate r.co_issued
        r.co_ok r.co_violations r.co_goodput r.co_p50 r.co_p99 r.co_corrupted r.co_rejected r.co_retx
        r.co_conserved)
    rows;
  Format.printf "goodput = successful ops per virtual second; p50/p99 are per-op virtual response@.";
  Format.printf "times.  corrupted frames are rejected at ingress and redelivered from the@.";
  Format.printf "sender's pristine copy.@.";
  (* Gates: the corruption section is load-bearing, not illustrative. *)
  List.iter
    (fun r ->
      if r.co_violations > 0 then
        failwith
          (Printf.sprintf "bench: %d one-copy violation(s) under %.4f corruption" r.co_violations
             r.co_rate);
      if not r.co_conserved then
        failwith (Printf.sprintf "bench: wire counters not conserved at rate %.4f" r.co_rate);
      if not (Float.is_finite r.co_p99 && r.co_p99 >= r.co_p50 && r.co_p50 > 0.0) then
        failwith (Printf.sprintf "bench: degenerate latency quantiles at rate %.4f" r.co_rate);
      if r.co_rate > 0.0 && not (r.co_corrupted > 0 && r.co_rejected > 0 && r.co_retx > 0) then
        failwith
          (Printf.sprintf
             "bench: corruption at rate %.4f injected nothing (corrupted=%d rejected=%d retx=%d)"
             r.co_rate r.co_corrupted r.co_rejected r.co_retx);
      if r.co_rate = 0.0 && r.co_rejected > 0 then
        failwith "bench: frames rejected without any injected corruption")
    rows

let () =
  figures ();
  identities ();
  ablation_repair_distribution ();
  ablation_w_maintenance ();
  ablation_lazy_recovery ();
  size_based_comparison ();
  reliability_table ();
  latency_table ();
  extension_witnesses ();
  extension_dynamic_voting ();
  codec_section ();
  amortization ();
  cache_section ();
  repair_cost ();
  brownout_section ();
  corruption_section ();
  Format.printf "@.bench: done@."
