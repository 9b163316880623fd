(* Group commit: batched writes through the cluster, the driver stub and
   the reliable device, batch-1 equivalence with the single-block path,
   the amortization payoff, and a chaos sweep showing the batched path
   introduces no new violation classes. *)

module Block = Blockdev.Block

let mk ?(scheme = Blockrep.Types.Voting) ?(n_sites = 5) ?(n_blocks = 32)
    ?(net_mode = Net.Network.Multicast) ?(seed = 42) () =
  Blockrep.Cluster.create
    (Blockrep.Config.make_exn ~scheme ~n_sites ~n_blocks ~net_mode ~seed ())

let payloads n = List.init n (fun i -> (i, Block.of_string (Printf.sprintf "blk%d" i)))

let scheme_name = function
  | Blockrep.Types.Voting -> "voting"
  | Blockrep.Types.Available_copy -> "ac"
  | Blockrep.Types.Naive_available_copy -> "nac"
  | Blockrep.Types.Dynamic_voting -> "dynamic"

(* ------------------------------------------------------------------ *)
(* Cluster batched operations                                          *)
(* ------------------------------------------------------------------ *)

let test_batch_roundtrip scheme () =
  let cluster = mk ~scheme () in
  let writes = payloads 4 in
  (match Blockrep.Cluster.write_blocks_sync cluster ~site:0 writes with
  | Ok versions -> Alcotest.(check int) "one version per block" 4 (List.length versions)
  | Error e -> Alcotest.failf "batch write failed: %s" (Blockrep.Types.failure_reason_to_string e));
  Blockrep.Cluster.settle cluster;
  List.iter
    (fun (block, data) ->
      match Blockrep.Cluster.read_sync cluster ~site:0 ~block with
      | Ok (read, version) ->
          Alcotest.(check bool) (Printf.sprintf "block %d data" block) true (Block.equal read data);
          Alcotest.(check bool) "versioned" true (version >= 1)
      | Error e -> Alcotest.failf "read failed: %s" (Blockrep.Types.failure_reason_to_string e))
    writes;
  Alcotest.(check bool) "replicas consistent" true
    (Blockrep.Cluster.consistent_available_stores cluster)

let test_batch_validation () =
  let cluster = mk () in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  let x = Block.of_string "x" in
  Alcotest.(check bool) "empty batch rejected" true
    (raises (fun () -> Blockrep.Cluster.write_blocks_sync cluster ~site:0 []));
  Alcotest.(check bool) "duplicate blocks rejected" true
    (raises (fun () -> Blockrep.Cluster.write_blocks_sync cluster ~site:0 [ (1, x); (2, x); (1, x) ]));
  Alcotest.(check bool) "out-of-range rejected" true
    (raises (fun () ->
         Blockrep.Cluster.write_blocks_sync cluster ~site:0 [ (99, x) ]))

let traffic_snapshot cluster =
  let traffic = Blockrep.Cluster.traffic cluster in
  List.map
    (fun op ->
      ( Net.Traffic.by_operation traffic op,
        Net.Traffic.bytes_by_operation traffic op ))
    [ Net.Message.Read; Net.Message.Write; Net.Message.Recovery ]

let test_batch_of_one_is_bit_identical scheme () =
  (* Twin clusters, same seed: a singleton batch must leave exactly the
     same wire traffic and produce the same result as the single-block
     call — the acceptance criterion for untouched defaults. *)
  let a = mk ~scheme () and b = mk ~scheme () in
  let data = Block.of_string "same" in
  let ra = Blockrep.Cluster.write_sync a ~site:0 ~block:3 data in
  let rb = Blockrep.Cluster.write_blocks_sync b ~site:0 [ (3, data) ] in
  (match (ra, rb) with
  | Ok v, Ok [ v' ] -> Alcotest.(check int) "same version" v v'
  | Error e, Error e' ->
      Alcotest.(check string) "same error" (Blockrep.Types.failure_reason_to_string e)
        (Blockrep.Types.failure_reason_to_string e')
  | _ -> Alcotest.fail "single and singleton-batch write disagree");
  Blockrep.Cluster.settle a;
  Blockrep.Cluster.settle b;
  Alcotest.(check (list (pair int int))) "identical traffic counters" (traffic_snapshot a)
    (traffic_snapshot b)

let test_batch_amortizes_write_traffic () =
  (* Eight single writes vs one batch of eight on twin voting clusters:
     the batch pays one vote round + one update multicast in total, so it
     must use at least 4x fewer Write transmissions. *)
  let single = mk () and batched = mk () in
  let writes = payloads 8 in
  List.iter
    (fun (k, d) ->
      match Blockrep.Cluster.write_sync single ~site:0 ~block:k d with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "single write: %s" (Blockrep.Types.failure_reason_to_string e))
    writes;
  (match Blockrep.Cluster.write_blocks_sync batched ~site:0 writes with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "batched write: %s" (Blockrep.Types.failure_reason_to_string e));
  Blockrep.Cluster.settle single;
  Blockrep.Cluster.settle batched;
  let cost c = Net.Traffic.by_operation (Blockrep.Cluster.traffic c) Net.Message.Write in
  let s = cost single and b = cost batched in
  Alcotest.(check bool)
    (Printf.sprintf "batch >= 4x cheaper (single %d vs batched %d)" s b)
    true
    (b * 4 <= s)

(* ------------------------------------------------------------------ *)
(* Driver stub batched forwarding                                      *)
(* ------------------------------------------------------------------ *)

let test_stub_batch_roundtrip_and_counters () =
  let cluster = mk ~scheme:Blockrep.Types.Available_copy () in
  let stub = Blockrep.Driver_stub.create cluster in
  let writes = payloads 4 in
  (match Blockrep.Driver_stub.write_blocks stub writes with
  | Ok versions -> Alcotest.(check int) "four versions" 4 (List.length versions)
  | Error e -> Alcotest.failf "stub batch write: %s" (Blockrep.Types.failure_reason_to_string e));
  List.iter
    (fun (block, data) ->
      match Blockrep.Driver_stub.read_block stub block with
      | Ok (read, _) ->
          Alcotest.(check bool) (Printf.sprintf "block %d back" block) true (Block.equal read data)
      | Error e -> Alcotest.failf "stub read: %s" (Blockrep.Types.failure_reason_to_string e))
    writes;
  Alcotest.(check int) "one batched request" 1 (Blockrep.Driver_stub.batch_requests stub);
  Alcotest.(check int) "four batched blocks" 4 (Blockrep.Driver_stub.batched_blocks stub);
  Alcotest.(check int) "the batch and 4 reads are requests" 5 (Blockrep.Driver_stub.requests stub)

let test_stub_batch_fails_over () =
  (* Home down: the whole batch fails over in one rotation. *)
  let cluster = mk ~scheme:Blockrep.Types.Available_copy () in
  let stub = Blockrep.Driver_stub.create cluster in
  Blockrep.Cluster.fail_site cluster 0;
  Blockrep.Cluster.run_until cluster 1.0;
  (match Blockrep.Driver_stub.write_blocks stub (payloads 4) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "batch should fail over: %s" (Blockrep.Types.failure_reason_to_string e));
  Alcotest.(check bool) "failover happened" true (Blockrep.Driver_stub.failovers stub >= 1);
  Alcotest.(check bool) "served off-home" true (Blockrep.Driver_stub.last_served stub <> 0)

let test_stub_observers_per_block () =
  let cluster = mk ~scheme:Blockrep.Types.Voting () in
  let stub = Blockrep.Driver_stub.create cluster in
  let events = ref 0 in
  Blockrep.Driver_stub.add_observer stub (fun _ -> incr events);
  ignore (Blockrep.Driver_stub.write_blocks stub (payloads 5));
  Alcotest.(check int) "one client-visible event per block" 5 !events

let test_duplicate_ids_refused_uncounted () =
  (* A repeated id makes a malformed batch, like an out-of-range one: the
     device answers false and the stub raises, both before any counter
     moves, so the degradation identity still balances. *)
  let cluster = mk ~scheme:Blockrep.Types.Available_copy () in
  let dev = Blockrep.Reliable_device.create cluster in
  let x = Block.of_string "x" in
  Alcotest.(check bool) "device refuses the batch" false
    (Blockrep.Reliable_device.write_blocks dev [ (1, x); (1, x) ]);
  Alcotest.(check bool) "stub raises" true
    (try
       ignore (Blockrep.Driver_stub.write_blocks (Blockrep.Reliable_device.stub dev) [ (2, x); (2, x) ]);
       false
     with Invalid_argument _ -> true);
  let d = Blockrep.Reliable_device.degradation dev in
  Alcotest.(check int) "no request counted" 0 d.Blockrep.Reliable_device.requests;
  Alcotest.(check bool) "degradation conserved" true
    (Blockrep.Reliable_device.degradation_conserved d);
  Alcotest.(check (list int)) "nothing written" [ 0; 0 ]
    (List.map (fun block -> Blockrep.Cluster.effective_version cluster ~site:0 ~block) [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Amortization (the acceptance criterion)                             *)
(* ------------------------------------------------------------------ *)

let test_mcv_batch16_at_least_4x_fewer_messages () =
  let sample batch =
    Workload.Experiment.measure_batch_amortization ~scheme:Blockrep.Types.Voting ~n_sites:5
      ~env:Net.Network.Multicast ~batch ~groups:20 ()
  in
  let s1 = sample 1 and s16 = sample 16 in
  let ratio =
    s1.Workload.Experiment.messages_per_block /. s16.Workload.Experiment.messages_per_block
  in
  Alcotest.(check bool)
    (Printf.sprintf "voting multicast batch-16 ratio %.1fx >= 4x" ratio)
    true (ratio >= 4.0)

(* ------------------------------------------------------------------ *)
(* Chaos: the batched path stays inside the scheme's envelope          *)
(* ------------------------------------------------------------------ *)

let violation_codes outcome =
  let vs = Check.Chaos.violations outcome in
  List.iter (fun v -> Printf.eprintf "violation: %s\n%!" (Check.Violation.to_string v)) vs;
  if vs <> [] then Format.eprintf "history:@.%a@." Check.History.pp outcome.Check.Chaos.history;
  List.map (fun v -> v.Check.Violation.code) vs |> List.sort_uniq String.compare

let test_chaos_batched_no_new_violation_classes scheme () =
  (* Within the supported envelope batch = 1 is violation-free, so the
     batched runs must be too: group commit may change timing and
     message layout but not the consistency classes the oracle sees. *)
  List.iter
    (fun seed ->
      let base = Check.Chaos.default_env ~seed scheme in
      let baseline = violation_codes (Check.Chaos.run { base with batch = 1 }) in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: batch=1 clean" seed)
        [] baseline;
      List.iter
        (fun batch ->
          let codes = violation_codes (Check.Chaos.run { base with batch }) in
          Alcotest.(check (list string))
            (Printf.sprintf "seed %d: batch=%d no new classes" seed batch)
            baseline codes)
        [ 4; 16 ])
    [ 1; 2 ]

let roundtrip_cases =
  List.map
    (fun scheme ->
      Alcotest.test_case (scheme_name scheme ^ " roundtrip") `Quick (test_batch_roundtrip scheme))
    [
      Blockrep.Types.Voting;
      Blockrep.Types.Available_copy;
      Blockrep.Types.Naive_available_copy;
      Blockrep.Types.Dynamic_voting;
    ]

let equivalence_cases =
  List.map
    (fun scheme ->
      Alcotest.test_case
        (scheme_name scheme ^ " batch of one bit-identical")
        `Quick
        (test_batch_of_one_is_bit_identical scheme))
    [ Blockrep.Types.Voting; Blockrep.Types.Available_copy; Blockrep.Types.Naive_available_copy ]

let () =
  Alcotest.run "group-commit"
    [
      ( "cluster",
        roundtrip_cases
        @ equivalence_cases
        @ [
            Alcotest.test_case "batch validation" `Quick test_batch_validation;
            Alcotest.test_case "batch amortizes write traffic" `Quick
              test_batch_amortizes_write_traffic;
          ] );
      ( "stub",
        [
          Alcotest.test_case "batch roundtrip and counters" `Quick
            test_stub_batch_roundtrip_and_counters;
          Alcotest.test_case "batch fails over" `Quick test_stub_batch_fails_over;
          Alcotest.test_case "per-block observer events" `Quick test_stub_observers_per_block;
          Alcotest.test_case "duplicate ids refused uncounted" `Quick
            test_duplicate_ids_refused_uncounted;
        ] );
      ( "amortization",
        [
          Alcotest.test_case "mcv batch-16 >= 4x fewer messages" `Quick
            test_mcv_batch16_at_least_4x_fewer_messages;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "voting: batched path adds no violation classes" `Slow
            (test_chaos_batched_no_new_violation_classes Blockrep.Types.Voting);
          Alcotest.test_case "available copy: batched path adds no violation classes" `Slow
            (test_chaos_batched_no_new_violation_classes Blockrep.Types.Available_copy);
        ] );
    ]
