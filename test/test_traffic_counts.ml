(* Exact transmission counts vs the Section 5 formulas.

   In a failure-free cluster every participation U equals n, so each cost
   in the Section 5 table becomes an exact integer we can assert against
   the network's counters, operation by operation. *)

module Cluster = Blockrep.Cluster
module Runtime = Blockrep.Runtime
module Types = Blockrep.Types
module Block = Blockdev.Block

let make scheme ~n ~mode =
  Cluster.create
    (Blockrep.Config.make_exn ~scheme ~n_sites:n ~n_blocks:8 ~net_mode:mode ~seed:707 ())

let settle c = Cluster.run_until c (Sim.Engine.now (Cluster.engine c) +. 50.0)

let total c = Net.Traffic.total (Cluster.traffic c)

let write c = ignore (Cluster.write_sync c ~site:0 ~block:0 (Block.of_string "w"))
let read c = ignore (Cluster.read_sync c ~site:0 ~block:0)

(* Cost of one settled operation. *)
let cost_of c op =
  settle c;
  let before = total c in
  op c;
  settle c;
  total c - before

let check_cost scheme mode ~n ~op ~expected label =
  let c = make scheme ~n ~mode in
  Alcotest.(check int) label expected (cost_of c op)

let test_multicast_write_costs () =
  (* Voting: 1 request + (n-1) replies + 1 update = n+1 = 1+U.
     AC: 1 update + (n-1) acks = n = U.  NAC: 1. *)
  List.iter
    (fun n ->
      check_cost Types.Voting Net.Network.Multicast ~n ~op:write ~expected:(n + 1)
        (Printf.sprintf "voting multicast write n=%d" n);
      check_cost Types.Available_copy Net.Network.Multicast ~n ~op:write ~expected:n
        (Printf.sprintf "ac multicast write n=%d" n);
      check_cost Types.Naive_available_copy Net.Network.Multicast ~n ~op:write ~expected:1
        (Printf.sprintf "nac multicast write n=%d" n))
    [ 2; 3; 5; 8 ]

let test_multicast_read_costs () =
  (* Voting: 1 request + (n-1) replies = n = U.  Copy schemes: 0. *)
  List.iter
    (fun n ->
      check_cost Types.Voting Net.Network.Multicast ~n ~op:read ~expected:n
        (Printf.sprintf "voting multicast read n=%d" n);
      check_cost Types.Available_copy Net.Network.Multicast ~n ~op:read ~expected:0
        (Printf.sprintf "ac multicast read n=%d" n);
      check_cost Types.Naive_available_copy Net.Network.Multicast ~n ~op:read ~expected:0
        (Printf.sprintf "nac multicast read n=%d" n))
    [ 2; 3; 5; 8 ]

let test_unicast_write_costs () =
  (* Voting: (n-1) requests + (n-1) replies + (n-1) updates = 3n-3 = n+2U-3.
     AC: (n-1) updates + (n-1) acks = 2n-2 = n+U-2.  NAC: n-1. *)
  List.iter
    (fun n ->
      check_cost Types.Voting Net.Network.Unicast ~n ~op:write ~expected:((3 * n) - 3)
        (Printf.sprintf "voting unicast write n=%d" n);
      check_cost Types.Available_copy Net.Network.Unicast ~n ~op:write ~expected:((2 * n) - 2)
        (Printf.sprintf "ac unicast write n=%d" n);
      check_cost Types.Naive_available_copy Net.Network.Unicast ~n ~op:write ~expected:(n - 1)
        (Printf.sprintf "nac unicast write n=%d" n))
    [ 2; 3; 5 ]

let test_unicast_read_costs () =
  (* Voting: (n-1) requests + (n-1) replies = 2n-2 = n+U-2. *)
  List.iter
    (fun n ->
      check_cost Types.Voting Net.Network.Unicast ~n ~op:read ~expected:((2 * n) - 2)
        (Printf.sprintf "voting unicast read n=%d" n))
    [ 2; 3; 5 ]

let test_degraded_voting_write () =
  (* With one site down in multicast, a voting write costs 1 + (U-1) + 1
     where U-1 = n-2 live remote voters. *)
  let c = make Types.Voting ~n:5 ~mode:Net.Network.Multicast in
  Cluster.fail_site c 4;
  Alcotest.(check int) "degraded write" 5 (cost_of c write)

let test_degraded_ac_write () =
  (* AC write with a failed site: 1 update + (n-2) acks. *)
  let c = make Types.Available_copy ~n:5 ~mode:Net.Network.Multicast in
  Cluster.fail_site c 4;
  settle c;
  Alcotest.(check int) "degraded ac write" 4 (cost_of c write)

let test_voting_recovery_free () =
  let c = make Types.Voting ~n:5 ~mode:Net.Network.Multicast in
  settle c;
  let before = total c in
  Cluster.fail_site c 3;
  Cluster.repair_site c 3;
  settle c;
  Alcotest.(check int) "no recovery traffic under voting" before (total c)

let test_copy_recovery_cost_multicast () =
  (* Recovery with everyone else up: probe (1) + replies (n-1) + vv send
     (1) + vv reply (1) = n+2 = U+2 with U = n-1 respondents + ...; the
     paper writes U_A + 2 — with all sites up this is n + 2.  We assert
     the exact event count. *)
  List.iter
    (fun scheme ->
      let c = make scheme ~n:5 ~mode:Net.Network.Multicast in
      settle c;
      Cluster.fail_site c 3;
      let before = total c in
      Cluster.repair_site c 3;
      settle c;
      Alcotest.(check int)
        (Printf.sprintf "%s recovery = n+2" (Types.scheme_to_string scheme))
        7 (total c - before))
    [ Types.Available_copy; Types.Naive_available_copy ]

let test_copy_recovery_cost_unicast () =
  (* Unicast: probe (n-1) + replies (n-1) + vv send (1) + vv reply (1). *)
  List.iter
    (fun scheme ->
      let c = make scheme ~n:5 ~mode:Net.Network.Unicast in
      settle c;
      Cluster.fail_site c 3;
      let before = total c in
      Cluster.repair_site c 3;
      settle c;
      Alcotest.(check int)
        (Printf.sprintf "%s unicast recovery" (Types.scheme_to_string scheme))
        10 (total c - before))
    [ Types.Available_copy; Types.Naive_available_copy ]

let test_stale_voting_read_extra () =
  (* A read at a freshly repaired (stale) voting site costs U plus one
     request and one transfer (our 2-message pull; the paper charges 1 —
     see EXPERIMENTS.md). *)
  let c = make Types.Voting ~n:3 ~mode:Net.Network.Multicast in
  write c;
  settle c;
  Cluster.fail_site c 2;
  write c;
  settle c;
  Cluster.repair_site c 2;
  settle c;
  let before = total c in
  ignore (Cluster.read_sync c ~site:2 ~block:0);
  settle c;
  Alcotest.(check int) "stale read = U + 2" 5 (total c - before)

let test_workload_mix_matches_model () =
  (* 1 write + 2 reads, failure-free: compare against the model at rho→0
     for all schemes and both environments. *)
  let combos =
    [
      (Types.Voting, Analysis.Traffic_model.Voting);
      (Types.Available_copy, Analysis.Traffic_model.Available_copy);
      (Types.Naive_available_copy, Analysis.Traffic_model.Naive_available_copy);
    ]
  in
  List.iter
    (fun (mode, env) ->
      List.iter
        (fun (scheme, model_scheme) ->
          let c = make scheme ~n:5 ~mode in
          settle c;
          let before = total c in
          write c;
          read c;
          read c;
          settle c;
          let measured = total c - before in
          let model =
            Analysis.Traffic_model.workload_cost env model_scheme ~n:5 ~rho:1e-12 ~reads_per_write:2.0
          in
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "%s/%s write group"
               (Types.scheme_to_string scheme)
               (Net.Network.mode_to_string mode))
            model (float_of_int measured))
        combos)
    [
      (Net.Network.Multicast, Analysis.Traffic_model.Multicast);
      (Net.Network.Unicast, Analysis.Traffic_model.Unique_address);
    ]

let test_zero_probability_faults_are_noop () =
  (* Installing a zero-probability fault injector must leave every traffic
     counter exactly as in a fault-free run — the fault layer defaults to a
     strict no-op, not merely a statistical one. *)
  let drive c =
    settle c;
    write c;
    read c;
    Cluster.fail_site c 2;
    write c;
    Cluster.repair_site c 2;
    settle c;
    read c;
    settle c
  in
  List.iter
    (fun mode ->
      List.iter
        (fun scheme ->
          let plain = make scheme ~n:5 ~mode in
          let faulty = make scheme ~n:5 ~mode in
          Cluster.install_faults faulty (Net.Faults.of_seed ~seed:2024 Net.Faults.pristine);
          drive plain;
          drive faulty;
          let label suffix =
            Printf.sprintf "%s/%s %s" (Types.scheme_to_string scheme)
              (Net.Network.mode_to_string mode) suffix
          in
          Alcotest.(check int) (label "messages") (total plain) (total faulty);
          Alcotest.(check int) (label "bytes")
            (Net.Traffic.total_bytes (Cluster.traffic plain))
            (Net.Traffic.total_bytes (Cluster.traffic faulty));
          Alcotest.(check int) (label "delivered")
            (Runtime.Transport.messages_delivered (Cluster.network plain))
            (Runtime.Transport.messages_delivered (Cluster.network faulty)))
        [ Types.Voting; Types.Available_copy; Types.Naive_available_copy ])
    [ Net.Network.Multicast; Net.Network.Unicast ]

let test_repair_cells_zero_without_media_faults () =
  (* The Repair operation exists only for media-fault read-repair: with no
     faults injected its traffic cells stay exactly zero through writes,
     reads, and a full failure/recovery cycle — so every Section 5 count
     above, and every recorded snapshot, is untouched by the durable
     layer. *)
  List.iter
    (fun mode ->
      List.iter
        (fun scheme ->
          let c = make scheme ~n:5 ~mode in
          settle c;
          write c;
          read c;
          Cluster.fail_site c 2;
          write c;
          Cluster.repair_site c 2;
          settle c;
          read c;
          settle c;
          Alcotest.(check int)
            (Printf.sprintf "%s/%s no Repair traffic" (Types.scheme_to_string scheme)
               (Net.Network.mode_to_string mode))
            0
            (Net.Traffic.by_operation (Cluster.traffic c) Net.Message.Repair))
        [
          Types.Voting;
          Types.Available_copy;
          Types.Naive_available_copy;
          Types.Dynamic_voting;
        ])
    [ Net.Network.Multicast; Net.Network.Unicast ]

let test_unicast_broadcast_charges_unreachable () =
  (* Section 5 counts sends: under unique addressing a broadcast costs n-1
     whether or not each destination can take delivery.  NAC n=5 with one
     site down and one partitioned away: the write is still charged 4
     sends, but only the two live, reachable destinations receive it. *)
  let c = make Types.Naive_available_copy ~n:5 ~mode:Net.Network.Unicast in
  settle c;
  Cluster.fail_site c 4;
  Cluster.partition c [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  settle c;
  let net = Cluster.network c in
  let sent0 = total c and delivered0 = Runtime.Transport.messages_delivered net in
  write c;
  settle c;
  Alcotest.(check int) "charged n-1 sends" 4 (total c - sent0);
  Alcotest.(check int) "only reachable live sites take delivery" 2
    (Runtime.Transport.messages_delivered net - delivered0)

let test_multicast_broadcast_unreachable_cost_one () =
  (* Same degraded topology under multicast: one send on the wire, and the
     delivery count is unchanged by the addressing mode. *)
  let c = make Types.Naive_available_copy ~n:5 ~mode:Net.Network.Multicast in
  settle c;
  Cluster.fail_site c 4;
  Cluster.partition c [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  settle c;
  let net = Cluster.network c in
  let sent0 = total c and delivered0 = Runtime.Transport.messages_delivered net in
  write c;
  settle c;
  Alcotest.(check int) "multicast broadcast costs one send" 1 (total c - sent0);
  Alcotest.(check int) "delivery unchanged by addressing mode" 2
    (Runtime.Transport.messages_delivered net - delivered0)

(* Modeled vs measured wire size.

   [Wire.size] is now the measured encoded-frame length; the legacy
   analytic model survives as [Wire.model_size] purely as a cross-check.
   Remaining divergence per category, and why:

   - Block carriers (Block_update, Block_transfer, Vv_reply-with-updates,
     Batch_update): within 15%.  The 512-byte payload
     dominates both sides; the gap is the modeled 32-byte header vs the
     9-byte frame plus 1–2-byte varints.

   - Control messages (everything else): the model over-states by up to
     ~75%.  It charges a 32-byte header and 4 bytes per integer where
     the codec spends 9 frame bytes and 1–2-byte varints — consistently
     conservative, never optimistic.

   Two invariants hold across every category at protocol-realistic field
   values: the model never under-estimates (measured <= modeled), and it
   is never more than 5x the measured size. *)
let test_model_vs_measured_size () =
  let module Wire = Blockrep.Wire in
  let set = Types.int_set_of_list in
  let vv l =
    let v = Blockdev.Version_vector.create (List.length l) in
    List.iteri (fun i x -> Blockdev.Version_vector.set v i x) l;
    v
  in
  let info =
    { Wire.origin = 2; state = Types.Available; versions = vv [ 3; 0; 7; 1 ];
      was_available = set [ 0; 2; 3 ] }
  in
  let carriers =
    [
      Wire.Block_update
        { rid = Some 2; block = 3; version = 4; data = Block.zero; carried_w = set [ 0; 1 ] };
      Wire.Block_transfer { rid = 3; block = 7; version = 4; data = Block.zero };
      Wire.Vv_reply
        { rid = 5; versions = vv [ 2; 2; 1; 0 ]; updates = [ (0, 2, Block.zero); (2, 1, Block.zero) ];
          w_of_source = set [ 0; 1; 2 ] };
      Wire.Batch_update
        { rid = Some 7; writes = [ (0, 2, Block.zero); (4, 5, Block.zero) ]; carried_w = set [ 1 ] };
    ]
  in
  let control =
    [
      Wire.Vote_request { rid = 11; block = 5; purpose = Net.Message.Write };
      Wire.Vote_reply { rid = 11; block = 5; version = 9; weight = 2; group_size = 4 };
      Wire.Write_ack { rid = 12; block = 0 };
      Wire.Block_request { rid = 13; block = 7 };
      Wire.Recovery_probe { rid = 14; info };
      Wire.Recovery_reply { rid = 14; info };
      Wire.Vv_send { rid = 15; versions = vv [ 1; 2; 0; 0 ]; w_of_sender = set [ 1 ] };
      Wire.Group_fix { block = 3; version = 6; group = set [ 0; 2 ] };
      Wire.Batch_vote_request { rid = 16; blocks = [ 0; 3; 5 ]; purpose = Net.Message.Read };
      Wire.Batch_vote_reply { rid = 16; votes = [ (0, 1); (3, 2) ]; weight = 1; group_size = 5 };
      Wire.Batch_ack { rid = 17; blocks = [ 0; 4 ] };
    ]
  in
  let check_bounds ~tol m =
    let modeled = Wire.model_size m and measured = Wire.size m in
    let name = Wire.describe m in
    if measured > modeled then
      Alcotest.failf "%s: model under-estimates (measured %d > modeled %d)" name measured modeled;
    if 5 * measured < modeled then
      Alcotest.failf "%s: model exceeds 5x measured (%d vs %d)" name modeled measured;
    let divergence = float_of_int (modeled - measured) /. float_of_int modeled in
    if divergence > tol then
      Alcotest.failf "%s: divergence %.3f exceeds documented tolerance %.2f (modeled %d, measured %d)"
        name divergence tol modeled measured
  in
  List.iter (check_bounds ~tol:0.15) carriers;
  List.iter (check_bounds ~tol:0.75) control

let () =
  Alcotest.run "traffic-counts"
    [
      ( "section-5-exact",
        [
          Alcotest.test_case "multicast writes" `Quick test_multicast_write_costs;
          Alcotest.test_case "multicast reads" `Quick test_multicast_read_costs;
          Alcotest.test_case "unicast writes" `Quick test_unicast_write_costs;
          Alcotest.test_case "unicast reads" `Quick test_unicast_read_costs;
          Alcotest.test_case "degraded voting write" `Quick test_degraded_voting_write;
          Alcotest.test_case "degraded ac write" `Quick test_degraded_ac_write;
          Alcotest.test_case "voting recovery free" `Quick test_voting_recovery_free;
          Alcotest.test_case "copy recovery multicast" `Quick test_copy_recovery_cost_multicast;
          Alcotest.test_case "copy recovery unicast" `Quick test_copy_recovery_cost_unicast;
          Alcotest.test_case "stale voting read" `Quick test_stale_voting_read_extra;
          Alcotest.test_case "write group vs model" `Quick test_workload_mix_matches_model;
          Alcotest.test_case "modeled vs measured size" `Quick test_model_vs_measured_size;
        ] );
      ( "faults-and-reachability",
        [
          Alcotest.test_case "zero-probability faults are a no-op" `Quick
            test_zero_probability_faults_are_noop;
          Alcotest.test_case "repair cells zero without media faults" `Quick
            test_repair_cells_zero_without_media_faults;
          Alcotest.test_case "unicast broadcast charges unreachable sites" `Quick
            test_unicast_broadcast_charges_unreachable;
          Alcotest.test_case "multicast broadcast costs one regardless" `Quick
            test_multicast_broadcast_unreachable_cost_one;
        ] );
    ]
