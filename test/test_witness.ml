(* Tests for weighted voting with witnesses (the reference [10] extension):
   witnesses vote and version but never store or serve data. *)

module Cluster = Blockrep.Cluster
module Types = Blockrep.Types
module Block = Blockdev.Block
module Vv = Blockdev.Version_vector

(* 2 data sites (0, 1) + 1 witness (2): same quorum arithmetic as three
   full copies, a third of the storage saved. *)
let make ?(n = 3) ?(witnesses = [ 2 ]) ?(blocks = 8) () =
  Cluster.create
    (Blockrep.Config.make_exn ~scheme:Types.Voting ~n_sites:n ~n_blocks:blocks ~witnesses ~seed:808 ())

let payload s = Block.of_string s

let write_ok c ~site ~block data =
  match Cluster.write_sync c ~site ~block (payload data) with
  | Ok v -> v
  | Error e -> Alcotest.failf "write failed: %s" (Types.failure_reason_to_string e)

let read_ok c ~site ~block =
  match Cluster.read_sync c ~site ~block with
  | Ok (b, v) -> (Block.to_string b, v)
  | Error e -> Alcotest.failf "read failed: %s" (Types.failure_reason_to_string e)

let settle c = Cluster.run_until c (Sim.Engine.now (Cluster.engine c) +. 50.0)

let test_config_validation () =
  let bad ?witnesses ?(scheme = Types.Voting) () =
    match Blockrep.Config.make_exn ~scheme ~n_sites:3 ?witnesses () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "out-of-range witness" true (bad ~witnesses:[ 5 ] ());
  Alcotest.(check bool) "all witnesses" true (bad ~witnesses:[ 0; 1; 2 ] ());
  Alcotest.(check bool) "witnesses under AC" true
    (bad ~witnesses:[ 2 ] ~scheme:Types.Available_copy ());
  Alcotest.(check bool) "valid accepted" false (bad ~witnesses:[ 2 ] ())

let test_roundtrip_with_witness () =
  let c = make () in
  Alcotest.(check int) "write ok" 1 (write_ok c ~site:0 ~block:0 "witnessed");
  let data, v = read_ok c ~site:1 ~block:0 in
  Alcotest.(check int) "version" 1 v;
  Alcotest.(check string) "data" "witnessed" (String.sub data 0 9)

let test_witness_versions_but_no_data () =
  let c = make () in
  ignore (write_ok c ~site:0 ~block:3 "invisible");
  settle c;
  (* The witness's version advanced... *)
  Alcotest.(check int) "witness version" 1 (Vv.get (Cluster.site_versions c 2) 3);
  (* ...but a read at the witness site must fetch from a data site (the
     local store holds zeroes). *)
  let data, _ = read_ok c ~site:2 ~block:3 in
  Alcotest.(check string) "read at witness pulls real data" "invisible" (String.sub data 0 9)

let test_read_at_witness_costs_fetch () =
  let c = make () in
  ignore (write_ok c ~site:0 ~block:0 "x");
  settle c;
  let before = Net.Traffic.by_category (Cluster.traffic c) Net.Message.Block_transfer in
  ignore (read_ok c ~site:2 ~block:0);
  settle c;
  Alcotest.(check int) "one transfer per witness read" (before + 1)
    (Net.Traffic.by_category (Cluster.traffic c) Net.Message.Block_transfer);
  (* Reads at data sites stay transfer-free. *)
  ignore (read_ok c ~site:0 ~block:0);
  settle c;
  Alcotest.(check int) "data-site read free of transfers" (before + 1)
    (Net.Traffic.by_category (Cluster.traffic c) Net.Message.Block_transfer)

let test_witness_sustains_quorum () =
  (* Data site 1 down: data site 0 + witness 2 still form a majority, and
     site 0 holds current data — full service. *)
  let c = make () in
  ignore (write_ok c ~site:0 ~block:0 "pre");
  settle c;
  Cluster.fail_site c 1;
  Alcotest.(check int) "write with witness quorum" 2 (write_ok c ~site:0 ~block:0 "post");
  let data, _ = read_ok c ~site:0 ~block:0 in
  Alcotest.(check string) "read with witness quorum" "post" (String.sub data 0 4);
  Alcotest.(check bool) "system available" true (Cluster.system_available c)

let test_current_copy_unreachable () =
  (* Write while data site 1 is down, then swap: only data site 1 (stale)
     and the witness are up.  The witness's version number proves the data
     site is stale, so the read must refuse rather than serve old data. *)
  let c = make () in
  ignore (write_ok c ~site:0 ~block:0 "v1");
  settle c;
  Cluster.fail_site c 1;
  ignore (write_ok c ~site:0 ~block:0 "v2");
  settle c;
  Cluster.fail_site c 0;
  Cluster.repair_site c 1;
  settle c;
  (match Cluster.read_sync c ~site:1 ~block:0 with
  | Error Types.Current_copy_unreachable -> ()
  | Ok (b, v) ->
      Alcotest.failf "served %S v%d despite unreachable current copy"
        (String.sub (Block.to_string b) 0 2) v
  | Error e -> Alcotest.failf "wrong refusal: %s" (Types.failure_reason_to_string e));
  Alcotest.(check bool) "monitor agrees: not fully available" false (Cluster.system_available c);
  (* Witness correctness: a write at the stale data site still picks a
     version above the one it never saw. *)
  (match Cluster.write_sync c ~site:1 ~block:0 (payload "v3") with
  | Ok v -> Alcotest.(check int) "version continues past unseen one" 3 v
  | Error e -> Alcotest.failf "write refused: %s" (Types.failure_reason_to_string e));
  (* With the new write the up data site is current again. *)
  let data, _ = read_ok c ~site:1 ~block:0 in
  Alcotest.(check string) "fresh write serves" "v3" (String.sub data 0 2)

let test_witnesses_do_not_serve_transfers () =
  (* Stale data site 0 pulls from data site 1 — never from witness 2, even
     though the witness also "has" the top version. *)
  let c = make () in
  Cluster.fail_site c 0;
  ignore (write_ok c ~site:1 ~block:2 "target");
  settle c;
  Cluster.repair_site c 0;
  settle c;
  let data, _ = read_ok c ~site:0 ~block:2 in
  Alcotest.(check string) "pulled from the data site" "target" (String.sub data 0 6)

let test_five_sites_two_witnesses () =
  let c = make ~n:5 ~witnesses:[ 3; 4 ] () in
  ignore (write_ok c ~site:0 ~block:0 "majority");
  settle c;
  (* Two data sites down: remaining data site + 2 witnesses = quorum. *)
  Cluster.fail_site c 1;
  Cluster.fail_site c 2;
  let data, _ = read_ok c ~site:0 ~block:0 in
  Alcotest.(check string) "3 of 5 with one data copy" "majority" (String.sub data 0 8);
  ignore (write_ok c ~site:0 ~block:0 "still writing");
  (* Lose the last data site: quorum persists (2 witnesses... no — 2 of 5
     is no quorum; fail only after checking). *)
  Cluster.fail_site c 0;
  Alcotest.(check bool) "no data site: unavailable" false (Cluster.system_available c)

let test_model_matches_simulation () =
  (* The Witness_model approximation vs the protocol simulation. *)
  let rho = 0.1 in
  let model = Analysis.Witness_model.majority_availability ~data:2 ~witnesses:1 ~rho in
  let config =
    Blockrep.Config.make_exn ~scheme:Types.Voting ~n_sites:3 ~n_blocks:2 ~witnesses:[ 2 ]
      ~latency:(Util.Dist.Constant 0.001) ~seed:4242 ()
  in
  let c = Cluster.create config in
  (* A background write stream keeps repaired data sites current, matching
     the model's lazy-currency idealisation. *)
  let gen = Workload.Failure_gen.attach c ~rng:(Util.Prng.create 17) ~lambda:rho ~mu:1.0 in
  let access = Workload.Access_gen.create ~rng:(Util.Prng.create 18) ~n_blocks:2 ~reads_per_write:0.5 () in
  ignore (Workload.Runner.run_open_loop c access ~site:0 ~rate:20.0 ~horizon:20_000.0);
  Workload.Failure_gen.stop gen;
  let sim = Blockrep.Availability_monitor.availability (Cluster.monitor c) in
  Alcotest.(check bool)
    (Printf.sprintf "model %.4f vs sim %.4f" model sim)
    true
    (Float.abs (model -. sim) < 0.02)

let test_model_properties () =
  let rho = 0.05 in
  (* Witnesses help: 2 data + 1 witness beats 2 data copies alone. *)
  let with_w = Analysis.Witness_model.majority_availability ~data:2 ~witnesses:1 ~rho in
  let plain2 = Analysis.Voting_model.availability ~n:2 ~rho in
  Alcotest.(check bool) "witness adds availability" true (with_w > plain2);
  (* For 2 data + 1 witness the model coincides with 3 full copies: every
     majority pair contains a data site, so the data constraint is vacuous
     — a classic witness result.  (The protocol still pays a currency
     window the model idealises away.) *)
  let plain3 = Analysis.Voting_model.availability ~n:3 ~rho in
  Alcotest.(check (float 1e-9)) "2d+1w = 3 full copies in the model" plain3 with_w;
  (* Zero witnesses reduces to plain voting. *)
  List.iter
    (fun n ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "no witnesses = plain voting n=%d" n)
        (Analysis.Voting_model.availability ~n ~rho)
        (Analysis.Witness_model.majority_availability ~data:n ~witnesses:0 ~rho))
    [ 1; 2; 3; 4; 5 ]

let test_storage_accounting () =
  let full, with_w = Analysis.Witness_model.storage_blocks ~data:2 ~witnesses:1 ~n_blocks:100 in
  Alcotest.(check int) "full replication" 300 full;
  Alcotest.(check int) "witness config" 200 with_w

let prop_witness_model_bounds =
  QCheck.Test.make ~name:"witness availability between write-availability bounds" ~count:100
    QCheck.(triple (int_range 1 4) (int_range 0 4) (float_range 0.01 1.0))
    (fun (data, witnesses, rho) ->
      let a = Analysis.Witness_model.majority_availability ~data ~witnesses ~rho in
      (* Never better than plain voting over the same site count; never
         better than 1; non-negative. *)
      let plain = Analysis.Voting_model.availability ~n:(data + witnesses) ~rho in
      a >= 0.0 && a <= plain +. 1e-12)

let () =
  Alcotest.run "witness"
    [
      ( "protocol",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_with_witness;
          Alcotest.test_case "versions but no data" `Quick test_witness_versions_but_no_data;
          Alcotest.test_case "witness read costs a fetch" `Quick test_read_at_witness_costs_fetch;
          Alcotest.test_case "witness sustains quorum" `Quick test_witness_sustains_quorum;
          Alcotest.test_case "current copy unreachable" `Quick test_current_copy_unreachable;
          Alcotest.test_case "witnesses never serve data" `Quick test_witnesses_do_not_serve_transfers;
          Alcotest.test_case "two witnesses of five" `Quick test_five_sites_two_witnesses;
        ] );
      ( "model",
        [
          Alcotest.test_case "matches simulation" `Slow test_model_matches_simulation;
          Alcotest.test_case "ordering properties" `Quick test_model_properties;
          Alcotest.test_case "storage accounting" `Quick test_storage_accounting;
          QCheck_alcotest.to_alcotest prop_witness_model_bounds;
        ] );
    ]
