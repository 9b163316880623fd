(* Tests for Blockrep.Checkpoint: durable-state snapshots of a cluster. *)

module Cluster = Blockrep.Cluster
module Checkpoint = Blockrep.Checkpoint
module Types = Blockrep.Types
module Block = Blockdev.Block

let temp () = Filename.temp_file "blockrep" ".ckpt"

let make ?(scheme = Types.Available_copy) ?(seed = 1515) () =
  Cluster.create (Blockrep.Config.make_exn ~scheme ~n_sites:3 ~n_blocks:8 ~seed ())

let ok = function Ok v -> v | Error msg -> Alcotest.failf "checkpoint: %s" msg

let settle c = Cluster.run_until c (Sim.Engine.now (Cluster.engine c) +. 50.0)

let test_roundtrip () =
  let c = make () in
  ignore (Cluster.write_sync c ~site:0 ~block:1 (Block.of_string "saved"));
  ignore (Cluster.write_sync c ~site:1 ~block:5 (Block.of_string "also saved"));
  Cluster.fail_site c 2;
  ignore (Cluster.write_sync c ~site:0 ~block:1 (Block.of_string "newer"));
  settle c;
  let path = temp () in
  ok (Checkpoint.save c path);
  (* Resurrect in a brand-new cluster. *)
  let c2 = make () in
  ok (Checkpoint.restore c2 path);
  Alcotest.(check bool) "site states restored" true (Cluster.site_state c2 2 = Types.Failed);
  Alcotest.(check bool) "up sites available" true (Cluster.site_state c2 0 = Types.Available);
  (match Cluster.read_sync c2 ~site:0 ~block:1 with
  | Ok (b, v) ->
      Alcotest.(check int) "version restored" 2 v;
      Alcotest.(check string) "content restored" "newer" (String.sub (Block.to_string b) 0 5)
  | Error e -> Alcotest.failf "read: %s" (Types.failure_reason_to_string e));
  (* W sets restored too. *)
  Alcotest.(check bool) "was-available restored" true
    (Types.Int_set.equal (Cluster.site_was_available c2 0) (Cluster.site_was_available c 0));
  (* The resurrected cluster keeps working: repair the failed site. *)
  Cluster.repair_site c2 2;
  settle c2;
  Alcotest.(check bool) "recovered after restore" true (Cluster.site_state c2 2 = Types.Available);
  Alcotest.(check bool) "consistent" true (Cluster.consistent_available_stores c2);
  Sys.remove path

let test_restore_refuses_used_cluster () =
  let c = make () in
  let path = temp () in
  ok (Checkpoint.save c path);
  let c2 = make () in
  ignore (Cluster.write_sync c2 ~site:0 ~block:0 (Block.of_string "dirty"));
  settle c2;
  (match Checkpoint.restore c2 path with
  | Error msg -> Alcotest.(check bool) "refused" true (String.length msg > 0)
  | Ok () -> Alcotest.fail "restored over used state");
  Sys.remove path

let test_restore_refuses_mismatched_config () =
  let c = make ~scheme:Types.Available_copy () in
  let path = temp () in
  ok (Checkpoint.save c path);
  let other = make ~scheme:Types.Voting () in
  (match Checkpoint.restore other path with
  | Error msg -> Alcotest.(check bool) "scheme mismatch detected" true (String.length msg > 0)
  | Ok () -> Alcotest.fail "restored into the wrong scheme");
  Sys.remove path

let test_restore_refuses_garbage () =
  let path = temp () in
  let oc = open_out_bin path in
  output_string oc "garbage bytes here";
  close_out oc;
  let c = make () in
  (match Checkpoint.restore c path with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted garbage");
  Sys.remove path

let test_checkpoint_mid_outage_for_nac () =
  (* Total failure under NAC; checkpoint; restore; finish the repairs in
     the new incarnation. *)
  let c = make ~scheme:Types.Naive_available_copy () in
  ignore (Cluster.write_sync c ~site:0 ~block:0 (Block.of_string "pre-crash"));
  settle c;
  Cluster.fail_site c 0;
  Cluster.fail_site c 1;
  Cluster.fail_site c 2;
  Cluster.repair_site c 1;
  settle c;
  Alcotest.(check bool) "comatose in the original" true (Cluster.site_state c 1 = Types.Comatose);
  let path = temp () in
  ok (Checkpoint.save c path);
  let c2 = make ~scheme:Types.Naive_available_copy () in
  ok (Checkpoint.restore c2 path);
  Alcotest.(check bool) "comatose restored" true (Cluster.site_state c2 1 = Types.Comatose);
  Alcotest.(check bool) "unavailable" false (Cluster.system_available c2);
  (* Bring the rest back: the naive recovery must conclude. *)
  Cluster.repair_site c2 0;
  Cluster.repair_site c2 2;
  (* Kick the waiting comatose site by re-probing: fail/repair is the
     blunt instrument a restored deployment would use. *)
  settle c2;
  Cluster.fail_site c2 1;
  Cluster.repair_site c2 1;
  settle c2;
  Alcotest.(check bool) "service resumed" true (Cluster.system_available c2);
  (match Cluster.read_sync c2 ~site:1 ~block:0 with
  | Ok (b, _) ->
      Alcotest.(check string) "data survived the checkpoint" "pre-crash"
        (String.sub (Block.to_string b) 0 9)
  | Error e -> Alcotest.failf "read: %s" (Types.failure_reason_to_string e));
  Sys.remove path

let test_save_refuses_quarantined_copy () =
  (* Restore seals every block it installs, so saving a rotted copy would
     resurrect it as verified: site 1 would then serve other bytes at v1
     than site 0 does. *)
  let c = make () in
  ignore (Cluster.write_sync c ~site:0 ~block:0 (Block.of_string "precious"));
  settle c;
  Cluster.inject_bitrot c ~site:1 ~block:0;
  let path = temp () in
  (match Checkpoint.save c path with
  | Error msg ->
      Alcotest.(check string) "names the quarantined copy"
        "site 1 holds a quarantined copy of block 0; repair it before saving" msg
  | Ok () ->
      let c2 = make () in
      ok (Checkpoint.restore c2 path);
      Alcotest.failf "saved a quarantined copy; after restore: %s"
        (String.concat "; "
           (List.map Check.Violation.to_string (Check.Invariant.scan c2))));
  Sys.remove path

let () =
  Alcotest.run "checkpoint"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "refuses used cluster" `Quick test_restore_refuses_used_cluster;
          Alcotest.test_case "refuses wrong scheme" `Quick test_restore_refuses_mismatched_config;
          Alcotest.test_case "refuses garbage" `Quick test_restore_refuses_garbage;
          Alcotest.test_case "refuses quarantined state" `Quick test_save_refuses_quarantined_copy;
          Alcotest.test_case "mid-outage checkpoint" `Quick test_checkpoint_mid_outage_for_nac;
        ] );
    ]
