(* Unit tests for Blockrep.Runtime: the round/timeout machinery beneath
   all three protocols, exercised directly. *)

module Runtime = Blockrep.Runtime
module Wire = Blockrep.Wire
module Types = Blockrep.Types
module Int_set = Blockrep.Types.Int_set

let make ?(n = 4) ?(timeout = 4.0) () =
  let config =
    Blockrep.Config.make_exn ~scheme:Types.Voting ~n_sites:n ~n_blocks:4
      ~latency:(Util.Dist.Constant 1.0) ~op_timeout:timeout ~seed:1414 ()
  in
  Runtime.create config

let some_payload rid = Wire.Write_ack { rid; block = 0 }

let test_round_completes_when_all_reply () =
  let rt = make () in
  let engine = Runtime.engine rt in
  let result = ref None in
  let rid =
    Runtime.begin_round rt ~coordinator:0
      ~expected:(Types.int_set_of_list [ 1; 2 ])
      ~on_complete:(fun outcome replies -> result := Some (outcome, List.length replies))
  in
  Runtime.reply rt ~rid ~from:1 (some_payload rid);
  Alcotest.(check bool) "not yet" true (!result = None);
  Runtime.reply rt ~rid ~from:2 (some_payload rid);
  Alcotest.(check bool) "completes on the final reply" true
    (!result = Some (Runtime.Complete, 2));
  Alcotest.(check bool) "round closed" false (Runtime.round_active rt rid);
  Sim.Engine.run engine

let test_round_timeout_with_partial_replies () =
  let rt = make ~timeout:4.0 () in
  let engine = Runtime.engine rt in
  let result = ref None in
  let rid =
    Runtime.begin_round rt ~coordinator:0
      ~expected:(Types.int_set_of_list [ 1; 2; 3 ])
      ~on_complete:(fun outcome replies -> result := Some (outcome, List.length replies))
  in
  Runtime.reply rt ~rid ~from:1 (some_payload rid);
  Sim.Engine.run_until engine 10.0;
  Alcotest.(check bool) "timed out with the replies received" true
    (!result = Some (Runtime.Timeout, 1))

let test_round_empty_expected_completes_async () =
  let rt = make () in
  let engine = Runtime.engine rt in
  let result = ref None in
  ignore
    (Runtime.begin_round rt ~coordinator:0 ~expected:Int_set.empty ~on_complete:(fun outcome replies ->
         result := Some (outcome, List.length replies)));
  Alcotest.(check bool) "not synchronous" true (!result = None);
  Sim.Engine.run_until engine 1.0;
  Alcotest.(check bool) "completes via the engine" true (!result = Some (Runtime.Complete, 0))

let test_duplicate_replies_ignored () =
  let rt = make () in
  let result = ref None in
  let rid =
    Runtime.begin_round rt ~coordinator:0
      ~expected:(Types.int_set_of_list [ 1; 2 ])
      ~on_complete:(fun _ replies -> result := Some (List.length replies))
  in
  Runtime.reply rt ~rid ~from:1 (some_payload rid);
  Runtime.reply rt ~rid ~from:1 (some_payload rid);
  Alcotest.(check bool) "duplicate did not complete the round" true (!result = None);
  Runtime.reply rt ~rid ~from:2 (some_payload rid);
  Alcotest.(check bool) "each site counted once" true (!result = Some 2)

let test_late_reply_is_harmless () =
  let rt = make ~timeout:2.0 () in
  let engine = Runtime.engine rt in
  let completions = ref 0 in
  let rid =
    Runtime.begin_round rt ~coordinator:0
      ~expected:(Types.int_set_of_list [ 1 ])
      ~on_complete:(fun _ _ -> incr completions)
  in
  Sim.Engine.run_until engine 5.0;
  Alcotest.(check int) "completed by timeout" 1 !completions;
  (* The straggler arrives after the round is gone. *)
  Runtime.reply rt ~rid ~from:1 (some_payload rid);
  Alcotest.(check int) "no double completion" 1 !completions

let test_coordinator_failure_aborts_round () =
  let rt = make () in
  let outcome = ref None in
  ignore
    (Runtime.begin_round rt ~coordinator:2
       ~expected:(Types.int_set_of_list [ 1 ])
       ~on_complete:(fun o _ -> outcome := Some o));
  Runtime.fail_site rt 2;
  Alcotest.(check bool) "aborted synchronously with the failure" true (!outcome = Some Runtime.Aborted)

let test_fail_site_preserves_disk_clears_volatile () =
  let rt = make () in
  let s = Runtime.site rt 1 in
  Blockdev.Durable_store.write s.Runtime.durable 0 (Blockdev.Block.of_string "on disk") ~version:3;
  s.Runtime.w <- Types.int_set_of_list [ 0; 1 ];
  Runtime.cache_info rt 1 (Runtime.make_info rt 2);
  Runtime.fail_site rt 1;
  Alcotest.(check bool) "state failed" true (s.Runtime.state = Types.Failed);
  Alcotest.(check int) "versions survive" 3 (Blockdev.Durable_store.version s.Runtime.durable 0);
  Alcotest.(check bool) "was-available survives" true
    (Int_set.equal s.Runtime.w (Types.int_set_of_list [ 0; 1 ]));
  Alcotest.(check bool) "peer cache cleared" true (Array.for_all (( = ) None) s.Runtime.cache)

let test_state_change_listeners () =
  let rt = make () in
  let log = ref [] in
  Runtime.on_state_change rt (fun i st -> log := (i, st) :: !log);
  Runtime.set_state rt 0 Types.Comatose;
  Runtime.set_state rt 0 Types.Comatose (* no-op *);
  Runtime.set_state rt 0 Types.Available;
  Alcotest.(check int) "two real transitions" 2 (List.length !log)

let test_peers_matching () =
  let rt = make () in
  Runtime.fail_site rt 3;
  Runtime.set_state rt 2 Types.Comatose;
  (* up_peers sees network liveness; peers_matching filters on protocol
     state. *)
  Alcotest.(check bool) "up peers of 0" true
    (Int_set.equal (Runtime.up_peers rt 0) (Types.int_set_of_list [ 1; 2 ]));
  Alcotest.(check bool) "available peers of 0" true
    (Int_set.equal
       (Runtime.peers_matching rt 0 (fun s -> s.Runtime.state = Types.Available))
       (Types.int_set_of_list [ 1 ]))

let test_make_info_snapshot () =
  let rt = make () in
  let s = Runtime.site rt 2 in
  Blockdev.Durable_store.write s.Runtime.durable 1 (Blockdev.Block.of_string "x") ~version:5;
  let info = Runtime.make_info rt 2 in
  Alcotest.(check int) "origin" 2 info.Wire.origin;
  Alcotest.(check int) "versions snapshot" 5 (Blockdev.Version_vector.get info.Wire.versions 1);
  (* Later writes do not mutate the snapshot. *)
  Blockdev.Durable_store.write s.Runtime.durable 1 (Blockdev.Block.of_string "y") ~version:6;
  Alcotest.(check int) "immutable snapshot" 5 (Blockdev.Version_vector.get info.Wire.versions 1)

let test_repair_requires_failed () =
  let rt = make () in
  let called = ref false in
  Runtime.repair_site rt 0 (fun _ -> called := true);
  Alcotest.(check bool) "repair of an up site is a no-op" false !called;
  Runtime.fail_site rt 0;
  Runtime.repair_site rt 0 (fun _ -> called := true);
  Alcotest.(check bool) "repair of a failed site runs the hook" true !called

let () =
  Alcotest.run "runtime"
    [
      ( "rounds",
        [
          Alcotest.test_case "completes on all replies" `Quick test_round_completes_when_all_reply;
          Alcotest.test_case "timeout with partial replies" `Quick test_round_timeout_with_partial_replies;
          Alcotest.test_case "empty expected" `Quick test_round_empty_expected_completes_async;
          Alcotest.test_case "duplicate replies" `Quick test_duplicate_replies_ignored;
          Alcotest.test_case "late reply harmless" `Quick test_late_reply_is_harmless;
          Alcotest.test_case "coordinator failure aborts" `Quick test_coordinator_failure_aborts_round;
        ] );
      ( "sites",
        [
          Alcotest.test_case "failure semantics" `Quick test_fail_site_preserves_disk_clears_volatile;
          Alcotest.test_case "state listeners" `Quick test_state_change_listeners;
          Alcotest.test_case "peer queries" `Quick test_peers_matching;
          Alcotest.test_case "info snapshots" `Quick test_make_info_snapshot;
          Alcotest.test_case "repair gating" `Quick test_repair_requires_failed;
        ] );
    ]
