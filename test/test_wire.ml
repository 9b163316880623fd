(* Tests for Blockrep.Wire (message codec metadata) and Blockrep.Config
   validation. *)

module Wire = Blockrep.Wire
module Types = Blockrep.Types
module Config = Blockrep.Config
module Block = Blockdev.Block
module Vv = Blockdev.Version_vector

let set = Types.int_set_of_list

let sample_info origin =
  { Wire.origin; state = Types.Available; versions = Vv.create 4; was_available = set [ 0; 1 ] }

let sample_messages =
  [
    Wire.Vote_request { rid = 1; block = 0; purpose = Net.Message.Read };
    Wire.Vote_reply { rid = 1; block = 0; version = 3; weight = 2; group_size = 5 };
    Wire.Block_update
      { rid = Some 2; block = 1; version = 4; data = Block.of_string "x"; carried_w = set [ 0; 1; 2 ] };
    Wire.Write_ack { rid = 2; block = 1 };
    Wire.Block_request { rid = 3; block = 2 };
    Wire.Block_transfer { rid = 3; block = 2; version = 1; data = Block.zero };
    Wire.Recovery_probe { rid = 4; info = sample_info 1 };
    Wire.Recovery_reply { rid = 4; info = sample_info 2 };
    Wire.Vv_send { rid = 5; versions = Vv.create 4; w_of_sender = set [ 1 ] };
    Wire.Vv_reply
      { rid = 5; versions = Vv.create 4; updates = [ (0, 2, Block.zero) ]; w_of_source = set [ 1; 2 ] };
    Wire.Group_fix { block = 0; version = 7; group = set [ 0; 2 ] };
    Wire.Batch_vote_request { rid = 6; blocks = [ 0; 1; 2 ]; purpose = Net.Message.Write };
    Wire.Batch_vote_reply { rid = 6; votes = [ (0, 1); (1, 0); (2, 2) ]; weight = 1; group_size = 5 };
    Wire.Batch_update
      { rid = Some 6; writes = [ (0, 2, Block.zero); (1, 1, Block.zero) ]; carried_w = set [ 0; 1 ] };
    Wire.Batch_ack { rid = 6; blocks = [ 0; 1 ] };
  ]

let test_sizes_positive () =
  List.iter
    (fun m ->
      if Wire.size m <= 0 then Alcotest.failf "non-positive size for %s" (Wire.describe m))
    sample_messages

let test_block_carriers_dominate () =
  (* Messages carrying block payloads must be at least a block big — the
     size model that makes the Section 5 byte remark meaningful. *)
  let carries_block = function
    | Wire.Block_update _ | Wire.Block_transfer _ | Wire.Batch_update _ -> true
    | Wire.Vv_reply { updates; _ } -> updates <> []
    | _ -> false
  in
  List.iter
    (fun m ->
      let s = Wire.size m in
      if carries_block m then
        Alcotest.(check bool) (Wire.describe m) true (s >= Block.size)
      else Alcotest.(check bool) (Wire.describe m) true (s < Block.size))
    sample_messages

let test_vv_reply_size_grows_with_updates () =
  let mk updates = Wire.Vv_reply { rid = 1; versions = Vv.create 4; updates; w_of_source = set [] } in
  let one = Wire.size (mk [ (0, 1, Block.zero) ]) in
  let three = Wire.size (mk [ (0, 1, Block.zero); (1, 1, Block.zero); (2, 1, Block.zero) ]) in
  (* Measured encoding: each extra update costs its block payload plus a
     few varint bytes of (block, version) framing — strictly between one
     raw block and a block plus the legacy 8-byte overhead. *)
  Alcotest.(check bool) "two more blocks (lower)" true (three - one >= 2 * Block.size);
  Alcotest.(check bool) "two more blocks (upper)" true (three - one <= 2 * (Block.size + 8))

let test_describe_nonempty_and_distinct () =
  let described = List.map Wire.describe sample_messages in
  List.iter (fun d -> Alcotest.(check bool) d true (String.length d > 5)) described;
  Alcotest.(check int) "descriptions distinct" (List.length described)
    (List.length (List.sort_uniq compare described))

let test_rid_extraction () =
  Alcotest.(check (option int)) "vote request" (Some 1) (Wire.rid (List.nth sample_messages 0));
  Alcotest.(check (option int)) "acked update" (Some 2) (Wire.rid (List.nth sample_messages 2));
  Alcotest.(check (option int)) "group fix has no round" None
    (Wire.rid (Wire.Group_fix { block = 0; version = 1; group = set [] }));
  Alcotest.(check (option int)) "fire-and-forget update" None
    (Wire.rid
       (Wire.Block_update { rid = None; block = 0; version = 1; data = Block.zero; carried_w = set [] }))

let test_batch_categories_match_single_block () =
  (* Group-commit accounting: every batch message is charged to the same
     Section 5 category as its single-block counterpart, so one batched
     transmission replaces k single ones without touching the traffic
     tables. *)
  let pairs =
    [
      (Wire.Batch_vote_request { rid = 1; blocks = [ 0 ]; purpose = Net.Message.Write },
       Net.Message.Vote_request);
      (Wire.Batch_vote_reply { rid = 1; votes = [ (0, 1) ]; weight = 1; group_size = 3 },
       Net.Message.Vote_reply);
      (Wire.Batch_update { rid = None; writes = [ (0, 1, Block.zero) ]; carried_w = set [] },
       Net.Message.Block_update);
      (Wire.Batch_ack { rid = 1; blocks = [ 0 ] }, Net.Message.Write_ack);
    ]
  in
  List.iter
    (fun (m, expected) ->
      Alcotest.(check string) (Wire.describe m)
        (Net.Message.to_string expected)
        (Net.Message.to_string (Wire.category m)))
    pairs

let test_batch_update_size_grows_per_block () =
  (* One transmission, but the bytes still travel: a k-write batch update
     is k block payloads big, which is what keeps the size-based
     comparison of Section 5 honest under group commit. *)
  let mk k =
    Wire.Batch_update
      { rid = None; writes = List.init k (fun i -> (i, 1, Block.zero)); carried_w = set [] }
  in
  let one = Wire.size (mk 1) in
  let four = Wire.size (mk 4) in
  Alcotest.(check bool) "k payloads" true (four - one >= 3 * Block.size)

let test_categories_cover_accounting () =
  (* Every message lands in some accounting category (total function), and
     data-plane vs recovery-plane messages are separated. *)
  List.iter
    (fun m -> ignore (Net.Message.to_string (Wire.category m) : string))
    sample_messages;
  Alcotest.(check bool) "probe is recovery-plane" true
    (Wire.category (List.nth sample_messages 6) = Net.Message.Recovery_probe)

(* ------------------------------------------------------------------ *)
(* Config validation                                                   *)
(* ------------------------------------------------------------------ *)

let rejects ?n_blocks ?latency ?op_timeout ?quorum ?witnesses ?(scheme = Types.Voting) ~n_sites () =
  match Config.make ~scheme ~n_sites ?n_blocks ?latency ?op_timeout ?quorum ?witnesses () with
  | Error _ -> true
  | Ok _ -> false

let test_config_validation_matrix () =
  Alcotest.(check bool) "zero sites" true (rejects ~n_sites:0 ());
  Alcotest.(check bool) "zero blocks" true (rejects ~n_sites:3 ~n_blocks:0 ());
  Alcotest.(check bool) "bad latency" true (rejects ~n_sites:3 ~latency:(Util.Dist.Exponential 0.0) ());
  Alcotest.(check bool) "bad timeout" true (rejects ~n_sites:3 ~op_timeout:0.0 ());
  Alcotest.(check bool) "quorum size mismatch" true
    (rejects ~n_sites:3 ~quorum:(Blockrep.Quorum.majority ~n:4) ());
  Alcotest.(check bool) "valid accepted" false (rejects ~n_sites:3 ());
  Alcotest.(check bool) "dynamic with witnesses rejected" true
    (rejects ~n_sites:3 ~scheme:Types.Dynamic_voting ~witnesses:[ 2 ] ())

let test_config_defaults () =
  let c = Config.make_exn ~scheme:Types.Voting ~n_sites:3 () in
  Alcotest.(check int) "default blocks" 64 c.Config.n_blocks;
  Alcotest.(check bool) "timeout exceeds two latencies" true
    (c.Config.op_timeout > 2.0 *. Util.Dist.mean c.Config.latency);
  Alcotest.(check bool) "no witnesses" true (Types.Int_set.is_empty c.Config.witnesses)

let test_config_pp () =
  let c = Config.make_exn ~scheme:Types.Available_copy ~n_sites:4 ~seed:9 () in
  let rendered = Format.asprintf "%a" Config.pp c in
  Alcotest.(check bool) "mentions the scheme" true
    (let n = "available-copy" in
     let rec go i =
       i + String.length n <= String.length rendered
       && (String.sub rendered i (String.length n) = n || go (i + 1))
     in
     go 0)

let () =
  Alcotest.run "wire-config"
    [
      ( "wire",
        [
          Alcotest.test_case "sizes positive" `Quick test_sizes_positive;
          Alcotest.test_case "block payloads dominate" `Quick test_block_carriers_dominate;
          Alcotest.test_case "vv-reply growth" `Quick test_vv_reply_size_grows_with_updates;
          Alcotest.test_case "describe" `Quick test_describe_nonempty_and_distinct;
          Alcotest.test_case "rid extraction" `Quick test_rid_extraction;
          Alcotest.test_case "categories total" `Quick test_categories_cover_accounting;
          Alcotest.test_case "batch categories match single-block" `Quick
            test_batch_categories_match_single_block;
          Alcotest.test_case "batch update size grows per block" `Quick
            test_batch_update_size_grows_per_block;
        ] );
      ( "config",
        [
          Alcotest.test_case "validation matrix" `Quick test_config_validation_matrix;
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "pp" `Quick test_config_pp;
        ] );
    ]
