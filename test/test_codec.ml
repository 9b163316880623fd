(* The binary wire codec: round-trip per constructor, measured size =
   encoded length, and the corruption envelope — truncation, CRC damage,
   trailing garbage, bad tags, malformed payloads all come back as typed
   errors, never exceptions.  A seeded single-byte-corruption property
   checks the claim the media chaos relies on: any one-byte change to a
   frame is detected (CRC-32 catches all bursts up to 32 bits). *)

open Blockrep
module Block = Blockdev.Block
module Vv = Blockdev.Version_vector

let set = Types.int_set_of_list

let vv l =
  let v = Vv.create (List.length l) in
  List.iteri (fun i x -> Vv.set v i x) l;
  v

(* One sample per constructor, with non-trivial field values. *)
let info =
  {
    Wire.origin = 2;
    state = Types.Available;
    versions = vv [ 3; 0; 7; 1 ];
    was_available = set [ 0; 2; 3 ];
  }

let blk s = Block.of_string s

let sample_messages =
  [
    Wire.Vote_request { rid = 1; block = 5; purpose = Net.Message.Write };
    Wire.Vote_reply { rid = 1; block = 5; version = 9; weight = 2; group_size = 4 };
    Wire.Block_update
      { rid = Some 2; block = 0; version = 3; data = blk "payload"; carried_w = set [ 0; 1 ] };
    Wire.Block_update { rid = None; block = 1; version = 1; data = Block.zero; carried_w = set [] };
    Wire.Write_ack { rid = 2; block = 0 };
    Wire.Block_request { rid = 3; block = 7 };
    Wire.Block_transfer { rid = 3; block = 7; version = 4; data = blk "xfer" };
    Wire.Recovery_probe { rid = 4; info };
    Wire.Recovery_reply { rid = 4; info };
    Wire.Vv_send { rid = 5; versions = vv [ 1; 2; 0; 0 ]; w_of_sender = set [ 1 ] };
    Wire.Vv_reply
      {
        rid = 5;
        versions = vv [ 2; 2; 1; 0 ];
        updates = [ (0, 2, blk "a"); (2, 1, blk "b") ];
        w_of_source = set [ 0; 1; 2 ];
      };
    Wire.Group_fix { block = 3; version = 6; group = set [ 0; 2 ] };
    Wire.Batch_vote_request { rid = 6; blocks = [ 0; 3; 5 ]; purpose = Net.Message.Read };
    Wire.Batch_vote_reply { rid = 6; votes = [ (0, 1); (3, 2) ]; weight = 1; group_size = 5 };
    Wire.Batch_update
      { rid = Some 7; writes = [ (0, 2, blk "w0"); (4, 5, blk "w4") ]; carried_w = set [ 1 ] };
    Wire.Batch_ack { rid = 7; blocks = [ 0; 4 ] };
  ]

(* Structural equality with the right notion per field (Int_set trees can
   differ in shape for equal sets, so polymorphic compare is unsafe). *)
let info_equal (a : Wire.site_info) (b : Wire.site_info) =
  a.origin = b.origin && a.state = b.state
  && Vv.equal a.versions b.versions
  && Types.Int_set.equal a.was_available b.was_available

let triple_eq (b1, v1, d1) (b2, v2, d2) = b1 = b2 && v1 = v2 && Block.equal d1 d2
let pair_eq (b1, v1) (b2, v2) = b1 = b2 && v1 = v2

let wire_equal (a : Wire.t) (b : Wire.t) =
  match (a, b) with
  | Wire.Vote_request x, Wire.Vote_request y ->
      x.rid = y.rid && x.block = y.block && x.purpose = y.purpose
  | Wire.Vote_reply x, Wire.Vote_reply y ->
      x.rid = y.rid && x.block = y.block && x.version = y.version && x.weight = y.weight
      && x.group_size = y.group_size
  | Wire.Block_update x, Wire.Block_update y ->
      x.rid = y.rid && x.block = y.block && x.version = y.version && Block.equal x.data y.data
      && Types.Int_set.equal x.carried_w y.carried_w
  | Wire.Write_ack x, Wire.Write_ack y -> x.rid = y.rid && x.block = y.block
  | Wire.Block_request x, Wire.Block_request y -> x.rid = y.rid && x.block = y.block
  | Wire.Block_transfer x, Wire.Block_transfer y ->
      x.rid = y.rid && x.block = y.block && x.version = y.version && Block.equal x.data y.data
  | Wire.Recovery_probe x, Wire.Recovery_probe y -> x.rid = y.rid && info_equal x.info y.info
  | Wire.Recovery_reply x, Wire.Recovery_reply y -> x.rid = y.rid && info_equal x.info y.info
  | Wire.Vv_send x, Wire.Vv_send y ->
      x.rid = y.rid && Vv.equal x.versions y.versions
      && Types.Int_set.equal x.w_of_sender y.w_of_sender
  | Wire.Vv_reply x, Wire.Vv_reply y ->
      x.rid = y.rid && Vv.equal x.versions y.versions
      && List.equal triple_eq x.updates y.updates
      && Types.Int_set.equal x.w_of_source y.w_of_source
  | Wire.Group_fix x, Wire.Group_fix y ->
      x.block = y.block && x.version = y.version && Types.Int_set.equal x.group y.group
  | Wire.Batch_vote_request x, Wire.Batch_vote_request y ->
      x.rid = y.rid && x.blocks = y.blocks && x.purpose = y.purpose
  | Wire.Batch_vote_reply x, Wire.Batch_vote_reply y ->
      x.rid = y.rid && List.equal pair_eq x.votes y.votes && x.weight = y.weight
      && x.group_size = y.group_size
  | Wire.Batch_update x, Wire.Batch_update y ->
      x.rid = y.rid && List.equal triple_eq x.writes y.writes
      && Types.Int_set.equal x.carried_w y.carried_w
  | Wire.Batch_ack x, Wire.Batch_ack y -> x.rid = y.rid && x.blocks = y.blocks
  | _, _ -> false

let check_roundtrip m =
  match Wire.decode (Wire.encode m) with
  | Ok m' ->
      if not (wire_equal m m') then
        Alcotest.failf "roundtrip changed %s into %s" (Wire.describe m) (Wire.describe m')
  | Error e ->
      Alcotest.failf "roundtrip of %s failed: %s" (Wire.describe m) (Wire.decode_error_to_string e)

let test_roundtrip_every_constructor () = List.iter check_roundtrip sample_messages

let test_size_is_encoded_length () =
  List.iter
    (fun m ->
      Alcotest.(check int) (Wire.describe m) (Bytes.length (Wire.encode m)) (Wire.size m))
    sample_messages

let test_tags_distinct_and_stable () =
  let codes = List.map (fun m -> Wire.Tag.to_int (Wire.tag_of m)) sample_messages in
  let distinct = List.sort_uniq compare codes in
  (* 16 samples over 15 constructors: two Block_updates share a tag. *)
  Alcotest.(check int) "15 distinct tags" 15 (List.length distinct);
  List.iter
    (fun c ->
      match Wire.Tag.of_int c with
      | Some t -> Alcotest.(check int) "of_int/to_int" c (Wire.Tag.to_int t)
      | None -> Alcotest.failf "tag code %d not decodable" c)
    codes;
  Alcotest.(check bool) "0 is not a tag" true (Wire.Tag.of_int 0 = None);
  Alcotest.(check bool) "16 is not a tag" true (Wire.Tag.of_int 16 = None)

(* The point of batching on the wire: one frame carrying 16 blocks must be
   strictly smaller than 16 single-block frames, the same messages the
   paper harness's codec table prints (8,239 B against 16 x 528 B). *)
let test_batch_frame_beats_singles () =
  let block c = Block.of_string (String.make 8 c) in
  let single =
    Bytes.length
      (Wire.encode
         (Wire.Block_update
            { rid = Some 1; block = 0; version = 1; data = block 's'; carried_w = set [ 0; 1 ] }))
  in
  let writes = List.init 16 (fun i -> (i, i + 1, block (Char.chr (Char.code 'a' + i)))) in
  let batch16 =
    Bytes.length (Wire.encode (Wire.Batch_update { rid = Some 1; writes; carried_w = set [ 0; 1 ] }))
  in
  if not (batch16 < 16 * single) then
    Alcotest.failf "batch-16 frame (%d B) is not smaller than 16 single frames (%d B)" batch16
      (16 * single)

(* --- corruption envelope: typed errors, never exceptions --- *)

let expect_error name buf pred =
  match Wire.decode buf with
  | Ok m -> Alcotest.failf "%s: decoded %s instead of failing" name (Wire.describe m)
  | Error e ->
      if not (pred e) then
        Alcotest.failf "%s: wrong error %s" name (Wire.decode_error_to_string e)

let is_truncated = function Wire.Frame_error (Codec.Frame.Truncated _) -> true | _ -> false
let is_crc = function Wire.Frame_error (Codec.Frame.Crc_mismatch _) -> true | _ -> false
let is_trailing = function Wire.Frame_error (Codec.Frame.Trailing _) -> true | _ -> false
let is_bad_magic = function Wire.Frame_error (Codec.Frame.Bad_magic _) -> true | _ -> false
let is_bad_tag = function Wire.Bad_tag _ -> true | _ -> false
let is_malformed = function Wire.Malformed _ -> true | _ -> false

let test_truncated_frame () =
  List.iter
    (fun m ->
      let enc = Wire.encode m in
      List.iter
        (fun n ->
          if n < Bytes.length enc then
            expect_error (Printf.sprintf "truncate to %d" n) (Bytes.sub enc 0 n) is_truncated)
        [ 0; 1; 5; 8; Bytes.length enc - 1 ])
    sample_messages

let test_corrupted_crc () =
  List.iter
    (fun m ->
      let enc = Wire.encode m in
      (* Flip a payload byte: the stored CRC no longer matches. *)
      let p = Bytes.copy enc in
      Bytes.set p 9 (Char.chr (Char.code (Bytes.get p 9) lxor 0xA5));
      expect_error "payload flip" p is_crc;
      (* Flip a stored-CRC byte: same verdict from the other side. *)
      let c = Bytes.copy enc in
      Bytes.set c 5 (Char.chr (Char.code (Bytes.get c 5) lxor 0x01));
      expect_error "crc flip" c is_crc)
    sample_messages

let test_trailing_garbage () =
  List.iter
    (fun m ->
      let enc = Wire.encode m in
      let g = Bytes.cat enc (Bytes.of_string "\042") in
      expect_error "one trailing byte" g is_trailing;
      let g4 = Bytes.cat enc (Bytes.of_string "ABCD") in
      expect_error "four trailing bytes" g4 is_trailing)
    sample_messages

let test_bad_magic () =
  let enc = Wire.encode (List.hd sample_messages) in
  let b = Bytes.copy enc in
  Bytes.set b 0 '\000';
  expect_error "zeroed magic" b is_bad_magic

let test_bad_tag () =
  let frame = Codec.Frame.encode ~payload:(fun w -> Codec.Buf.varint w 99) in
  expect_error "tag 99" frame is_bad_tag;
  let zero = Codec.Frame.encode ~payload:(fun w -> Codec.Buf.varint w 0) in
  expect_error "tag 0" zero is_bad_tag

let test_malformed_payload () =
  (* A valid tag with missing fields... *)
  let short = Codec.Frame.encode ~payload:(fun w -> Codec.Buf.varint w 1) in
  expect_error "fields missing" short is_malformed;
  (* ... and a complete message followed by payload junk inside the frame. *)
  let padded =
    Codec.Frame.encode ~payload:(fun w ->
        Codec.Buf.varint w 4 (* Write_ack *);
        Codec.Buf.varint w 3;
        Codec.Buf.varint w 0;
        Codec.Buf.u8 w 0xEE)
  in
  expect_error "payload junk" padded is_malformed;
  (* A declared list length far beyond the payload must be rejected
     before any allocation. *)
  let hugelist =
    Codec.Frame.encode ~payload:(fun w ->
        Codec.Buf.varint w 15 (* Batch_ack *);
        Codec.Buf.varint w 1;
        Codec.Buf.varint w 1_000_000)
  in
  expect_error "huge list length" hugelist is_malformed

(* --- seeded generator over every constructor --- *)

let gen_message =
  let open QCheck.Gen in
  let g_rid = int_range 0 1000 in
  let g_block = int_range 0 500 in
  let g_version = int_range 0 100 in
  let g_data =
    map
      (fun s -> Block.of_string s)
      (string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 600))
  in
  let g_set = map set (list_size (int_range 0 6) (int_range 0 30)) in
  let g_vv = map vv (list_size (int_range 0 8) g_version) in
  let g_purpose =
    oneofl [ Net.Message.Read; Net.Message.Write; Net.Message.Recovery; Net.Message.Repair ]
  in
  let g_state = oneofl [ Types.Failed; Types.Comatose; Types.Available ] in
  let g_info =
    map
      (fun (((origin, state), versions), was_available) ->
        { Wire.origin; state; versions; was_available })
      (pair (pair (pair (int_range 0 10) g_state) g_vv) g_set)
  in
  let g_triples = list_size (int_range 0 5) (map (fun ((b, v), d) -> (b, v, d)) (pair (pair g_block g_version) g_data)) in
  let g_blocks = list_size (int_range 0 6) g_block in
  oneof
    [
      map (fun ((rid, block), purpose) -> Wire.Vote_request { rid; block; purpose })
        (pair (pair g_rid g_block) g_purpose);
      map
        (fun ((((rid, block), version), weight), group_size) ->
          Wire.Vote_reply { rid; block; version; weight; group_size })
        (pair (pair (pair (pair g_rid g_block) g_version) (int_range 0 9)) (int_range 0 9));
      map
        (fun ((((rid, block), version), data), carried_w) ->
          Wire.Block_update { rid; block; version; data; carried_w })
        (pair (pair (pair (pair (opt g_rid) g_block) g_version) g_data) g_set);
      map (fun (rid, block) -> Wire.Write_ack { rid; block }) (pair g_rid g_block);
      map (fun (rid, block) -> Wire.Block_request { rid; block }) (pair g_rid g_block);
      map
        (fun (((rid, block), version), data) -> Wire.Block_transfer { rid; block; version; data })
        (pair (pair (pair g_rid g_block) g_version) g_data);
      map (fun (rid, info) -> Wire.Recovery_probe { rid; info }) (pair g_rid g_info);
      map (fun (rid, info) -> Wire.Recovery_reply { rid; info }) (pair g_rid g_info);
      map
        (fun ((rid, versions), w_of_sender) -> Wire.Vv_send { rid; versions; w_of_sender })
        (pair (pair g_rid g_vv) g_set);
      map
        (fun (((rid, versions), updates), w_of_source) ->
          Wire.Vv_reply { rid; versions; updates; w_of_source })
        (pair (pair (pair g_rid g_vv) g_triples) g_set);
      map
        (fun ((block, version), group) -> Wire.Group_fix { block; version; group })
        (pair (pair g_block g_version) g_set);
      map
        (fun ((rid, blocks), purpose) -> Wire.Batch_vote_request { rid; blocks; purpose })
        (pair (pair g_rid g_blocks) g_purpose);
      map
        (fun (((rid, votes), weight), group_size) ->
          Wire.Batch_vote_reply { rid; votes; weight; group_size })
        (pair
           (pair (pair g_rid (list_size (int_range 0 5) (pair g_block g_version))) (int_range 0 9))
           (int_range 0 9));
      map
        (fun ((rid, writes), carried_w) -> Wire.Batch_update { rid; writes; carried_w })
        (pair (pair (opt g_rid) g_triples) g_set);
      map (fun (rid, blocks) -> Wire.Batch_ack { rid; blocks }) (pair g_rid g_blocks);
    ]

let arb_message = QCheck.make ~print:Wire.describe gen_message

let prop_roundtrip =
  QCheck.Test.make ~name:"decode (encode m) = m for generated messages" ~count:500 arb_message
    (fun m ->
      match Wire.decode (Wire.encode m) with
      | Ok m' -> wire_equal m m'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" (Wire.decode_error_to_string e))

let prop_size_measured =
  QCheck.Test.make ~name:"size m = |encode m|" ~count:500 arb_message (fun m ->
      Wire.size m = Bytes.length (Wire.encode m))

let prop_single_byte_corruption_detected =
  QCheck.Test.make ~name:"any single-byte corruption yields a typed error" ~count:500
    QCheck.(triple arb_message (int_range 0 100_000) (int_range 1 255))
    (fun (m, posk, mask) ->
      let enc = Wire.encode m in
      let pos = posk mod Bytes.length enc in
      Bytes.set enc pos (Char.chr (Char.code (Bytes.get enc pos) lxor mask));
      match Wire.decode enc with
      | Ok m' -> QCheck.Test.fail_reportf "corrupt frame decoded as %s" (Wire.describe m')
      | Error _ -> true)

(* The hostile-bytes property behind the hardened ingress: whatever the
   injector does to a valid frame — single or multi-byte damage, the
   structural kinds (truncate, garbage prefix/suffix, splice), or any
   combination — decoding NEVER raises and NEVER returns a payload
   different from one that was actually encoded.  (A mutation may cancel
   out or a splice may reassemble a whole sent frame; decoding the
   original payload back is the benign "survived" case the ingress counts
   separately.) *)

let never_misdecodes ~originals buf =
  match Wire.decode_frame buf with
  | Ok m' ->
      List.exists (fun m -> wire_equal m m') originals
      || QCheck.Test.fail_reportf "damaged frame decoded as a different payload: %s"
           (Wire.describe m')
  | Error (_ : Net.Message.reject) -> true
  | exception e -> QCheck.Test.fail_reportf "decode raised %s" (Printexc.to_string e)

let prop_multi_byte_mutation_safe =
  QCheck.Test.make ~name:"any multi-byte mutation decodes safely" ~count:500
    QCheck.(
      pair arb_message (list_of_size (Gen.int_range 1 8) (pair (int_range 0 100_000) (int_range 0 255))))
    (fun (m, muts) ->
      let enc = Wire.encode m in
      List.iter
        (fun (posk, mask) ->
          let pos = posk mod Bytes.length enc in
          Bytes.set enc pos (Char.chr (Char.code (Bytes.get enc pos) lxor mask)))
        muts;
      never_misdecodes ~originals:[ m ] enc)

let prop_structural_damage_safe =
  QCheck.Test.make ~name:"truncation / garbage / splice decode safely" ~count:500
    QCheck.(
      pair (pair arb_message arb_message)
        (pair (pair (int_range 0 100_000) (int_range 0 100_000)) (int_range 0 3)))
    (fun ((m1, m2), ((cut1k, cut2k), kind)) ->
      let e1 = Wire.encode m1 and e2 = Wire.encode m2 in
      let originals = [ m1; m2 ] in
      let damaged =
        match kind with
        | 0 ->
            (* truncate: keep a strict, nonempty prefix when possible *)
            Bytes.sub e1 0 (1 + (cut1k mod max 1 (Bytes.length e1 - 1)))
        | 1 -> Bytes.cat (Bytes.sub e2 0 (cut2k mod (Bytes.length e2 + 1))) e1
        | 2 -> Bytes.cat e1 (Bytes.sub e2 0 (cut2k mod (Bytes.length e2 + 1)))
        | _ ->
            (* splice: head of the previous frame + tail of the current,
               the injector's frame-splice shape *)
            Bytes.cat
              (Bytes.sub e1 0 (1 + (cut1k mod Bytes.length e1)))
              (let cut = cut2k mod (Bytes.length e2 + 1) in
               Bytes.sub e2 cut (Bytes.length e2 - cut))
      in
      never_misdecodes ~originals damaged)

let prop_decode_sub_mutation_safe =
  QCheck.Test.make ~name:"decode_sub of a damaged window never raises" ~count:500
    QCheck.(pair arb_message (pair (int_range 0 100_000) (pair (int_range 0 100_000) (int_range 0 255))))
    (fun (m, (posk, (lenk, mask))) ->
      let enc = Wire.encode m in
      let n = Bytes.length enc in
      let pos = posk mod n in
      Bytes.set enc pos (Char.chr (Char.code (Bytes.get enc pos) lxor mask));
      let sub_pos = posk mod (n + 1) in
      let sub_len = lenk mod (n - sub_pos + 1) in
      match Codec.Frame.decode_sub enc ~pos:sub_pos ~len:sub_len with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "decode_sub raised %s" (Printexc.to_string e))

(* --- codec primitives --- *)

let test_varint_roundtrip () =
  List.iter
    (fun v ->
      let w = Codec.Buf.writer 16 in
      Codec.Buf.varint w v;
      let b = Codec.Buf.contents w in
      let r = Codec.Buf.reader b ~pos:0 ~len:(Bytes.length b) in
      Alcotest.(check int) (Printf.sprintf "varint %d" v) v (Codec.Buf.r_varint r);
      Alcotest.(check bool) "consumed" true (Codec.Buf.at_end r))
    [ 0; 1; 127; 128; 300; 16383; 16384; 1_000_000; max_int; -1; min_int ]

let test_crc_known_value () =
  (* CRC-32("123456789") = 0xCBF43926: the standard check value pins the
     polynomial and reflection conventions. *)
  Alcotest.(check int) "check value" 0xCBF43926 (Codec.Crc.digest_string "123456789")

let () =
  Alcotest.run "codec"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "every constructor" `Quick test_roundtrip_every_constructor;
          Alcotest.test_case "size = encoded length" `Quick test_size_is_encoded_length;
          Alcotest.test_case "tags distinct and stable" `Quick test_tags_distinct_and_stable;
          Alcotest.test_case "batch-16 frame below 16 singles" `Quick test_batch_frame_beats_singles;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_size_measured;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "truncated frame" `Quick test_truncated_frame;
          Alcotest.test_case "corrupted crc" `Quick test_corrupted_crc;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "bad tag" `Quick test_bad_tag;
          Alcotest.test_case "malformed payload" `Quick test_malformed_payload;
          QCheck_alcotest.to_alcotest prop_single_byte_corruption_detected;
          QCheck_alcotest.to_alcotest prop_multi_byte_mutation_safe;
          QCheck_alcotest.to_alcotest prop_structural_damage_safe;
          QCheck_alcotest.to_alcotest prop_decode_sub_mutation_safe;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
          Alcotest.test_case "crc-32 check value" `Quick test_crc_known_value;
        ] );
    ]
