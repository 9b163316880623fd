(* Tests for Blockdev: Block, Version_vector, Durable_store's replica
   transfers, Mem_device. *)

module Block = Blockdev.Block
module Vv = Blockdev.Version_vector
module Durable = Blockdev.Durable_store

(* ------------------------------------------------------------------ *)
(* Block                                                               *)
(* ------------------------------------------------------------------ *)

let test_block_size () = Alcotest.(check int) "512-byte blocks" 512 Block.size

let test_block_zero () =
  Alcotest.(check bool) "zero block all zeroes" true
    (String.for_all (fun c -> c = '\000') (Block.to_string Block.zero))

let test_block_roundtrip () =
  let b = Block.of_string "hello" in
  let s = Block.to_string b in
  Alcotest.(check int) "padded to size" Block.size (String.length s);
  Alcotest.(check string) "prefix preserved" "hello" (String.sub s 0 5)

let test_block_truncates () =
  let long = String.make 1000 'a' in
  let b = Block.of_string long in
  Alcotest.(check int) "truncated" Block.size (String.length (Block.to_string b))

let test_block_get_set () =
  let b = Block.of_string "abc" in
  Alcotest.(check char) "get" 'b' (Block.get b 1);
  let b' = Block.set b 1 'X' in
  Alcotest.(check char) "set produces new block" 'X' (Block.get b' 1);
  Alcotest.(check char) "original unchanged" 'b' (Block.get b 1)

let test_block_bounds () =
  Alcotest.check_raises "get out of range" (Invalid_argument "Block.get: offset out of range")
    (fun () -> ignore (Block.get Block.zero Block.size))

let test_block_equal () =
  Alcotest.(check bool) "equal" true (Block.equal (Block.of_string "x") (Block.of_string "x"));
  Alcotest.(check bool) "not equal" false (Block.equal (Block.of_string "x") (Block.of_string "y"))

let test_block_blit () =
  let b = Block.of_string "blit me" in
  let dst = Bytes.make (Block.size + 10) '?' in
  Block.blit_into b dst 10;
  Alcotest.(check string) "blit content" "blit me" (Bytes.sub_string dst 10 7);
  Alcotest.(check char) "prefix untouched" '?' (Bytes.get dst 0)

(* ------------------------------------------------------------------ *)
(* Version_vector                                                      *)
(* ------------------------------------------------------------------ *)

let test_vv_create () =
  let v = Vv.create 4 in
  Alcotest.(check int) "length" 4 (Vv.length v);
  for k = 0 to 3 do
    Alcotest.(check int) "zeroed" 0 (Vv.get v k)
  done

let test_vv_bump () =
  let v = Vv.create 3 in
  Alcotest.(check int) "bump returns new" 1 (Vv.bump v 1);
  Alcotest.(check int) "bump again" 2 (Vv.bump v 1);
  Alcotest.(check int) "others untouched" 0 (Vv.get v 0)

let test_vv_stale_blocks () =
  let mine = Vv.create 4 and theirs = Vv.create 4 in
  Vv.set theirs 1 3;
  Vv.set theirs 3 1;
  Vv.set mine 3 1;
  Vv.set mine 0 5 (* mine is newer on 0: not stale *);
  Alcotest.(check (list int)) "stale set" [ 1 ] (Vv.stale_blocks ~mine ~theirs)

let test_vv_dominates () =
  let a = Vv.create 3 and b = Vv.create 3 in
  Vv.set a 0 2;
  Vv.set b 0 1;
  Alcotest.(check bool) "a dominates b" true (Vv.dominates a b);
  Alcotest.(check bool) "b does not dominate a" false (Vv.dominates b a);
  Vv.set b 1 9;
  Alcotest.(check bool) "incomparable" false (Vv.dominates a b || Vv.dominates b a)

let test_vv_max_merge () =
  let a = Vv.create 3 and b = Vv.create 3 in
  Vv.set a 0 2;
  Vv.set b 1 5;
  let m = Vv.max_merge a b in
  Alcotest.(check int) "component 0" 2 (Vv.get m 0);
  Alcotest.(check int) "component 1" 5 (Vv.get m 1);
  Alcotest.(check bool) "merge dominates both" true (Vv.dominates m a && Vv.dominates m b)

let test_vv_length_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Version_vector.dominates: length mismatch")
    (fun () -> ignore (Vv.dominates (Vv.create 2) (Vv.create 3)))

let test_vv_negative_rejected () =
  let v = Vv.create 2 in
  Alcotest.check_raises "negative version" (Invalid_argument "Version_vector.set: negative version")
    (fun () -> Vv.set v 0 (-1))

(* ------------------------------------------------------------------ *)
(* Durable_store as a replica store                                    *)
(* ------------------------------------------------------------------ *)

let read d k =
  match Durable.read_verified d k with
  | Some (b, _) -> b
  | None -> Alcotest.failf "block %d is quarantined" k

(* Same capacity, versions and verified contents everywhere. *)
let same_replica a b =
  Durable.capacity a = Durable.capacity b
  && List.for_all
       (fun k ->
         let va, da = Durable.serve a k and vb, db = Durable.serve b k in
         va = vb && Block.equal da db)
       (List.init (Durable.capacity a) Fun.id)

let test_store_initial () =
  let s = Durable.create ~capacity:8 in
  Alcotest.(check int) "capacity" 8 (Durable.capacity s);
  Alcotest.(check bool) "initial zero blocks" true (Block.equal Block.zero (read s 3));
  Alcotest.(check int) "initial versions" 0 (Durable.version s 3)

let test_store_write_read () =
  let s = Durable.create ~capacity:4 in
  Durable.write s 2 (Block.of_string "data") ~version:1;
  Alcotest.(check bool) "read back" true (Block.equal (Block.of_string "data") (read s 2));
  Alcotest.(check int) "version" 1 (Durable.version s 2)

let test_store_version_regression () =
  let s = Durable.create ~capacity:4 in
  Durable.write s 0 (Block.of_string "v2") ~version:2;
  Alcotest.check_raises "regression"
    (Invalid_argument "Durable_store.write: version regression on block 0 (1 < 2)") (fun () ->
      Durable.write s 0 (Block.of_string "v1") ~version:1)

let test_store_idempotent_same_version () =
  let s = Durable.create ~capacity:4 in
  Durable.write s 0 (Block.of_string "a") ~version:1;
  Durable.write s 0 (Block.of_string "a") ~version:1;
  Alcotest.(check int) "same version ok" 1 (Durable.version s 0)

let test_store_versions_snapshot () =
  let s = Durable.create ~capacity:3 in
  Durable.write s 1 (Block.of_string "x") ~version:4;
  let v = Durable.versions s in
  Alcotest.(check int) "snapshot" 4 (Vv.get v 1);
  (* mutation of the snapshot does not touch the store *)
  Vv.set v 1 9;
  Alcotest.(check int) "store unaffected" 4 (Durable.version s 1)

let test_store_newer_than_and_apply () =
  let a = Durable.create ~capacity:4 and b = Durable.create ~capacity:4 in
  Durable.write a 0 (Block.of_string "zero") ~version:2;
  Durable.write a 3 (Block.of_string "three") ~version:1;
  Durable.write b 3 (Block.of_string "stale") ~version:1 (* same version: not newer *);
  let updates = Durable.verified_blocks_newer_than a (Durable.versions b) in
  Alcotest.(check int) "one newer block" 1 (List.length updates);
  Durable.apply_updates b updates;
  Alcotest.(check bool) "b now has a's block 0" true
    (Block.equal (read b 0) (Block.of_string "zero"));
  Alcotest.(check bool) "stores not equal (block 3 differs)" false (same_replica a b)

let test_store_apply_ignores_stale () =
  let s = Durable.create ~capacity:2 in
  Durable.write s 0 (Block.of_string "new") ~version:5;
  Durable.apply_updates s [ (0, 3, Block.of_string "old") ];
  Alcotest.(check int) "kept newer" 5 (Durable.version s 0);
  Alcotest.(check bool) "content kept" true (Block.equal (read s 0) (Block.of_string "new"))

let test_store_transfer_roundtrip_idempotent () =
  let a = Durable.create ~capacity:6 and b = Durable.create ~capacity:6 in
  Durable.write a 0 (Block.of_string "zero") ~version:3;
  Durable.write a 2 (Block.of_string "two") ~version:1;
  Durable.write a 5 (Block.of_string "five") ~version:2;
  Durable.write b 2 (Block.of_string "old-two") ~version:1 (* equal version: stays *);
  Durable.write b 4 (Block.of_string "mine") ~version:7 (* b-only: untouched *);
  let updates = Durable.verified_blocks_newer_than a (Durable.versions b) in
  Durable.apply_updates b updates;
  Alcotest.(check int) "b caught up on 0" 3 (Durable.version b 0);
  Alcotest.(check int) "b caught up on 5" 2 (Durable.version b 5);
  Alcotest.(check bool) "equal-version block untouched" true
    (Block.equal (read b 2) (Block.of_string "old-two"));
  Alcotest.(check int) "b-only block untouched" 7 (Durable.version b 4);
  (* Round trip is now dry in both directions... *)
  Alcotest.(check int) "a->b dry" 0
    (List.length (Durable.verified_blocks_newer_than a (Durable.versions b)));
  (* ...and replaying the same transfer set is a no-op (idempotent). *)
  let snapshot = Array.init 6 (Durable.version b) in
  Durable.apply_updates b updates;
  Alcotest.(check bool) "replay is a no-op" true
    (Array.for_all Fun.id (Array.init 6 (fun k -> Durable.version b k = snapshot.(k))))

let test_store_blank_disk_full_transfer () =
  (* The fresh-replica case: a blank disk's version vector is all zeros,
     so the transfer set is exactly every block ever written and a single
     application converges the replica. *)
  let a = Durable.create ~capacity:8 and blank = Durable.create ~capacity:8 in
  List.iter
    (fun (k, v) -> Durable.write a k (Block.of_string (Printf.sprintf "blk%d" k)) ~version:v)
    [ (0, 2); (1, 1); (3, 4); (7, 1) ];
  let updates = Durable.verified_blocks_newer_than a (Durable.versions blank) in
  Alcotest.(check (list int)) "every written block ships" [ 0; 1; 3; 7 ]
    (List.sort compare (List.map (fun (k, _, _) -> k) updates));
  Durable.apply_updates blank updates;
  Alcotest.(check bool) "replica converged" true (same_replica a blank)

(* ------------------------------------------------------------------ *)
(* Mem_device                                                          *)
(* ------------------------------------------------------------------ *)

let test_mem_device_rw () =
  let d = Blockdev.Mem_device.create ~capacity:4 in
  Alcotest.(check bool) "write ok" true (Blockdev.Mem_device.write_block d 1 (Block.of_string "m"));
  match Blockdev.Mem_device.read_block d 1 with
  | Some b -> Alcotest.(check bool) "read back" true (Block.equal b (Block.of_string "m"))
  | None -> Alcotest.fail "read failed"

let test_mem_device_bounds () =
  let d = Blockdev.Mem_device.create ~capacity:4 in
  Alcotest.(check (option reject)) "read out of range" None (Blockdev.Mem_device.read_block d 4);
  Alcotest.(check bool) "write out of range" false
    (Blockdev.Mem_device.write_block d (-1) Block.zero)

let test_mem_device_fail_revive () =
  let d = Blockdev.Mem_device.create ~capacity:4 in
  ignore (Blockdev.Mem_device.write_block d 0 (Block.of_string "kept"));
  Blockdev.Mem_device.fail d;
  Alcotest.(check bool) "failed device refuses reads" true (Blockdev.Mem_device.read_block d 0 = None);
  Alcotest.(check bool) "failed device refuses writes" false
    (Blockdev.Mem_device.write_block d 0 Block.zero);
  Blockdev.Mem_device.revive d;
  match Blockdev.Mem_device.read_block d 0 with
  | Some b -> Alcotest.(check bool) "data survives" true (Block.equal b (Block.of_string "kept"))
  | None -> Alcotest.fail "revive failed"

let test_mem_device_bitrot_is_fatal () =
  let d = Blockdev.Mem_device.create ~capacity:4 in
  ignore (Blockdev.Mem_device.write_block d 2 (Block.of_string "precious"));
  Blockdev.Mem_device.inject_bitrot d 2;
  Alcotest.(check bool) "checksum broken" false (Blockdev.Mem_device.checksum_ok d 2);
  (* One disk, one copy: a rotten sector is a failed read, not a repair. *)
  Alcotest.(check bool) "rotten sector unreadable" true (Blockdev.Mem_device.read_block d 2 = None);
  Alcotest.(check bool) "other blocks unaffected" true (Blockdev.Mem_device.read_block d 0 <> None);
  Alcotest.(check int) "no peer, no repair" 0
    (Blockdev.Mem_device.storage_counters d).Blockdev.Durable_store.repaired_blocks;
  (* A fresh write supersedes the rot. *)
  ignore (Blockdev.Mem_device.write_block d 2 (Block.of_string "rewritten"));
  Alcotest.(check bool) "rewrite heals" true (Blockdev.Mem_device.read_block d 2 <> None)

let test_mem_device_torn_write_scrubbed () =
  let d = Blockdev.Mem_device.create ~capacity:4 in
  ignore (Blockdev.Mem_device.write_block d 1 (Block.of_string "acked"));
  Blockdev.Mem_device.arm_torn_write d;
  Blockdev.Mem_device.fail d (* the crash fires the armed tear *);
  Blockdev.Mem_device.revive d (* power-on scrub replays the journal *);
  (match Blockdev.Mem_device.read_block d 1 with
  | Some b ->
      Alcotest.(check bool) "acknowledged write survives the tear" true
        (Block.equal b (Block.of_string "acked"))
  | None -> Alcotest.fail "torn write not replayed");
  Alcotest.(check int) "tear counted" 1
    (Blockdev.Mem_device.storage_counters d).Blockdev.Durable_store.torn_writes

let test_mem_device_replace_disk () =
  let d = Blockdev.Mem_device.create ~capacity:4 in
  ignore (Blockdev.Mem_device.write_block d 0 (Block.of_string "gone"));
  Blockdev.Mem_device.replace_disk d;
  match Blockdev.Mem_device.read_block d 0 with
  | Some b -> Alcotest.(check bool) "blank medium reads zeroes" true (Block.equal b Block.zero)
  | None -> Alcotest.fail "replaced disk should serve blank blocks"

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_block_roundtrip =
  QCheck.Test.make ~name:"block of_string/to_string round trip (short strings)" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 512))
    (fun s ->
      let b = Block.of_string s in
      String.sub (Block.to_string b) 0 (String.length s) = s)

let prop_stale_blocks_sound =
  QCheck.Test.make ~name:"stale_blocks lists exactly the strictly-newer components" ~count:300
    QCheck.(pair (list_of_size (Gen.return 6) (int_range 0 5)) (list_of_size (Gen.return 6) (int_range 0 5)))
    (fun (xs, ys) ->
      let mine = Vv.create 6 and theirs = Vv.create 6 in
      List.iteri (Vv.set mine) xs;
      List.iteri (Vv.set theirs) ys;
      let stale = Vv.stale_blocks ~mine ~theirs in
      List.for_all (fun k -> Vv.get theirs k > Vv.get mine k) stale
      && List.length stale
         = List.length (List.filteri (fun i x -> List.nth ys i > x) xs))

let prop_transfer_roundtrip_idempotent =
  QCheck.Test.make ~name:"blocks_newer_than/apply_updates round trip converges and is idempotent"
    ~count:200
    QCheck.(
      pair (list_of_size (Gen.return 4) (int_range 0 6)) (list_of_size (Gen.return 4) (int_range 0 6)))
    (fun (xs, ys) ->
      let a = Durable.create ~capacity:4 and b = Durable.create ~capacity:4 in
      let plant s tag =
        List.iteri (fun k v ->
            if v > 0 then
              Durable.write s k (Block.of_string (Printf.sprintf "%s%d.%d" tag k v)) ~version:v)
      in
      plant a "a" xs;
      plant b "b" ys;
      let updates = Durable.verified_blocks_newer_than a (Durable.versions b) in
      Durable.apply_updates b updates;
      Durable.verified_blocks_newer_than a (Durable.versions b) = []
      &&
      let snap = Array.init 4 (Durable.version b) in
      Durable.apply_updates b updates;
      Array.for_all Fun.id (Array.init 4 (fun k -> Durable.version b k = snap.(k))))

let prop_apply_updates_monotone =
  QCheck.Test.make ~name:"apply_updates never lowers a version" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 20) (triple (int_range 0 3) (int_range 0 9) printable_string))
    (fun updates ->
      let s = Durable.create ~capacity:4 in
      Durable.write s 0 Blockdev.Block.zero ~version:4;
      let before = Array.init 4 (Durable.version s) in
      Durable.apply_updates s (List.map (fun (k, v, d) -> (k, v, Block.of_string d)) updates);
      Array.for_all Fun.id (Array.init 4 (fun k -> Durable.version s k >= before.(k))))

let () =
  Alcotest.run "blockdev"
    [
      ( "block",
        [
          Alcotest.test_case "size" `Quick test_block_size;
          Alcotest.test_case "zero" `Quick test_block_zero;
          Alcotest.test_case "roundtrip" `Quick test_block_roundtrip;
          Alcotest.test_case "truncates" `Quick test_block_truncates;
          Alcotest.test_case "get/set" `Quick test_block_get_set;
          Alcotest.test_case "bounds" `Quick test_block_bounds;
          Alcotest.test_case "equality" `Quick test_block_equal;
          Alcotest.test_case "blit" `Quick test_block_blit;
          QCheck_alcotest.to_alcotest prop_block_roundtrip;
        ] );
      ( "version-vector",
        [
          Alcotest.test_case "create" `Quick test_vv_create;
          Alcotest.test_case "bump" `Quick test_vv_bump;
          Alcotest.test_case "stale blocks" `Quick test_vv_stale_blocks;
          Alcotest.test_case "dominance" `Quick test_vv_dominates;
          Alcotest.test_case "max merge" `Quick test_vv_max_merge;
          Alcotest.test_case "length mismatch" `Quick test_vv_length_mismatch;
          Alcotest.test_case "negative rejected" `Quick test_vv_negative_rejected;
          QCheck_alcotest.to_alcotest prop_stale_blocks_sound;
        ] );
      ( "store",
        [
          Alcotest.test_case "initial state" `Quick test_store_initial;
          Alcotest.test_case "write/read" `Quick test_store_write_read;
          Alcotest.test_case "version regression" `Quick test_store_version_regression;
          Alcotest.test_case "idempotent same version" `Quick test_store_idempotent_same_version;
          Alcotest.test_case "versions snapshot" `Quick test_store_versions_snapshot;
          Alcotest.test_case "newer-than and apply" `Quick test_store_newer_than_and_apply;
          Alcotest.test_case "apply ignores stale" `Quick test_store_apply_ignores_stale;
          Alcotest.test_case "transfer round trip idempotent" `Quick
            test_store_transfer_roundtrip_idempotent;
          Alcotest.test_case "blank-disk full transfer" `Quick test_store_blank_disk_full_transfer;
          QCheck_alcotest.to_alcotest prop_transfer_roundtrip_idempotent;
          QCheck_alcotest.to_alcotest prop_apply_updates_monotone;
        ] );
      ( "mem-device",
        [
          Alcotest.test_case "read/write" `Quick test_mem_device_rw;
          Alcotest.test_case "bounds" `Quick test_mem_device_bounds;
          Alcotest.test_case "fail/revive" `Quick test_mem_device_fail_revive;
          Alcotest.test_case "bitrot is fatal" `Quick test_mem_device_bitrot_is_fatal;
          Alcotest.test_case "torn write scrubbed" `Quick test_mem_device_torn_write_scrubbed;
          Alcotest.test_case "disk replacement" `Quick test_mem_device_replace_disk;
        ] );
    ]
