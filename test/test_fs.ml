(* Tests for Fs.Hier_fs used as a flat file system (every file at the
   root), on both a plain memory device and the replicated reliable
   device — the same functor body must behave identically. *)

module Mfs = Fs.Hier_fs.Make (Blockdev.Mem_device)
module Rfs = Fs.Hier_fs.Make (Blockrep.Reliable_device)
module Block = Blockdev.Block

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected fs error: %s" (Fs.Fs_core.error_to_string e)

let err = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> e

(* 64 inodes: the geometry these cases were written for. *)
let fresh_fs ?(capacity = 128) () =
  let dev = Blockdev.Mem_device.create ~capacity in
  (dev, ok (Mfs.format ~n_inodes:64 dev))

let listing fs = List.map (fun e -> e.Fs.Hier_fs.name) (ok (Mfs.list fs "/"))

let test_format_and_mount () =
  let dev, _fs = fresh_fs () in
  let fs = ok (Mfs.mount dev) in
  Alcotest.(check (list string)) "fresh fs is empty" [] (listing fs)

let test_mount_unformatted () =
  let dev = Blockdev.Mem_device.create ~capacity:64 in
  match Mfs.mount dev with
  | Error Fs.Fs_core.Not_formatted -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Fs.Fs_core.error_to_string e)
  | Ok _ -> Alcotest.fail "mounted garbage"

let test_format_too_small () =
  let dev = Blockdev.Mem_device.create ~capacity:3 in
  match Mfs.format ~n_inodes:64 dev with
  | Error Fs.Fs_core.No_space -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Fs.Fs_core.error_to_string e)
  | Ok _ -> Alcotest.fail "formatted an impossibly small device"

let test_create_write_read () =
  let _, fs = fresh_fs () in
  ok (Mfs.create fs "file.txt");
  ok (Mfs.write fs "file.txt" (Bytes.of_string "contents"));
  Alcotest.(check string) "read back" "contents" (Bytes.to_string (ok (Mfs.read fs "file.txt")))

let test_empty_file () =
  let _, fs = fresh_fs () in
  ok (Mfs.create fs "empty");
  Alcotest.(check int) "zero bytes" 0 (Bytes.length (ok (Mfs.read fs "empty")));
  let st = ok (Mfs.stat fs "empty") in
  Alcotest.(check int) "no blocks" 0 st.Fs.Hier_fs.blocks_used

let test_create_duplicate () =
  let _, fs = fresh_fs () in
  ok (Mfs.create fs "dup");
  Alcotest.(check bool) "duplicate rejected" true (err (Mfs.create fs "dup") = Fs.Fs_core.Already_exists)

let test_missing_file () =
  let _, fs = fresh_fs () in
  Alcotest.(check bool) "read missing" true (err (Mfs.read fs "ghost") = Fs.Fs_core.Not_found);
  Alcotest.(check bool) "write missing" true
    (err (Mfs.write fs "ghost" (Bytes.of_string "x")) = Fs.Fs_core.Not_found);
  Alcotest.(check bool) "delete missing" true (err (Mfs.unlink fs "ghost") = Fs.Fs_core.Not_found)

let test_bad_names () =
  let _, fs = fresh_fs () in
  (* The empty path names the root, which cannot be created. *)
  Alcotest.(check bool) "empty name" true (err (Mfs.create fs "") = Fs.Fs_core.Invalid_path);
  Alcotest.(check bool) "28-byte name" true
    (err (Mfs.create fs (String.make 28 'n')) = Fs.Fs_core.Name_too_long);
  ok (Mfs.create fs (String.make 27 'n'))

let test_multi_block_file () =
  let _, fs = fresh_fs () in
  ok (Mfs.create fs "big");
  let data = Bytes.init 3000 (fun i -> Char.chr (i mod 251)) in
  ok (Mfs.write fs "big" data);
  let back = ok (Mfs.read fs "big") in
  Alcotest.(check int) "length" 3000 (Bytes.length back);
  Alcotest.(check bytes) "content" data back;
  let st = ok (Mfs.stat fs "big") in
  Alcotest.(check int) "blocks used" 6 st.Fs.Hier_fs.blocks_used

let test_indirect_blocks () =
  let _, fs = fresh_fs ~capacity:256 () in
  ok (Mfs.create fs "huge");
  (* Beyond the 11 direct pointers: 20 blocks worth. *)
  let data = Bytes.init (20 * 512) (fun i -> Char.chr ((i * 7) mod 256)) in
  ok (Mfs.write fs "huge" data);
  Alcotest.(check bytes) "indirect content" data (ok (Mfs.read fs "huge"));
  ok (Mfs.fsck fs)

let test_file_too_large () =
  let _, fs = fresh_fs ~capacity:256 () in
  ok (Mfs.create fs "toolarge");
  let max_bytes = (11 + 128) * 512 in
  Alcotest.(check bool) "beyond pointer reach" true
    (err (Mfs.write fs "toolarge" ~offset:max_bytes (Bytes.of_string "x")) = Fs.Fs_core.File_too_large)

let test_offset_write_and_sparse () =
  let _, fs = fresh_fs () in
  ok (Mfs.create fs "sparse");
  ok (Mfs.write fs "sparse" ~offset:2000 (Bytes.of_string "tail"));
  let back = ok (Mfs.read fs "sparse") in
  Alcotest.(check int) "size extends to offset+len" 2004 (Bytes.length back);
  Alcotest.(check char) "hole reads zero" '\000' (Bytes.get back 100);
  Alcotest.(check string) "tail present" "tail" (Bytes.sub_string back 2000 4);
  (* Holes consume no blocks. *)
  let st = ok (Mfs.stat fs "sparse") in
  Alcotest.(check int) "only the tail block allocated" 1 st.Fs.Hier_fs.blocks_used;
  ok (Mfs.fsck fs)

let test_overwrite_middle () =
  let _, fs = fresh_fs () in
  ok (Mfs.create fs "mid");
  ok (Mfs.write fs "mid" (Bytes.make 1024 'a'));
  ok (Mfs.write fs "mid" ~offset:500 (Bytes.of_string "BBBB"));
  let back = ok (Mfs.read fs "mid") in
  Alcotest.(check int) "size unchanged" 1024 (Bytes.length back);
  Alcotest.(check string) "patched" "BBBB" (Bytes.sub_string back 500 4);
  Alcotest.(check char) "before intact" 'a' (Bytes.get back 499);
  Alcotest.(check char) "after intact" 'a' (Bytes.get back 504)

let test_append () =
  let _, fs = fresh_fs () in
  ok (Mfs.create fs "log");
  ok (Mfs.append fs "log" (Bytes.of_string "one,"));
  ok (Mfs.append fs "log" (Bytes.of_string "two"));
  Alcotest.(check string) "appended" "one,two" (Bytes.to_string (ok (Mfs.read fs "log")))

let test_read_range () =
  let _, fs = fresh_fs () in
  ok (Mfs.create fs "ranged");
  ok (Mfs.write fs "ranged" (Bytes.of_string "0123456789"));
  Alcotest.(check string) "middle range" "345"
    (Bytes.to_string (ok (Mfs.read_range fs "ranged" ~offset:3 ~length:3)));
  Alcotest.(check bool) "past the end rejected" true
    (err (Mfs.read_range fs "ranged" ~offset:8 ~length:5) = Fs.Fs_core.Not_found)

let test_delete_frees_space () =
  let _, fs = fresh_fs () in
  (* The first dirent allocates the directory's data block, which rightly
     outlives the file; measure after creation so only file blocks count. *)
  ok (Mfs.create fs "temp");
  let free0 = ok (Mfs.free_blocks fs) in
  ok (Mfs.write fs "temp" (Bytes.make 2048 'x'));
  Alcotest.(check int) "space consumed" (free0 - 4) (ok (Mfs.free_blocks fs));
  ok (Mfs.unlink fs "temp");
  Alcotest.(check int) "file blocks reclaimed" free0 (ok (Mfs.free_blocks fs));
  Alcotest.(check bool) "gone" false (Mfs.exists fs "temp");
  ok (Mfs.fsck fs)

let test_truncate () =
  let _, fs = fresh_fs () in
  ok (Mfs.create fs "t");
  ok (Mfs.write fs "t" (Bytes.make 1500 'z'));
  ok (Mfs.truncate fs "t");
  Alcotest.(check int) "empty after truncate" 0 (Bytes.length (ok (Mfs.read fs "t")));
  ok (Mfs.write fs "t" (Bytes.of_string "fresh"));
  Alcotest.(check string) "reusable" "fresh" (Bytes.to_string (ok (Mfs.read fs "t")));
  ok (Mfs.fsck fs)

let test_many_files () =
  let _, fs = fresh_fs ~capacity:512 () in
  let names = List.init 40 (Printf.sprintf "file%02d") in
  List.iter
    (fun n ->
      ok (Mfs.create fs n);
      ok (Mfs.write fs n (Bytes.of_string n)))
    names;
  Alcotest.(check (list string)) "directory" names (List.sort compare (listing fs));
  List.iter (fun n -> Alcotest.(check string) n n (Bytes.to_string (ok (Mfs.read fs n)))) names;
  (* Delete the odd ones and check the survivors. *)
  List.iteri (fun i n -> if i mod 2 = 1 then ok (Mfs.unlink fs n)) names;
  List.iteri
    (fun i n ->
      if i mod 2 = 0 then Alcotest.(check bool) "kept" true (Mfs.exists fs n)
      else Alcotest.(check bool) "gone" false (Mfs.exists fs n))
    names;
  ok (Mfs.fsck fs)

let test_out_of_space () =
  let _, fs = fresh_fs ~capacity:16 () in
  ok (Mfs.create fs "filler");
  match Mfs.write fs "filler" (Bytes.make (64 * 512) 'f') with
  | Error (Fs.Fs_core.No_space | Fs.Fs_core.File_too_large) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Fs.Fs_core.error_to_string e)
  | Ok () -> Alcotest.fail "wrote beyond capacity"

let test_out_of_inodes () =
  let dev = Blockdev.Mem_device.create ~capacity:512 in
  let fs = ok (Mfs.format ~n_inodes:4 dev) in
  (* Inode 0 is the root directory, so 3 files fit. *)
  ok (Mfs.create fs "a");
  ok (Mfs.create fs "b");
  ok (Mfs.create fs "c");
  Alcotest.(check bool) "inode table exhausted" true (err (Mfs.create fs "d") = Fs.Fs_core.No_space)

let test_remount_preserves_data () =
  let dev, fs = fresh_fs () in
  ok (Mfs.create fs "persistent");
  ok (Mfs.write fs "persistent" (Bytes.of_string "still here"));
  let fs2 = ok (Mfs.mount dev) in
  Alcotest.(check string) "after remount" "still here"
    (Bytes.to_string (ok (Mfs.read fs2 "persistent")));
  ok (Mfs.fsck fs2)

let test_device_failure_mid_operation () =
  let dev, fs = fresh_fs () in
  ok (Mfs.create fs "victim");
  Blockdev.Mem_device.fail dev;
  Alcotest.(check bool) "write surfaces unavailability" true
    (err (Mfs.write fs "victim" (Bytes.of_string "x")) = Fs.Fs_core.Device_unavailable);
  Alcotest.(check bool) "read surfaces unavailability" true
    (err (Mfs.read fs "victim") = Fs.Fs_core.Device_unavailable)

(* ------------------------------------------------------------------ *)
(* Same file system on the replicated device                           *)
(* ------------------------------------------------------------------ *)

let reliable_fs () =
  let device =
    Blockrep.Reliable_device.of_config
      (Blockrep.Config.make_exn ~scheme:Blockrep.Types.Available_copy ~n_sites:3 ~n_blocks:128
         ~seed:505 ())
  in
  (device, ok (Rfs.format ~n_inodes:64 device))

let test_reliable_roundtrip () =
  let _, fs = reliable_fs () in
  ok (Rfs.create fs "replicated");
  ok (Rfs.write fs "replicated" (Bytes.of_string "three copies"));
  Alcotest.(check string) "roundtrip" "three copies" (Bytes.to_string (ok (Rfs.read fs "replicated")))

let test_reliable_survives_failures () =
  let device, fs = reliable_fs () in
  let c = Blockrep.Reliable_device.cluster device in
  ok (Rfs.create fs "hardy");
  ok (Rfs.write fs "hardy" (Bytes.make 2048 'h'));
  Blockrep.Cluster.fail_site c 0;
  Blockrep.Cluster.fail_site c 1;
  (* Still serving with one copy; writes continue. *)
  ok (Rfs.append fs "hardy" (Bytes.of_string "tail"));
  Alcotest.(check int) "size" 2052 (Bytes.length (ok (Rfs.read fs "hardy")));
  Blockrep.Cluster.repair_site c 0;
  Blockrep.Cluster.repair_site c 1;
  Blockrep.Cluster.run_until c (Sim.Engine.now (Blockrep.Cluster.engine c) +. 100.0);
  ok (Rfs.fsck fs);
  Alcotest.(check bool) "replicas consistent" true (Blockrep.Cluster.consistent_available_stores c)

let test_reliable_remount_from_other_site () =
  (* Format through site 0's stub, then mount a second fs instance whose
     stub starts at another site: the superblock must be replicated. *)
  let device, fs = reliable_fs () in
  ok (Rfs.create fs "shared");
  ok (Rfs.write fs "shared" (Bytes.of_string "visible everywhere"));
  let cluster = Blockrep.Reliable_device.cluster device in
  Blockrep.Cluster.run_until cluster (Sim.Engine.now (Blockrep.Cluster.engine cluster) +. 50.0);
  let device2 = Blockrep.Reliable_device.create ~home:2 cluster in
  let fs2 = ok (Rfs.mount device2) in
  Alcotest.(check string) "mounted elsewhere" "visible everywhere"
    (Bytes.to_string (ok (Rfs.read fs2 "shared")))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_write_read_roundtrip =
  QCheck.Test.make ~name:"write/read roundtrip at arbitrary offsets" ~count:60
    QCheck.(pair (int_range 0 5000) (string_of_size (Gen.int_range 1 2000)))
    (fun (offset, data) ->
      let _, fs = fresh_fs ~capacity:256 () in
      ok (Mfs.create fs "prop");
      match Mfs.write fs "prop" ~offset (Bytes.of_string data) with
      | Error Fs.Fs_core.File_too_large -> offset + String.length data > (11 + 128) * 512
      | Error _ -> false
      | Ok () -> (
          match Mfs.read_range fs "prop" ~offset ~length:(String.length data) with
          | Ok back -> Bytes.to_string back = data
          | Error _ -> false))

let prop_fsck_after_random_ops =
  QCheck.Test.make ~name:"fsck holds after arbitrary operation sequences" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 30) (pair (int_range 0 3) (int_range 0 4)))
    (fun ops ->
      let _, fs = fresh_fs ~capacity:256 () in
      let name i = Printf.sprintf "f%d" i in
      List.iter
        (fun (file, op) ->
          let n = name file in
          match op with
          | 0 -> ignore (Mfs.create fs n)
          | 1 -> ignore (Mfs.write fs n (Bytes.make ((file + 1) * 300) 'p'))
          | 2 -> ignore (Mfs.unlink fs n)
          | 3 -> ignore (Mfs.append fs n (Bytes.of_string "more"))
          | _ -> ignore (Mfs.truncate fs n))
        ops;
      match Mfs.fsck fs with Ok () -> true | Error _ -> false)

let () =
  Alcotest.run "fs"
    [
      ( "format-mount",
        [
          Alcotest.test_case "format and mount" `Quick test_format_and_mount;
          Alcotest.test_case "unformatted device" `Quick test_mount_unformatted;
          Alcotest.test_case "too small" `Quick test_format_too_small;
          Alcotest.test_case "remount preserves data" `Quick test_remount_preserves_data;
        ] );
      ( "files",
        [
          Alcotest.test_case "create/write/read" `Quick test_create_write_read;
          Alcotest.test_case "empty file" `Quick test_empty_file;
          Alcotest.test_case "duplicate create" `Quick test_create_duplicate;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "bad names" `Quick test_bad_names;
          Alcotest.test_case "multi-block file" `Quick test_multi_block_file;
          Alcotest.test_case "indirect blocks" `Quick test_indirect_blocks;
          Alcotest.test_case "file too large" `Quick test_file_too_large;
          Alcotest.test_case "offset write / sparse" `Quick test_offset_write_and_sparse;
          Alcotest.test_case "overwrite middle" `Quick test_overwrite_middle;
          Alcotest.test_case "append" `Quick test_append;
          Alcotest.test_case "read range" `Quick test_read_range;
          Alcotest.test_case "delete frees space" `Quick test_delete_frees_space;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "many files" `Quick test_many_files;
          Alcotest.test_case "out of space" `Quick test_out_of_space;
          Alcotest.test_case "out of inodes" `Quick test_out_of_inodes;
          Alcotest.test_case "device failure surfaces" `Quick test_device_failure_mid_operation;
        ] );
      ( "on-reliable-device",
        [
          Alcotest.test_case "roundtrip" `Quick test_reliable_roundtrip;
          Alcotest.test_case "survives failures" `Quick test_reliable_survives_failures;
          Alcotest.test_case "remount from another site" `Quick test_reliable_remount_from_other_site;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_write_read_roundtrip;
          QCheck_alcotest.to_alcotest prop_fsck_after_random_ops;
        ] );
    ]
