(* Tests for Fs.Hier_fs: the hierarchical file system, on a plain device
   and on the replicated reliable device. *)

module Hfs = Fs.Hier_fs.Make (Blockdev.Mem_device)
module Rhfs = Fs.Hier_fs.Make (Blockrep.Reliable_device)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected fs error: %s" (Fs.Fs_core.error_to_string e)

let expect_error expected = function
  | Ok _ -> Alcotest.failf "expected %s" (Fs.Fs_core.error_to_string expected)
  | Error e ->
      if e <> expected then
        Alcotest.failf "expected %s, got %s" (Fs.Fs_core.error_to_string expected)
          (Fs.Fs_core.error_to_string e)

let fresh ?(capacity = 256) () =
  let dev = Blockdev.Mem_device.create ~capacity in
  (dev, ok (Hfs.format dev))

let names entries = List.map (fun e -> e.Fs.Hier_fs.name) entries

let image_md5 dev =
  List.init (Blockdev.Mem_device.capacity dev) (fun k ->
      Blockdev.Block.to_string (Option.get (Blockdev.Mem_device.read_block dev k)))
  |> String.concat "" |> Digest.string |> Digest.to_hex

let test_format_mount () =
  let dev, _fs = fresh ~capacity:128 () in
  (* The on-disk format is a contract with every disk already written. *)
  Alcotest.(check string) "fresh image bytes" "5c881cd2ba9c2241cc1ce0f6320eb3ff" (image_md5 dev);
  let fs = ok (Hfs.mount dev) in
  Alcotest.(check (list string)) "empty root" [] (names (ok (Hfs.list fs "/")))

let test_flat_era_disk_mounts () =
  (* The former flat file system wrote 'F' into superblock byte 32 and
     kept every file at the root; such a disk mounts with its files. *)
  let dev = Blockdev.Mem_device.create ~capacity:128 in
  let fs = ok (Hfs.format ~n_inodes:64 dev) in
  ok (Hfs.create fs "motd");
  ok (Hfs.write fs "motd" (Bytes.of_string "flat"));
  ok (Hfs.create fs "log");
  let sb = Option.get (Blockdev.Mem_device.read_block dev 0) in
  Alcotest.(check char) "fresh superblock says H" 'H' (Blockdev.Block.get sb 32);
  Alcotest.(check bool) "superblock rewritten" true
    (Blockdev.Mem_device.write_block dev 0 (Blockdev.Block.set sb 32 'F'));
  let fs = ok (Hfs.mount dev) in
  Alcotest.(check (list string)) "files at the root" [ "motd"; "log" ] (names (ok (Hfs.list fs "/")));
  Alcotest.(check string) "contents" "flat" (Bytes.to_string (ok (Hfs.read fs "motd")));
  ok (Hfs.fsck fs)

let test_mkdir_and_nesting () =
  let _, fs = fresh () in
  ok (Hfs.mkdir fs "/usr");
  ok (Hfs.mkdir fs "/usr/local");
  ok (Hfs.mkdir fs "/usr/local/bin");
  Alcotest.(check (list string)) "root" [ "usr" ] (names (ok (Hfs.list fs "/")));
  Alcotest.(check (list string)) "nested" [ "local" ] (names (ok (Hfs.list fs "/usr")));
  Alcotest.(check bool) "leaf exists" true (Hfs.exists fs "usr/local/bin");
  Alcotest.(check bool) "kind is directory" true (ok (Hfs.kind_of fs "/usr/local/bin") = Fs.Hier_fs.Directory)

let test_mkdir_missing_parent () =
  let _, fs = fresh () in
  expect_error Fs.Fs_core.Not_found (Hfs.mkdir fs "/a/b/c")

let test_mkdir_p () =
  let _, fs = fresh () in
  ok (Hfs.mkdir_p fs "/deep/ly/nested/tree");
  Alcotest.(check bool) "whole chain" true (Hfs.exists fs "/deep/ly/nested/tree");
  (* Idempotent. *)
  ok (Hfs.mkdir_p fs "/deep/ly/nested/tree");
  (* But not through a file. *)
  ok (Hfs.create fs "/deep/file");
  expect_error Fs.Fs_core.Not_a_directory (Hfs.mkdir_p fs "/deep/file/sub")

let test_file_roundtrip_in_subdir () =
  let _, fs = fresh () in
  ok (Hfs.mkdir_p fs "/home/user");
  ok (Hfs.create fs "/home/user/notes.txt");
  ok (Hfs.write fs "/home/user/notes.txt" (Bytes.of_string "hierarchical"));
  Alcotest.(check string) "read back" "hierarchical"
    (Bytes.to_string (ok (Hfs.read fs "/home/user/notes.txt")));
  let st = ok (Hfs.stat fs "/home/user/notes.txt") in
  Alcotest.(check bool) "file kind" true (st.Fs.Hier_fs.kind = Fs.Hier_fs.File);
  Alcotest.(check int) "size" 12 st.Fs.Hier_fs.size

let test_same_name_in_different_dirs () =
  let _, fs = fresh () in
  ok (Hfs.mkdir fs "/a");
  ok (Hfs.mkdir fs "/b");
  ok (Hfs.create fs "/a/data");
  ok (Hfs.create fs "/b/data");
  ok (Hfs.write fs "/a/data" (Bytes.of_string "in-a"));
  ok (Hfs.write fs "/b/data" (Bytes.of_string "in-b"));
  Alcotest.(check string) "a's copy" "in-a" (Bytes.to_string (ok (Hfs.read fs "/a/data")));
  Alcotest.(check string) "b's copy" "in-b" (Bytes.to_string (ok (Hfs.read fs "/b/data")))

let test_path_through_file_rejected () =
  let _, fs = fresh () in
  ok (Hfs.create fs "/plain");
  expect_error Fs.Fs_core.Not_a_directory (Hfs.create fs "/plain/child");
  expect_error Fs.Fs_core.Not_a_directory (Hfs.list fs "/plain")

let test_file_dir_confusions () =
  let _, fs = fresh () in
  ok (Hfs.mkdir fs "/d");
  ok (Hfs.create fs "/f");
  expect_error Fs.Fs_core.Is_a_directory (Hfs.read fs "/d");
  expect_error Fs.Fs_core.Is_a_directory (Hfs.write fs "/d" (Bytes.of_string "x"));
  expect_error Fs.Fs_core.Is_a_directory (Hfs.unlink fs "/d");
  expect_error Fs.Fs_core.Not_a_directory (Hfs.rmdir fs "/f")

let test_rmdir () =
  let _, fs = fresh () in
  ok (Hfs.mkdir_p fs "/x/y");
  expect_error Fs.Fs_core.Directory_not_empty (Hfs.rmdir fs "/x");
  ok (Hfs.rmdir fs "/x/y");
  ok (Hfs.rmdir fs "/x");
  Alcotest.(check bool) "gone" false (Hfs.exists fs "/x");
  expect_error Fs.Fs_core.Invalid_path (Hfs.rmdir fs "/");
  ok (Hfs.fsck fs)

let test_unlink_frees_space () =
  let _, fs = fresh () in
  ok (Hfs.mkdir fs "/tmp");
  ok (Hfs.create fs "/tmp/big");
  let free0 = ok (Hfs.fsck fs) |> fun () -> 0 in
  ignore free0;
  ok (Hfs.write fs "/tmp/big" (Bytes.make 4096 'b'));
  ok (Hfs.unlink fs "/tmp/big");
  Alcotest.(check bool) "gone" false (Hfs.exists fs "/tmp/big");
  ok (Hfs.fsck fs)

let test_rename_file () =
  let _, fs = fresh () in
  ok (Hfs.mkdir fs "/src");
  ok (Hfs.mkdir fs "/dst");
  ok (Hfs.create fs "/src/doc");
  ok (Hfs.write fs "/src/doc" (Bytes.of_string "moving"));
  ok (Hfs.rename fs "/src/doc" "/dst/renamed");
  Alcotest.(check bool) "source gone" false (Hfs.exists fs "/src/doc");
  Alcotest.(check string) "content moved" "moving" (Bytes.to_string (ok (Hfs.read fs "/dst/renamed")));
  ok (Hfs.fsck fs)

let test_rename_same_directory () =
  let _, fs = fresh () in
  ok (Hfs.create fs "/old-name");
  ok (Hfs.write fs "/old-name" (Bytes.of_string "same dir"));
  ok (Hfs.rename fs "/old-name" "/new-name");
  Alcotest.(check bool) "old gone" false (Hfs.exists fs "/old-name");
  Alcotest.(check string) "new there" "same dir" (Bytes.to_string (ok (Hfs.read fs "/new-name")));
  ok (Hfs.fsck fs)

let test_rename_directory_with_contents () =
  let _, fs = fresh () in
  ok (Hfs.mkdir_p fs "/proj/lib");
  ok (Hfs.create fs "/proj/lib/code.ml");
  ok (Hfs.write fs "/proj/lib/code.ml" (Bytes.of_string "let x = 1"));
  ok (Hfs.rename fs "/proj" "/project");
  Alcotest.(check string) "subtree moved" "let x = 1"
    (Bytes.to_string (ok (Hfs.read fs "/project/lib/code.ml")));
  ok (Hfs.fsck fs)

let test_rename_into_own_subtree_rejected () =
  let _, fs = fresh () in
  ok (Hfs.mkdir_p fs "/a/b");
  expect_error Fs.Fs_core.Invalid_path (Hfs.rename fs "/a" "/a/b/a");
  expect_error Fs.Fs_core.Invalid_path (Hfs.rename fs "/a" "/a");
  ok (Hfs.fsck fs)

let test_rename_over_existing_rejected () =
  let _, fs = fresh () in
  ok (Hfs.create fs "/one");
  ok (Hfs.create fs "/two");
  expect_error Fs.Fs_core.Already_exists (Hfs.rename fs "/one" "/two")

let test_walk () =
  let _, fs = fresh () in
  ok (Hfs.mkdir_p fs "/a/b");
  ok (Hfs.create fs "/a/f1");
  ok (Hfs.create fs "/a/b/f2");
  ok (Hfs.create fs "/top");
  let all = List.sort compare (ok (Hfs.walk fs "/")) in
  Alcotest.(check (list string)) "full walk" [ "a"; "a/b"; "a/b/f2"; "a/f1"; "top" ] all;
  let sub = List.sort compare (ok (Hfs.walk fs "/a")) in
  Alcotest.(check (list string)) "subtree walk" [ "a/b"; "a/b/f2"; "a/f1" ] sub

let test_deep_tree_many_files () =
  let _, fs = fresh ~capacity:512 () in
  (* A fan-out tree: 3 dirs x 5 files each, nested two levels. *)
  List.iter
    (fun d ->
      let dir = Printf.sprintf "/d%d/sub" d in
      ok (Hfs.mkdir_p fs dir);
      List.iter
        (fun f ->
          let path = Printf.sprintf "%s/file%d" dir f in
          ok (Hfs.create fs path);
          ok (Hfs.write fs path (Bytes.of_string path)))
        [ 0; 1; 2; 3; 4 ])
    [ 0; 1; 2 ];
  Alcotest.(check int) "walk count" (3 * 7) (List.length (ok (Hfs.walk fs "/")));
  (* Spot-check contents. *)
  Alcotest.(check string) "content is the path" "/d2/sub/file3"
    (Bytes.to_string (ok (Hfs.read fs "/d2/sub/file3")));
  ok (Hfs.fsck fs)

let test_fsck_detects_orphan () =
  (* White-box: formatting then manually marking an inode used creates an
     orphan that fsck must flag. *)
  let dev, fs = fresh () in
  ok (Hfs.mkdir fs "/legit");
  (* Corrupt: flip a used bit deep in the inode table.  Inode table starts
     after the bitmap; inode 9 lives at block (inode_start + 1), offset 64.
     We locate it by scanning for an all-zero inode slot — simpler: write
     garbage over a known-free inode slot via the device. *)
  let sb = Option.get (Blockdev.Mem_device.read_block dev 0) in
  let inode_start =
    let b = Blockdev.Block.to_bytes sb in
    Int32.to_int (Bytes.get_int32_be b 20)
  in
  let block = Option.get (Blockdev.Mem_device.read_block dev inode_start) in
  let b = Blockdev.Block.to_bytes block in
  (* Inode 7 within the first inode block: offset 7*64; mark used, file. *)
  Bytes.set b (7 * 64) '\001';
  Bytes.set b ((7 * 64) + 1) 'f';
  ignore (Blockdev.Mem_device.write_block dev inode_start (Blockdev.Block.of_bytes b));
  match Hfs.fsck fs with
  | Error (Fs.Fs_core.Corrupt msg) ->
      Alcotest.(check bool) "mentions orphan" true
        (String.length msg >= 6 && String.sub msg 0 6 = "orphan")
  | Ok () -> Alcotest.fail "fsck missed the orphan"
  | Error e -> Alcotest.failf "unexpected error: %s" (Fs.Fs_core.error_to_string e)

let test_on_reliable_device_with_failures () =
  let device =
    Blockrep.Reliable_device.of_config
      (Blockrep.Config.make_exn ~scheme:Blockrep.Types.Available_copy ~n_sites:3 ~n_blocks:256
         ~seed:1212 ())
  in
  let cluster = Blockrep.Reliable_device.cluster device in
  let fs =
    match Rhfs.format device with
    | Ok fs -> fs
    | Error e -> Alcotest.failf "format: %s" (Fs.Fs_core.error_to_string e)
  in
  let ok = function
    | Ok v -> v
    | Error e -> Alcotest.failf "fs: %s" (Fs.Fs_core.error_to_string e)
  in
  ok (Rhfs.mkdir_p fs "/var/log");
  ok (Rhfs.create fs "/var/log/messages");
  ok (Rhfs.append fs "/var/log/messages" (Bytes.of_string "boot\n"));
  Blockrep.Cluster.fail_site cluster 1;
  ok (Rhfs.append fs "/var/log/messages" (Bytes.of_string "site 1 died\n"));
  Blockrep.Cluster.repair_site cluster 1;
  Blockrep.Cluster.run_until cluster (Sim.Engine.now (Blockrep.Cluster.engine cluster) +. 100.0);
  Alcotest.(check string) "log intact" "boot\nsite 1 died\n"
    (Bytes.to_string (ok (Rhfs.read fs "/var/log/messages")));
  ok (Rhfs.fsck fs);
  Alcotest.(check bool) "replicas consistent" true
    (Blockrep.Cluster.consistent_available_stores cluster)

let prop_tree_ops_keep_fsck =
  QCheck.Test.make ~name:"random tree operations preserve fsck" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 30) (pair (int_range 0 5) (int_range 0 3)))
    (fun ops ->
      let _, fs = fresh ~capacity:512 () in
      let dir i = Printf.sprintf "/dir%d" (i mod 3) in
      let file i j = Printf.sprintf "%s/f%d" (dir i) j in
      List.iter
        (fun (i, op) ->
          match op with
          | 0 -> ignore (Hfs.mkdir fs (dir i))
          | 1 -> ignore (Hfs.create fs (file i (i mod 2)))
          | 2 -> ignore (Hfs.write fs (file i (i mod 2)) (Bytes.make (100 * (i + 1)) 'q'))
          | _ -> ignore (Hfs.unlink fs (file i (i mod 2))))
        ops;
      match Hfs.fsck fs with Ok () -> true | Error _ -> false)

let () =
  Alcotest.run "hier-fs"
    [
      ( "structure",
        [
          Alcotest.test_case "format/mount" `Quick test_format_mount;
          Alcotest.test_case "flat-era disk mounts" `Quick test_flat_era_disk_mounts;
          Alcotest.test_case "mkdir and nesting" `Quick test_mkdir_and_nesting;
          Alcotest.test_case "mkdir missing parent" `Quick test_mkdir_missing_parent;
          Alcotest.test_case "mkdir_p" `Quick test_mkdir_p;
          Alcotest.test_case "path through file" `Quick test_path_through_file_rejected;
          Alcotest.test_case "file/dir confusion" `Quick test_file_dir_confusions;
          Alcotest.test_case "rmdir" `Quick test_rmdir;
        ] );
      ( "files",
        [
          Alcotest.test_case "roundtrip in subdir" `Quick test_file_roundtrip_in_subdir;
          Alcotest.test_case "same name, different dirs" `Quick test_same_name_in_different_dirs;
          Alcotest.test_case "unlink" `Quick test_unlink_frees_space;
          Alcotest.test_case "deep tree" `Quick test_deep_tree_many_files;
        ] );
      ( "rename",
        [
          Alcotest.test_case "file across dirs" `Quick test_rename_file;
          Alcotest.test_case "same directory" `Quick test_rename_same_directory;
          Alcotest.test_case "directory with contents" `Quick test_rename_directory_with_contents;
          Alcotest.test_case "into own subtree" `Quick test_rename_into_own_subtree_rejected;
          Alcotest.test_case "over existing" `Quick test_rename_over_existing_rejected;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "walk" `Quick test_walk;
          Alcotest.test_case "fsck detects orphan" `Quick test_fsck_detects_orphan;
          Alcotest.test_case "on reliable device" `Quick test_on_reliable_device_with_failures;
          QCheck_alcotest.to_alcotest prop_tree_ops_keep_fsck;
        ] );
    ]
