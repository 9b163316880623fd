(* File-system transparency demo (the Section 2 argument).

   Fs.Hier_fs is a functor over the ordinary block-device signature.  We
   mount the *same* file-system code twice: once on a single in-memory
   disk, once on a replicated reliable device — and run the same workload.
   On the single disk, a media failure kills everything; on the reliable
   device, sites die and the files do not notice. *)

module Fs_on_disk = Fs.Hier_fs.Make (Blockdev.Mem_device)
module Fs_on_reliable = Fs.Hier_fs.Make (Blockrep.Reliable_device)

let check = function Ok v -> v | Error e -> failwith (Fs.Fs_core.error_to_string e)

let names entries = List.map (fun e -> e.Fs.Hier_fs.name) entries

(* Locate the data block holding motd's contents by scanning the device
   through the ordinary read interface — both devices implement it. *)
let holds_motd b =
  let s = Blockdev.Block.to_string b in
  String.length s >= 10 && String.sub s 0 10 = "hello from"

let find_motd_block read =
  let rec go i =
    if i >= 128 then failwith "motd block not found"
    else match read i with Some b when holds_motd b -> i | _ -> go (i + 1)
  in
  go 0

let exercise_files create write read list_files label =
  create "motd" |> check;
  write "motd" (Bytes.of_string "hello from a block device\n") |> check;
  create "data.log" |> check;
  write "data.log" (Bytes.of_string (String.concat "\n" (List.init 50 (Printf.sprintf "record %04d"))))
  |> check;
  let motd = read "motd" |> check in
  Printf.printf "[%s] motd = %S\n" label (Bytes.to_string motd);
  Printf.printf "[%s] files: %s\n" label (String.concat ", " (names (list_files () |> check)))

let () =
  (* 1. One ordinary disk. *)
  let disk = Blockdev.Mem_device.create ~capacity:128 in
  let fs1 = Fs_on_disk.format disk |> check in
  exercise_files (Fs_on_disk.create fs1) (fun n b -> Fs_on_disk.write fs1 n b) (Fs_on_disk.read fs1)
    (fun () -> Fs_on_disk.list fs1 "/")
    "single disk";
  (* A latent sector error: the sector holding motd rots.  One disk means
     one copy — there is no peer to re-read it from, so the data is gone. *)
  let rotten = find_motd_block (Blockdev.Mem_device.read_block disk) in
  Blockdev.Mem_device.inject_bitrot disk rotten;
  (match Fs_on_disk.read fs1 "motd" with
  | Ok _ -> Printf.printf "[single disk] rotten sector served?!\n"
  | Error e ->
      Printf.printf "[single disk] bit rot on block %d: %s — no peer to repair from, data lost\n"
        rotten (Fs.Fs_core.error_to_string e));
  Blockdev.Mem_device.fail disk;
  (match Fs_on_disk.read fs1 "motd" with
  | Ok _ -> Printf.printf "[single disk] still readable?!\n"
  | Error e -> Printf.printf "[single disk] after disk failure: %s\n" (Fs.Fs_core.error_to_string e));

  (* 2. The same file system code on a reliable device (available copy,
     3 sites). *)
  print_newline ();
  let config =
    Blockrep.Config.make_exn ~scheme:Blockrep.Types.Available_copy ~n_sites:3 ~n_blocks:128 ()
  in
  let device = Blockrep.Reliable_device.of_config config in
  let cluster = Blockrep.Reliable_device.cluster device in
  let fs2 = Fs_on_reliable.format device |> check in
  exercise_files (Fs_on_reliable.create fs2)
    (fun n b -> Fs_on_reliable.write fs2 n b)
    (Fs_on_reliable.read fs2)
    (fun () -> Fs_on_reliable.list fs2 "/")
    "reliable device";

  Blockrep.Cluster.fail_site cluster 0;
  Blockrep.Cluster.fail_site cluster 2;
  Printf.printf "[reliable device] sites 0 and 2 failed; appending to data.log...\n";
  Fs_on_reliable.append fs2 "data.log" (Bytes.of_string "\nwritten during double failure") |> check;
  (match Fs_on_reliable.read fs2 "motd" with
  | Ok b -> Printf.printf "[reliable device] motd still reads: %S\n" (Bytes.to_string b)
  | Error e -> Printf.printf "[reliable device] read failed: %s\n" (Fs.Fs_core.error_to_string e));

  (* Repair, let recovery finish, and check structural integrity. *)
  Blockrep.Cluster.repair_site cluster 0;
  Blockrep.Cluster.repair_site cluster 2;
  Blockrep.Cluster.run_until cluster (Sim.Engine.now (Blockrep.Cluster.engine cluster) +. 100.0);
  Fs_on_reliable.fsck fs2 |> check;
  Printf.printf "[reliable device] all sites repaired, fsck clean, replicas consistent: %b\n"
    (Blockrep.Cluster.consistent_available_stores cluster);
  let st = Fs_on_reliable.stat fs2 "data.log" |> check in
  Printf.printf "[reliable device] data.log: %d bytes in %d blocks (inode %d)\n" st.Fs.Hier_fs.size
    st.Fs.Hier_fs.blocks_used st.Fs.Hier_fs.inode;

  (* 3. The same latent fault that killed the single disk's file: the home
     site's copy of motd rots.  The next read detects the bad checksum,
     quarantines the copy, and heals it from a peer — the file system
     never notices. *)
  print_newline ();
  let rotten = find_motd_block (Blockrep.Reliable_device.read_block device) in
  Blockrep.Cluster.inject_bitrot cluster ~site:0 ~block:rotten;
  Printf.printf "[reliable device] site 0 copy of block %d rotted (checksum ok: %b)\n" rotten
    (Blockrep.Cluster.checksum_ok cluster ~site:0 ~block:rotten);
  (match Fs_on_reliable.read fs2 "motd" with
  | Ok b -> Printf.printf "[reliable device] motd reads through the fault: %S\n" (Bytes.to_string b)
  | Error e -> Printf.printf "[reliable device] read failed: %s\n" (Fs.Fs_core.error_to_string e));
  let c = Blockrep.Cluster.storage_counters cluster in
  Printf.printf "[reliable device] copy healed from a peer: checksum ok again: %b (%d repaired)\n"
    (Blockrep.Cluster.checksum_ok cluster ~site:0 ~block:rotten)
    c.Blockdev.Durable_store.repaired_blocks
