(* Quickstart: a reliable device in a dozen lines.

   Build a 3-site replicated block device running the naive available copy
   scheme — the paper's algorithm of choice — write and read through the
   ordinary device interface, then kill sites and watch the device keep
   serving until every copy is gone. *)

let printf = Printf.printf

let () =
  let config =
    Blockrep.Config.make_exn ~scheme:Blockrep.Types.Naive_available_copy ~n_sites:3 ~n_blocks:16 ()
  in
  let device = Blockrep.Reliable_device.of_config config in
  let cluster = Blockrep.Reliable_device.cluster device in

  printf "A reliable device with %d server sites, %d blocks, scheme %s\n\n"
    (Blockrep.Cluster.n_sites cluster)
    (Blockrep.Reliable_device.capacity device)
    (Blockrep.Types.scheme_to_string (Blockrep.Cluster.scheme cluster));

  (* Ordinary block-device usage: the client cannot tell this from a disk. *)
  assert (Blockrep.Reliable_device.write_block device 0 (Blockdev.Block.of_string "first block"));
  assert (Blockrep.Reliable_device.write_block device 1 (Blockdev.Block.of_string "second block"));
  (match Blockrep.Reliable_device.read_block device 0 with
  | Some b -> printf "read block 0 -> %S\n" (String.sub (Blockdev.Block.to_string b) 0 11)
  | None -> printf "read block 0 failed\n");

  (* One site dies: the device does not even hiccup. *)
  Blockrep.Cluster.fail_site cluster 0;
  printf "\nsite 0 failed; device available? %b\n" (Blockrep.Cluster.system_available cluster);
  assert (Blockrep.Reliable_device.write_block device 2 (Blockdev.Block.of_string "during failure"));
  (match Blockrep.Reliable_device.read_block device 2 with
  | Some b -> printf "read block 2 -> %S (failed over %d time(s); home stays %d)\n"
                (String.sub (Blockdev.Block.to_string b) 0 14)
                (Blockrep.Reliable_device.degradation device).failovers
                (Blockrep.Reliable_device.home device)
  | None -> printf "read block 2 failed\n");

  (* A second site dies: still one available copy, still serving. *)
  Blockrep.Cluster.fail_site cluster 1;
  printf "\nsite 1 failed too; device available? %b\n" (Blockrep.Cluster.system_available cluster);
  assert (Blockrep.Reliable_device.read_block device 0 <> None);

  (* All sites down: now, and only now, the device is unavailable. *)
  Blockrep.Cluster.fail_site cluster 2;
  printf "\nall sites failed; device available? %b\n" (Blockrep.Cluster.system_available cluster);
  assert (Blockrep.Reliable_device.read_block device 0 = None);

  (* Repair everyone; the naive scheme waits for all copies, finds the most
     current one, and brings the rest up to date. *)
  Blockrep.Cluster.repair_site cluster 0;
  Blockrep.Cluster.repair_site cluster 1;
  Blockrep.Cluster.repair_site cluster 2;
  Blockrep.Cluster.run_until cluster (Sim.Engine.now (Blockrep.Cluster.engine cluster) +. 100.0);
  printf "\nall sites repaired; device available? %b\n" (Blockrep.Cluster.system_available cluster);
  (match Blockrep.Reliable_device.read_block device 2 with
  | Some b -> printf "read block 2 -> %S (survived the total failure)\n"
                (String.sub (Blockdev.Block.to_string b) 0 14)
  | None -> printf "read block 2 failed\n");

  printf "\nhigh-level transmissions used:\n%s\n"
    (Format.asprintf "%a" Net.Traffic.pp (Blockrep.Cluster.traffic cluster))
