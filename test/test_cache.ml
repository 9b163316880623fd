(* Tests for Fs.Buffer_cache: the Figure 1 buffer-cache layer. *)

module Cache = Fs.Buffer_cache.Make (Blockdev.Mem_device)
module Cache_on_reliable = Fs.Buffer_cache.Make (Blockrep.Reliable_device)
module Fs_on_cache = Fs.Hier_fs.Make (Cache_on_reliable)
module Fs_on_reliable = Fs.Hier_fs.Make (Blockrep.Reliable_device)
module Block = Blockdev.Block

let make ?(dev_capacity = 32) ?(cache_capacity = 4) () =
  let dev = Blockdev.Mem_device.create ~capacity:dev_capacity in
  (dev, Cache.create ~capacity:cache_capacity dev)

let fs_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "fs error: %s" (Fs.Fs_core.error_to_string e)

let test_capacity_is_device_size () =
  (* [capacity] is the [Device_intf.S] block count: every block of the
     device is addressable through the cache, whatever its frame budget. *)
  let dev, cache = make ~dev_capacity:32 ~cache_capacity:4 () in
  Alcotest.(check int) "capacity is the device's" 32 (Cache.capacity cache);
  Alcotest.(check int) "device agrees" (Blockdev.Mem_device.capacity dev) (Cache.capacity cache)

let test_passthrough_read () =
  let dev, cache = make () in
  ignore (Blockdev.Mem_device.write_block dev 0 (Block.of_string "under"));
  (match Cache.read_block cache 0 with
  | Some b -> Alcotest.(check string) "reads through" "under" (String.sub (Block.to_string b) 0 5)
  | None -> Alcotest.fail "read failed");
  Alcotest.(check int) "one miss" 1 (Cache.misses cache);
  Alcotest.(check int) "no hits yet" 0 (Cache.hits cache)

let test_hit_on_second_read () =
  let dev, cache = make () in
  ignore (Blockdev.Mem_device.write_block dev 1 (Block.of_string "cached"));
  ignore (Cache.read_block cache 1);
  ignore (Cache.read_block cache 1);
  ignore (Cache.read_block cache 1);
  Alcotest.(check int) "one miss" 1 (Cache.misses cache);
  Alcotest.(check int) "two hits" 2 (Cache.hits cache);
  Alcotest.(check (float 1e-9)) "hit rate" (2.0 /. 3.0) (Cache.hit_rate cache)

let test_write_through () =
  let dev, cache = make () in
  Alcotest.(check bool) "write ok" true (Cache.write_block cache 2 (Block.of_string "both"));
  (* The device saw it immediately... *)
  (match Blockdev.Mem_device.read_block dev 2 with
  | Some b -> Alcotest.(check string) "on device" "both" (String.sub (Block.to_string b) 0 4)
  | None -> Alcotest.fail "device read failed");
  (* ...and the cache serves it without a device read. *)
  ignore (Cache.read_block cache 2);
  Alcotest.(check int) "served from cache" 1 (Cache.hits cache)

let test_lru_eviction () =
  let dev, cache = make ~cache_capacity:2 () in
  for k = 0 to 2 do
    ignore (Blockdev.Mem_device.write_block dev k (Block.of_string (string_of_int k)))
  done;
  ignore (Cache.read_block cache 0);
  ignore (Cache.read_block cache 1);
  (* Touch 0 so 1 is the LRU victim. *)
  ignore (Cache.read_block cache 0);
  ignore (Cache.read_block cache 2);
  Alcotest.(check int) "capacity respected" 2 (Cache.cached_blocks cache);
  let hits_before = Cache.hits cache in
  ignore (Cache.read_block cache 0);
  Alcotest.(check int) "0 survived" (hits_before + 1) (Cache.hits cache);
  ignore (Cache.read_block cache 1);
  Alcotest.(check bool) "1 was evicted (miss)" true (Cache.hits cache = hits_before + 1)

let test_failed_write_not_cached () =
  let dev, cache = make () in
  Blockdev.Mem_device.fail dev;
  Alcotest.(check bool) "write refused" false (Cache.write_block cache 0 (Block.of_string "no"));
  Blockdev.Mem_device.revive dev;
  (* A subsequent read must go to the device, not serve the failed write. *)
  (match Cache.read_block cache 0 with
  | Some b -> Alcotest.(check bool) "zeroes from device" true (Block.equal b Block.zero)
  | None -> Alcotest.fail "read failed");
  Alcotest.(check int) "was a miss" 1 (Cache.misses cache)

let test_failed_read_not_cached () =
  let dev, cache = make () in
  Blockdev.Mem_device.fail dev;
  Alcotest.(check bool) "read fails through" true (Cache.read_block cache 0 = None);
  Blockdev.Mem_device.revive dev;
  ignore (Blockdev.Mem_device.write_block dev 0 (Block.of_string "later"));
  match Cache.read_block cache 0 with
  | Some b -> Alcotest.(check string) "fresh from device" "later" (String.sub (Block.to_string b) 0 5)
  | None -> Alcotest.fail "read failed after revive"

let test_invalidate () =
  let dev, cache = make () in
  ignore (Blockdev.Mem_device.write_block dev 0 (Block.of_string "v1"));
  ignore (Cache.read_block cache 0);
  (* Out-of-band device write invisible to the cache... *)
  ignore (Blockdev.Mem_device.write_block dev 0 (Block.of_string "v2"));
  (match Cache.read_block cache 0 with
  | Some b ->
      Alcotest.(check string) "stale before invalidate" "v1" (String.sub (Block.to_string b) 0 2)
  | None -> Alcotest.fail "read failed");
  Cache.invalidate cache;
  match Cache.read_block cache 0 with
  | Some b ->
      Alcotest.(check string) "fresh after invalidate" "v2" (String.sub (Block.to_string b) 0 2)
  | None -> Alcotest.fail "read failed"

let test_cache_cuts_voting_read_traffic () =
  (* The Figure 1 payoff: in front of a voting reliable device, cached
     reads skip the vote collection entirely. *)
  let device =
    Blockrep.Reliable_device.of_config
      (Blockrep.Config.make_exn ~scheme:Blockrep.Types.Voting ~n_sites:3 ~n_blocks:16 ~seed:1010 ())
  in
  let cluster = Blockrep.Reliable_device.cluster device in
  let cache = Cache_on_reliable.create ~capacity:8 device in
  assert (Cache_on_reliable.write_block cache 0 (Block.of_string "hot"));
  let before = Net.Traffic.by_operation (Blockrep.Cluster.traffic cluster) Net.Message.Read in
  for _ = 1 to 10 do
    ignore (Cache_on_reliable.read_block cache 0)
  done;
  let after = Net.Traffic.by_operation (Blockrep.Cluster.traffic cluster) Net.Message.Read in
  Alcotest.(check int) "ten hot reads cost zero vote rounds" before after;
  Alcotest.(check int) "all hits" 10 (Cache_on_reliable.hits cache)

let nac_device ~seed =
  Blockrep.Reliable_device.of_config
    (Blockrep.Config.make_exn ~scheme:Blockrep.Types.Naive_available_copy ~n_sites:3 ~n_blocks:128
       ~seed ())

let test_fs_runs_on_cached_reliable_device () =
  (* Full stack: Hier_fs -> Buffer_cache -> Reliable_device.  The file
     system must see the whole device through the 16-frame cache: the
     same free space as on the bare device, and room for a 40-block file. *)
  let cache = Cache_on_reliable.create ~capacity:16 (nac_device ~seed:1111) in
  let fs = fs_ok (Fs_on_cache.format cache) in
  let bare = fs_ok (Fs_on_reliable.format (nac_device ~seed:1111)) in
  Alcotest.(check int) "free blocks as on the bare device"
    (fs_ok (Fs_on_reliable.free_blocks bare))
    (fs_ok (Fs_on_cache.free_blocks fs));
  fs_ok (Fs_on_cache.create fs "stacked");
  fs_ok (Fs_on_cache.write fs "stacked" (Bytes.of_string "through every layer"));
  Alcotest.(check string) "full-stack roundtrip" "through every layer"
    (Bytes.to_string (fs_ok (Fs_on_cache.read fs "stacked")));
  let data = Bytes.init (40 * Block.size) (fun i -> Char.chr (i mod 251)) in
  fs_ok (Fs_on_cache.create fs "big");
  fs_ok (Fs_on_cache.write fs "big" data);
  Alcotest.(check bytes) "40-block file reads back" data (fs_ok (Fs_on_cache.read fs "big"));
  fs_ok (Fs_on_cache.fsck fs);
  Alcotest.(check bool) "cache actually used" true (Cache_on_reliable.hits cache > 0)

let prop_cache_transparent =
  QCheck.Test.make ~name:"cached device is observationally equal to the raw device" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 40) (triple bool (int_range 0 7) printable_string))
    (fun ops ->
      let raw = Blockdev.Mem_device.create ~capacity:8 in
      let backing = Blockdev.Mem_device.create ~capacity:8 in
      let cached = Cache.create ~capacity:3 backing in
      List.for_all
        (fun (is_write, k, payload) ->
          if is_write then
            Blockdev.Mem_device.write_block raw k (Block.of_string payload)
            = Cache.write_block cached k (Block.of_string payload)
          else
            match (Blockdev.Mem_device.read_block raw k, Cache.read_block cached k) with
            | Some a, Some b -> Block.equal a b
            | None, None -> true
            | Some _, None | None, Some _ -> false)
        ops)

(* ------------------------------------------------------------------ *)
(* Write-back (group commit) mode                                      *)
(* ------------------------------------------------------------------ *)

(* A batched device that records every write request (single or group)
   and can refuse writes touching selected blocks — a group containing a
   refused block fails atomically, like a quorum round lost for the
   whole batch. *)
module Flaky_dev = struct
  type t = {
    mem : Blockdev.Mem_device.t;
    mutable bad : int list;
    mutable write_requests : int;
    mutable group_sizes : int list;  (** newest first *)
  }

  let create ~capacity =
    { mem = Blockdev.Mem_device.create ~capacity; bad = []; write_requests = 0; group_sizes = [] }

  let capacity t = Blockdev.Mem_device.capacity t.mem
  let read_block t k = Blockdev.Mem_device.read_block t.mem k

  let write_block t k d =
    t.write_requests <- t.write_requests + 1;
    t.group_sizes <- 1 :: t.group_sizes;
    (not (List.mem k t.bad)) && Blockdev.Mem_device.write_block t.mem k d

  let write_blocks t ws =
    t.write_requests <- t.write_requests + 1;
    t.group_sizes <- List.length ws :: t.group_sizes;
    ws <> []
    && (not (List.exists (fun (k, _) -> List.mem k t.bad) ws))
    && List.for_all (fun (k, d) -> Blockdev.Mem_device.write_block t.mem k d) ws
end

module Wb = Fs.Buffer_cache.Make_batched (Flaky_dev)

let make_wb ?scheduler ?(window = 0.0) ?(capacity = 8) () =
  let dev = Flaky_dev.create ~capacity:32 in
  (dev, Wb.create ~policy:Fs.Buffer_cache.Write_back ?scheduler ~window ~capacity dev)

let on_device dev k expect =
  match Flaky_dev.read_block dev k with
  | Some b -> Alcotest.(check string) "on device" expect (String.sub (Block.to_string b) 0 (String.length expect))
  | None -> Alcotest.fail "device read failed"

let test_wb_absorbs_then_flushes_as_one_group () =
  let dev, cache = make_wb () in
  for k = 0 to 3 do
    Alcotest.(check bool) "absorbed" true (Wb.write_block cache k (Block.of_string (string_of_int k)))
  done;
  Alcotest.(check int) "nothing reached the device" 0 dev.Flaky_dev.write_requests;
  Alcotest.(check int) "four dirty" 4 (Wb.dirty_blocks cache);
  Alcotest.(check bool) "flush commits" true (Wb.flush cache);
  Alcotest.(check int) "one group request" 1 dev.Flaky_dev.write_requests;
  Alcotest.(check (list int)) "whole dirty set in it" [ 4 ] dev.Flaky_dev.group_sizes;
  Alcotest.(check int) "clean" 0 (Wb.dirty_blocks cache);
  on_device dev 2 "2";
  (* Idempotent: nothing dirty, so a second flush issues no request. *)
  Alcotest.(check bool) "second flush trivially ok" true (Wb.flush cache);
  Alcotest.(check int) "no further request" 1 dev.Flaky_dev.write_requests

let test_wb_dirty_eviction_writes_exactly_once () =
  let dev, cache = make_wb ~capacity:2 () in
  ignore (Wb.write_block cache 0 (Block.of_string "zero"));
  ignore (Wb.write_block cache 1 (Block.of_string "one"));
  (* Every frame dirty; inserting a third block must write back the LRU
     dirty block (0) exactly once to make room. *)
  ignore (Wb.write_block cache 2 (Block.of_string "two"));
  Alcotest.(check int) "one eviction write-back" 1 dev.Flaky_dev.write_requests;
  Alcotest.(check int) "cache counted it" 1 (Wb.write_backs cache);
  Alcotest.(check int) "carrying one block" 1 (Wb.blocks_written_back cache);
  on_device dev 0 "zero";
  Alcotest.(check int) "capacity held" 2 (Wb.cached_blocks cache);
  Alcotest.(check int) "1 and 2 still dirty" 2 (Wb.dirty_blocks cache)

let test_wb_crash_before_flush_loses_updates () =
  (* The documented durability cost of group commit: a crash of the
     caching host (modelled by [invalidate]) silently drops absorbed
     writes. *)
  let dev, cache = make_wb () in
  ignore (Wb.write_block cache 0 (Block.of_string "gone"));
  ignore (Wb.write_block cache 1 (Block.of_string "also gone"));
  Wb.invalidate cache;
  Alcotest.(check int) "two updates lost" 2 (Wb.lost_updates cache);
  Alcotest.(check int) "device never saw them" 0 dev.Flaky_dev.write_requests;
  (match Flaky_dev.read_block dev 0 with
  | Some b -> Alcotest.(check bool) "block 0 untouched" true (Block.equal b Block.zero)
  | None -> Alcotest.fail "device read failed");
  Alcotest.(check int) "cache empty" 0 (Wb.cached_blocks cache)

let test_wb_flush_splits_on_partial_failure () =
  let dev, cache = make_wb () in
  for k = 0 to 3 do
    ignore (Wb.write_block cache k (Block.of_string (string_of_int k)))
  done;
  (* Block 2 cannot commit — e.g. its round lost quorum — so the whole
     group is refused and the cache must narrow by halving. *)
  dev.Flaky_dev.bad <- [ 2 ];
  Alcotest.(check bool) "flush reports the residue" false (Wb.flush cache);
  (* [0;1;2;3] fails -> [0;1] ok, [2;3] fails -> [2] fails, [3] ok
     (newest request first). *)
  Alcotest.(check (list int)) "halving request trail" [ 1; 1; 2; 2; 4 ] dev.Flaky_dev.group_sizes;
  on_device dev 0 "0";
  on_device dev 1 "1";
  on_device dev 3 "3";
  Alcotest.(check int) "only the impossible block stays dirty" 1 (Wb.dirty_blocks cache);
  (* Once the device recovers, the residue commits and nothing is lost. *)
  dev.Flaky_dev.bad <- [];
  Alcotest.(check bool) "retry commits the residue" true (Wb.flush cache);
  on_device dev 2 "2";
  Alcotest.(check int) "clean" 0 (Wb.dirty_blocks cache);
  Alcotest.(check int) "no updates lost" 0 (Wb.lost_updates cache)

let test_wb_refused_eviction_overflows_not_loses () =
  let dev, cache = make_wb ~capacity:1 () in
  dev.Flaky_dev.bad <- [ 0 ];
  ignore (Wb.write_block cache 0 (Block.of_string "stuck"));
  (* Evicting 0 needs a write-back the device refuses: the frame must be
     kept (overflowing capacity) rather than dropped. *)
  ignore (Wb.write_block cache 1 (Block.of_string "new"));
  Alcotest.(check int) "overflowed by one frame" 2 (Wb.cached_blocks cache);
  Alcotest.(check int) "both dirty" 2 (Wb.dirty_blocks cache);
  Alcotest.(check int) "nothing lost" 0 (Wb.lost_updates cache);
  dev.Flaky_dev.bad <- [];
  Alcotest.(check bool) "later flush drains both" true (Wb.flush cache);
  on_device dev 0 "stuck";
  on_device dev 1 "new"

let test_wb_window_coalesces () =
  let engine = Sim.Engine.create () in
  let scheduler delay k = ignore (Sim.Engine.schedule engine ~delay k : Sim.Engine.handle) in
  let dev, cache = make_wb ~scheduler ~window:5.0 () in
  for k = 0 to 2 do
    ignore (Wb.write_block cache k (Block.of_string (string_of_int k)))
  done;
  Sim.Engine.run_until engine 4.9;
  Alcotest.(check int) "window still open: nothing written" 0 dev.Flaky_dev.write_requests;
  Sim.Engine.run_until engine 5.1;
  Alcotest.(check (list int)) "window closed: one group of three" [ 3 ] dev.Flaky_dev.group_sizes;
  Alcotest.(check int) "clean" 0 (Wb.dirty_blocks cache);
  (* The next dirtying write re-arms the window. *)
  ignore (Wb.write_block cache 7 (Block.of_string "again"));
  Sim.Engine.run_until engine 20.0;
  Alcotest.(check (list int)) "second window flushed too" [ 1; 3 ] dev.Flaky_dev.group_sizes

let test_wb_write_through_unchanged_by_functor () =
  (* The default policy through Make_batched behaves exactly like the
     historical write-through cache: every write reaches the device
     immediately and nothing is ever dirty. *)
  let dev = Flaky_dev.create ~capacity:32 in
  let cache = Wb.create ~capacity:4 dev in
  Alcotest.(check bool) "policy defaults to write-through" true
    (Wb.policy cache = Fs.Buffer_cache.Write_through);
  ignore (Wb.write_block cache 0 (Block.of_string "now"));
  Alcotest.(check int) "device saw it immediately" 1 dev.Flaky_dev.write_requests;
  Alcotest.(check int) "never dirty" 0 (Wb.dirty_blocks cache);
  Alcotest.(check bool) "flush is a no-op" true (Wb.flush cache);
  Alcotest.(check int) "no extra request" 1 dev.Flaky_dev.write_requests

let () =
  Alcotest.run "buffer-cache"
    [
      ( "cache",
        [
          Alcotest.test_case "capacity is the device's" `Quick test_capacity_is_device_size;
          Alcotest.test_case "passthrough read" `Quick test_passthrough_read;
          Alcotest.test_case "hit on re-read" `Quick test_hit_on_second_read;
          Alcotest.test_case "write-through" `Quick test_write_through;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "failed write not cached" `Quick test_failed_write_not_cached;
          Alcotest.test_case "failed read not cached" `Quick test_failed_read_not_cached;
          Alcotest.test_case "invalidate" `Quick test_invalidate;
          QCheck_alcotest.to_alcotest prop_cache_transparent;
        ] );
      ( "stacking",
        [
          Alcotest.test_case "cache cuts voting reads" `Quick test_cache_cuts_voting_read_traffic;
          Alcotest.test_case "fs on cached reliable device" `Quick test_fs_runs_on_cached_reliable_device;
        ] );
      ( "write-back",
        [
          Alcotest.test_case "absorbs then flushes as one group" `Quick
            test_wb_absorbs_then_flushes_as_one_group;
          Alcotest.test_case "dirty eviction writes exactly once" `Quick
            test_wb_dirty_eviction_writes_exactly_once;
          Alcotest.test_case "crash before flush loses updates" `Quick
            test_wb_crash_before_flush_loses_updates;
          Alcotest.test_case "flush splits on partial failure" `Quick
            test_wb_flush_splits_on_partial_failure;
          Alcotest.test_case "refused eviction overflows, not loses" `Quick
            test_wb_refused_eviction_overflows_not_loses;
          Alcotest.test_case "coalescing window" `Quick test_wb_window_coalesces;
          Alcotest.test_case "write-through default unchanged" `Quick
            test_wb_write_through_unchanged_by_functor;
        ] );
    ]
