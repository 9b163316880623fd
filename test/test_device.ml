(* Tests for the reliable device and its request forwarding. *)

module Cluster = Blockrep.Cluster
module Types = Blockrep.Types
module Device = Blockrep.Reliable_device
module Block = Blockdev.Block

let make_device ?(scheme = Types.Naive_available_copy) ?(n = 3) ?(blocks = 16) () =
  Device.of_config (Blockrep.Config.make_exn ~scheme ~n_sites:n ~n_blocks:blocks ~seed:404 ())

let test_device_capacity () =
  let d = make_device ~blocks:32 () in
  Alcotest.(check int) "capacity" 32 (Device.capacity d)

let test_device_rw () =
  let d = make_device () in
  Alcotest.(check bool) "write" true (Device.write_block d 3 (Block.of_string "payload"));
  match Device.read_block d 3 with
  | Some b -> Alcotest.(check string) "read back" "payload" (String.sub (Block.to_string b) 0 7)
  | None -> Alcotest.fail "read failed"

let test_device_read_your_writes () =
  (* The device pins a home site, so even fire-and-forget NAC writes are
     immediately readable through the device interface. *)
  let d = make_device ~scheme:Types.Naive_available_copy () in
  for i = 0 to 9 do
    let tag = Printf.sprintf "rw%d" i in
    assert (Device.write_block d (i mod 4) (Block.of_string tag));
    match Device.read_block d (i mod 4) with
    | Some b -> Alcotest.(check string) tag tag (String.sub (Block.to_string b) 0 (String.length tag))
    | None -> Alcotest.fail "read failed"
  done

let test_device_bounds () =
  let d = make_device ~blocks:8 () in
  Alcotest.(check bool) "read oob" true (Device.read_block d 8 = None);
  Alcotest.(check bool) "write oob" false (Device.write_block d (-1) Block.zero)

let test_read_failover () =
  let d = make_device () in
  let c = Device.cluster d in
  assert (Device.write_block d 0 (Block.of_string "seed"));
  (* Let the fire-and-forget propagation land on the other replicas before
     the home site dies. *)
  Cluster.run_until c (Sim.Engine.now (Cluster.engine c) +. 10.0);
  Alcotest.(check int) "home is 0" 0 (Device.home d);
  Cluster.fail_site c 0;
  (match Device.read_block d 0 with
  | Some b -> Alcotest.(check string) "served after failover" "seed" (String.sub (Block.to_string b) 0 4)
  | None -> Alcotest.fail "failover read failed");
  Alcotest.(check int) "home does not migrate" 0 (Device.home d);
  Alcotest.(check bool) "failovers counted" true ((Device.degradation d).failovers >= 1)

let test_write_failover () =
  let d = make_device () in
  let c = Device.cluster d in
  Cluster.fail_site c 0;
  Cluster.fail_site c 1;
  Alcotest.(check bool) "write lands on the survivor" true
    (Device.write_block d 5 (Block.of_string "survivor"));
  Alcotest.(check int) "home stays put through failover" 0 (Device.home d)

let test_home_service_resumes () =
  (* The bug: a transient [Site_not_available] at the home site migrated
     [home] permanently, so the preferred site never got traffic back after
     repair.  Home is now sticky: once site 0 recovers, requests are served
     there again with no further failovers. *)
  let d = make_device () in
  let c = Device.cluster d in
  assert (Device.write_block d 0 (Block.of_string "before"));
  Cluster.run_until c (Sim.Engine.now (Cluster.engine c) +. 10.0);
  Cluster.fail_site c 0;
  (match Device.read_block d 0 with
  | Some _ -> ()
  | None -> Alcotest.fail "read during outage failed");
  let failovers_during_outage = (Device.degradation d).failovers in
  Alcotest.(check bool) "outage caused failovers" true (failovers_during_outage >= 1);
  Cluster.repair_site c 0;
  Cluster.run_until c (Sim.Engine.now (Cluster.engine c) +. 10.0);
  assert (Device.write_block d 1 (Block.of_string "after"));
  (match Device.read_block d 1 with
  | Some b -> Alcotest.(check string) "served post-repair" "after" (String.sub (Block.to_string b) 0 5)
  | None -> Alcotest.fail "post-repair read failed");
  Alcotest.(check int) "home unchanged" 0 (Device.home d);
  Alcotest.(check int) "no failovers once home is back" failovers_during_outage
    ((Device.degradation d).failovers)

let test_retries_counted_separately () =
  (* Retries used to be folded into [requests]; now each device operation
     counts once, and extra probing shows up in [site_attempts]. *)
  let d = make_device () in
  let c = Device.cluster d in
  Cluster.fail_site c 0;
  ignore (Device.write_block d 2 (Block.of_string "x"));
  ignore (Device.read_block d 2);
  Alcotest.(check int) "one request per operation" 2 ((Device.degradation d).requests);
  Alcotest.(check bool) "site attempts exceed requests under failover" true
    ((Device.degradation d).site_attempts > (Device.degradation d).requests)

let test_total_failure_surfaces_error () =
  let d = make_device () in
  let c = Device.cluster d in
  for i = 0 to 2 do
    Cluster.fail_site c i
  done;
  Alcotest.(check bool) "read fails" true (Device.read_block d 0 = None);
  Alcotest.(check bool) "error reason recorded" true ((Device.degradation d).last_errors <> []);
  Alcotest.(check bool) "write fails" false (Device.write_block d 0 Block.zero)

let test_device_recovers_after_total_failure () =
  let d = make_device () in
  let c = Device.cluster d in
  assert (Device.write_block d 1 (Block.of_string "durable"));
  for i = 0 to 2 do
    Cluster.fail_site c i
  done;
  for i = 0 to 2 do
    Cluster.repair_site c i
  done;
  Cluster.run_until c (Sim.Engine.now (Cluster.engine c) +. 100.0);
  match Device.read_block d 1 with
  | Some b -> Alcotest.(check string) "durable" "durable" (String.sub (Block.to_string b) 0 7)
  | None -> Alcotest.fail "device did not recover"

let test_voting_device_under_partition () =
  (* A device over voting refuses on the minority side rather than serving
     stale data. *)
  let d = make_device ~scheme:Types.Voting ~n:5 () in
  let c = Device.cluster d in
  assert (Device.write_block d 0 (Block.of_string "pre"));
  Cluster.partition c [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  (* The device (homed in the minority) walks every site; the majority side
     is unreachable from the client's partition in reality, but the device
     models a client inside each partition as it rotates; what matters is
     that minority-side service refuses. *)
  match Cluster.write_sync c ~site:0 ~block:0 (Block.of_string "post") with
  | Error Types.No_quorum -> ()
  | _ -> Alcotest.fail "minority side accepted a write"

let test_request_counting () =
  let d = make_device () in
  ignore (Device.write_block d 0 Block.zero);
  ignore (Device.read_block d 0);
  Alcotest.(check bool) "requests counted" true ((Device.degradation d).requests >= 2)

let test_deadline_bounds_sync_retries () =
  (* Regression: under deadlines a sync op slept its backoff past its
     budget, issued another attempt past its deadline and was counted
     rejected.  With sites 1 and 2 down a voting read at site 0 cannot
     form a quorum and each attempt fails at once: the first at t = 0, the
     retry after one backoff unit (op_timeout) at t = 4.  The next retry
     would start at t = 12, past the t = 5 deadline, so the read must stop
     at t = 4 and count one timeout. *)
  let robustness = { Blockrep.Robustness.off with deadlines = true; op_budget = Some 5.0 } in
  let d =
    Device.of_config
      (Blockrep.Config.make_exn ~scheme:Types.Voting ~n_sites:3 ~n_blocks:8 ~seed:404 ~robustness ())
  in
  let c = Device.cluster d in
  Cluster.fail_site c 1;
  Cluster.fail_site c 2;
  Alcotest.(check bool) "read fails" true (Device.read_block d 0 = None);
  Alcotest.(check (float 1e-9)) "answers before its deadline" 4.0
    (Sim.Engine.now (Cluster.engine c));
  let deg = Device.degradation d in
  Alcotest.(check int) "one timeout" 1 deg.Device.timeouts;
  Alcotest.(check int) "nothing rejected" 0 deg.Device.rejected;
  Alcotest.(check int) "one retry, inside the budget" 1 deg.Device.retries;
  Alcotest.(check bool) "conserved" true (Device.degradation_conserved deg)

let test_ledger_counts_every_ending () =
  (* Sync and async requests count into one ledger, and every request ends
     exactly one way.  With sites 1 and 2 down a voting read at site 0
     fails at once on every attempt, so it sleeps the whole backoff
     schedule (4, 8, 16, 32, 64 with op_timeout 4) and gives up on its
     sixth attempt at t = 124.  Site 1 comes back at t = 130, during the
     next read's second backoff, so that read recovers on its third
     attempt, the one after that succeeds first try, and of
     two async reads the second finds the single admission slot taken. *)
  let robustness = { Blockrep.Robustness.off with admission = Some 1 } in
  let d =
    Device.of_config
      (Blockrep.Config.make_exn ~scheme:Types.Voting ~n_sites:3 ~n_blocks:8 ~seed:404 ~robustness ())
  in
  let c = Device.cluster d in
  let now () = Sim.Engine.now (Cluster.engine c) in
  Cluster.fail_site c 1;
  Cluster.fail_site c 2;
  Alcotest.(check bool) "read gives up" true (Device.read_block d 0 = None);
  Alcotest.(check (float 1e-9)) "after the whole schedule" 124.0 (now ());
  Alcotest.(check (list (float 1e-9)))
    "one error per failed attempt, newest first" [ 124.0; 60.0; 28.0; 12.0; 4.0; 0.0 ]
    (List.map fst (Device.degradation d).last_errors);
  ignore
    (Sim.Engine.schedule_at (Cluster.engine c) ~time:(now () +. 6.0) (fun () ->
         Cluster.repair_site c 1)
      : Sim.Engine.handle);
  Alcotest.(check bool) "read recovers" true (Device.read_block d 0 <> None);
  Alcotest.(check int) "on its third attempt" 7 (Device.degradation d).retries;
  Alcotest.(check bool) "read succeeds first try" true (Device.read_block d 0 <> None);
  let answers = ref [] in
  let answer r = answers := Result.is_ok r :: !answers in
  Device.read_block_async d 0 answer;
  Device.read_block_async d 0 answer;
  Alcotest.(check (list bool)) "second async read shed at once" [ false ] !answers;
  Cluster.settle c;
  Alcotest.(check (list bool)) "first async read served" [ true; false ] !answers;
  let g = Device.degradation d in
  Alcotest.(check (list int))
    "requests, site_attempts, retries, succeeded, recovered, gave_up, timeouts, shed"
    [ 5; 11; 7; 3; 1; 1; 0; 1 ]
    [ g.requests; g.site_attempts; g.retries; g.succeeded; g.recovered; g.gave_up; g.timeouts; g.shed ];
  Alcotest.(check bool) "conserved" true (Device.degradation_conserved g)

let () =
  Alcotest.run "device"
    [
      ( "reliable-device",
        [
          Alcotest.test_case "capacity" `Quick test_device_capacity;
          Alcotest.test_case "read/write" `Quick test_device_rw;
          Alcotest.test_case "read-your-writes" `Quick test_device_read_your_writes;
          Alcotest.test_case "bounds" `Quick test_device_bounds;
          Alcotest.test_case "survives total failure" `Quick test_device_recovers_after_total_failure;
          Alcotest.test_case "total failure surfaces error" `Quick test_total_failure_surfaces_error;
          Alcotest.test_case "voting device partition-safe" `Quick test_voting_device_under_partition;
        ] );
      ( "driver-stub",
        [
          Alcotest.test_case "read failover" `Quick test_read_failover;
          Alcotest.test_case "write failover" `Quick test_write_failover;
          Alcotest.test_case "home service resumes" `Quick test_home_service_resumes;
          Alcotest.test_case "retries counted separately" `Quick
            test_retries_counted_separately;
          Alcotest.test_case "request counting" `Quick test_request_counting;
          Alcotest.test_case "deadline bounds sync retries" `Quick
            test_deadline_bounds_sync_retries;
          Alcotest.test_case "ledger counts every ending" `Quick test_ledger_counts_every_ending;
        ] );
    ]
