(* Tests for the checking subsystem: recorded histories, the per-block
   one-copy oracle, quiescent invariant scans, and the seeded chaos
   harness — including the sweeps over each scheme's supported fault
   envelope and the demonstrations that stepping outside it (or weakening
   the quorum) is caught with a shrunken, replayable schedule. *)

module Chaos = Check.Chaos
module History = Check.History
module Oracle = Check.Oracle
module Invariant = Check.Invariant
module Types = Blockrep.Types
module Cluster = Blockrep.Cluster
module Block = Blockdev.Block

let block s = Block.of_string s

let codes violations = List.map (fun (v : Check.Violation.t) -> v.code) violations

(* ------------------------------------------------------------------ *)
(* Oracle on synthetic histories                                       *)
(* ------------------------------------------------------------------ *)

let write h ~t ~block:b ~v payload =
  History.record h ~kind:History.Write ~block:b ~site:0 ~invoked:t ~responded:(t +. 1.0)
    ~payload:(block payload) ~version:v ()

let read h ~t ~block:b ~v payload =
  History.record h ~kind:History.Read ~block:b ~site:0 ~invoked:t ~responded:(t +. 1.0)
    ~payload:(block payload) ~version:v ()

let test_oracle_clean () =
  let h = History.create () in
  read h ~t:0.0 ~block:0 ~v:0 "";
  write h ~t:2.0 ~block:0 ~v:1 "a";
  read h ~t:4.0 ~block:0 ~v:1 "a";
  write h ~t:6.0 ~block:0 ~v:2 "b";
  read h ~t:8.0 ~block:0 ~v:2 "b";
  read h ~t:10.0 ~block:1 ~v:0 "";
  Alcotest.(check (list string)) "clean history" [] (codes (Oracle.check h))

let test_oracle_stale_read () =
  let h = History.create () in
  write h ~t:0.0 ~block:3 ~v:1 "a";
  write h ~t:2.0 ~block:3 ~v:2 "b";
  read h ~t:4.0 ~block:3 ~v:1 "a";
  Alcotest.(check (list string)) "stale read caught" [ "stale-read" ] (codes (Oracle.check h))

let test_oracle_phantom_and_conflict () =
  let h = History.create () in
  write h ~t:0.0 ~block:0 ~v:1 "a";
  read h ~t:2.0 ~block:0 ~v:1 "z";
  (* never written *)
  read h ~t:4.0 ~block:0 ~v:2 "ghost";
  (* version above the floor, contents from nowhere *)
  Alcotest.(check (list string))
    "value conflict then phantom"
    [ "read-value-conflict"; "phantom-read" ]
    (codes (Oracle.check h))

let test_oracle_version_collision () =
  let h = History.create () in
  write h ~t:0.0 ~block:0 ~v:1 "a";
  write h ~t:2.0 ~block:0 ~v:1 "b";
  let cs = codes (Oracle.check h) in
  Alcotest.(check bool) "collision reported" true (List.mem "version-collision" cs);
  Alcotest.(check bool) "regression reported" true (List.mem "write-version-regression" cs)

let test_oracle_read_regression () =
  let h = History.create () in
  write h ~t:0.0 ~block:0 ~v:1 "a";
  (* a failed write: client saw an error, the register may have absorbed it *)
  History.record h ~kind:History.Write ~block:0 ~site:0 ~invoked:2.0 ~responded:3.0
    ~payload:(block "maybe") ~error:"timed-out" ();
  read h ~t:4.0 ~block:0 ~v:2 "maybe";
  (* once observed, it must stay observed *)
  read h ~t:6.0 ~block:0 ~v:1 "a";
  Alcotest.(check (list string)) "regression caught" [ "read-regression" ] (codes (Oracle.check h))

let test_oracle_failed_write_is_maybe () =
  let h = History.create () in
  write h ~t:0.0 ~block:0 ~v:1 "a";
  History.record h ~kind:History.Write ~block:0 ~site:1 ~invoked:2.0 ~responded:3.0
    ~payload:(block "maybe") ~error:"no-quorum" ();
  (* both futures are legal: the failed write surfaced ... *)
  let h2 = History.create () in
  write h2 ~t:0.0 ~block:0 ~v:1 "a";
  History.record h2 ~kind:History.Write ~block:0 ~site:1 ~invoked:2.0 ~responded:3.0
    ~payload:(block "maybe") ~error:"no-quorum" ();
  read h2 ~t:4.0 ~block:0 ~v:2 "maybe";
  Alcotest.(check (list string)) "absorbed" [] (codes (Oracle.check h2));
  (* ... or it vanished. *)
  read h ~t:4.0 ~block:0 ~v:1 "a";
  Alcotest.(check (list string)) "vanished" [] (codes (Oracle.check h))

let test_oracle_baseline () =
  let h = History.create () in
  read h ~t:0.0 ~block:0 ~v:7 "restored";
  Alcotest.(check bool) "baseline-less flags phantom" true (Oracle.check h <> []);
  let baseline = function 0 -> (7, block "restored") | _ -> (0, Block.zero) in
  Alcotest.(check (list string)) "baseline accepted" [] (codes (Oracle.check ~baseline h));
  (* reading below the baseline version is stale *)
  let h2 = History.create () in
  read h2 ~t:0.0 ~block:0 ~v:3 "old";
  Alcotest.(check bool) "below baseline is stale" true
    (List.mem "stale-read" (codes (Oracle.check ~baseline h2)))

let test_oracle_non_sequential () =
  let h = History.create () in
  History.record h ~kind:History.Write ~block:0 ~site:0 ~invoked:0.0 ~responded:10.0
    ~payload:(block "a") ~version:1 ();
  History.record h ~kind:History.Read ~block:0 ~site:0 ~invoked:5.0 ~responded:6.0
    ~payload:(block "a") ~version:1 ();
  Alcotest.(check bool) "overlap reported" true
    (List.mem "non-sequential-history" (codes (Oracle.check h)))

(* ------------------------------------------------------------------ *)
(* History instrumentation                                             *)
(* ------------------------------------------------------------------ *)

let test_history_attach () =
  let config = Blockrep.Config.make_exn ~scheme:Types.Naive_available_copy ~n_sites:3 ~n_blocks:4 () in
  let device = Blockrep.Reliable_device.of_config config in
  let h = History.create () in
  History.attach h device;
  Alcotest.(check bool) "write ok" true (Blockrep.Reliable_device.write_block device 1 (block "x"));
  Alcotest.(check bool) "read ok" true (Blockrep.Reliable_device.read_block device 1 <> None);
  let entries = History.entries h in
  Alcotest.(check int) "two logical ops" 2 (List.length entries);
  (match entries with
  | [ w; r ] ->
      Alcotest.(check bool) "write first" true (w.History.kind = History.Write);
      Alcotest.(check bool) "both ok" true (History.ok w && History.ok r);
      Alcotest.(check (option int)) "versions line up" w.History.version r.History.version;
      Alcotest.(check bool) "read after write" true (r.History.invoked >= w.History.responded)
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check (list string)) "history is consistent" [] (codes (Oracle.check h))

(* ------------------------------------------------------------------ *)
(* Invariant scans                                                     *)
(* ------------------------------------------------------------------ *)

let test_invariant_healthy () =
  List.iter
    (fun scheme ->
      let config = Blockrep.Config.make_exn ~scheme ~n_sites:3 ~n_blocks:4 () in
      let cluster = Cluster.create config in
      for b = 0 to 3 do
        match Cluster.write_sync cluster ~site:0 ~block:b (block (Printf.sprintf "b%d" b)) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "write refused: %s" (Types.failure_reason_to_string e)
      done;
      Cluster.settle cluster;
      Alcotest.(check (list string))
        (Types.scheme_to_string scheme ^ " healthy")
        [] (codes (Invariant.scan cluster)))
    [ Types.Voting; Types.Available_copy; Types.Naive_available_copy; Types.Dynamic_voting ]

let test_invariant_detects_divergence () =
  (* Plant a newer version at one site behind the protocol's back: every
     other available site is now stale, which the scan must flag. *)
  let config = Blockrep.Config.make_exn ~scheme:Types.Available_copy ~n_sites:3 ~n_blocks:4 () in
  let cluster = Cluster.create config in
  (match Cluster.write_sync cluster ~site:0 ~block:0 (block "legit") with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "write refused");
  Cluster.settle cluster;
  let rt = Cluster.runtime cluster in
  let s2 = Blockrep.Runtime.site rt 2 in
  (* Through the durable layer, so the planted copy carries a valid
     checksum — a raw store write would be quarantined and excused. *)
  Blockdev.Durable_store.write s2.durable 0 (block "planted") ~version:9;
  let cs = codes (Invariant.scan cluster) in
  Alcotest.(check bool) "stale copies flagged" true (List.mem "stale-available-copy" cs)

let test_invariant_voting_quorum_stale () =
  let config = Blockrep.Config.make_exn ~scheme:Types.Voting ~n_sites:3 ~n_blocks:2 () in
  let cluster = Cluster.create config in
  (match Cluster.write_sync cluster ~site:0 ~block:0 (block "v1") with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "write refused");
  Cluster.settle cluster;
  Alcotest.(check (list string)) "healthy quorum" [] (codes (Invariant.scan cluster));
  (* Push the newest version beyond what any up site knows. *)
  Cluster.fail_site cluster 0;
  let rt = Cluster.runtime cluster in
  let s0 = Blockrep.Runtime.site rt 0 in
  Blockdev.Durable_store.write s0.durable 0 (block "hidden") ~version:9;
  let cs = codes (Invariant.scan cluster) in
  Alcotest.(check (list string)) "stale quorum flagged" [ "quorum-stale" ] cs

(* ------------------------------------------------------------------ *)
(* Chaos harness                                                       *)
(* ------------------------------------------------------------------ *)

let with_family family env = { env with Chaos.families = family :: env.Chaos.families }

let test_schedule_roundtrip () =
  let env = with_family Chaos.Partitions (Chaos.default_env Types.Available_copy) in
  let schedule = Chaos.generate_schedule env in
  Alcotest.(check bool) "nonempty" true (schedule <> []);
  match Chaos.schedule_of_string (Chaos.schedule_to_string schedule) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok parsed ->
      Alcotest.(check int) "same length" (List.length schedule) (List.length parsed);
      List.iter2
        (fun (t1, e1) (t2, e2) ->
          (* times are serialized to 4 decimals; events must be exact *)
          Alcotest.(check (float 1e-4)) "time" t1 t2;
          Alcotest.(check bool) "event" true (e1 = e2))
        schedule parsed

let test_schedule_bad_input () =
  (match Chaos.schedule_of_string "@1.0 explode 3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense accepted");
  match Chaos.schedule_of_string "# comment\n\n@1.0 fail 2\n@2.0 heal" with
  | Ok [ (_, Chaos.Fault (Chaos.Fail 2)); (_, Chaos.Fault Chaos.Heal) ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "comment/blank handling"

let test_chaos_deterministic () =
  let env = Chaos.default_env ~seed:7 Types.Available_copy in
  let a = Chaos.run env and b = Chaos.run env in
  Alcotest.(check bool) "same schedule" true (a.Chaos.schedule = b.Chaos.schedule);
  Alcotest.(check int) "same ops ok" a.Chaos.ops_ok b.Chaos.ops_ok;
  Alcotest.(check int) "same faults" a.Chaos.faults_injected b.Chaos.faults_injected;
  Alcotest.(check int) "same history length" (History.length a.Chaos.history)
    (History.length b.Chaos.history);
  Alcotest.(check (float 0.0)) "same end time" a.Chaos.end_time b.Chaos.end_time

let sweep_clean scheme =
  let env = Chaos.default_env scheme in
  let sweep = Chaos.sweep ~shrink_failures:false env ~seeds:(List.init 100 (fun i -> i + 1)) in
  Alcotest.(check (list int))
    (Types.scheme_to_string scheme ^ " supported envelope clean")
    [] sweep.Chaos.failing;
  (* the sweep must actually have exercised the cluster *)
  let ops =
    List.fold_left (fun acc (s : Chaos.run_summary) -> acc + s.run_ops_ok) 0 sweep.Chaos.summaries
  in
  Alcotest.(check bool) "workload ran" true (ops > 5_000)

let test_sweep_voting () = sweep_clean Types.Voting
let test_sweep_ac () = sweep_clean Types.Available_copy
let test_sweep_nac () = sweep_clean Types.Naive_available_copy
let test_sweep_dynamic () = sweep_clean Types.Dynamic_voting

(* Storage-fault envelope: torn writes at crash boundaries, maskable
   bitrot and disk replacement on top of each scheme's supported failure
   envelope.  One-copy consistency must survive all of it — every
   quarantined copy gets healed from a peer before it can be served. *)
let media_sweep_clean scheme =
  let env = Chaos.media (Chaos.default_env scheme) in
  let sweep = Chaos.sweep ~shrink_failures:false env ~seeds:(List.init 6 (fun i -> i + 1)) in
  Alcotest.(check (list int))
    (Types.scheme_to_string scheme ^ " media envelope clean")
    [] sweep.Chaos.failing;
  (* the sweep must actually have injected storage faults *)
  let faults =
    List.fold_left
      (fun acc (s : Chaos.run_summary) -> acc + s.Chaos.run_storage_faults)
      0 sweep.Chaos.summaries
  in
  Alcotest.(check bool) "storage faults injected" true (faults > 0)

(* Media seeds beyond the sweep that once broke the envelope: on AC seed
   281 a peer read-repair raised a version regression because a newer
   write landed while its round was out; on dynamic voting seed 47 a write
   was numbered at the stored version of rotted voters' copies. *)
let test_media_regressions () =
  List.iter
    (fun (scheme, seed) ->
      let o = Chaos.run (Chaos.media (Chaos.default_env ~seed scheme)) in
      Alcotest.(check (list string))
        (Printf.sprintf "%s media seed %d" (Types.scheme_to_string scheme) seed)
        []
        (List.map (fun v -> v.Check.Violation.code) (Chaos.violations o)))
    [ (Types.Available_copy, 281); (Types.Dynamic_voting, 47) ]

let test_media_sweep_voting () = media_sweep_clean Types.Voting
let test_media_sweep_ac () = media_sweep_clean Types.Available_copy
let test_media_sweep_nac () = media_sweep_clean Types.Naive_available_copy
let test_media_sweep_dynamic () = media_sweep_clean Types.Dynamic_voting

let test_media_schedule_roundtrip () =
  let env = Chaos.media (Chaos.default_env Types.Available_copy) in
  let schedule = Chaos.generate_schedule env in
  let has p = List.exists (fun (_, e) -> p e) schedule in
  Alcotest.(check bool) "crash-torn events generated" true
    (has (function Chaos.Fault (Chaos.Crash_torn _) -> true | _ -> false));
  Alcotest.(check bool) "bitrot events generated" true
    (has (function Chaos.Fault (Chaos.Bitrot _) -> true | _ -> false));
  match Chaos.schedule_of_string (Chaos.schedule_to_string schedule) with
  | Error e -> Alcotest.failf "media roundtrip failed: %s" e
  | Ok parsed ->
      Alcotest.(check int) "same length" (List.length schedule) (List.length parsed);
      List.iter2
        (fun (t1, e1) (t2, e2) ->
          Alcotest.(check (float 1e-4)) "time" t1 t2;
          Alcotest.(check bool) "event" true (e1 = e2))
        schedule parsed

(* Hostile-bytes envelope: encoded frames with ambient byte damage on
   every link.  The hardened ingress must absorb all of it — zero
   violations, and the run itself fails with a wire-unconserved violation
   if any injected corruption went unaccounted for. *)
let wire_sweep_clean scheme =
  let env = Chaos.wire (Chaos.default_env scheme) in
  let sweep = Chaos.sweep ~shrink_failures:false env ~seeds:(List.init 6 (fun i -> i + 1)) in
  Alcotest.(check (list int))
    (Types.scheme_to_string scheme ^ " wire envelope clean")
    [] sweep.Chaos.failing

let test_wire_sweep_voting () = wire_sweep_clean Types.Voting
let test_wire_sweep_ac () = wire_sweep_clean Types.Available_copy
let test_wire_sweep_nac () = wire_sweep_clean Types.Naive_available_copy
let test_wire_sweep_dynamic () = wire_sweep_clean Types.Dynamic_voting

let test_wire_run_injects_and_conserves () =
  let env = Chaos.wire (Chaos.default_env ~seed:3 Types.Voting) in
  let cluster = Chaos.cluster_of_env env in
  let outcome = Chaos.run_against env ~cluster ~schedule:(Chaos.generate_schedule env) in
  Alcotest.(check bool) "clean" true (Chaos.passed outcome);
  Alcotest.(check bool) "corruption actually injected" true
    (Blockrep.Cluster.corrupted_deliveries cluster > 0);
  Alcotest.(check bool) "frames rejected" true (Blockrep.Cluster.frames_rejected cluster > 0);
  Alcotest.(check bool) "frames retransmitted" true
    (Blockrep.Cluster.frames_retransmitted cluster > 0);
  Alcotest.(check bool) "conserved" true (Blockrep.Cluster.corruption_conserved cluster)

let test_wire_corrupt_schedule_roundtrip () =
  let env = with_family Chaos.Corrupt_links (Chaos.wire (Chaos.default_env Types.Voting)) in
  let schedule = Chaos.generate_schedule env in
  let has p = List.exists (fun (_, e) -> p e) schedule in
  Alcotest.(check bool) "wire-corrupt events generated" true
    (has (function Chaos.Fault (Chaos.Wire_corrupt _) -> true | _ -> false));
  Alcotest.(check bool) "paired heals generated" true
    (has (function Chaos.Fault (Chaos.Wire_heal _) -> true | _ -> false));
  match Chaos.schedule_of_string (Chaos.schedule_to_string schedule) with
  | Error e -> Alcotest.failf "wire roundtrip failed: %s" e
  | Ok parsed ->
      Alcotest.(check int) "same length" (List.length schedule) (List.length parsed);
      List.iter2
        (fun (t1, e1) (t2, e2) ->
          Alcotest.(check (float 1e-4)) "time" t1 t2;
          Alcotest.(check bool) "event" true (e1 = e2))
        schedule parsed

let test_voting_window_caught () =
  (* Outside the envelope: voting under site failures must be caught by
     the oracle, and shrinking must keep the violation while dropping
     most of the schedule. *)
  let env = with_family Chaos.Failures (Chaos.default_env Types.Voting) in
  let sweep = Chaos.sweep env ~seeds:(List.init 40 (fun i -> i + 1)) in
  Alcotest.(check bool) "some seed caught" true (sweep.Chaos.failing <> []);
  match (sweep.Chaos.shrunk, sweep.Chaos.first_failure) with
  | Some (schedule, outcome), Some (_, original) ->
      Alcotest.(check bool) "still failing" true (Chaos.violations outcome <> []);
      Alcotest.(check bool) "shrunk" true
        (List.length schedule < List.length original.Chaos.schedule);
      (* the shrunken schedule replays to the same verdict *)
      let seed = (List.hd sweep.Chaos.failing : int) in
      let replay = Chaos.run ~schedule { env with Chaos.seed } in
      Alcotest.(check bool) "replay fails too" true (Chaos.violations replay <> [])
  | _ -> Alcotest.fail "no shrunken reproduction"

let test_weakened_quorum_caught () =
  let env =
    {
      (with_family Chaos.Failures (Chaos.default_env Types.Voting)) with
      Chaos.weaken_read = Some 1;
      weaken_write = Some 2;
    }
  in
  let sweep = Chaos.sweep ~shrink_failures:false env ~seeds:(List.init 40 (fun i -> i + 1)) in
  Alcotest.(check bool) "read quorum 1 caught" true (sweep.Chaos.failing <> [])

let test_drops_caught_or_survived () =
  (* Message drops are outside every envelope because updates are
     fire-and-forget; under heavy loss the oracle (not availability
     accounting) is what decides.  We only assert the harness runs and
     reaches a verdict on every seed — deterministically. *)
  let env =
    {
      (Chaos.default_env Types.Naive_available_copy) with
      Chaos.faults = Net.Faults.make_exn ~drop:0.3 ();
    }
  in
  let a = Chaos.sweep ~shrink_failures:false env ~seeds:[ 1; 2; 3; 4; 5 ] in
  let b = Chaos.sweep ~shrink_failures:false env ~seeds:[ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "deterministic verdict" a.Chaos.failing b.Chaos.failing;
  Alcotest.(check bool) "drops do break fire-and-forget NAC" true (a.Chaos.failing <> [])

(* ------------------------------------------------------------------ *)
(* Refactor oracle                                                     *)
(* ------------------------------------------------------------------ *)

(* One MD5 per scheme and envelope over seeds 1-25: every schedule's text,
   then every run's ops, injected faults, storage counters, end time and
   violation codes.  Recorded when each envelope was still a flat record
   of switches, rates and sizes; the family table and the composable
   layers must reproduce all of them seed for seed. *)
let envelope_digest (env : Chaos.env) =
  let schedules = Buffer.create 4096 and runs = Buffer.create 4096 in
  for seed = 1 to 25 do
    let env : Chaos.env = { env with seed } in
    let schedule = Chaos.generate_schedule env in
    Buffer.add_string schedules (Chaos.schedule_to_string schedule);
    Buffer.add_string schedules "\n--\n";
    let o = Chaos.run ~schedule env in
    let s = o.Chaos.storage in
    let open Blockdev.Durable_store in
    Printf.bprintf runs "%d %d %d %d|%d %d %d %d %d %d %d %d %d %d %d|%h|%s\n" o.Chaos.seed o.ops_ok
      o.ops_failed o.faults_injected s.torn_writes s.bitrot_injected s.refused_installs
      s.repaired_blocks s.scrub_runs s.scrub_replayed s.scrub_discarded s.scrub_quarantined
      s.scrub_meta_reset s.disk_replacements s.journal_commits o.end_time
      (String.concat "," (List.map (fun v -> v.Check.Violation.code) (Chaos.violations o)))
  done;
  Digest.to_hex (Digest.string (Buffer.contents schedules ^ Buffer.contents runs))

let oracle_case name layer pinned =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun (scheme, expected) ->
          Alcotest.(check string)
            (Types.scheme_to_string scheme ^ " seeds 1-25")
            expected
            (envelope_digest (layer (Chaos.default_env scheme))))
        pinned)

let oracle_cases =
  [
    oracle_case "base" Fun.id
      [
        (Types.Voting, "8262cf2cd3a2c0b72f4ba68873ba8da8");
        (Types.Available_copy, "9861057c654789fee8f8e73fb3859f84");
        (Types.Naive_available_copy, "b5b1132e79fc7e43f29c521a96104ee6");
        (Types.Dynamic_voting, "677969702f37cb738c2c015500693404");
      ];
    oracle_case "media" Chaos.media
      [
        (Types.Voting, "3d8d92f11c270defa91c860c91b04787");
        (Types.Available_copy, "fcb2fec9e61be42feb06998ab7da2b27");
        (Types.Naive_available_copy, "c2b50a67e1309a2448705480fe55cd56");
        (Types.Dynamic_voting, "82bf25a097da4c453bb1cb2da6f803db");
      ];
    oracle_case "overload" Chaos.overload
      [
        (Types.Voting, "e2c96772306f5c6b98b91300727fbe8a");
        (Types.Available_copy, "5080e223dc5fa8814500bc7dd2c1e80b");
        (Types.Naive_available_copy, "33156ffb6700164f8e37e8a8b9bf6501");
        (Types.Dynamic_voting, "86fa4594018d28b4cea5169b0b74ef0e");
      ];
    oracle_case "wire" Chaos.wire
      [
        (Types.Voting, "5b01741ed9a137a5eddb46b53a76e14f");
        (Types.Available_copy, "2faa82ef04c596364733a0a450c082d4");
        (Types.Naive_available_copy, "79c4ea389b323275082ceb2b261e4276");
        (Types.Dynamic_voting, "2ebb4f7a7e8f1b0dd64b3a5a01223f2a");
      ];
    oracle_case "wire with corruptor links"
      (fun env -> with_family Chaos.Corrupt_links (Chaos.wire env))
      [
        (Types.Voting, "d833b03596ddde1e6e9b78651f248fd9");
        (Types.Available_copy, "1df07fef70355d9a47bbbebcee52d135");
        (Types.Naive_available_copy, "5f3ccf4bf612f6b3e77c677a6f02276c");
        (Types.Dynamic_voting, "e27c5447a81d2b28adcc4138e43f72a6");
      ];
  ]

(* ------------------------------------------------------------------ *)
(* Checkpoint round trip under chaos                                   *)
(* ------------------------------------------------------------------ *)

let prop_checkpoint_roundtrip =
  QCheck.Test.make ~name:"chaos -> checkpoint -> restore -> chaos stays consistent" ~count:8
    QCheck.(int_range 1 500)
    (fun seed ->
      let env = { (Chaos.default_env ~seed Types.Available_copy) with Chaos.ops = 60 } in
      (* Phase 1 ends quiescent and fully repaired (run_against settles and
         repairs before its final scans). *)
      let cluster = Chaos.cluster_of_env env in
      let phase1 = Chaos.run_against env ~cluster ~schedule:(Chaos.generate_schedule env) in
      if Chaos.violations phase1 <> [] then
        QCheck.Test.fail_reportf "phase 1 violated its own envelope (seed %d)" seed;
      let path = Filename.temp_file "blockrep" ".ckpt" in
      let ( let* ) = Result.bind in
      let result =
        let* () = Blockrep.Checkpoint.save cluster path in
        let fresh = Chaos.cluster_of_env env in
        let* () = Blockrep.Checkpoint.restore fresh path in
        Ok fresh
      in
      Sys.remove path;
      match result with
      | Error e -> QCheck.Test.fail_reportf "checkpoint failed: %s" e
      | Ok fresh ->
          (* Resume different chaos on the restored cluster; the oracle's
             baseline comes from the restored stores. *)
          let env2 = { env with Chaos.seed = seed + 1000 } in
          let phase2 =
            Chaos.run_against env2 ~cluster:fresh ~schedule:(Chaos.generate_schedule env2)
          in
          (match Chaos.violations phase2 with
          | [] -> ()
          | v :: _ ->
              QCheck.Test.fail_reportf "after restore (seed %d): %s" seed
                (Check.Violation.to_string v));
          true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "check"
    [
      ( "oracle",
        [
          Alcotest.test_case "clean history" `Quick test_oracle_clean;
          Alcotest.test_case "stale read" `Quick test_oracle_stale_read;
          Alcotest.test_case "phantom + conflict" `Quick test_oracle_phantom_and_conflict;
          Alcotest.test_case "version collision" `Quick test_oracle_version_collision;
          Alcotest.test_case "read regression" `Quick test_oracle_read_regression;
          Alcotest.test_case "failed write is maybe" `Quick test_oracle_failed_write_is_maybe;
          Alcotest.test_case "baseline" `Quick test_oracle_baseline;
          Alcotest.test_case "non-sequential" `Quick test_oracle_non_sequential;
        ] );
      ("history", [ Alcotest.test_case "attach stub" `Quick test_history_attach ]);
      ( "invariants",
        [
          Alcotest.test_case "healthy clusters" `Quick test_invariant_healthy;
          Alcotest.test_case "planted divergence" `Quick test_invariant_detects_divergence;
          Alcotest.test_case "voting quorum stale" `Quick test_invariant_voting_quorum_stale;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "schedule roundtrip" `Quick test_schedule_roundtrip;
          Alcotest.test_case "schedule bad input" `Quick test_schedule_bad_input;
          Alcotest.test_case "deterministic" `Quick test_chaos_deterministic;
          Alcotest.test_case "sweep voting" `Slow test_sweep_voting;
          Alcotest.test_case "sweep available-copy" `Slow test_sweep_ac;
          Alcotest.test_case "sweep naive" `Slow test_sweep_nac;
          Alcotest.test_case "sweep dynamic" `Slow test_sweep_dynamic;
          Alcotest.test_case "media schedule roundtrip" `Quick test_media_schedule_roundtrip;
          Alcotest.test_case "media sweep voting" `Slow test_media_sweep_voting;
          Alcotest.test_case "media sweep available-copy" `Slow test_media_sweep_ac;
          Alcotest.test_case "media sweep naive" `Slow test_media_sweep_nac;
          Alcotest.test_case "media sweep dynamic" `Slow test_media_sweep_dynamic;
          Alcotest.test_case "media regressions" `Quick test_media_regressions;
          Alcotest.test_case "wire schedule roundtrip" `Quick test_wire_corrupt_schedule_roundtrip;
          Alcotest.test_case "wire run injects and conserves" `Quick
            test_wire_run_injects_and_conserves;
          Alcotest.test_case "wire sweep voting" `Slow test_wire_sweep_voting;
          Alcotest.test_case "wire sweep available-copy" `Slow test_wire_sweep_ac;
          Alcotest.test_case "wire sweep naive" `Slow test_wire_sweep_nac;
          Alcotest.test_case "wire sweep dynamic" `Slow test_wire_sweep_dynamic;
          Alcotest.test_case "voting window caught" `Slow test_voting_window_caught;
          Alcotest.test_case "weakened quorum caught" `Slow test_weakened_quorum_caught;
          Alcotest.test_case "drops break NAC" `Quick test_drops_caught_or_survived;
        ] );
      ("refactor", oracle_cases);
      ("checkpoint", [ QCheck_alcotest.to_alcotest prop_checkpoint_roundtrip ]);
    ]
