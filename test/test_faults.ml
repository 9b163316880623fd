(* Tests for the fault-injection layer (Net.Faults), the bounded-retry
   layer (Blockrep.Retry) and their end-to-end composition: a reliable
   device that keeps serving — and reports its degradation — on a lossy
   network. *)

module Faults = Net.Faults
module Retry = Blockrep.Retry
module Cluster = Blockrep.Cluster
module Runtime = Blockrep.Runtime
module Config = Blockrep.Config
module Types = Blockrep.Types
module Device = Blockrep.Reliable_device
module Block = Blockdev.Block

(* ------------------------------------------------------------------ *)
(* Profiles                                                            *)
(* ------------------------------------------------------------------ *)

let test_profile_validation () =
  Alcotest.(check bool) "pristine is pristine" true (Faults.is_pristine Faults.pristine);
  (match Faults.make ~drop:0.1 ~duplicate:0.05 () with
  | Ok p -> Alcotest.(check bool) "valid profile not pristine" false (Faults.is_pristine p)
  | Error e -> Alcotest.failf "valid profile rejected: %s" e);
  (match Faults.make ~drop:1.5 () with
  | Ok _ -> Alcotest.fail "drop > 1 accepted"
  | Error _ -> ());
  (match Faults.make ~duplicate:(-0.1) () with
  | Ok _ -> Alcotest.fail "negative probability accepted"
  | Error _ -> ());
  (match Faults.make ~extra_delay:(-1.0) () with
  | Ok _ -> Alcotest.fail "negative delay accepted"
  | Error _ -> ());
  match Faults.make ~reorder:0.5 ~jitter:(Util.Dist.Constant (-2.0)) () with
  | Ok _ -> Alcotest.fail "negative jitter accepted"
  | Error _ -> ()

let test_plan_pristine_is_clean () =
  let f = Faults.of_seed ~seed:1 Faults.pristine in
  for _ = 1 to 100 do
    Alcotest.(check (list (float 0.0))) "one undisturbed copy" [ 0.0 ]
      (Faults.plan f ~from:0 ~dst:1)
  done;
  Alcotest.(check int) "nothing injected" 0 (Faults.total_injected f)

let test_plan_drop_all () =
  let f = Faults.of_seed ~seed:2 (Faults.make_exn ~drop:1.0 ()) in
  for _ = 1 to 10 do
    Alcotest.(check (list (float 0.0))) "dropped" [] (Faults.plan f ~from:0 ~dst:1)
  done;
  Alcotest.(check int) "drops counted" 10 (Faults.drops f)

let test_plan_duplicate_all () =
  let f = Faults.of_seed ~seed:3 (Faults.make_exn ~duplicate:1.0 ()) in
  List.iter
    (fun d -> Alcotest.(check (float 0.0)) "no extra delay" 0.0 d)
    (Faults.plan f ~from:0 ~dst:1);
  Alcotest.(check int) "two copies" 2 (List.length (Faults.plan f ~from:0 ~dst:1));
  Alcotest.(check int) "duplicates counted" 2 (Faults.duplicates f)

let test_plan_extra_delay () =
  let f = Faults.of_seed ~seed:4 (Faults.make_exn ~extra_delay:0.5 ()) in
  Alcotest.(check (list (float 1e-9))) "deterministic extra delay" [ 0.5 ]
    (Faults.plan f ~from:0 ~dst:1);
  Alcotest.(check int) "delayed counted" 1 (Faults.delayed f)

let test_plan_reorder_jitter () =
  let f =
    Faults.of_seed ~seed:5 (Faults.make_exn ~reorder:1.0 ~jitter:(Util.Dist.Constant 2.0) ())
  in
  (* Every delivery takes the base jitter draw; a reorder defers it by a
     second, independent draw on top.  Constant 2.0 makes both exact. *)
  Alcotest.(check (list (float 1e-9))) "jitter added" [ 4.0 ] (Faults.plan f ~from:0 ~dst:1);
  Alcotest.(check int) "reorders counted" 1 (Faults.reorders f);
  Alcotest.(check int) "jitter counted" 1 (Faults.jittered f)

let test_plan_jitter_only () =
  (* Regression: a jitter-only profile used to be classified pristine
     (is_pristine ignored the jitter field), so it injected nothing. *)
  let p = Faults.make_exn ~jitter:(Util.Dist.Constant 2.0) () in
  Alcotest.(check bool) "jitter-only profile is not pristine" false (Faults.is_pristine p);
  let f = Faults.of_seed ~seed:5 p in
  Alcotest.(check (list (float 1e-9))) "delivery delayed by the draw" [ 2.0 ]
    (Faults.plan f ~from:0 ~dst:1);
  Alcotest.(check int) "jitter counted" 1 (Faults.jittered f);
  Alcotest.(check int) "no reorder charged" 0 (Faults.reorders f)

let test_per_link_override () =
  let f = Faults.of_seed ~seed:6 Faults.pristine in
  let lossy = Faults.make_exn ~drop:1.0 () in
  Faults.set_link f ~from:0 ~dst:1 lossy;
  Alcotest.(check bool) "override applies" true
    (Faults.link_profile f ~from:0 ~dst:1 = lossy);
  Alcotest.(check bool) "other links keep the default" true
    (Faults.is_pristine (Faults.link_profile f ~from:1 ~dst:0));
  Alcotest.(check (list (float 0.0))) "overridden link drops" [] (Faults.plan f ~from:0 ~dst:1);
  Alcotest.(check (list (float 0.0))) "default link clean" [ 0.0 ] (Faults.plan f ~from:1 ~dst:0);
  Faults.reset_counters f;
  Alcotest.(check int) "counters reset" 0 (Faults.total_injected f)

(* ------------------------------------------------------------------ *)
(* Network-level behaviour                                             *)
(* ------------------------------------------------------------------ *)

let make_cluster ?(scheme = Types.Naive_available_copy) ?(n = 3) ?fault_profile () =
  Cluster.create (Config.make_exn ~scheme ~n_sites:n ~n_blocks:8 ~seed:909 ?fault_profile ())

let settle c = Cluster.run_until c (Sim.Engine.now (Cluster.engine c) +. 50.0)

let test_network_drop_all_starves_receivers () =
  let c = make_cluster () in
  settle c;
  let f = Faults.of_seed ~seed:7 (Faults.make_exn ~drop:1.0 ()) in
  Cluster.install_faults c f;
  let net = Cluster.network c in
  let sent0 = Net.Traffic.total (Cluster.traffic c) in
  let delivered0 = Runtime.Transport.messages_delivered net in
  ignore (Cluster.write_sync c ~site:0 ~block:0 (Block.of_string "lost"));
  settle c;
  Alcotest.(check bool) "sends still charged" true (Net.Traffic.total (Cluster.traffic c) > sent0);
  Alcotest.(check int) "nothing delivered" delivered0 (Runtime.Transport.messages_delivered net);
  Alcotest.(check bool) "drops recorded" true (Faults.drops f > 0)

let test_network_duplicates_deliver_twice () =
  let c = make_cluster () in
  settle c;
  let f = Faults.of_seed ~seed:8 (Faults.make_exn ~duplicate:1.0 ()) in
  Cluster.install_faults c f;
  let net = Cluster.network c in
  let delivered0 = Runtime.Transport.messages_delivered net in
  (* NAC write: one broadcast, n-1 = 2 receivers, each delivery doubled. *)
  ignore (Cluster.write_sync c ~site:0 ~block:1 (Block.of_string "twice"));
  settle c;
  Alcotest.(check int) "each receiver sees two copies" 4
    (Runtime.Transport.messages_delivered net - delivered0);
  Alcotest.(check int) "duplicates recorded" 2 (Faults.duplicates f)

let test_network_jitter_only_perturbs_delivery () =
  (* End-to-end regression for the is_pristine fix: a jitter-only profile
     must actually slow deliveries down.  Two identical clusters run the
     same voting write (its vote round waits on real round trips, unlike
     the fire-and-forget copy-scheme update); the jittered one finishes
     strictly later in virtual time — Constant 2.0 adds exactly 2.0 per
     delivery, so the slowest vote round trip gains at least 2.0. *)
  let finish_time fault_profile =
    let c = make_cluster ~scheme:Types.Voting ?fault_profile () in
    settle c;
    let t0 = Sim.Engine.now (Cluster.engine c) in
    ignore (Cluster.write_sync c ~site:0 ~block:0 (Block.of_string "slow"));
    Sim.Engine.now (Cluster.engine c) -. t0
  in
  let clean = finish_time None in
  let jittered = finish_time (Some (Faults.make_exn ~jitter:(Util.Dist.Constant 2.0) ())) in
  Alcotest.(check bool)
    (Printf.sprintf "jitter-only profile delays the round (%.3f vs %.3f)" jittered clean)
    true
    (jittered >= clean +. 2.0)

let test_config_fault_profile_installs_injector () =
  let c = make_cluster ~fault_profile:(Faults.make_exn ~drop:0.5 ()) () in
  (match Cluster.faults c with
  | Some _ -> ()
  | None -> Alcotest.fail "non-pristine profile must install an injector");
  let pristine = make_cluster () in
  match Cluster.faults pristine with
  | None -> ()
  | Some _ -> Alcotest.fail "pristine config must not install an injector"

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)
(* ------------------------------------------------------------------ *)

let test_backoff_schedule () =
  let p = Retry.default_policy ~unit:1.0 () in
  Alcotest.(check (float 1e-9)) "first backoff" 1.0 (Retry.backoff p ~attempt:1);
  Alcotest.(check (float 1e-9)) "doubles" 2.0 (Retry.backoff p ~attempt:2);
  Alcotest.(check (float 1e-9)) "keeps doubling" 8.0 (Retry.backoff p ~attempt:4);
  Alcotest.(check (float 1e-9)) "caps at 16 units" 16.0 (Retry.backoff p ~attempt:7);
  (match Retry.validate Retry.no_retry with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "no_retry invalid: %s" e);
  match Retry.validate { p with max_attempts = 0 } with
  | Ok _ -> Alcotest.fail "zero attempts accepted"
  | Error _ -> ()

let test_jitter_bounds () =
  let p = { (Retry.default_policy ~unit:1.0 ()) with jitter = Retry.Decorrelated } in
  let rng = Random.State.make [| 42 |] in
  (* Seed of the chain: previous delay = base_delay. *)
  let d1 = Retry.backoff_jittered p ~rng ~prev:p.Retry.base_delay in
  Alcotest.(check bool) "first draw >= base" true (d1 >= p.Retry.base_delay);
  Alcotest.(check bool) "first draw <= 3*base" true (d1 <= 3.0 *. p.Retry.base_delay);
  (* A huge previous delay is clamped to the policy envelope. *)
  let d2 = Retry.backoff_jittered p ~rng ~prev:1_000_000.0 in
  Alcotest.(check bool) "clamped below max" true (d2 <= p.Retry.max_delay);
  (* A degenerate previous delay still respects the floor. *)
  let d3 = Retry.backoff_jittered p ~rng ~prev:0.0 in
  Alcotest.(check (float 1e-9)) "floor when prev collapses" p.Retry.base_delay d3

let prop_jitter_preserves_bounds =
  (* The decorrelated-jitter satellite's contract: whatever the rng draws
     and wherever the chain has wandered, every delay stays within the
     policy's [base_delay, max_delay] envelope. *)
  QCheck.Test.make ~name:"decorrelated jitter stays within [base_delay, max_delay]" ~count:500
    QCheck.(pair (int_range 0 10_000) (float_bound_exclusive 200.0))
    (fun (seed, prev) ->
      let p = { (Retry.default_policy ~unit:1.0 ()) with jitter = Retry.Decorrelated } in
      let rng = Random.State.make [| seed |] in
      let d = Retry.backoff_jittered p ~rng ~prev in
      d >= p.Retry.base_delay && d <= p.Retry.max_delay)

let test_jitter_chain_in_run () =
  (* A failing operation under Decorrelated jitter: the slept virtual time
     is bounded by the same envelope, per retry, and the run is
     deterministic in the rng seed. *)
  let total_slept seed =
    let engine = Sim.Engine.create () in
    let stats = Retry.create_stats () in
    let p =
      { (Retry.default_policy ~unit:1.0 ()) with Retry.jitter = Retry.Decorrelated }
    in
    let rng = Random.State.make [| seed |] in
    ignore (Retry.run p ~engine ~stats ~rng (fun ~attempt:_ -> Error Types.No_quorum));
    (Retry.attempts stats, Sim.Engine.now engine)
  in
  let attempts, slept = total_slept 7 in
  let retries = attempts - 1 in
  Alcotest.(check bool) "at least base per retry" true (slept >= float_of_int retries *. 1.0);
  Alcotest.(check bool) "at most max per retry" true (slept <= float_of_int retries *. 16.0);
  let _, slept' = total_slept 7 in
  Alcotest.(check (float 1e-9)) "deterministic in the seed" slept slept'

let test_jitter_off_is_bit_identical () =
  (* Default-off: passing an rng without opting into Decorrelated jitter
     must not perturb the deterministic schedule. *)
  let run_with rng =
    let engine = Sim.Engine.create () in
    let stats = Retry.create_stats () in
    let p = Retry.default_policy ~unit:1.0 () in
    ignore
      (Retry.run p ~engine ~stats ?rng (fun ~attempt ->
           if attempt < 3 then Error Types.No_quorum else Ok ()));
    Sim.Engine.now engine
  in
  Alcotest.(check (float 1e-9))
    "No_jitter ignores the rng" (run_with None)
    (run_with (Some (Random.State.make [| 99 |])))

let test_retry_recovers_and_advances_time () =
  let engine = Sim.Engine.create () in
  let stats = Retry.create_stats () in
  let p = Retry.default_policy ~unit:1.0 () in
  let calls = ref 0 in
  let result =
    Retry.run p ~engine ~stats (fun ~attempt ->
        incr calls;
        if attempt < 3 then Error Types.No_quorum else Ok "served")
  in
  Alcotest.(check bool) "eventually succeeds" true (result = Ok "served");
  Alcotest.(check int) "three calls" 3 !calls;
  Alcotest.(check int) "operations" 1 (Retry.operations stats);
  Alcotest.(check int) "attempts" 3 (Retry.attempts stats);
  Alcotest.(check int) "retries" 2 (Retry.retries stats);
  Alcotest.(check int) "recovered" 1 (Retry.recovered stats);
  Alcotest.(check int) "no give-ups" 0 (Retry.gave_up stats);
  (* Backoffs 1 and 2 were slept in virtual time. *)
  Alcotest.(check (float 1e-9)) "virtual time advanced" 3.0 (Sim.Engine.now engine);
  Alcotest.(check int) "both errors remembered" 2 (List.length (Retry.last_errors stats))

let test_retry_gives_up () =
  let engine = Sim.Engine.create () in
  let stats = Retry.create_stats () in
  let p = { (Retry.default_policy ~unit:1.0 ()) with max_attempts = 3 } in
  let result = Retry.run p ~engine ~stats (fun ~attempt:_ -> Error Types.Timed_out) in
  Alcotest.(check bool) "last error surfaced" true (result = Error Types.Timed_out);
  Alcotest.(check int) "all attempts used" 3 (Retry.attempts stats);
  Alcotest.(check int) "gave up once" 1 (Retry.gave_up stats);
  Alcotest.(check int) "no timeout counted" 0 (Retry.timeouts stats)

let test_retry_deadline () =
  let engine = Sim.Engine.create () in
  let stats = Retry.create_stats () in
  let p =
    {
      Retry.max_attempts = 10;
      base_delay = 10.0;
      multiplier = 2.0;
      max_delay = 80.0;
      deadline = 5.0;
      jitter = Retry.No_jitter;
    }
  in
  let result = Retry.run p ~engine ~stats (fun ~attempt:_ -> Error Types.No_quorum) in
  Alcotest.(check bool) "error surfaced" true (result = Error Types.No_quorum);
  Alcotest.(check int) "stopped by deadline, not attempts" 1 (Retry.attempts stats);
  Alcotest.(check int) "timeout counted" 1 (Retry.timeouts stats);
  Alcotest.(check int) "not a give-up" 0 (Retry.gave_up stats)

let test_retry_respects_retryable_predicate () =
  let engine = Sim.Engine.create () in
  let stats = Retry.create_stats () in
  let p = Retry.default_policy ~unit:1.0 () in
  let calls = ref 0 in
  let result =
    Retry.run p ~engine ~stats
      ~retryable:(fun r -> r <> Types.Site_not_available)
      (fun ~attempt:_ ->
        incr calls;
        Error Types.Site_not_available)
  in
  Alcotest.(check bool) "error surfaced" true (result = Error Types.Site_not_available);
  Alcotest.(check int) "no retry on non-retryable error" 1 !calls;
  Alcotest.(check int) "no retries counted" 0 (Retry.retries stats)

let test_retry_invalid_bounds () =
  let p = Retry.default_policy ~unit:1.0 () in
  let reject label bad =
    match Retry.validate bad with
    | Ok _ -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  reject "zero attempts" { p with max_attempts = 0 };
  reject "negative attempts" { p with max_attempts = -3 };
  reject "zero deadline" { p with deadline = 0.0 };
  reject "negative deadline" { p with deadline = -1.0 };
  reject "negative base delay" { p with base_delay = -0.5 };
  reject "shrinking multiplier" { p with multiplier = 0.5 };
  reject "max below base" { p with base_delay = 4.0; max_delay = 1.0 };
  (* ...and run refuses to start on an invalid policy. *)
  let engine = Sim.Engine.create () in
  let stats = Retry.create_stats () in
  match
    Retry.run { p with max_attempts = 0 } ~engine ~stats (fun ~attempt:_ -> Ok ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "run accepted an invalid policy"

let test_retry_conservation () =
  (* Every operation submitted must terminate in exactly one of the four
     ways the counters distinguish, whatever mix of outcomes occurs. *)
  let engine = Sim.Engine.create () in
  let stats = Retry.create_stats () in
  let p = { (Retry.default_policy ~unit:1.0 ()) with max_attempts = 2 } in
  (* success on first try *)
  ignore (Retry.run p ~engine ~stats (fun ~attempt:_ -> Ok ()));
  (* recovery on second try *)
  ignore
    (Retry.run p ~engine ~stats (fun ~attempt ->
         if attempt = 1 then Error Types.No_quorum else Ok ()));
  (* exhausts attempts *)
  ignore (Retry.run p ~engine ~stats (fun ~attempt:_ -> Error Types.No_quorum));
  (* rejected by the retryable predicate *)
  ignore
    (Retry.run p ~engine ~stats
       ~retryable:(fun _ -> false)
       (fun ~attempt:_ -> Error Types.Site_not_available));
  (* stopped by the deadline before the first retry *)
  let tight = { p with max_attempts = 10; base_delay = 10.0; deadline = 5.0 } in
  ignore (Retry.run tight ~engine ~stats (fun ~attempt:_ -> Error Types.Timed_out));
  Alcotest.(check int) "operations" 5 (Retry.operations stats);
  Alcotest.(check int) "succeeded" 2 (Retry.succeeded stats);
  Alcotest.(check int) "recovered" 1 (Retry.recovered stats);
  Alcotest.(check int) "gave up" 1 (Retry.gave_up stats);
  Alcotest.(check int) "rejected" 1 (Retry.rejected stats);
  Alcotest.(check int) "timeouts" 1 (Retry.timeouts stats);
  Alcotest.(check bool) "conserved" true (Retry.conserved stats)

let test_no_retry_is_fail_fast () =
  let engine = Sim.Engine.create () in
  let stats = Retry.create_stats () in
  let calls = ref 0 in
  ignore
    (Retry.run Retry.no_retry ~engine ~stats (fun ~attempt:_ ->
         incr calls;
         Error Types.No_quorum));
  Alcotest.(check int) "exactly one attempt" 1 !calls;
  Alcotest.(check (float 0.0)) "no virtual time consumed" 0.0 (Sim.Engine.now engine)

(* ------------------------------------------------------------------ *)
(* End to end: MCV on a lossy network                                  *)
(* ------------------------------------------------------------------ *)

let test_voting_survives_message_loss () =
  (* The acceptance scenario: a majority-consensus-voting device on a
     network that drops a tenth of all deliveries.  Every read and write
     must still complete — via retries — and the degradation report must
     show nonzero retry and fault-injection counters. *)
  let config =
    Config.make_exn ~scheme:Types.Voting ~n_sites:3 ~n_blocks:8 ~seed:1234
      ~fault_profile:(Faults.make_exn ~drop:0.1 ()) ()
  in
  let d = Device.of_config config in
  let ops = 20 in
  for i = 0 to ops - 1 do
    let tag = Printf.sprintf "op%02d" i in
    Alcotest.(check bool) (tag ^ " write completes") true
      (Device.write_block d (i mod 8) (Block.of_string tag));
    match Device.read_block d (i mod 8) with
    | Some b ->
        Alcotest.(check string) (tag ^ " read completes") tag
          (String.sub (Block.to_string b) 0 (String.length tag))
    | None -> Alcotest.failf "%s read failed: device gave up under drops" tag
  done;
  let deg = Device.degradation d in
  Alcotest.(check int) "every operation counted" (2 * ops) deg.Device.requests;
  Alcotest.(check bool) "faults were injected" true (deg.Device.faults_injected > 0);
  Alcotest.(check bool) "retries were needed" true (deg.Device.retries > 0);
  Alcotest.(check bool) "retried operations recovered" true (deg.Device.recovered > 0);
  Alcotest.(check int) "nothing abandoned" 0 (deg.Device.gave_up + deg.Device.timeouts);
  Alcotest.(check bool) "recent errors recorded" true (List.length deg.Device.last_errors > 0)

let test_degradation_all_zero_when_healthy () =
  let d =
    Device.of_config (Config.make_exn ~scheme:Types.Voting ~n_sites:3 ~n_blocks:8 ~seed:77 ())
  in
  assert (Device.write_block d 0 (Block.of_string "calm"));
  ignore (Device.read_block d 0);
  let deg = Device.degradation d in
  Alcotest.(check int) "requests" 2 deg.Device.requests;
  Alcotest.(check int) "no failovers" 0 deg.Device.failovers;
  Alcotest.(check int) "no retries" 0 deg.Device.retries;
  Alcotest.(check int) "no faults" 0 deg.Device.faults_injected;
  Alcotest.(check int) "no errors" 0 (List.length deg.Device.last_errors)

let test_degradation_report_renders () =
  let config =
    Config.make_exn ~scheme:Types.Voting ~n_sites:3 ~n_blocks:8 ~seed:4321
      ~fault_profile:(Faults.make_exn ~drop:0.15 ()) ()
  in
  let d = Device.of_config config in
  for i = 0 to 9 do
    ignore (Device.write_block d (i mod 8) (Block.of_string "r"))
  done;
  let row = Report.Degradation.collect ~label:"mcv drop=0.15" d in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Report.Degradation.print ppf ~errors:true [ row ];
  Format.pp_print_flush ppf ();
  let rendered = Buffer.contents buf in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "table mentions the label" true (contains "mcv drop=0.15" rendered);
  Alcotest.(check bool) "csv has a row per device" true
    (List.length (Report.Degradation.csv_rows [ row ]) >= 2)

(* ------------------------------------------------------------------ *)
(* Byte-level wire corruption                                          *)
(* ------------------------------------------------------------------ *)

let corruption_only = { Faults.no_corruption with Faults.bit_flip = 0.2 }

let test_corruption_validation () =
  (* The PR-6 regression class: every new fault knob must be covered by
     is_pristine, or a profile carrying only that knob silently no-ops
     pristine fast paths. *)
  Alcotest.(check bool) "corruption-only profile is NOT pristine" false
    (Faults.is_pristine (Faults.make_exn ~corruption:corruption_only ()));
  Alcotest.(check bool) "persistent corruptor is NOT pristine" false
    (Faults.is_pristine Faults.persistent_corruptor);
  (match Faults.make ~corruption:{ Faults.no_corruption with Faults.bit_flip = 1.5 } () with
  | Ok _ -> Alcotest.fail "bit_flip > 1 accepted"
  | Error _ -> ());
  match Faults.make ~corruption:{ Faults.no_corruption with Faults.splice = -0.1 } () with
  | Ok _ -> Alcotest.fail "negative splice accepted"
  | Error _ -> ()

let test_corrupt_bytes () =
  let f = Faults.of_seed ~seed:11 Faults.pristine in
  let frame = Bytes.of_string "pristine frame" in
  let out, mutated = Faults.corrupt f ~from:0 ~dst:1 frame in
  Alcotest.(check bool) "trivial corruption returns the input" true (out == frame);
  Alcotest.(check bool) "not mutated" false mutated;
  Alcotest.(check int) "nothing counted" 0 (Faults.total_injected f);
  let g = Faults.of_seed ~seed:11 Faults.persistent_corruptor in
  let out, mutated = Faults.corrupt g ~from:0 ~dst:1 frame in
  Alcotest.(check bool) "bit flip mutated the copy" true mutated;
  Alcotest.(check bool) "input buffer untouched" true (Bytes.to_string frame = "pristine frame");
  Alcotest.(check int) "same length under a flip" (Bytes.length frame) (Bytes.length out);
  Alcotest.(check int) "one bit differs" 1
    (let diff = ref 0 in
     Bytes.iteri
       (fun i c ->
         let x = Char.code c lxor Char.code (Bytes.get out i) in
         diff := !diff + (let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in pop x))
       frame;
     !diff);
  Alcotest.(check int) "flip counted" 1 (Faults.bit_flips g);
  Alcotest.(check int) "delivery counted once" 1 (Faults.corrupted_deliveries g)

let test_ambient_corruption_device_recovers () =
  (* Ambient byte damage on every link: the hardened ingress (reject +
     bounded redelivery) must keep every operation succeeding, and the
     conservation identities must hold. *)
  let config =
    Config.make_exn ~scheme:Types.Voting ~n_sites:3 ~n_blocks:8 ~seed:777
      ~fault_profile:
        (Faults.make_exn
           ~corruption:
             {
               Faults.bit_flip = 0.05;
               truncate = 0.02;
               garbage_prefix = 0.02;
               garbage_suffix = 0.02;
               splice = 0.02;
             }
           ())
      ()
  in
  let d = Device.of_config config in
  for i = 0 to 19 do
    let tag = Printf.sprintf "wc%02d" i in
    Alcotest.(check bool) (tag ^ " write survives corruption") true
      (Device.write_block d (i mod 8) (Block.of_string tag));
    match Device.read_block d (i mod 8) with
    | Some b ->
        Alcotest.(check string) (tag ^ " read survives corruption") tag
          (String.sub (Block.to_string b) 0 (String.length tag))
    | None -> Alcotest.failf "%s read failed under ambient corruption" tag
  done;
  let deg = Device.degradation d in
  Alcotest.(check bool) "frames were damaged" true (deg.Device.corrupted_deliveries > 0);
  Alcotest.(check bool) "ingress rejected them" true (deg.Device.frames_rejected > 0);
  Alcotest.(check bool) "link layer redelivered" true (deg.Device.frames_retransmitted > 0);
  Alcotest.(check bool) "wire conservation" true (Device.wire_conserved deg);
  Alcotest.(check bool) "request conservation" true (Device.degradation_conserved deg)

let test_breaker_trips_on_corruptor () =
  (* Satellite regression: a persistently corrupting peer link must feed
     the receiving site's circuit breaker through the reject hook and trip
     it — frame damage shows up as peer failure, not silent retries. *)
  let config =
    Config.make_exn ~scheme:Types.Voting ~n_sites:3 ~n_blocks:8 ~seed:888
      ~robustness:
        {
          Blockrep.Robustness.off with
          Blockrep.Robustness.breaker = Some { Blockrep.Robustness.threshold = 5; cooldown = 30.0 };
        }
      ~fault_profile:Faults.pristine ()
  in
  let d = Device.of_config config in
  let c = Device.cluster d in
  Cluster.install_faults c (Faults.of_seed ~seed:9 Faults.pristine);
  (* Site 1's replies to the coordinator at site 0 are all damaged. *)
  Cluster.corrupt_link c ~from:1 ~dst:0;
  for i = 0 to 9 do
    (* Voting quorum 2/3 still forms from sites 0 and 2, so operations
       succeed while link 1->0 burns strikes. *)
    Alcotest.(check bool) "write succeeds without site 1's vote" true
      (Device.write_block d (i mod 8) (Block.of_string "bk"))
  done;
  let deg = Device.degradation d in
  Alcotest.(check bool) "rejects recorded" true (deg.Device.frames_rejected > 0);
  Alcotest.(check bool) "breaker tripped on the corruptor" true (deg.Device.breaker_trips > 0);
  Alcotest.(check bool) "quarantine contained the flood" true (deg.Device.quarantine_trips > 0);
  Alcotest.(check bool) "wire conservation" true (Device.wire_conserved deg);
  (* Healing the link restores clean delivery. *)
  Cluster.heal_link c ~from:1 ~dst:0;
  Cluster.run_until c (Sim.Engine.now (Cluster.engine c) +. 100.0);
  Alcotest.(check bool) "clean write after heal" true
    (Device.write_block d 0 (Block.of_string "ok"))

let () =
  Alcotest.run "faults"
    [
      ( "profiles",
        [
          Alcotest.test_case "validation" `Quick test_profile_validation;
          Alcotest.test_case "pristine plan" `Quick test_plan_pristine_is_clean;
          Alcotest.test_case "drop all" `Quick test_plan_drop_all;
          Alcotest.test_case "duplicate all" `Quick test_plan_duplicate_all;
          Alcotest.test_case "extra delay" `Quick test_plan_extra_delay;
          Alcotest.test_case "reorder jitter" `Quick test_plan_reorder_jitter;
          Alcotest.test_case "jitter only" `Quick test_plan_jitter_only;
          Alcotest.test_case "per-link override" `Quick test_per_link_override;
        ] );
      ( "network",
        [
          Alcotest.test_case "drop-all starves receivers" `Quick
            test_network_drop_all_starves_receivers;
          Alcotest.test_case "duplicates deliver twice" `Quick test_network_duplicates_deliver_twice;
          Alcotest.test_case "jitter-only delays delivery" `Quick
            test_network_jitter_only_perturbs_delivery;
          Alcotest.test_case "config wires the injector" `Quick
            test_config_fault_profile_installs_injector;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "jitter bounds" `Quick test_jitter_bounds;
          Alcotest.test_case "jitter chain in run" `Quick test_jitter_chain_in_run;
          Alcotest.test_case "jitter off is bit-identical" `Quick test_jitter_off_is_bit_identical;
          QCheck_alcotest.to_alcotest prop_jitter_preserves_bounds;
          Alcotest.test_case "recovers and advances time" `Quick
            test_retry_recovers_and_advances_time;
          Alcotest.test_case "gives up" `Quick test_retry_gives_up;
          Alcotest.test_case "deadline" `Quick test_retry_deadline;
          Alcotest.test_case "retryable predicate" `Quick test_retry_respects_retryable_predicate;
          Alcotest.test_case "invalid bounds rejected" `Quick test_retry_invalid_bounds;
          Alcotest.test_case "counters conserved" `Quick test_retry_conservation;
          Alcotest.test_case "no_retry fail-fast" `Quick test_no_retry_is_fail_fast;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "voting survives message loss" `Quick test_voting_survives_message_loss;
          Alcotest.test_case "healthy device reports zeros" `Quick
            test_degradation_all_zero_when_healthy;
          Alcotest.test_case "degradation report renders" `Quick test_degradation_report_renders;
        ] );
      ( "wire",
        [
          Alcotest.test_case "corruption validation / is_pristine" `Quick
            test_corruption_validation;
          Alcotest.test_case "corrupt bytes" `Quick test_corrupt_bytes;
          Alcotest.test_case "ambient corruption recovers" `Quick
            test_ambient_corruption_device_recovers;
          Alcotest.test_case "breaker trips on corruptor" `Quick test_breaker_trips_on_corruptor;
        ] );
    ]
