(* Tests for the gray-failure / overload robustness stack: the bounded
   per-site service model, deadline propagation, hedged reads, circuit
   breakers and admission control — plus the regression for the
   decorrelated-jitter-without-rng silent fallback. *)

module Types = Blockrep.Types
module Cluster = Blockrep.Cluster
module Device = Blockrep.Reliable_device
module Stub = Blockrep.Driver_stub
module Robustness = Blockrep.Robustness
module Breaker = Blockrep.Breaker
module Experiment = Workload.Experiment
module Chaos = Check.Chaos
module Block = Blockdev.Block

(* ------------------------------------------------------------------ *)
(* Sim.Server: the bounded per-site work queue                         *)
(* ------------------------------------------------------------------ *)

let test_server_fifo_and_shed () =
  let e = Sim.Engine.create () in
  let s = Sim.Server.create e ~capacity:2 in
  let order = ref [] in
  let job tag = fun () -> order := tag :: !order in
  (* One in service + two waiting fills the machine; the fourth sheds. *)
  Alcotest.(check bool) "first accepted" true (Sim.Server.submit s ~cost:1.0 (job "a"));
  Alcotest.(check bool) "second accepted" true (Sim.Server.submit s ~cost:1.0 (job "b"));
  Alcotest.(check bool) "third accepted" true (Sim.Server.submit s ~cost:1.0 (job "c"));
  Alcotest.(check bool) "fourth shed" false (Sim.Server.submit s ~cost:1.0 (job "d"));
  Alcotest.(check int) "shed counted" 1 (Sim.Server.shed s);
  Alcotest.(check int) "depth counts in-service" 3 (Sim.Server.depth s);
  Sim.Engine.run_until e 10.0;
  Alcotest.(check (list string)) "FIFO order" [ "a"; "b"; "c" ] (List.rev !order);
  Alcotest.(check int) "served" 3 (Sim.Server.served s);
  Alcotest.(check bool) "idle after drain" false (Sim.Server.busy s)

let test_server_rate_factor () =
  let e = Sim.Engine.create () in
  let s = Sim.Server.create e ~capacity:8 in
  let done_at = ref nan in
  Sim.Server.set_rate_factor s 10.0;
  ignore (Sim.Server.submit s ~cost:1.0 (fun () -> done_at := Sim.Engine.now e) : bool);
  Sim.Engine.run_until e 100.0;
  Alcotest.(check (float 1e-9)) "10x slower service" 10.0 !done_at;
  (match Sim.Server.set_rate_factor s 0.0 with
  | () -> Alcotest.fail "rate factor 0 accepted"
  | exception Invalid_argument _ -> ())

let test_server_flood_and_clear () =
  let e = Sim.Engine.create () in
  let s = Sim.Server.create e ~capacity:4 in
  Sim.Server.flood s ~count:10 ~cost:1.0;
  (* 1 in service + 4 waiting; the other 5 shed. *)
  Alcotest.(check int) "flood fills" 5 (Sim.Server.depth s);
  Alcotest.(check int) "flood sheds the rest" 5 (Sim.Server.shed s);
  let ran = ref false in
  Alcotest.(check bool) "legit work shed behind flood" false
    (Sim.Server.submit s ~cost:0.1 (fun () -> ran := true));
  Sim.Server.clear s;
  Alcotest.(check int) "clear drops everything" 5 (Sim.Server.dropped s);
  Alcotest.(check int) "empty after clear" 0 (Sim.Server.depth s);
  Sim.Engine.run_until e 50.0;
  Alcotest.(check bool) "cleared jobs never run" false !ran;
  Alcotest.(check int) "nothing served" 0 (Sim.Server.served s)

(* ------------------------------------------------------------------ *)
(* Breaker state machine                                               *)
(* ------------------------------------------------------------------ *)

let test_breaker_lifecycle () =
  let e = Sim.Engine.create () in
  let b = Breaker.create e ~threshold:2 ~cooldown:5.0 in
  Alcotest.(check bool) "starts closed" true (Breaker.state b = Breaker.Closed);
  Breaker.record_failure b;
  Alcotest.(check bool) "below threshold stays closed" true (Breaker.allows b);
  Breaker.record_failure b;
  Alcotest.(check bool) "trips open" true (Breaker.state b = Breaker.Open);
  Alcotest.(check bool) "open refuses" false (Breaker.allows b);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  Sim.Engine.run_until e 6.0;
  Alcotest.(check bool) "half-open after cooldown" true (Breaker.state b = Breaker.Half_open);
  Alcotest.(check bool) "half-open allows a probe" true (Breaker.allows b);
  Breaker.record_failure b;
  Alcotest.(check bool) "failed probe re-opens" false (Breaker.allows b);
  Alcotest.(check int) "re-open is not a new trip" 1 (Breaker.trips b);
  Sim.Engine.run_until e 12.0;
  Breaker.record_success b;
  Alcotest.(check bool) "successful probe closes" true (Breaker.state b = Breaker.Closed);
  Breaker.record_failure b;
  Alcotest.(check bool) "run reset by success" true (Breaker.allows b)

(* ------------------------------------------------------------------ *)
(* Satellite regression: Decorrelated jitter demands an rng            *)
(* ------------------------------------------------------------------ *)

let test_decorrelated_requires_rng () =
  let config =
    Blockrep.Config.make_exn ~scheme:Types.Available_copy ~n_sites:3 ~n_blocks:8 ~seed:7 ()
  in
  let cluster = Cluster.create config in
  let policy = { (Blockrep.Retry.default_policy ()) with jitter = Blockrep.Retry.Decorrelated } in
  (match Stub.create ~policy cluster with
  | _ -> Alcotest.fail "Decorrelated without rng must be rejected at create"
  | exception Invalid_argument _ -> ());
  (* With an rng the same policy is fine and operations go through. *)
  let stub = Stub.create ~policy ~rng:(Random.State.make [| 11 |]) cluster in
  (match Stub.write_block stub 0 (Block.of_string "jittered") with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "write through decorrelated stub failed")

(* ------------------------------------------------------------------ *)
(* Deadline propagation                                                *)
(* ------------------------------------------------------------------ *)

(* The deadline property: no protocol round opens at or past its
   operation's deadline.  Round-start probes fire before any request is
   sent, so a violation here means a sub-request would have been issued
   for an operation that already missed its budget. *)
let test_no_round_opens_past_deadline () =
  let env = Chaos.overload (Chaos.default_env ~seed:23 Types.Available_copy) in
  let cluster = Chaos.cluster_of_env env in
  let engine = Cluster.engine cluster in
  let deadline_rounds = ref 0 and late_opens = ref 0 in
  Blockrep.Runtime.on_round_start (Cluster.runtime cluster)
    (fun ~coordinator:_ ~deadline ~expected:_ ->
      match deadline with
      | None -> ()
      | Some d ->
          incr deadline_rounds;
          if Sim.Engine.now engine >= d then incr late_opens);
  let outcome = Chaos.run_against env ~cluster ~schedule:(Chaos.generate_schedule env) in
  Alcotest.(check bool) "overload run passes the oracle" true (Chaos.passed outcome);
  Alcotest.(check bool) "deadlines actually propagated" true (!deadline_rounds > 0);
  Alcotest.(check int) "no round opened past its deadline" 0 !late_opens

let test_deadline_budget_surfaces () =
  let robustness = { Robustness.off with deadlines = true; op_budget = Some 12.5 } in
  let config =
    Blockrep.Config.make_exn ~scheme:Types.Available_copy ~n_sites:3 ~n_blocks:8 ~seed:3
      ~robustness ()
  in
  let d = Device.of_config config in
  Alcotest.(check (option (float 1e-9))) "budget visible" (Some 12.5)
    (Stub.deadline_budget (Device.stub d));
  let off = Device.of_config (Blockrep.Config.make_exn ~scheme:Types.Available_copy ~n_sites:3 ~n_blocks:8 ~seed:3 ()) in
  Alcotest.(check (option (float 1e-9))) "no budget when off" None
    (Stub.deadline_budget (Device.stub off))

(* ------------------------------------------------------------------ *)
(* Twin runs: determinism of the whole stack                           *)
(* ------------------------------------------------------------------ *)

(* Two runs from the same seed must agree bit-for-bit — counters,
   quantiles, everything — with the full robustness stack on and a
   gray-slow site in play.  This is the determinism guarantee the chaos
   harness's replayability rests on. *)
let test_twin_runs_bit_identical () =
  let run () =
    Experiment.measure_brownout ~scheme:Types.Available_copy ~n_sites:3
      ~offered_rate:(2.0 *. Experiment.saturation_rate ())
      ~robustness:true ~slow:(0, 10.0) ~horizon:150.0 ~seed:41 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "issued" a.Experiment.issued b.Experiment.issued;
  Alcotest.(check int) "succeeded" a.succeeded b.succeeded;
  Alcotest.(check int) "timeouts" a.timeouts b.timeouts;
  Alcotest.(check int) "rejected" a.rejected b.rejected;
  Alcotest.(check int) "shed" a.shed b.shed;
  Alcotest.(check int) "hedged" a.hedged b.hedged;
  Alcotest.(check int) "hedge wins" a.hedge_wins b.hedge_wins;
  Alcotest.(check int) "breaker trips" a.breaker_trips b.breaker_trips;
  Alcotest.(check int) "messages shed" a.messages_shed b.messages_shed;
  Alcotest.(check (float 0.0)) "p50 bit-identical" a.latency_p50 b.latency_p50;
  Alcotest.(check (float 0.0)) "p99 bit-identical" a.latency_p99 b.latency_p99

(* Robustness.off must be behaviourally identical to a config that never
   mentions robustness at all: same traffic, same stub counters. *)
let test_robustness_off_is_inert () =
  let drive config =
    let d = Device.of_config config in
    let c = Device.cluster d in
    for i = 0 to 19 do
      ignore (Device.write_block d (i mod 8) (Block.of_string (Printf.sprintf "v%d" i)) : bool);
      ignore (Device.read_block d (i mod 8) : Block.t option)
    done;
    Cluster.fail_site c 1;
    ignore (Device.read_block d 0 : Block.t option);
    Cluster.repair_site c 1;
    Cluster.settle c;
    (Net.Traffic.total (Cluster.traffic c), Net.Traffic.total_bytes (Cluster.traffic c),
     Stub.requests (Device.stub d), Stub.site_attempts (Device.stub d))
  in
  let plain =
    drive (Blockrep.Config.make_exn ~scheme:Types.Available_copy ~n_sites:3 ~n_blocks:8 ~seed:13 ())
  in
  let off =
    drive
      (Blockrep.Config.make_exn ~scheme:Types.Available_copy ~n_sites:3 ~n_blocks:8 ~seed:13
         ~robustness:Robustness.off ())
  in
  Alcotest.(check (pair (pair int int) (pair int int)))
    "identical traffic and counters"
    ((let a, b, c, d = plain in ((a, b), (c, d))))
    ((let a, b, c, d = off in ((a, b), (c, d))))

(* ------------------------------------------------------------------ *)
(* Gray failure: slowness degrades the tail, never correctness         *)
(* ------------------------------------------------------------------ *)

let brownout ?slow ~robustness () =
  Experiment.measure_brownout ~scheme:Types.Available_copy ~n_sites:3
    ~offered_rate:(2.0 *. Experiment.saturation_rate ())
    ~robustness ?slow ~horizon:200.0 ()

let test_slow_site_degrades_p99_not_correctness () =
  let healthy = brownout ~robustness:false () in
  let gray = brownout ~slow:(0, 10.0) ~robustness:false () in
  Alcotest.(check bool) "healthy counters reconcile" true healthy.Experiment.conserved;
  Alcotest.(check bool) "gray counters reconcile" true gray.Experiment.conserved;
  Alcotest.(check bool) "gray run still serves" true (gray.succeeded > 0);
  Alcotest.(check bool) "p99 degrades without the stack" true
    (gray.latency_p99 > 2.0 *. healthy.latency_p99)

let test_hedged_reads_restore_p99 () =
  let healthy = brownout ~robustness:true () in
  let gray = brownout ~slow:(0, 10.0) ~robustness:true () in
  Alcotest.(check bool) "hedges fired" true (gray.Experiment.hedged > 0);
  Alcotest.(check bool) "hedges won" true (gray.hedge_wins > 0);
  Alcotest.(check bool) "p99 within 2x of healthy baseline" true
    (gray.latency_p99 <= 2.0 *. healthy.Experiment.latency_p99)

let test_robustness_strictly_better_past_saturation () =
  let off = brownout ~robustness:false () in
  let on = brownout ~robustness:true () in
  Alcotest.(check bool) "goodput strictly better" true (on.Experiment.goodput > off.Experiment.goodput);
  Alcotest.(check bool) "p99 strictly better" true (on.latency_p99 < off.latency_p99);
  Alcotest.(check bool) "on counters reconcile" true on.conserved;
  Alcotest.(check bool) "off counters reconcile" true off.conserved

(* ------------------------------------------------------------------ *)
(* Admission control at the device                                     *)
(* ------------------------------------------------------------------ *)

let test_admission_sheds_fast () =
  let robustness = { Robustness.off with admission = Some 1 } in
  let config =
    Blockrep.Config.make_exn ~scheme:Types.Available_copy ~n_sites:3 ~n_blocks:8 ~seed:5
      ~service:Net.Service_model.default ~robustness ()
  in
  let d = Device.of_config config in
  let first = ref None and second = ref None in
  Device.read_block_async d 0 (fun r -> first := Some r);
  Alcotest.(check int) "one in flight" 1 (Device.in_flight d);
  Device.read_block_async d 1 (fun r -> second := Some r);
  (match !second with
  | Some (Error Types.Overloaded) -> ()
  | _ -> Alcotest.fail "second op should be refused fast with Overloaded");
  Cluster.settle (Device.cluster d);
  (match !first with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "admitted op should complete");
  Alcotest.(check int) "drained" 0 (Device.in_flight d);
  let deg = Device.degradation d in
  Alcotest.(check int) "shed counted" 1 deg.Device.shed;
  Alcotest.(check bool) "conservation holds" true (Device.degradation_conserved deg)

(* ------------------------------------------------------------------ *)
(* Availability monitor: truncated outages                             *)
(* ------------------------------------------------------------------ *)

let test_current_outage () =
  let config =
    Blockrep.Config.make_exn ~scheme:Types.Available_copy ~n_sites:3 ~n_blocks:8 ~seed:17 ()
  in
  let c = Cluster.create config in
  let m = Cluster.monitor c in
  Alcotest.(check (option (float 0.0))) "up at start" None (Blockrep.Availability_monitor.current_outage m);
  for s = 0 to 2 do Cluster.fail_site c s done;
  let t0 = Sim.Engine.now (Cluster.engine c) in
  Cluster.run_until c (t0 +. 7.0);
  (match Blockrep.Availability_monitor.current_outage m with
  | Some elapsed -> Alcotest.(check bool) "outage elapsed grows" true (elapsed >= 7.0 -. 1e-9)
  | None -> Alcotest.fail "total failure should be an open outage");
  (* Available-copy: after a total failure only the last site down may
     restore service, and that was site 2; bring the others back too so
     recovery has peers to talk to. *)
  Cluster.repair_site c 2;
  Cluster.repair_site c 1;
  Cluster.repair_site c 0;
  Cluster.settle c;
  Alcotest.(check (option (float 0.0))) "closed after repair" None
    (Blockrep.Availability_monitor.current_outage m)

(* ------------------------------------------------------------------ *)
(* Chaos events and the scenario DSL                                   *)
(* ------------------------------------------------------------------ *)

let test_overload_schedule_roundtrip () =
  let env = Chaos.overload (Chaos.default_env ~seed:9 Types.Dynamic_voting) in
  let schedule = Chaos.generate_schedule env in
  let has p = List.exists (fun (_, e) -> p e) schedule in
  Alcotest.(check bool) "schedules slow sites" true
    (has (function Chaos.Fault (Chaos.Slow_site _) -> true | _ -> false));
  Alcotest.(check bool) "schedules bursts" true
    (has (function Chaos.Burst _ -> true | _ -> false));
  Alcotest.(check bool) "schedules queue floods" true
    (has (function Chaos.Fault (Chaos.Queue_flood _) -> true | _ -> false));
  match Chaos.schedule_of_string (Chaos.schedule_to_string schedule) with
  | Error e -> Alcotest.fail ("overload schedule does not round-trip: " ^ e)
  | Ok parsed ->
      Alcotest.(check int) "round-trips every event" (List.length schedule) (List.length parsed);
      Alcotest.(check string) "text is stable"
        (Chaos.schedule_to_string schedule)
        (Chaos.schedule_to_string parsed)

let test_overload_chaos_passes () =
  List.iter
    (fun scheme ->
      let outcome = Chaos.run (Chaos.overload (Chaos.default_env ~seed:31 scheme)) in
      Alcotest.(check bool)
        (Types.scheme_to_string scheme ^ " overload envelope is violation-free")
        true (Chaos.passed outcome))
    [ Types.Available_copy; Types.Voting ]

let overload_scenario =
  {|
scheme ac
sites 3
blocks 8
seed 21
service-model true
horizon 200

@5   write 0 2 stable
@10  slow-site 1 10
@20  burst 0 12
@30  queue-flood 2 48
@40  expect-read 0 2 stable
@60  slow-site 1 1
@80  expect-read 0 2 stable
@90  expect-available true
@120 check-invariants
|}

let test_scenario_overload_events () =
  match Scenario.check overload_scenario with
  | Ok () -> ()
  | Error failures -> Alcotest.fail (String.concat "; " failures)

let () =
  Alcotest.run "robustness"
    [
      ( "server",
        [
          Alcotest.test_case "fifo and shed" `Quick test_server_fifo_and_shed;
          Alcotest.test_case "rate factor" `Quick test_server_rate_factor;
          Alcotest.test_case "flood and clear" `Quick test_server_flood_and_clear;
        ] );
      ("breaker", [ Alcotest.test_case "lifecycle" `Quick test_breaker_lifecycle ]);
      ( "retry",
        [ Alcotest.test_case "decorrelated requires rng" `Quick test_decorrelated_requires_rng ] );
      ( "deadlines",
        [
          Alcotest.test_case "no round opens past deadline" `Quick test_no_round_opens_past_deadline;
          Alcotest.test_case "budget surfaces" `Quick test_deadline_budget_surfaces;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "twin runs bit-identical" `Quick test_twin_runs_bit_identical;
          Alcotest.test_case "robustness off is inert" `Quick test_robustness_off_is_inert;
        ] );
      ( "gray",
        [
          Alcotest.test_case "slow site degrades p99 not correctness" `Quick
            test_slow_site_degrades_p99_not_correctness;
          Alcotest.test_case "hedged reads restore p99" `Quick test_hedged_reads_restore_p99;
          Alcotest.test_case "strictly better past saturation" `Quick
            test_robustness_strictly_better_past_saturation;
        ] );
      ("admission", [ Alcotest.test_case "sheds fast" `Quick test_admission_sheds_fast ]);
      ("monitor", [ Alcotest.test_case "current outage" `Quick test_current_outage ]);
      ( "chaos",
        [
          Alcotest.test_case "overload schedule round-trips" `Quick test_overload_schedule_roundtrip;
          Alcotest.test_case "overload envelope passes" `Quick test_overload_chaos_passes;
        ] );
      ( "scenario",
        [ Alcotest.test_case "overload events" `Quick test_scenario_overload_events ] );
    ]
