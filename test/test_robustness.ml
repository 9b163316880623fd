(* Tests for the gray-failure / overload robustness stack: the bounded
   per-site service model, deadline propagation, hedged reads, circuit
   breakers and admission control — and the guarantee that every client
   operation answers exactly once, even when its site crashes. *)

module Types = Blockrep.Types
module Cluster = Blockrep.Cluster
module Device = Blockrep.Reliable_device
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
  Alcotest.(check int) "flood jobs have no caller to answer" 0 (List.length (Sim.Server.clear s));
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
    (Device.deadline_budget d);
  let off = Device.of_config (Blockrep.Config.make_exn ~scheme:Types.Available_copy ~n_sites:3 ~n_blocks:8 ~seed:3 ()) in
  Alcotest.(check (option (float 1e-9))) "no budget when off" None
    (Device.deadline_budget off)

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
  Alcotest.(check bool) "device ledgers identical" true (a.device = b.device);
  Alcotest.(check (float 0.0)) "p50 bit-identical" a.latency_p50 b.latency_p50;
  Alcotest.(check (float 0.0)) "p99 bit-identical" a.latency_p99 b.latency_p99

(* Robustness.off must be behaviourally identical to a config that never
   mentions robustness at all: same traffic, same request counters. *)
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
     (Device.degradation d).requests, (Device.degradation d).site_attempts)
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
  Alcotest.(check bool) "gray run still serves" true (gray.device.succeeded > 0);
  Alcotest.(check bool) "p99 degrades without the stack" true
    (gray.latency_p99 > 2.0 *. healthy.latency_p99)

let test_hedged_reads_restore_p99 () =
  let healthy = brownout ~robustness:true () in
  let gray = brownout ~slow:(0, 10.0) ~robustness:true () in
  Alcotest.(check bool) "hedges fired" true (gray.Experiment.device.hedged > 0);
  Alcotest.(check bool) "hedges won" true (gray.device.hedge_wins > 0);
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
(* Every client operation answers exactly once                         *)
(* ------------------------------------------------------------------ *)

let queued_ac ?(robustness = Robustness.off) ~seed () =
  Blockrep.Config.make_exn ~scheme:Types.Available_copy ~n_sites:3 ~n_blocks:8 ~seed
    ~service:Net.Service_model.default ~robustness ()

(* Regression: a site crash dropped the client jobs queued at it without a
   word, so their callbacks never fired and the in-flight count leaked. *)
let test_crash_answers_queued_async_ops () =
  let d = Device.of_config (queued_ac ~seed:5 ()) in
  let c = Device.cluster d in
  let reads = ref [] and writes = ref [] in
  Device.read_block_async d 0 (fun r -> reads := Result.map ignore r :: !reads);
  Device.write_block_async d 1 (Block.of_string "lost") (fun r ->
      writes := Result.map ignore r :: !writes);
  Alcotest.(check int) "both queued" 2 (Device.in_flight d);
  Cluster.fail_site c 0;
  Cluster.settle c;
  List.iter
    (fun (op, answers) ->
      match !answers with
      | [ Error Types.Site_not_available ] -> ()
      | rs -> Alcotest.failf "%s: expected one Site_not_available answer, got %d" op (List.length rs))
    [ ("read", reads); ("write", writes) ];
  Alcotest.(check int) "nothing in flight" 0 (Device.in_flight d);
  Alcotest.(check bool) "conserved" true (Device.degradation_conserved (Device.degradation d))

(* With hedging on, a read that finds its home queue full spills over to a
   peer's queue; a crash of that peer must answer it just the same. *)
let test_crash_answers_spilled_read () =
  let robustness = { Robustness.off with hedge = Some { Robustness.quantile = 0.9; floor = 1.0 } } in
  let c = Cluster.create (queued_ac ~robustness ~seed:5 ()) in
  Cluster.flood_site c 0 ~count:100;
  let answers = ref [] in
  Cluster.read c ~site:0 ~block:0 (fun r -> answers := r :: !answers);
  Alcotest.(check int) "spilled, not shed" 0 (Cluster.client_shed c);
  Cluster.fail_site c 1;
  Cluster.settle c;
  match !answers with
  | [ Error Types.Site_not_available ] -> ()
  | rs -> Alcotest.failf "expected one Site_not_available answer, got %d" (List.length rs)

(* Regression: a sync op whose queued job died with its site only returned
   once [run_sync] had drained the whole event queue, here at t = 500. *)
let test_crash_answers_sync_op_at_once () =
  let c = Cluster.create (queued_ac ~seed:5 ()) in
  let engine = Cluster.engine c in
  ignore (Sim.Engine.schedule_at engine ~time:0.0001 (fun () -> Cluster.fail_site c 0) : Sim.Engine.handle);
  ignore (Sim.Engine.schedule_at engine ~time:500.0 (fun () -> ()) : Sim.Engine.handle);
  (match Cluster.read_sync c ~site:0 ~block:0 with
  | Error Types.Site_not_available -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Site_not_available");
  Alcotest.(check (float 1e-9)) "answered on the crash" 0.0001 (Sim.Engine.now engine)

(* Random runs: async and sync reads and writes, queue floods, and crashes
   and repairs of random sites (home included) at random virtual times,
   with the robustness stack off or on.  Each step is (kind, arg, delay):
   time advances [delay] x 0.02, then the step acts; crashes and repairs
   are scheduled [arg] x 0.02 ahead, so they land inside later ops. *)
let prop_every_op_answers_once =
  QCheck.Test.make ~name:"every client op answers exactly once" ~count:1000
    QCheck.(
      triple (int_range 1 1000) bool
        (list_of_size Gen.(int_range 1 40) (triple (int_range 0 6) (int_range 0 23) (int_range 0 10))))
    (fun (seed, robust, steps) ->
      let robustness =
        if not robust then Robustness.off
        else
          {
            Robustness.deadlines = true;
            op_budget = Some 8.0;
            hedge = Some { Robustness.quantile = 0.9; floor = 1.0 };
            breaker = Some { Robustness.threshold = 5; cooldown = 20.0 };
            admission = Some 4;
          }
      in
      let d = Device.of_config (queued_ac ~robustness ~seed ()) in
      let c = Device.cluster d in
      let engine = Cluster.engine c in
      let answers = ref [] in
      let issue () =
        let n = ref 0 in
        answers := n :: !answers;
        fun (_ : (unit, Types.failure_reason) result) -> incr n
      in
      List.iter
        (fun (kind, arg, delay) ->
          Cluster.run_until c (Sim.Engine.now engine +. (0.02 *. float_of_int delay));
          let site = arg mod 3 and block = arg mod 8 in
          let later f =
            ignore (Sim.Engine.schedule engine ~delay:(0.02 *. float_of_int arg) f : Sim.Engine.handle)
          in
          match kind with
          | 0 ->
              let k = issue () in
              Device.read_block_async d block (fun r -> k (Result.map ignore r))
          | 1 ->
              let k = issue () in
              Device.write_block_async d block (Block.of_string "w") (fun r -> k (Result.map ignore r))
          | 2 -> ignore (Device.read_block d block : Block.t option)
          | 3 -> ignore (Device.write_block d block (Block.of_string "s") : bool)
          | 4 -> Cluster.flood_site c site ~count:(4 * arg)
          | 5 -> later (fun () -> Cluster.fail_site c site)
          | _ -> later (fun () -> Cluster.repair_site c site))
        steps;
      Cluster.heal c;
      for site = 0 to 2 do
        Cluster.repair_site c site
      done;
      Cluster.settle c;
      List.for_all (fun n -> !n = 1) !answers
      && Device.in_flight d = 0
      && Device.degradation_conserved (Device.degradation d))

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
      ( "answers",
        [
          Alcotest.test_case "crash answers queued async ops" `Quick
            test_crash_answers_queued_async_ops;
          Alcotest.test_case "crash answers sync op at once" `Quick
            test_crash_answers_sync_op_at_once;
          Alcotest.test_case "crash answers spilled read" `Quick test_crash_answers_spilled_read;
          QCheck_alcotest.to_alcotest prop_every_op_answers_once;
        ] );
      ("monitor", [ Alcotest.test_case "current outage" `Quick test_current_outage ]);
      ( "chaos",
        [
          Alcotest.test_case "overload schedule round-trips" `Quick test_overload_schedule_roundtrip;
          Alcotest.test_case "overload envelope passes" `Quick test_overload_chaos_passes;
        ] );
      ( "scenario",
        [ Alcotest.test_case "overload events" `Quick test_scenario_overload_events ] );
    ]
