type availability_sample = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  rho : float;
  horizon : float;
  availability : float;
  failures : int;
  repairs : int;
  truncated_outage : float option;
}

let measure_availability ~scheme ~n_sites ~rho ?(horizon = 50_000.0) ?(seed = 7) ?(track_liveness = true)
    () =
  if rho < 0.0 then invalid_arg "Experiment.measure_availability: negative rho";
  let config =
    Blockrep.Config.make_exn ~scheme ~n_sites ~n_blocks:4
      ~latency:(Util.Dist.Constant 0.001)
        (* Latency and timeouts far below the mean repair time (1.0), so
           recovery handshakes are effectively instantaneous next to the
           failure process — the regime the chains assume. *)
      ~track_liveness ~seed ()
  in
  let cluster = Blockrep.Cluster.create config in
  let rho_eff = if rho <= 0.0 then 1e-9 else rho in
  let gen = Failure_gen.attach cluster ~rng:(Util.Prng.create (seed + 1)) ~lambda:rho_eff ~mu:1.0 in
  Blockrep.Cluster.run_until cluster horizon;
  Failure_gen.stop gen;
  let monitor = Blockrep.Cluster.monitor cluster in
  {
    scheme;
    n_sites;
    rho;
    horizon;
    availability = Blockrep.Availability_monitor.availability monitor;
    failures = Failure_gen.failures_injected gen;
    repairs = Failure_gen.repairs_injected gen;
    (* An outage still open at the horizon is excluded from the completed
       outage-duration stats; surfacing it keeps MTTR readers honest. *)
    truncated_outage = Blockrep.Availability_monitor.current_outage monitor;
  }

type traffic_sample = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  env : Net.Network.mode;
  reads_per_write : float;
  writes : int;
  reads : int;
  read_cost_measured : float;
  write_cost_measured : float;
  messages_per_write_group : float;
  bytes_per_write_group : float;
  recovery_messages : int;
}

let measure_traffic ~scheme ~n_sites ~env ~reads_per_write ?(ops = 2000) ?(seed = 11)
    ?(fault_profile = Net.Faults.pristine) () =
  let config =
    Blockrep.Config.make_exn ~scheme ~n_sites ~n_blocks:32 ~net_mode:env ~seed ~fault_profile ()
  in
  let cluster = Blockrep.Cluster.create config in
  let gen =
    Access_gen.create ~rng:(Util.Prng.create (seed + 1)) ~n_blocks:32 ~reads_per_write ()
  in
  let results = Runner.run_closed_loop cluster gen ~site:0 ~ops in
  let traffic = Blockrep.Cluster.traffic cluster in
  let writes = results.Runner.write_ok in
  let reads = results.Runner.read_ok in
  let per count value = if count = 0 then 0.0 else float_of_int value /. float_of_int count in
  let read_cost_measured = per reads (Net.Traffic.by_operation traffic Net.Message.Read) in
  let write_cost_measured = per writes (Net.Traffic.by_operation traffic Net.Message.Write) in
  let read_bytes = per reads (Net.Traffic.bytes_by_operation traffic Net.Message.Read) in
  let write_bytes = per writes (Net.Traffic.bytes_by_operation traffic Net.Message.Write) in
  {
    scheme;
    n_sites;
    env;
    reads_per_write;
    writes;
    reads;
    read_cost_measured;
    write_cost_measured;
    messages_per_write_group = write_cost_measured +. (reads_per_write *. read_cost_measured);
    bytes_per_write_group = write_bytes +. (reads_per_write *. read_bytes);
    recovery_messages = Net.Traffic.by_operation traffic Net.Message.Recovery;
  }

type amortization_sample = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  env : Net.Network.mode;
  batch : int;
  groups : int;
  blocks_committed : int;
  write_messages : int;
  write_bytes : int;
  messages_per_block : float;
  bytes_per_block : float;
}

(* Group-commit amortization: push [groups] batches of [batch] distinct
   blocks through the reliable device and charge the Write-operation traffic
   to the blocks committed.  batch = 1 goes down the unbatched path, so
   the batch-1 row doubles as the historical baseline. *)
let measure_batch_amortization ~scheme ~n_sites ~env ~batch ?(groups = 100) ?(seed = 31) () =
  if batch <= 0 then invalid_arg "Experiment.measure_batch_amortization: batch must be positive";
  let n_blocks = max 64 batch in
  let config = Blockrep.Config.make_exn ~scheme ~n_sites ~n_blocks ~net_mode:env ~seed () in
  let device = Blockrep.Reliable_device.of_config config in
  let traffic = Blockrep.Cluster.traffic (Blockrep.Reliable_device.cluster device) in
  let msgs0 = Net.Traffic.by_operation traffic Net.Message.Write in
  let bytes0 = Net.Traffic.bytes_by_operation traffic Net.Message.Write in
  for g = 0 to groups - 1 do
    let base = g * batch mod n_blocks in
    let writes =
      List.init batch (fun i ->
          ((base + i) mod n_blocks, Blockdev.Block.of_string (Printf.sprintf "g%d.%d" g i)))
    in
    ignore (Blockrep.Reliable_device.write_blocks device writes : bool)
  done;
  let blocks = groups * batch in
  let write_messages = Net.Traffic.by_operation traffic Net.Message.Write - msgs0 in
  let write_bytes = Net.Traffic.bytes_by_operation traffic Net.Message.Write - bytes0 in
  {
    scheme;
    n_sites;
    env;
    batch;
    groups;
    blocks_committed = blocks;
    write_messages;
    write_bytes;
    messages_per_block = float_of_int write_messages /. float_of_int blocks;
    bytes_per_block = float_of_int write_bytes /. float_of_int blocks;
  }

type repair_sample = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  ops : int;
  bitrot_injected : int;
  repaired_blocks : int;
  scrub_replayed : int;
  repair_messages : int;
  repair_bytes : int;
  total_messages : int;
  repair_overhead : float;
}

(* Scrub/repair cost: run a closed-loop workload while latent bitrot lands
   on rotating replicas, then read every block back from every site so any
   copy still quarantined gets healed.  The healing traffic is exactly the
   Repair-operation cells of the traffic matrix (a category invented for
   this purpose — zero in any fault-free run), so the overhead is directly
   the paper-style message count of defending against media decay. *)
let measure_repair_cost ~scheme ~n_sites ?(ops = 400) ?(rot_every = 10) ?(seed = 17) () =
  if rot_every <= 0 then invalid_arg "Experiment.measure_repair_cost: rot_every must be positive";
  let n_blocks = 16 in
  let config = Blockrep.Config.make_exn ~scheme ~n_sites ~n_blocks ~seed () in
  let cluster = Blockrep.Cluster.create config in
  let gen =
    Access_gen.create ~rng:(Util.Prng.create (seed + 1)) ~n_blocks ~reads_per_write:2.0 ()
  in
  let rot_rng = Util.Prng.create (seed lxor 0x726f74) in
  let try_rot () =
    (* Only maskable faults: the victim's copy must be verified and some
       other mounted site must hold a verified copy at least as new. *)
    let victim = Util.Prng.int rot_rng n_sites in
    let block = Util.Prng.int rot_rng n_blocks in
    let covered =
      Blockrep.Cluster.checksum_ok cluster ~site:victim ~block
      &&
      let v = Blockrep.Cluster.effective_version cluster ~site:victim ~block in
      let rec check j =
        j < n_sites
        && ((j <> victim
            && Blockrep.Cluster.checksum_ok cluster ~site:j ~block
            && Blockrep.Cluster.effective_version cluster ~site:j ~block >= v)
           || check (j + 1))
      in
      check 0
    in
    if covered then Blockrep.Cluster.inject_bitrot cluster ~site:victim ~block
  in
  for i = 1 to ops do
    let site = i mod n_sites in
    (match Access_gen.next gen with
    | Access_gen.Read block -> ignore (Blockrep.Cluster.read_sync cluster ~site ~block)
    | Access_gen.Write (block, data) ->
        ignore (Blockrep.Cluster.write_sync cluster ~site ~block data));
    if i mod rot_every = 0 then try_rot ()
  done;
  (* Heal the tail: probe every copy so nothing stays quarantined. *)
  for site = 0 to n_sites - 1 do
    for block = 0 to n_blocks - 1 do
      ignore (Blockrep.Cluster.read_sync cluster ~site ~block)
    done
  done;
  Blockrep.Cluster.settle cluster;
  let traffic = Blockrep.Cluster.traffic cluster in
  let counters = Blockrep.Cluster.storage_counters cluster in
  let repair_messages = Net.Traffic.by_operation traffic Net.Message.Repair in
  let total_messages = Net.Traffic.total traffic in
  {
    scheme;
    n_sites;
    ops;
    bitrot_injected = counters.Blockdev.Durable_store.bitrot_injected;
    repaired_blocks = counters.Blockdev.Durable_store.repaired_blocks;
    scrub_replayed = counters.Blockdev.Durable_store.scrub_replayed;
    repair_messages;
    repair_bytes = Net.Traffic.bytes_by_operation traffic Net.Message.Repair;
    total_messages;
    repair_overhead =
      (if total_messages = 0 then 0.0
       else float_of_int repair_messages /. float_of_int total_messages);
  }

type degradation_sample = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  fault_profile : Net.Faults.profile;
  ops : int;
  completed : int;
  failed : int;
  retries : int;
  recovered : int;
  timeouts : int;
  gave_up : int;
  faults_injected : int;
}

let measure_degradation ~scheme ~n_sites ~fault_profile ?(reads_per_write = 2.0) ?(ops = 200)
    ?(seed = 23) () =
  let config =
    Blockrep.Config.make_exn ~scheme ~n_sites ~n_blocks:16 ~fault_profile ~seed ()
  in
  let device = Blockrep.Reliable_device.of_config config in
  let gen = Access_gen.create ~rng:(Util.Prng.create (seed + 1)) ~n_blocks:16 ~reads_per_write () in
  let completed = ref 0 in
  let failed = ref 0 in
  for _ = 1 to ops do
    let ok =
      match Access_gen.next gen with
      | Access_gen.Read block -> Blockrep.Reliable_device.read_block device block <> None
      | Access_gen.Write (block, data) -> Blockrep.Reliable_device.write_block device block data
    in
    incr (if ok then completed else failed)
  done;
  let d = Blockrep.Reliable_device.degradation device in
  {
    scheme;
    n_sites;
    fault_profile;
    ops;
    completed = !completed;
    failed = !failed;
    retries = d.Blockrep.Reliable_device.retries;
    recovered = d.Blockrep.Reliable_device.recovered;
    timeouts = d.Blockrep.Reliable_device.timeouts;
    gave_up = d.Blockrep.Reliable_device.gave_up;
    faults_injected =
      (match Blockrep.Cluster.faults (Blockrep.Reliable_device.cluster device) with
      | Some f -> Net.Faults.total_injected f
      | None -> 0);
  }

type brownout_sample = {
  scheme : Blockrep.Types.scheme;
  n_sites : int;
  offered_rate : float;
  robustness_on : bool;
  horizon : float;
  issued : int;
  succeeded : int;
  timeouts : int;
  gave_up : int;
  rejected : int;
  shed : int;
  goodput : float;
  latency_p50 : float;
  latency_p99 : float;
  hedged : int;
  hedge_wins : int;
  breaker_trips : int;
  messages_shed : int;
  conserved : bool;
}

let saturation_rate () = 1.0 /. Net.Service_model.mean_client_cost Net.Service_model.default

let brownout_robustness ~op_timeout =
  {
    Blockrep.Robustness.deadlines = true;
    op_budget = Some (2.0 *. op_timeout);
    hedge = Some { Blockrep.Robustness.quantile = 0.9; floor = 1.0 };
    breaker = Some { Blockrep.Robustness.threshold = 5; cooldown = 5.0 *. op_timeout };
    (* Looser than the 64-slot site queue on purpose: with hedge spillover a
       read shed at the home's full entry queue is served at an idle peer, so
       throttling ops before they reach the cluster would only waste that
       overflow capacity. *)
    admission = Some 96;
  }

(* Open-loop brown-out: Poisson arrivals at [offered_rate] ops per virtual
   second hit the async device path for [horizon] virtual seconds, with
   every site behind the default service model — so past the saturation
   rate the entry queues fill and something must give.  The robustness-on
   flavour fails ops fast (admission shed, deadline timeouts) and routes
   reads around slowness (hedges, breakers); the off flavour lets them
   queue and stall.  Goodput counts completed-successful operations per
   virtual second of the arrival window; latencies are successful-op
   response times. *)
let measure_brownout ~scheme ~n_sites ~offered_rate ~robustness ?slow
    ?(reads_per_write = 2.0) ?(horizon = 400.0) ?(seed = 29) () =
  if offered_rate <= 0.0 then invalid_arg "Experiment.measure_brownout: offered_rate must be positive";
  if horizon <= 0.0 then invalid_arg "Experiment.measure_brownout: horizon must be positive";
  let n_blocks = 16 in
  let config =
    Blockrep.Config.make_exn ~scheme ~n_sites ~n_blocks ~seed
      ~service:Net.Service_model.default
      ~robustness:
        (if robustness then brownout_robustness ~op_timeout:4.0 else Blockrep.Robustness.off)
      ()
  in
  let device = Blockrep.Reliable_device.of_config config in
  let cluster = Blockrep.Reliable_device.cluster device in
  let engine = Blockrep.Cluster.engine cluster in
  (match slow with
  | Some (site, factor) -> Blockrep.Cluster.set_rate_factor cluster site factor
  | None -> ());
  let gen =
    Access_gen.create ~rng:(Util.Prng.create (seed + 1)) ~n_blocks ~reads_per_write ()
  in
  let hist = Util.Stats.Histogram.create ~lo:0.0 ~hi:32.0 ~bins:256 in
  let issued = ref 0 in
  let record_latency start = Util.Stats.Histogram.add hist (Sim.Engine.now engine -. start) in
  let issue () =
    incr issued;
    let start = Sim.Engine.now engine in
    match Access_gen.next gen with
    | Access_gen.Read block ->
        Blockrep.Reliable_device.read_block_async device block (function
          | Ok _ -> record_latency start
          | Error _ -> ())
    | Access_gen.Write (block, data) ->
        Blockrep.Reliable_device.write_block_async device block data (function
          | Ok _ -> record_latency start
          | Error _ -> ())
  in
  (* Pre-schedule the whole Poisson arrival process so the client stream
     is identical whatever the cluster does with it. *)
  let arr_rng = Util.Prng.create (seed lxor 0x61727276) in
  let t = ref 0.0 in
  let exp_gap () = -.(1.0 /. offered_rate) *. log (Util.Prng.float_pos arr_rng) in
  t := !t +. exp_gap ();
  while !t <= horizon do
    ignore (Sim.Engine.schedule_at engine ~time:!t issue : Sim.Engine.handle);
    t := !t +. exp_gap ()
  done;
  Blockrep.Cluster.run_until cluster horizon;
  (* Drain: every in-flight operation settles (no site ever fails here). *)
  Blockrep.Cluster.settle cluster;
  let d = Blockrep.Reliable_device.degradation device in
  {
    scheme;
    n_sites;
    offered_rate;
    robustness_on = robustness;
    horizon;
    issued = !issued;
    succeeded = d.Blockrep.Reliable_device.succeeded;
    timeouts = d.Blockrep.Reliable_device.timeouts;
    gave_up = d.Blockrep.Reliable_device.gave_up;
    rejected = d.Blockrep.Reliable_device.rejected;
    shed = d.Blockrep.Reliable_device.shed;
    goodput = float_of_int d.Blockrep.Reliable_device.succeeded /. horizon;
    latency_p50 = Util.Stats.Histogram.quantile hist 0.5;
    latency_p99 = Util.Stats.Histogram.quantile hist 0.99;
    hedged = d.Blockrep.Reliable_device.hedged;
    hedge_wins = d.Blockrep.Reliable_device.hedge_wins;
    breaker_trips = d.Blockrep.Reliable_device.breaker_trips;
    messages_shed = d.Blockrep.Reliable_device.messages_shed;
    conserved =
      Blockrep.Reliable_device.degradation_conserved d
      && Blockrep.Reliable_device.in_flight device = 0
      && d.Blockrep.Reliable_device.requests = !issued;
  }
