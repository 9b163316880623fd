type results = {
  issued : int;
  read_ok : int;
  read_failed : int;
  write_ok : int;
  write_failed : int;
  span : float;
  read_latency : Util.Stats.t;
  write_latency : Util.Stats.t;
}

let ops_total r = r.read_ok + r.read_failed + r.write_ok + r.write_failed

let success_fraction r =
  let total = ops_total r in
  if total = 0 then nan else float_of_int (r.read_ok + r.write_ok) /. float_of_int total

let mean_read_latency r = Util.Stats.mean r.read_latency
let mean_write_latency r = Util.Stats.mean r.write_latency

type counters = {
  mutable issued : int;
  mutable read_ok : int;
  mutable read_failed : int;
  mutable write_ok : int;
  mutable write_failed : int;
  read_latency : Util.Stats.t;
  write_latency : Util.Stats.t;
}

let fresh_counters () =
  {
    issued = 0;
    read_ok = 0;
    read_failed = 0;
    write_ok = 0;
    write_failed = 0;
    read_latency = Util.Stats.create ();
    write_latency = Util.Stats.create ();
  }

let results_of c ~span =
  {
    issued = c.issued;
    read_ok = c.read_ok;
    read_failed = c.read_failed;
    write_ok = c.write_ok;
    write_failed = c.write_failed;
    span;
    read_latency = c.read_latency;
    write_latency = c.write_latency;
  }

(* Issue one operation asynchronously, accounting outcome and latency when
   its callback lands. *)
let issue_at cluster c site op =
  let engine = Blockrep.Cluster.engine cluster in
  let started = Sim.Engine.now engine in
  let latency () = Sim.Engine.now engine -. started in
  c.issued <- c.issued + 1;
  match op with
  | Access_gen.Read block ->
      Blockrep.Cluster.read cluster ~site ~block (function
        | Ok _ ->
            c.read_ok <- c.read_ok + 1;
            Util.Stats.add c.read_latency (latency ())
        | Error _ -> c.read_failed <- c.read_failed + 1)
  | Access_gen.Write (block, data) ->
      Blockrep.Cluster.write cluster ~site ~block data (function
        | Ok _ ->
            c.write_ok <- c.write_ok + 1;
            Util.Stats.add c.write_latency (latency ())
        | Error _ -> c.write_failed <- c.write_failed + 1)

(* Synchronous issue: run the engine until this operation settles. *)
let completed c = c.read_ok + c.read_failed + c.write_ok + c.write_failed

let issue_sync cluster c site op =
  let engine = Blockrep.Cluster.engine cluster in
  let before = completed c in
  issue_at cluster c site op;
  while completed c = before && Sim.Engine.step engine do
    ()
  done

let run_closed_loop cluster gen ~site ~ops =
  let c = fresh_counters () in
  let start = Sim.Engine.now (Blockrep.Cluster.engine cluster) in
  for _ = 1 to ops do
    issue_sync cluster c site (Access_gen.next gen)
  done;
  results_of c ~span:(Sim.Engine.now (Blockrep.Cluster.engine cluster) -. start)

let run_open_loop cluster gen ~site ~rate ~horizon =
  if rate <= 0.0 then invalid_arg "Runner.run_open_loop: rate must be positive";
  if horizon <= 0.0 then invalid_arg "Runner.run_open_loop: horizon must be positive";
  let engine = Blockrep.Cluster.engine cluster in
  let rng = Util.Prng.create 0x0b5e55ed in
  let c = fresh_counters () in
  let start = Sim.Engine.now engine in
  let rec arm at =
    if at <= start +. horizon then
      ignore
        (Sim.Engine.schedule_at engine ~time:at (fun () ->
             issue_at cluster c site (Access_gen.next gen);
             arm (Sim.Engine.now engine +. Util.Dist.exponential ~rate rng))
          : Sim.Engine.handle)
  in
  arm (start +. Util.Dist.exponential ~rate rng);
  Blockrep.Cluster.run_until cluster (start +. horizon);
  results_of c ~span:horizon

let replay cluster entries ~site =
  let c = fresh_counters () in
  let start = Sim.Engine.now (Blockrep.Cluster.engine cluster) in
  List.iter
    (fun entry ->
      match Trace.to_ops [ entry ] with
      | [ op ] -> issue_sync cluster c site op
      | [] | _ :: _ :: _ -> invalid_arg "Runner.replay: a trace entry must map to exactly one op")
    entries;
  results_of c ~span:(Sim.Engine.now (Blockrep.Cluster.engine cluster) -. start)
