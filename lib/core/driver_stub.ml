type kind = Read | Write

type op_view = {
  kind : kind;
  block : Blockdev.Block.id;
  site : int;
  invoked : float;
  responded : float;
  payload : Blockdev.Block.t option;
  version : int option;
  error : Types.failure_reason option;
}

type t = {
  cluster : Cluster.t;
  home : int;
  policy : Retry.policy;
  settle : float;
  rng : Random.State.t option;  (** drives decorrelated retry jitter *)
  budget : float option;
      (** per-operation virtual-time budget; each request's absolute
          deadline is [now + budget], propagated end-to-end *)
  stats : Retry.stats;
  mutable requests : int;
  mutable batch_requests : int;
  mutable batched_blocks : int;
  mutable site_attempts : int;
  mutable failovers : int;
  mutable last_served : int;
  mutable last_tried : int;
  mutable observers : (op_view -> unit) list;
}

let create ?(home = 0) ?policy ?settle ?rng cluster =
  if home < 0 || home >= Cluster.n_sites cluster then invalid_arg "Driver_stub.create: bad home site";
  let policy =
    match policy with
    | Some p -> p
    | None -> Retry.default_policy ~unit:(Cluster.config cluster).Config.op_timeout ()
  in
  (match Retry.validate policy with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Driver_stub.create: bad retry policy: " ^ e));
  (* Surface the Decorrelated-without-rng mistake at construction, not on
     the first forwarded request deep inside a simulation run. *)
  (match (policy.Retry.jitter, rng) with
  | Retry.Decorrelated, None ->
      invalid_arg "Driver_stub.create: policy jitter = Decorrelated requires ~rng"
  | Retry.Decorrelated, Some _ | Retry.No_jitter, _ -> ());
  let robustness = (Cluster.config cluster).Config.robustness in
  let budget =
    if not robustness.Robustness.deadlines then None
    else
      (* An explicit op budget, or the retry policy's own deadline — the
         point past which the stub would abandon the operation anyway, so
         sub-requests beyond it are provably useless. *)
      Some (Option.value robustness.Robustness.op_budget ~default:policy.Retry.deadline)
  in
  let settle =
    match settle with
    | None -> (Cluster.config cluster).Config.op_timeout
    | Some s ->
        if s < 0.0 then invalid_arg "Driver_stub.create: settle must be non-negative";
        s
  in
  {
    cluster;
    home;
    policy;
    settle;
    rng;
    budget;
    stats = Retry.create_stats ();
    requests = 0;
    batch_requests = 0;
    batched_blocks = 0;
    site_attempts = 0;
    failovers = 0;
    last_served = home;
    last_tried = home;
    observers = [];
  }

let home t = t.home
let deadline_budget t = t.budget
let requests t = t.requests
let batch_requests t = t.batch_requests
let batched_blocks t = t.batched_blocks
let site_attempts t = t.site_attempts
let failovers t = t.failovers
let retry_stats t = t.stats
let policy t = t.policy
let settle t = t.settle
let last_served t = t.last_served
let add_observer t f = t.observers <- t.observers @ [ f ]

(* One rotation: try the home site first, then the remaining sites once in
   id order when the local server cannot serve.  The home never migrates —
   a transient outage must not permanently strand requests elsewhere; the
   next request probes the home again and service resumes the moment it
   recovers.  Other error kinds (quorum loss) are global, so failing over
   would not help and the error is surfaced to the retry layer.

   Before handing a request to an *available* site other than the one that
   served last, the stub lets in-flight traffic drain for [settle] virtual
   time: the copy schemes propagate updates fire-and-forget, so without the
   barrier a failover (or the return home after one) could read a copy that
   has not yet received the previous server's update — or worse, write at
   it and mint a colliding version.  Down sites are probed without waiting;
   failing over past a corpse must stay fast. *)
let rotation t attempt =
  let n = Cluster.n_sites t.cluster in
  let engine = Cluster.engine t.cluster in
  let rec go tried site =
    if
      site <> t.last_served && t.settle > 0.0
      && Cluster.site_state t.cluster site = Types.Available
    then Cluster.run_until t.cluster (Sim.Engine.now engine +. t.settle);
    t.site_attempts <- t.site_attempts + 1;
    t.last_tried <- site;
    match attempt site with
    | Error Types.Site_not_available when tried < n - 1 ->
        t.failovers <- t.failovers + 1;
        go (tried + 1) ((site + 1) mod n)
    | Ok _ as ok ->
        t.last_served <- site;
        ok
    | Error _ as err -> err
  in
  go 0 t.home

(* A full failed rotation may still be transient (messages lost to the
   wire, a repair in flight), so the bounded-backoff layer wraps it.  With
   deadlines enabled the absolute deadline is fixed here, at the top of
   the operation, and flows through every rotation, retry and protocol
   round below; once it passes, no further rotation is attempted. *)
let forward t attempt =
  t.requests <- t.requests + 1;
  let engine = Cluster.engine t.cluster in
  let deadline = Option.map (fun b -> Sim.Engine.now engine +. b) t.budget in
  let retryable reason =
    Retry.transient reason
    && (match deadline with None -> true | Some d -> Sim.Engine.now engine < d)
  in
  Retry.run t.policy ~engine ~stats:t.stats ?rng:t.rng ~retryable (fun ~attempt:_ ->
      rotation t (attempt ~deadline))

let notify t view = List.iter (fun f -> f view) t.observers

(* observers carry closures, so structural comparison (even against [])
   is off the table; test emptiness by pattern instead. *)
let has_observers t = match t.observers with [] -> false | _ :: _ -> true

let read_block t block =
  let engine = Cluster.engine t.cluster in
  let invoked = Sim.Engine.now engine in
  let result = forward t (fun ~deadline site -> Cluster.read_sync ?deadline t.cluster ~site ~block) in
  if has_observers t then begin
    let responded = Sim.Engine.now engine in
    let view =
      match result with
      | Ok (data, version) ->
          { kind = Read; block; site = t.last_served; invoked; responded;
            payload = Some data; version = Some version; error = None }
      | Error e ->
          { kind = Read; block; site = t.last_tried; invoked; responded;
            payload = None; version = None; error = Some e }
    in
    notify t view
  end;
  result

let write_block t block data =
  let engine = Cluster.engine t.cluster in
  let invoked = Sim.Engine.now engine in
  let result = forward t (fun ~deadline site -> Cluster.write_sync ?deadline t.cluster ~site ~block data) in
  if has_observers t then begin
    let responded = Sim.Engine.now engine in
    let view =
      match result with
      | Ok version ->
          { kind = Write; block; site = t.last_served; invoked; responded;
            payload = Some data; version = Some version; error = None }
      | Error e ->
          { kind = Write; block; site = t.last_tried; invoked; responded;
            payload = Some data; version = None; error = Some e }
    in
    notify t view
  end;
  result

(* Batched forwarding: the whole group rides one rotation — failover,
   settle barrier and bounded retries are paid once per batch, not once
   per block.  Observers still see one event per block, after the batch
   resolves, so history checkers need not know about batching. *)

let notify_batch_writes t ~invoked writes result =
  if has_observers t then begin
    let responded = Sim.Engine.now (Cluster.engine t.cluster) in
    match result with
    | Ok versions ->
        List.iter2
          (fun (block, data) version ->
            notify t
              { kind = Write; block; site = t.last_served; invoked; responded;
                payload = Some data; version = Some version; error = None })
          writes versions
    | Error e ->
        List.iter
          (fun (block, data) ->
            notify t
              { kind = Write; block; site = t.last_tried; invoked; responded;
                payload = Some data; version = None; error = Some e })
          writes
  end

(* The batch is validated before any counter moves: a malformed batch is
   the caller's bug, not a request the degradation identity must account
   for. *)
let write_blocks t writes =
  if not (Cluster.valid_batch t.cluster (List.map fst writes)) then
    invalid_arg "Driver_stub.write_blocks: blocks must be non-empty, in range and distinct";
  let invoked = Sim.Engine.now (Cluster.engine t.cluster) in
  t.batch_requests <- t.batch_requests + 1;
  t.batched_blocks <- t.batched_blocks + List.length writes;
  let result = forward t (fun ~deadline site -> Cluster.write_blocks_sync ?deadline t.cluster ~site writes) in
  notify_batch_writes t ~invoked writes result;
  result
