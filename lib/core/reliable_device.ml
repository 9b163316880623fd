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
  settle : float;  (** drain imposed before switching service between available sites *)
  budget : float option;
      (** per-operation virtual-time budget; each request's absolute
          deadline is [now + budget], propagated end-to-end *)
  admission : int option;
  stats : Retry.stats;  (** one [Retry.run] per sync request *)
  mutable site_attempts : int;
  mutable failovers : int;
  mutable last_served : int;
  mutable last_tried : int;
  mutable observers : (op_view -> unit) list;
  mutable last_error : Types.failure_reason option;
  mutable in_flight : int;
  mutable shed : int;
  mutable async_ops : int;
  mutable async_ok : int;
  mutable async_timeouts : int;
  mutable async_rejected : int;
  mutable async_failed : int;
}

let create ?(home = 0) cluster =
  if home < 0 || home >= Cluster.n_sites cluster then
    invalid_arg "Reliable_device.create: bad home site";
  let config = Cluster.config cluster in
  let policy = Retry.default_policy ~unit:config.Config.op_timeout () in
  let robustness = config.Config.robustness in
  let budget =
    if not robustness.Robustness.deadlines then None
    else
      (* An explicit op budget, or the retry policy's own deadline — the
         point past which the device would abandon the operation anyway, so
         sub-requests beyond it are provably useless. *)
      Some (Option.value robustness.Robustness.op_budget ~default:policy.Retry.deadline)
  in
  {
    cluster;
    home;
    policy;
    settle = config.Config.op_timeout;
    budget;
    admission = robustness.Robustness.admission;
    stats = Retry.create_stats ();
    site_attempts = 0;
    failovers = 0;
    last_served = home;
    last_tried = home;
    observers = [];
    last_error = None;
    in_flight = 0;
    shed = 0;
    async_ops = 0;
    async_ok = 0;
    async_timeouts = 0;
    async_rejected = 0;
    async_failed = 0;
  }

let of_config config = create (Cluster.create config)
let cluster t = t.cluster
let home t = t.home
let deadline_budget t = t.budget
let capacity t = Cluster.n_blocks t.cluster
let last_error t = t.last_error
let in_flight t = t.in_flight
let add_observer t f = t.observers <- t.observers @ [ f ]
let now t = Sim.Engine.now (Cluster.engine t.cluster)
let op_deadline t = Option.map (fun b -> now t +. b) t.budget

(* ------------------------------------------------------------------ *)
(* Forwarding: home-first rotation under bounded retries               *)
(* ------------------------------------------------------------------ *)

(* One rotation: try the home site first, then the remaining sites once in
   id order when the local server cannot serve.  The home never migrates —
   a transient outage must not permanently strand requests elsewhere; the
   next request probes the home again and service resumes the moment it
   recovers.  Other error kinds (quorum loss) are global, so failing over
   would not help and the error is surfaced to the retry layer.

   Before handing a request to an *available* site other than the one that
   served last, the device lets in-flight traffic drain for [settle]
   virtual time: the copy schemes propagate updates fire-and-forget, so
   without the barrier a failover (or the return home after one) could
   read a copy that has not yet received the previous server's update — or
   worse, write at it and mint a colliding version.  Down sites are probed
   without waiting; failing over past a corpse must stay fast. *)
let rotation t attempt =
  let n = Cluster.n_sites t.cluster in
  let rec go tried site =
    if site <> t.last_served && Cluster.site_state t.cluster site = Types.Available then
      Cluster.run_until t.cluster (now t +. t.settle);
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
   round below; no retry is started at or past it. *)
let forward t attempt =
  let deadline = op_deadline t in
  Retry.run t.policy ~engine:(Cluster.engine t.cluster) ~stats:t.stats ?deadline
    (fun ~attempt:_ -> rotation t (attempt ~deadline))

(* Observers carry closures, so structural comparison (even against [])
   is off the table; test emptiness by pattern instead. *)
let has_observers t = match t.observers with [] -> false | _ :: _ -> true

let observe t kind block ~invoked ~payload result =
  let view =
    match result with
    | Ok version ->
        { kind; block; site = t.last_served; invoked; responded = now t; payload;
          version = Some version; error = None }
    | Error e ->
        { kind; block; site = t.last_tried; invoked; responded = now t; payload;
          version = None; error = Some e }
  in
  List.iter (fun f -> f view) t.observers

(* Remember why the latest answer failed, for [last_error]. *)
let remember t = function Ok _ -> t.last_error <- None | Error reason -> t.last_error <- Some reason

let read_block t block =
  if block < 0 || block >= capacity t then None
  else begin
    let invoked = now t in
    let result = forward t (fun ~deadline site -> Cluster.read_sync ?deadline t.cluster ~site ~block) in
    (if has_observers t then
       match result with
       | Ok (data, version) -> observe t Read block ~invoked ~payload:(Some data) (Ok version)
       | Error e -> observe t Read block ~invoked ~payload:None (Error e));
    remember t result;
    match result with Ok (data, _) -> Some data | Error _ -> None
  end

let write_block t block data =
  if block < 0 || block >= capacity t then false
  else begin
    let invoked = now t in
    let result =
      forward t (fun ~deadline site -> Cluster.write_sync ?deadline t.cluster ~site ~block data)
    in
    if has_observers t then observe t Write block ~invoked ~payload:(Some data) result;
    remember t result;
    Result.is_ok result
  end

(* Group commit: the whole group rides one rotation.  A malformed batch is
   the caller's bug, not a request the degradation identity must account
   for, so it is refused before any counter moves.  Observers still see
   one event per block, after the batch resolves, so history checkers need
   not know about batching. *)
let write_blocks t writes =
  if not (Cluster.valid_batch t.cluster (List.map fst writes)) then false
  else begin
    let invoked = now t in
    let result =
      forward t (fun ~deadline site -> Cluster.write_blocks_sync ?deadline t.cluster ~site writes)
    in
    (if has_observers t then
       match result with
       | Ok versions ->
           List.iter2
             (fun (block, data) version ->
               observe t Write block ~invoked ~payload:(Some data) (Ok version))
             writes versions
       | Error e ->
           List.iter
             (fun (block, data) -> observe t Write block ~invoked ~payload:(Some data) (Error e))
             writes);
    remember t result;
    Result.is_ok result
  end

(* ------------------------------------------------------------------ *)
(* Asynchronous operations with admission control                      *)
(* ------------------------------------------------------------------ *)

let admit t = match t.admission with Some limit -> t.in_flight < limit | None -> true

(* Classify each settled async operation into exactly one degradation
   bucket, so the conservation identity covers the open-loop path too:
   cluster-level [Overloaded] (full entry queue downstream) counts as
   rejected, [Timed_out] as a deadline timeout, any other error as given
   up (the async path carries no retry loop). *)
let finish_async t callback result =
  t.in_flight <- t.in_flight - 1;
  (match result with
  | Ok _ -> t.async_ok <- t.async_ok + 1
  | Error Types.Overloaded -> t.async_rejected <- t.async_rejected + 1
  | Error Types.Timed_out -> t.async_timeouts <- t.async_timeouts + 1
  | Error _ -> t.async_failed <- t.async_failed + 1);
  remember t result;
  callback result

let check_async t k name =
  if k < 0 || k >= capacity t then invalid_arg ("Reliable_device." ^ name ^ ": block out of range")

let submit_async t issue callback =
  if not (admit t) then begin
    t.shed <- t.shed + 1;
    t.last_error <- Some Types.Overloaded;
    callback (Error Types.Overloaded)
  end
  else begin
    t.async_ops <- t.async_ops + 1;
    t.in_flight <- t.in_flight + 1;
    issue (finish_async t callback)
  end

let read_block_async t k callback =
  check_async t k "read_block_async";
  submit_async t
    (fun finish -> Cluster.read t.cluster ?deadline:(op_deadline t) ~site:t.home ~block:k finish)
    callback

let write_block_async t k data callback =
  check_async t k "write_block_async";
  submit_async t
    (fun finish ->
      Cluster.write t.cluster ?deadline:(op_deadline t) ~site:t.home ~block:k data finish)
    callback

(* ------------------------------------------------------------------ *)
(* Degradation statistics                                              *)
(* ------------------------------------------------------------------ *)

type degradation = {
  requests : int;
  site_attempts : int;
  failovers : int;
  retries : int;
  succeeded : int;
  recovered : int;
  timeouts : int;
  gave_up : int;
  rejected : int;
  shed : int;
  hedged : int;
  hedge_wins : int;
  breaker_trips : int;
  messages_shed : int;
  last_errors : (float * string) list;
}

let degradation t =
  let s = t.stats in
  {
    requests = Retry.operations s + t.async_ops + t.shed;
    site_attempts = t.site_attempts + t.async_ops;
    failovers = t.failovers;
    retries = Retry.retries s;
    succeeded = Retry.succeeded s + t.async_ok;
    recovered = Retry.recovered s;
    timeouts = Retry.timeouts s + t.async_timeouts;
    gave_up = Retry.gave_up s + t.async_failed;
    rejected = t.async_rejected;
    shed = t.shed;
    hedged = Cluster.hedged t.cluster;
    hedge_wins = Cluster.hedge_wins t.cluster;
    breaker_trips = Cluster.breaker_trips t.cluster;
    messages_shed = Cluster.messages_shed t.cluster;
    last_errors = Retry.last_errors s;
  }

let degradation_conserved d =
  d.requests = d.succeeded + d.timeouts + d.gave_up + d.rejected + d.shed
