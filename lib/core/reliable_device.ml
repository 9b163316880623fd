type t = {
  cluster : Cluster.t;
  stub : Driver_stub.t;
  admission : int option;
  mutable in_flight : int;
  mutable shed : int;
  mutable async_ops : int;
  mutable async_ok : int;
  mutable async_timeouts : int;
  mutable async_rejected : int;
  mutable async_failed : int;
  mutable last_error : Types.failure_reason option;
}

let create ?home ?policy ?settle ?rng ?admission cluster =
  let admission =
    match admission with
    | Some _ as a -> a
    | None -> (Cluster.config cluster).Config.robustness.Robustness.admission
  in
  (match admission with
  | Some n when n < 1 -> invalid_arg "Reliable_device.create: admission limit must be at least 1"
  | Some _ | None -> ());
  {
    cluster;
    stub = Driver_stub.create ?home ?policy ?settle ?rng cluster;
    admission;
    in_flight = 0;
    shed = 0;
    async_ops = 0;
    async_ok = 0;
    async_timeouts = 0;
    async_rejected = 0;
    async_failed = 0;
    last_error = None;
  }

let of_config ?policy ?settle ?rng ?admission config =
  create ?policy ?settle ?rng ?admission (Cluster.create config)

let cluster t = t.cluster
let stub t = t.stub
let capacity t = Cluster.n_blocks t.cluster
let in_flight t = t.in_flight

let read_block t k =
  if k < 0 || k >= capacity t then None
  else
    match Driver_stub.read_block t.stub k with
    | Ok (data, _version) ->
        t.last_error <- None;
        Some data
    | Error reason ->
        t.last_error <- Some reason;
        None

let write_block t k data =
  if k < 0 || k >= capacity t then false
  else
    match Driver_stub.write_block t.stub k data with
    | Ok _version ->
        t.last_error <- None;
        true
    | Error reason ->
        t.last_error <- Some reason;
        false

(* Batched write, for the write-back cache: one stub rotation commits the
   whole group.  Mirrors the single-block convention — a malformed batch
   (empty, out of range or with a repeated id) answers false without
   touching the cluster or any counter. *)
let write_blocks t writes =
  if not (Cluster.valid_batch t.cluster (List.map fst writes)) then false
  else
    match Driver_stub.write_blocks t.stub writes with
    | Ok _versions ->
        t.last_error <- None;
        true
    | Error reason ->
        t.last_error <- Some reason;
        false

let last_error t = t.last_error

(* ------------------------------------------------------------------ *)
(* Asynchronous operations with admission control                      *)
(* ------------------------------------------------------------------ *)

let admit t = match t.admission with Some limit -> t.in_flight < limit | None -> true

let op_deadline t =
  Option.map
    (fun b -> Sim.Engine.now (Cluster.engine t.cluster) +. b)
    (Driver_stub.deadline_budget t.stub)

(* Classify each settled async operation into exactly one degradation
   bucket, so the conservation identity covers the open-loop path too:
   cluster-level [Overloaded] (full entry queue downstream) counts as
   rejected, [Timed_out] as a deadline timeout, any other error as given
   up (the async path carries no retry loop). *)
let finish_async t callback result =
  t.in_flight <- t.in_flight - 1;
  (match result with
  | Ok _ ->
      t.async_ok <- t.async_ok + 1;
      t.last_error <- None
  | Error reason ->
      (match reason with
      | Types.Overloaded -> t.async_rejected <- t.async_rejected + 1
      | Types.Timed_out -> t.async_timeouts <- t.async_timeouts + 1
      | _ -> t.async_failed <- t.async_failed + 1);
      t.last_error <- Some reason);
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
    (fun finish ->
      Cluster.read t.cluster ?deadline:(op_deadline t) ~site:(Driver_stub.home t.stub) ~block:k
        finish)
    callback

let write_block_async t k data callback =
  check_async t k "write_block_async";
  submit_async t
    (fun finish ->
      Cluster.write t.cluster ?deadline:(op_deadline t) ~site:(Driver_stub.home t.stub) ~block:k
        data finish)
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
  faults_injected : int;
  frames_rejected : int;
  frames_quarantined : int;
  frames_retransmitted : int;
  quarantine_trips : int;
  corrupted_deliveries : int;
  corrupt_rejected : int;
  corrupt_quarantined : int;
  corrupt_survived : int;
  last_errors : (float * string) list;
}

let degradation t =
  let s = Driver_stub.retry_stats t.stub in
  {
    requests = Driver_stub.requests t.stub + t.async_ops + t.shed;
    site_attempts = Driver_stub.site_attempts t.stub + t.async_ops;
    failovers = Driver_stub.failovers t.stub;
    retries = Retry.retries s;
    succeeded = Retry.succeeded s + t.async_ok;
    recovered = Retry.recovered s;
    timeouts = Retry.timeouts s + t.async_timeouts;
    gave_up = Retry.gave_up s + t.async_failed;
    rejected = Retry.rejected s + t.async_rejected;
    shed = t.shed;
    hedged = Cluster.hedged t.cluster;
    hedge_wins = Cluster.hedge_wins t.cluster;
    breaker_trips = Cluster.breaker_trips t.cluster;
    messages_shed = Cluster.messages_shed t.cluster;
    faults_injected = (match Cluster.faults t.cluster with None -> 0 | Some f -> Net.Faults.total_injected f);
    frames_rejected = Cluster.frames_rejected t.cluster;
    frames_quarantined = Cluster.frames_quarantined t.cluster;
    frames_retransmitted = Cluster.frames_retransmitted t.cluster;
    quarantine_trips = Cluster.quarantine_trips t.cluster;
    corrupted_deliveries = Cluster.corrupted_deliveries t.cluster;
    corrupt_rejected = Cluster.corrupt_rejected t.cluster;
    corrupt_quarantined = Cluster.corrupt_quarantined t.cluster;
    corrupt_survived = Cluster.corrupt_survived t.cluster;
    last_errors = Retry.last_errors s;
  }

let degradation_conserved d =
  d.requests = d.succeeded + d.timeouts + d.gave_up + d.rejected + d.shed

let wire_conserved d =
  d.corrupted_deliveries = d.corrupt_rejected + d.corrupt_quarantined + d.corrupt_survived

let pp_degradation ppf d =
  Format.fprintf ppf
    "@[<v>degradation: %d requests (%d ok), %d site attempts, %d failovers@,\
     %d retries (%d recovered), %d deadline timeouts, %d gave up, %d rejected, %d shed@,\
     %d hedged (%d wins), %d breaker trips, %d messages shed, %d faults injected@,\
     wire: %d frames rejected, %d quarantined (%d trips), %d retransmitted; \
     %d corrupted = %d rejected + %d quarantined + %d survived"
    d.requests d.succeeded d.site_attempts d.failovers d.retries d.recovered d.timeouts d.gave_up
    d.rejected d.shed d.hedged d.hedge_wins d.breaker_trips d.messages_shed d.faults_injected
    d.frames_rejected d.frames_quarantined d.quarantine_trips d.frames_retransmitted
    d.corrupted_deliveries d.corrupt_rejected d.corrupt_quarantined d.corrupt_survived;
  List.iter (fun (at, msg) -> Format.fprintf ppf "@,  t=%-10.3f %s" at msg) (List.rev d.last_errors);
  Format.fprintf ppf "@]"
