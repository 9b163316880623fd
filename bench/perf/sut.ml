module Cluster = Blockrep.Cluster
module Device = Blockrep.Reliable_device
module Block = Blockdev.Block
module Msg = Net.Message
module Transport = Blockrep.Runtime.Transport

type scheme = Voting | Available_copy | Dynamic_voting
type latency = Constant of float | Exponential of float

type shape = {
  scheme : scheme;
  n_sites : int;
  n_blocks : int;
  latency : latency;
  ssd_sync : bool;
  brownout : bool;
  cluster_seed : int;
}

type cluster = Cluster.t
type device = Device.t
type engine = Sim.Engine.t
type block = Block.t
type reason = Blockrep.Types.failure_reason

let dist = function
  | Constant c -> Util.Dist.Constant c
  | Exponential rate -> Util.Dist.Exponential rate

(* The paper harness's robustness-on brown-out values: op budget =
   2 x op_timeout and breaker cooldown = 5 x op_timeout at the default
   4.0 timeout. *)
let brownout_robustness =
  {
    Blockrep.Robustness.deadlines = true;
    op_budget = Some 8.0;
    hedge = Some { Blockrep.Robustness.quantile = 0.9; floor = 1.0 };
    breaker = Some { Blockrep.Robustness.threshold = 5; cooldown = 20.0 };
    admission = Some 96;
  }

let config s =
  let scheme =
    match s.scheme with
    | Voting -> Blockrep.Types.Voting
    | Available_copy -> Blockrep.Types.Available_copy
    | Dynamic_voting -> Blockrep.Types.Dynamic_voting
  in
  let service, robustness =
    if s.brownout then (Some Net.Service_model.default, Some brownout_robustness) else (None, None)
  in
  Blockrep.Config.make_exn ~scheme ~n_sites:s.n_sites ~n_blocks:s.n_blocks ~latency:(dist s.latency)
    ~seed:s.cluster_seed ?service ?robustness
    ?sync_profile:(if s.ssd_sync then Some Blockdev.Sync_cost.Ssd else None)
    ()

let cluster s = Cluster.create (config s)
let device s = Device.of_config (config s)
let device_cluster = Device.cluster
let engine = Cluster.engine
let saturation_rate () = 1.0 /. Net.Service_model.mean_client_cost Net.Service_model.default
let ssd_fsync = Blockdev.Sync_cost.fsync_latency Blockdev.Sync_cost.Ssd

(* Bytes 0-7 hold block + 1 and bytes 8-15 op + 1 (little endian), so the
   all-zero block of a fresh device decodes to no tag. *)
let payload ~block ~op =
  let b = Bytes.make Block.size (Char.unsafe_chr (((block * 31) + op) land 0xff)) in
  Bytes.set_int64_le b 0 (Int64.of_int (block + 1));
  Bytes.set_int64_le b 8 (Int64.of_int (op + 1));
  Block.of_bytes b

let tag b =
  let s = Block.to_string b in
  let block = Int64.to_int (String.get_int64_le s 0) - 1 in
  let op = Int64.to_int (String.get_int64_le s 8) - 1 in
  if block < 0 then None else Some (block, op)

let dev_read = Device.read_block
let dev_write = Device.write_block
let dev_read_async = Device.read_block_async
let dev_write_async = Device.write_block_async
let write c ~site ~block data k = Cluster.write c ~site ~block data k
let write_sync c ~site ~block data = Result.is_ok (Cluster.write_sync c ~site ~block data)

let read_sync c ~site ~block =
  match Cluster.read_sync c ~site ~block with Ok r -> Some r | Error _ -> None

let read_async c ~site ~block k = Cluster.read c ~site ~block (fun _ -> k ())
let in_flight = Device.in_flight
let fail_site = Cluster.fail_site
let repair_site = Cluster.repair_site
let system_available = Cluster.system_available
let consistent_available_stores = Cluster.consistent_available_stores
let settle = Cluster.settle
let new_engine = Sim.Engine.create
let now = Sim.Engine.now
let step = Sim.Engine.step
let schedule_at e time f = ignore (Sim.Engine.schedule_at e ~time f : Sim.Engine.handle)
let schedule e delay f = ignore (Sim.Engine.schedule e ~delay f : Sim.Engine.handle)
let pending = Sim.Engine.pending
let events_fired = Sim.Engine.events_fired

type traffic = {
  msgs : int;
  bytes : int;
  by_category : int array;
  recovery_msgs : int;
  cells : string;
}

let category_list = Msg.all
let categories = Array.of_list (List.map Msg.to_string category_list)

let traffic c =
  let t = Cluster.traffic c in
  let cells = Buffer.create 256 in
  List.iter
    (fun op ->
      List.iter
        (fun cat ->
          let n = Net.Traffic.of_cell t op cat in
          if n > 0 then
            Printf.bprintf cells "%s/%s=%d/%d;" (Msg.operation_to_string op) (Msg.to_string cat) n
              (Net.Traffic.bytes_of_cell t op cat))
        category_list)
    Msg.all_operations;
  {
    msgs = Net.Traffic.total t;
    bytes = Net.Traffic.total_bytes t;
    by_category = Array.of_list (List.map (Net.Traffic.by_category t) category_list);
    recovery_msgs = Net.Traffic.by_operation t Msg.Recovery + Net.Traffic.by_operation t Msg.Repair;
    cells = Buffer.contents cells;
  }

let deliveries c = Transport.messages_delivered (Cluster.network c)
let journal_commits c = (Cluster.storage_counters c).Blockdev.Durable_store.journal_commits

let server_depth c i =
  match Cluster.server c i with Some s -> Sim.Server.depth s | None -> 0

let on_round_start c f =
  Blockrep.Runtime.on_round_start (Cluster.runtime c) (fun ~coordinator:_ ~deadline:_ ~expected:_ ->
      f ())

type client = {
  requests : int;
  attempts : int;
  retries : int;
  succeeded : int;
  hedged : int;
  hedge_wins : int;
  shed : int;
  breaker_trips : int;
  msgs_shed : int;
  conserved : bool;
}

let device_client d =
  let g = Device.degradation d in
  {
    requests = g.Device.requests;
    attempts = g.Device.site_attempts;
    retries = g.Device.retries;
    succeeded = g.Device.succeeded;
    hedged = g.Device.hedged;
    hedge_wins = g.Device.hedge_wins;
    shed = g.Device.shed;
    breaker_trips = g.Device.breaker_trips;
    msgs_shed = g.Device.messages_shed;
    conserved = Device.degradation_conserved g;
  }

let cluster_client c =
  {
    requests = 0;
    attempts = 0;
    retries = 0;
    succeeded = 0;
    hedged = Cluster.hedged c;
    hedge_wins = Cluster.hedge_wins c;
    shed = Cluster.client_shed c;
    breaker_trips = Cluster.breaker_trips c;
    msgs_shed = Cluster.messages_shed c;
    conserved = true;
  }

type message = Blockrep.Wire.t

let sample_message s i =
  let module W = Blockrep.Wire in
  let sites = Blockrep.Types.int_set_of_list (List.init s.n_sites Fun.id) in
  let versions = Blockdev.Version_vector.create s.n_blocks in
  for b = 0 to s.n_blocks - 1 do
    Blockdev.Version_vector.set versions b (1 + (b * 7 mod 1000))
  done;
  let info =
    { W.origin = 0; state = Blockrep.Types.Available; versions; was_available = sites }
  in
  let rid = 4321 and block = s.n_blocks / 2 and version = 777 in
  let data = payload ~block ~op:version in
  match List.nth category_list i with
  | Msg.Vote_request -> W.Vote_request { rid; block; purpose = Msg.Write }
  | Msg.Vote_reply -> W.Vote_reply { rid; block; version; weight = 1; group_size = s.n_sites }
  | Msg.Block_update -> W.Block_update { rid = Some rid; block; version; data; carried_w = sites }
  | Msg.Write_ack -> W.Write_ack { rid; block }
  | Msg.Block_request -> W.Block_request { rid; block }
  | Msg.Block_transfer -> W.Block_transfer { rid; block; version; data }
  | Msg.Recovery_probe -> W.Recovery_probe { rid; info }
  | Msg.Recovery_reply -> W.Recovery_reply { rid; info }
  | Msg.Version_vector_send -> W.Vv_send { rid; versions; w_of_sender = sites }
  | Msg.Version_vector_reply ->
      W.Vv_reply { rid; versions; updates = [ (block, version, data) ]; w_of_source = sites }
  | Msg.Was_available_update -> W.Group_fix { block; version; group = sites }

let is_broadcast i =
  match List.nth category_list i with
  | Msg.Vote_request | Msg.Block_update | Msg.Recovery_probe | Msg.Was_available_update -> true
  | Msg.Vote_reply | Msg.Write_ack | Msg.Block_request | Msg.Block_transfer | Msg.Recovery_reply
  | Msg.Version_vector_send | Msg.Version_vector_reply ->
      false

let wire_size = Blockrep.Wire.size
let wire_encode = Blockrep.Wire.encode
let wire_decode_ok b = Result.is_ok (Blockrep.Wire.decode b)
let crc = Codec.Crc.digest_bytes

type transport = Transport.t

let transport e s =
  let t =
    Transport.create e ~mode:Net.Network.Multicast ~latency:(dist s.latency)
      ~rng:(Util.Prng.create s.cluster_seed) ~n_sites:s.n_sites
  in
  for id = 0 to s.n_sites - 1 do
    Transport.register t ~id (fun ~from:_ _ -> ())
  done;
  t

let send t ~from ~dst m = Transport.send t ~op:Msg.Write ~from ~dst m
let broadcast t ~from m = Transport.broadcast t ~op:Msg.Write ~from m

type store = Blockdev.Durable_store.t

let store ~capacity = Blockdev.Durable_store.create ~capacity
let store_write = Blockdev.Durable_store.write
let store_read_verified s b = Option.is_some (Blockdev.Durable_store.read_verified s b)
