module Transport = Net.Network.Make (Wire)
module Int_set = Types.Int_set
module Durable = Blockdev.Durable_store

type site = {
  id : int;
  durable : Durable.t;
  mutable state : Types.site_state;
  mutable w : Types.Int_set.t;
  cache : Wire.site_info option array;
  mutable repairing : bool;
}

(* Journaled-metadata key under which a site's was-available set lives on
   disk; its registered default (everyone) is the conservative fallback a
   scrub restores after a torn metadata write — a too-large W only widens
   the closure a recovery waits for, never fabricates availability. *)
let w_meta_key = "w"

type outcome = Complete | Timeout | Aborted

type round = {
  coordinator : int;
  expected : Types.Int_set.t;
  mutable replies : (int * Wire.t) list;
  mutable answered : Types.Int_set.t;
  mutable timeout_handle : Sim.Engine.handle option;
  on_complete : outcome -> (int * Wire.t) list -> unit;
}

type t = {
  config : Config.t;
  engine : Sim.Engine.t;
  net : Transport.t;
  sites : site array;
  mutable next_rid : int;
  rounds : (int, round) Hashtbl.t;
  mutable listeners : (int -> Types.site_state -> unit) list;
  mutable dispatch : site -> from:int -> Wire.t -> unit;
  (* breakers.(coordinator).(peer): that coordinator's view of the peer.
     Allocated only when the robustness config asks for breakers, so the
     default path carries no per-round bookkeeping at all. *)
  breakers : Breaker.t array array option;
  mutable round_probes : (coordinator:int -> deadline:float option -> expected:Types.Int_set.t -> unit) list;
}

(* A fault injector gets its own seeded stream, leaving the latency and
   workload streams of the same seed untouched. *)
let injector_of (config : Config.t) profile =
  Net.Faults.of_seed ~seed:(config.seed lxor 0x6661756c74) profile

let create (config : Config.t) =
  let engine = Sim.Engine.create () in
  let rng = Util.Prng.create config.seed in
  (* A pristine profile installs no injector at all, so the network takes
     the exact legacy delivery path (the default-off no-op guarantee). *)
  let faults =
    if Net.Faults.is_pristine config.fault_profile then None
    else Some (injector_of config config.fault_profile)
  in
  let net =
    Transport.create ?faults engine ~mode:config.net_mode ~latency:config.latency
      ~rng:(Util.Prng.split rng) ~n_sites:config.n_sites
  in
  (* Service costs draw from their own seeded stream: installing the model
     must not perturb the latency or workload draws of the same seed. *)
  (match config.service with
  | None -> ()
  | Some model ->
      Transport.install_service net model ~rng:(Util.Prng.create (config.seed lxor 0x73657276)));
  let breakers =
    match config.robustness.Robustness.breaker with
    | None -> None
    | Some { Robustness.threshold; cooldown } ->
        Some
          (Array.init config.n_sites (fun _ ->
               Array.init config.n_sites (fun _ -> Breaker.create engine ~threshold ~cooldown)))
  in
  (* A frame that fails to decode is evidence against the {e claimed}
     sender's link, so the receiver charges its breaker for that peer:
     a persistently corrupting link trips open exactly like a dead or
     slow one.  Successes stay round-based (see [finish_round]) — a
     clean decode is not yet a served request.  In-heap deliveries never
     reject, so the hook only fires once the injector corrupts. *)
  (match breakers with
  | Some m ->
      Transport.set_reject_hook net (fun ~dst ~from _reject ->
          if dst <> from then Breaker.record_failure m.(dst).(from))
  | None -> ());
  let make_site id =
    let durable = Durable.create ~capacity:config.n_blocks in
    let everyone = List.init config.n_sites Fun.id in
    Durable.set_meta_default durable w_meta_key everyone;
    {
      id;
      durable;
      state = Types.Available;
      (* Everyone holds version 0 of every block, so initially every site
         "received the most recent write". *)
      w = Int_set.of_list everyone;
      cache = Array.make config.n_sites None;
      repairing = false;
    }
  in
  let t =
    {
      config;
      engine;
      net;
      sites = Array.init config.n_sites make_site;
      next_rid = 0;
      rounds = Hashtbl.create 64;
      listeners = [];
      dispatch = (fun _ ~from:_ _ -> ());
      breakers;
      round_probes = [];
    }
  in
  Array.iter
    (fun (s : site) ->
      Transport.register net ~id:s.id (fun ~from payload -> t.dispatch s ~from payload))
    t.sites;
  t

let config t = t.config
let engine t = t.engine
let net t = t.net
let traffic t = Transport.traffic t.net
let n_sites t = t.config.n_sites

let site t i =
  if i < 0 || i >= n_sites t then invalid_arg "Runtime.site: bad site id";
  t.sites.(i)

let sites t = t.sites

let injector t =
  match Transport.faults t.net with
  | Some f -> f
  | None ->
      let f = injector_of t.config Net.Faults.pristine in
      Transport.install_faults t.net f;
      f

let set_dispatch t f = t.dispatch <- f

let on_state_change t f = t.listeners <- f :: t.listeners

let set_state t i st =
  let s = site t i in
  if s.state <> st then begin
    s.state <- st;
    List.iter (fun f -> f i st) t.listeners
  end

let make_info t i =
  let s = site t i in
  {
    Wire.origin = i;
    state = s.state;
    versions = Durable.versions s.durable;
    was_available = s.w;
  }

let cache_info t i (info : Wire.site_info) =
  let s = site t i in
  if info.origin <> i then s.cache.(info.origin) <- Some info

let finish_round t rid outcome =
  match Hashtbl.find_opt t.rounds rid with
  | None -> ()
  | Some round ->
      Hashtbl.remove t.rounds rid;
      (match round.timeout_handle with
      | Some h -> Sim.Engine.cancel t.engine h
      | None -> ());
      (* Feed the coordinator's breakers before on_complete so a retry
         issued inside the callback already routes around the silence.
         Answering counts as proof of life even in a round that timed out
         on someone else; an aborted round (coordinator death) says
         nothing about the peers. *)
      (match t.breakers with
      | None -> ()
      | Some m -> (
          match outcome with
          | Aborted -> ()
          | Complete | Timeout ->
              let mine = m.(round.coordinator) in
              Int_set.iter
                (fun p -> if p <> round.coordinator then Breaker.record_success mine.(p))
                round.answered;
              if outcome = Timeout then
                Int_set.iter
                  (fun p ->
                    if p <> round.coordinator && not (Int_set.mem p round.answered) then
                      Breaker.record_failure mine.(p))
                  round.expected));
      round.on_complete outcome (List.rev round.replies)

let past_deadline t deadline =
  match deadline with None -> false | Some d -> Sim.Engine.now t.engine >= d

let on_round_start t f = t.round_probes <- f :: t.round_probes

let begin_round ?deadline t ~coordinator ~expected ~on_complete =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  List.iter (fun f -> f ~coordinator ~deadline ~expected) t.round_probes;
  let round =
    { coordinator; expected; replies = []; answered = Int_set.empty; timeout_handle = None; on_complete }
  in
  Hashtbl.replace t.rounds rid round;
  if past_deadline t deadline then
    (* Callers guard round-opening points with {!past_deadline}, so this is
       the backstop: a round that cannot meet its budget times out on the
       next tick instead of waiting out op_timeout.  (Requests, if any were
       sent, are already moot — their replies would land after the
       deadline.) *)
    ignore
      (Sim.Engine.schedule t.engine ~delay:0.0 (fun () -> finish_round t rid Timeout)
        : Sim.Engine.handle)
  else if Int_set.is_empty expected then
    (* Complete on the next engine tick so callers can finish setting up. *)
    ignore
      (Sim.Engine.schedule t.engine ~delay:0.0 (fun () -> finish_round t rid Complete)
        : Sim.Engine.handle)
  else begin
    (* A deadline clamps the round's patience: waiting longer than the
       budget allows could only produce replies the operation can no
       longer use. *)
    let wait =
      match deadline with
      | None -> t.config.op_timeout
      | Some d -> Float.min t.config.op_timeout (d -. Sim.Engine.now t.engine)
    in
    round.timeout_handle <-
      Some (Sim.Engine.schedule t.engine ~delay:wait (fun () -> finish_round t rid Timeout))
  end;
  rid

let reply t ~rid ~from payload =
  match Hashtbl.find_opt t.rounds rid with
  | None -> ()
  | Some round ->
      if not (Int_set.mem from round.answered) then begin
        round.answered <- Int_set.add from round.answered;
        round.replies <- (from, payload) :: round.replies;
        if Int_set.subset round.expected round.answered then finish_round t rid Complete
      end

let round_active t rid = Hashtbl.mem t.rounds rid

let abort_rounds_of t coordinator =
  (* Sorted so aborts fire in rid order regardless of hash layout:
     abort callbacks are observable (timeouts, retries), and replay
     equality across runs depends on their order. *)
  let to_abort =
    Hashtbl.fold (fun rid r acc -> if r.coordinator = coordinator then rid :: acc else acc) t.rounds []
    |> List.sort Int.compare
  in
  List.iter (fun rid -> finish_round t rid Aborted) to_abort

let set_w t i w =
  let s = site t i in
  s.w <- w;
  Durable.set_meta s.durable w_meta_key (Int_set.elements w)

let fail_site t i =
  let s = site t i in
  if s.state <> Types.Failed then begin
    Durable.crash s.durable;
    Transport.set_up t.net i false;
    Array.fill s.cache 0 (Array.length s.cache) None;
    s.repairing <- false;
    abort_rounds_of t i;
    set_state t i Types.Failed
  end

let repair_site t i on_repair =
  let s = site t i in
  if s.state = Types.Failed then begin
    (* Power back on: integrity pass over the journal before the protocol
       sees the disk, then reload the disk-resident metadata mirror. *)
    Durable.scrub s.durable;
    (match Durable.get_meta s.durable w_meta_key with
    | Some ids -> s.w <- Int_set.of_list ids
    | None -> ());
    Transport.set_up t.net i true;
    on_repair s
  end

let send t ~op ~from ~dst payload = Transport.send t.net ~op ~from ~dst payload
let broadcast t ~op ~from payload = Transport.broadcast t.net ~op ~from payload

(* ------------------------------------------------------------------ *)
(* Replica state                                                       *)
(* ------------------------------------------------------------------ *)

let newest_version t block =
  Array.fold_left (fun acc s -> Int.max acc (Durable.effective_version s.durable block)) 0 t.sites

let vote_version s purpose block =
  match purpose with
  | Net.Message.Write -> Durable.version s.durable block
  | Net.Message.Read | Net.Message.Recovery | Net.Message.Repair ->
      Durable.effective_version s.durable block

let fetch ?deadline t ~site ~block ~source ~min_version callback =
  let rid =
    begin_round ?deadline t ~coordinator:site ~expected:(Int_set.singleton source)
      ~on_complete:(fun outcome replies ->
        if t.sites.(site).state <> Types.Available then callback (Error Types.Site_not_available)
        else
          match
            ( outcome,
              List.find_map
                (function
                  | _, Wire.Block_transfer { block = b; version; data; _ } when b = block ->
                      Some (version, data)
                  | _ -> None)
                replies )
          with
          | (Complete | Timeout), Some (version, data) when version >= min_version ->
              callback (Ok (data, version))
          | (Complete | Timeout), Some _ | _, None | Aborted, _ -> callback (Error Types.Timed_out))
  in
  send t ~op:Net.Message.Read ~from:site ~dst:source (Wire.Block_request { rid; block })

let up_peers t i =
  List.fold_left
    (fun acc j ->
      if j <> i && Transport.reachable t.net i j then Int_set.add j acc else acc)
    Int_set.empty
    (Transport.up_sites t.net)

let peers_matching t i pred =
  Int_set.filter (fun j -> pred t.sites.(j)) (up_peers t i)

(* ------------------------------------------------------------------ *)
(* Robustness plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let server t i =
  if i < 0 || i >= n_sites t then invalid_arg "Runtime.server: bad site id";
  Transport.server t.net i

let breaker t ~coordinator ~peer =
  if coordinator < 0 || coordinator >= n_sites t || peer < 0 || peer >= n_sites t then
    invalid_arg "Runtime.breaker: bad site id";
  Option.map (fun m -> m.(coordinator).(peer)) t.breakers

let breaker_allows t ~coordinator ~peer =
  match breaker t ~coordinator ~peer with None -> true | Some b -> Breaker.allows b

let breaker_trips t =
  match t.breakers with
  | None -> 0
  | Some m ->
      Array.fold_left
        (fun acc row -> Array.fold_left (fun acc b -> acc + Breaker.trips b) acc row)
        0 m
