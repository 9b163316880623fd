module Durable = Blockdev.Durable_store

type protocol = Voting_p of Voting.t | Copy_p of Copy_protocol.t | Dynamic_p of Dynamic_voting.t

type t = {
  rt : Runtime.t;
  protocol : protocol;
  monitor : Availability_monitor.t;
  (* Robustness bookkeeping; all zero / None when the features are off. *)
  mutable client_shed : int;
  mutable hedged : int;
  mutable hedge_wins : int;
  read_lat : Util.Stats.Histogram.t option;
      (** completed-read latencies, allocated only when hedging is
          configured — its quantiles set the hedge delay *)
}

let system_available_rt protocol =
  match protocol with
  | Voting_p v -> Voting.quorum_up v
  | Copy_p c -> Copy_protocol.any_available c
  | Dynamic_p d -> Dynamic_voting.service_available d

let create (config : Config.t) =
  let rt = Runtime.create config in
  let protocol =
    match config.scheme with
    | Types.Voting -> Voting_p (Voting.create rt)
    | Types.Available_copy -> Copy_p (Copy_protocol.create rt Copy_protocol.Standard)
    | Types.Naive_available_copy -> Copy_p (Copy_protocol.create rt Copy_protocol.Naive)
    | Types.Dynamic_voting -> Dynamic_p (Dynamic_voting.create rt)
  in
  let monitor = Availability_monitor.create (Runtime.engine rt) ~initially:true in
  let read_lat =
    match config.robustness.Robustness.hedge with
    | None -> None
    | Some _ ->
        (* Latencies past op_timeout land in the overflow counter; the
           quantile is over in-range samples, which is exactly the
           population a useful hedge delay comes from. *)
        Some (Util.Stats.Histogram.create ~lo:0.0 ~hi:config.op_timeout ~bins:64)
  in
  let t = { rt; protocol; monitor; client_shed = 0; hedged = 0; hedge_wins = 0; read_lat } in
  let engine = Runtime.engine rt in
  Runtime.on_state_change rt (fun _ _ ->
      Availability_monitor.record monitor (system_available_rt protocol);
      (* Availability predicates read store versions, which in-flight
         updates are still propagating; re-sample once the wires are
         quiet so a transient skew is not latched until the next site
         event (the dynamic scheme is sensitive to this). *)
      ignore
        (Sim.Engine.schedule engine ~delay:config.op_timeout (fun () ->
             Availability_monitor.record monitor (system_available_rt protocol))
          : Sim.Engine.handle));
  t

let config t = Runtime.config t.rt
let runtime t = t.rt
let engine t = Runtime.engine t.rt
let traffic t = Runtime.traffic t.rt
let network t = Runtime.net t.rt
let monitor t = t.monitor
let scheme t = (config t).scheme
let n_sites t = Runtime.n_sites t.rt
let n_blocks t = (config t).n_blocks

let check_block t block =
  if block < 0 || block >= n_blocks t then invalid_arg "Cluster: block index out of range"

(* Stable-storage sync cost: a successful client-visible write means the
   coordinator's journal commit (its fsync) retired, so the completion is
   delayed by the configured profile's fsync latency before the caller
   sees it.  One charge per client operation: a batch group-commits
   through one intention record, which is exactly the amortization the
   batch path exists for.  Replica fsyncs overlap the network ack path
   and are not separately charged (documented in DESIGN.md §4i).  [None]
   schedules nothing — the exact legacy completion path. *)
let with_sync_cost t callback =
  match (Runtime.config t.rt).Config.sync_profile with
  | None -> callback
  | Some p -> (
      fun result ->
        match result with
        | Ok _ ->
            ignore
              (Sim.Engine.schedule (engine t)
                 ~delay:(Blockdev.Sync_cost.fsync_latency p)
                 (fun () -> callback result)
                : Sim.Engine.handle)
        | Error _ -> callback result)

let valid_batch t blocks =
  blocks <> []
  && List.for_all (fun b -> b >= 0 && b < n_blocks t) blocks
  && List.length (List.sort_uniq Int.compare blocks) = List.length blocks

(* Admission at the cluster boundary: with a service model installed,
   every client operation enters its coordinator site's bounded work queue
   and pays the seeded per-client service cost before the protocol runs; a
   full queue rejects the operation immediately with [Overloaded] instead
   of letting it pile onto a site that cannot keep up.  Without a service
   model ([`Direct]) the thunk runs synchronously — the exact legacy
   path. *)
let enter t ~site ~fail thunk =
  match Runtime.Transport.submit_client (Runtime.net t.rt) ~site thunk with
  | `Direct -> thunk ()
  | `Queued -> ()
  | `Shed ->
      t.client_shed <- t.client_shed + 1;
      fail Types.Overloaded

(* Feed the hedge-delay histogram with every completed read's latency
   (queueing included — the clock starts at submission). *)
let with_read_latency t callback =
  match t.read_lat with
  | None -> callback
  | Some hist ->
      let invoked = Sim.Engine.now (engine t) in
      fun r ->
        Util.Stats.Histogram.add hist (Sim.Engine.now (engine t) -. invoked);
        callback r

let hedge_delay t (h : Robustness.hedge) =
  match t.read_lat with
  | Some hist when Util.Stats.Histogram.in_range hist >= 20 ->
      let q = Util.Stats.Histogram.quantile hist h.Robustness.quantile in
      if Float.is_nan q then h.Robustness.floor else Float.max h.Robustness.floor q
  | Some _ | None -> h.Robustness.floor

(* Second coordinator for a hedged read: the lowest-id available site other
   than the primary that the primary's breakers still trust. *)
let hedge_peer t ~site =
  let sites = Runtime.sites t.rt in
  let n = Array.length sites in
  let rec go i =
    if i >= n then None
    else if
      i <> site
      && sites.(i).Runtime.state = Types.Available
      && Runtime.breaker_allows t.rt ~coordinator:site ~peer:i
    then Some i
    else go (i + 1)
  in
  go 0

let protocol_read t ?deadline ~site ~block callback =
  match t.protocol with
  | Voting_p v -> Voting.read v ?deadline ~site ~block callback
  | Copy_p c -> Copy_protocol.read c ?deadline ~site ~block callback
  | Dynamic_p d -> Dynamic_voting.read d ?deadline ~site ~block callback

let read t ?deadline ~site ~block callback =
  check_block t block;
  let callback = with_read_latency t callback in
  match (config t).robustness.Robustness.hedge with
  | None -> enter t ~site ~fail:(fun e -> callback (Error e)) (fun () ->
        protocol_read t ?deadline ~site ~block callback)
  | Some h ->
      (* Hedged read: race a second copy of the read at another coordinator
         after the configured latency quantile.  The hedge rides the peer's
         own entry queue (that load is real), and its result only counts if
         its version is at or above what the primary site already stores —
         a hedge may reduce tail latency, never freshness.  First answer
         wins; hedge failures are ignored (the primary's bounded rounds
         always settle the operation). *)
      let settled = ref false in
      let finish r =
        if not !settled then begin
          settled := true;
          callback r
        end
      in
      (* A hedge read at [peer]: counts only if its version is at or above
         what the primary site already stores (the single client writes
         through the primary, so its store holds the newest committed
         version even when a peer missed a shed update) — a hedge may
         reduce tail latency, never freshness.  [miss] decides what a
         stale answer or an error means: nothing for a timed hedge (the
         primary's bounded rounds settle the operation), surfaced for an
         admission spillover (there is no primary to fall back on). *)
      let hedge_read ~peer ~miss =
        t.hedged <- t.hedged + 1;
        let version_floor = Durable.version (Runtime.site t.rt site).Runtime.durable block in
        protocol_read t ?deadline ~site:peer ~block (function
          | Ok (data, version) when version >= version_floor ->
              if not !settled then begin
                t.hedge_wins <- t.hedge_wins + 1;
                finish (Ok (data, version))
              end
          | (Ok _ | Error _) as r -> miss r)
      in
      let submit_at peer work ~shed =
        match Runtime.Transport.submit_client (Runtime.net t.rt) ~site:peer work with
        | `Direct -> work ()
        | `Queued -> ()
        | `Shed -> shed ()
      in
      let shed_for_real () =
        t.client_shed <- t.client_shed + 1;
        finish (Error Types.Overloaded)
      in
      let primary () = protocol_read t ?deadline ~site ~block finish in
      (match Runtime.Transport.submit_client (Runtime.net t.rt) ~site primary with
      | `Direct -> primary ()
      | `Queued -> ()
      | `Shed -> (
          (* Admission spillover: the primary's queue is full, so divert
             the read to the hedge peer right away instead of failing it —
             overflow capacity from a site the breakers still trust.  If
             no peer can take it either, the read is shed for real. *)
          match hedge_peer t ~site with
          | None -> shed_for_real ()
          | Some peer ->
              submit_at peer ~shed:shed_for_real (fun () ->
                  hedge_read ~peer ~miss:(function
                    | Ok _ -> shed_for_real ()
                    | Error _ as e -> finish e))));
      if not !settled then
        ignore
          (Sim.Engine.schedule (engine t) ~delay:(hedge_delay t h) (fun () ->
               if not !settled then
                 match hedge_peer t ~site with
                 | None -> ()
                 | Some peer ->
                     submit_at peer
                       ~shed:(fun () -> ())
                       (fun () -> hedge_read ~peer ~miss:(fun _ -> ())))
            : Sim.Engine.handle)

let write t ?deadline ~site ~block data callback =
  check_block t block;
  let callback = with_sync_cost t callback in
  enter t ~site ~fail:(fun e -> callback (Error e)) (fun () ->
      match t.protocol with
      | Voting_p v -> Voting.write v ?deadline ~site ~block data callback
      | Copy_p c -> Copy_protocol.write c ?deadline ~site ~block data callback
      | Dynamic_p d -> Dynamic_voting.write d ?deadline ~site ~block data callback)

(* A batch of one takes the single-block path exactly — same wire
   messages, same result — so defaults are bit-identical to the unbatched
   cluster.  Dynamic voting keeps per-block update groups
   that a shared vote round cannot carry, so it falls back to chaining the
   single-block writes (no amortization, full correctness). *)
let write_blocks t ?deadline ~site writes callback =
  if not (valid_batch t (List.map fst writes)) then
    invalid_arg "Cluster: batch blocks must be non-empty, in range and distinct";
  match writes with
  | [ (block, data) ] ->
      write t ?deadline ~site ~block data (fun r -> callback (Result.map (fun v -> [ v ]) r))
  | _ ->
      let callback = with_sync_cost t callback in
      enter t ~site ~fail:(fun e -> callback (Error e)) (fun () ->
          match t.protocol with
          | Voting_p v -> Voting.write_batch v ?deadline ~site writes callback
          | Copy_p c -> Copy_protocol.write_batch c ?deadline ~site writes callback
          | Dynamic_p d ->
              let rec chain acc = function
                | [] -> callback (Ok (List.rev acc))
                | (b, data) :: rest ->
                    Dynamic_voting.write d ?deadline ~site ~block:b data (function
                      | Ok v -> chain (v :: acc) rest
                      | Error e -> callback (Error e))
              in
              chain [] writes)

(* Drive the engine until the callback lands.  Operations always settle in
   bounded virtual time (rounds carry timeouts), so the loop terminates even
   with recurrent failure processes scheduled. *)
let run_sync t issue =
  let result = ref None in
  issue (fun r -> result := Some r);
  let engine = engine t in
  let rec drive () =
    match !result with
    | Some r -> r
    | None ->
        if Sim.Engine.step engine then drive ()
        else
          (* Queue drained without an answer: the callback path was lost to
             a coordinator failure.  Report the local site as gone. *)
          Error Types.Site_not_available
  in
  drive ()

let read_sync ?deadline t ~site ~block = run_sync t (fun k -> read t ?deadline ~site ~block k)

let write_sync ?deadline t ~site ~block data =
  run_sync t (fun k -> write t ?deadline ~site ~block data k)

let write_blocks_sync ?deadline t ~site writes =
  run_sync t (fun k -> write_blocks t ?deadline ~site writes k)

let faults t = Runtime.Transport.faults (Runtime.net t.rt)

let install_faults t f = Runtime.Transport.install_faults (Runtime.net t.rt) f

(* Per-link corruption control for chaos events: a wire-corrupt episode
   turns one directed link into a persistent corruptor; heal restores the
   injector's ambient profile.  A cluster built with a pristine profile
   gets a pristine injector on demand, so the episode is never a silent
   no-op and the other links draw nothing. *)
let corrupt_link t ~from ~dst =
  Net.Faults.set_link (Runtime.injector t.rt) ~from ~dst Net.Faults.persistent_corruptor

let heal_link t ~from ~dst =
  match faults t with
  | Some f -> Net.Faults.set_link f ~from ~dst (Net.Faults.default_profile f)
  | None -> ()

let frames_rejected t = Net.Traffic.frames_rejected (Runtime.Transport.traffic (Runtime.net t.rt))

let frames_quarantined t =
  Net.Traffic.frames_quarantined (Runtime.Transport.traffic (Runtime.net t.rt))

let frames_retransmitted t = Runtime.Transport.frames_retransmitted (Runtime.net t.rt)
let quarantine_trips t = Runtime.Transport.quarantine_trips (Runtime.net t.rt)

let corrupted_deliveries t =
  match faults t with Some f -> Net.Faults.corrupted_deliveries f | None -> 0

let corrupt_rejected t = Runtime.Transport.corrupt_rejected (Runtime.net t.rt)
let corrupt_quarantined t = Runtime.Transport.corrupt_quarantined (Runtime.net t.rt)
let corrupt_survived t = Runtime.Transport.corrupt_survived (Runtime.net t.rt)
let corruption_conserved t = Runtime.Transport.corruption_conserved (Runtime.net t.rt)

let fail_site t i =
  Runtime.fail_site t.rt i;
  Availability_monitor.record t.monitor (system_available_rt t.protocol)

let repair_site t i =
  (match t.protocol with
  | Voting_p v -> Voting.on_repair v i
  | Copy_p c -> Copy_protocol.on_repair c i
  | Dynamic_p d -> Dynamic_voting.on_repair d i);
  Availability_monitor.record t.monitor (system_available_rt t.protocol)

let partition t groups = Runtime.Transport.partition (Runtime.net t.rt) groups
let heal t = Runtime.Transport.heal (Runtime.net t.rt)

(* ------------------------------------------------------------------ *)
(* Storage faults                                                      *)
(* ------------------------------------------------------------------ *)

let check_site t i =
  if i < 0 || i >= n_sites t then invalid_arg "Cluster: site index out of range"

let arm_torn_write ?mode t i =
  check_site t i;
  Durable.arm_torn_write ?mode (Runtime.site t.rt i).durable

let inject_bitrot t ~site ~block =
  check_site t site;
  check_block t block;
  Durable.inject_bitrot (Runtime.site t.rt site).durable block

let replace_disk t i =
  check_site t i;
  (* The medium is swapped while the site is down (a running site does not
     lose its disk under it); a later repair brings the blank replica back
     through the ordinary recovery path. *)
  Runtime.fail_site t.rt i;
  Durable.replace_disk (Runtime.site t.rt i).durable;
  Availability_monitor.record t.monitor (system_available_rt t.protocol)

let checksum_ok t ~site ~block =
  check_site t site;
  check_block t block;
  Durable.checksum_ok (Runtime.site t.rt site).durable block

let effective_version t ~site ~block =
  check_site t site;
  check_block t block;
  Durable.effective_version (Runtime.site t.rt site).durable block

let last_scrub t i =
  check_site t i;
  Durable.last_scrub (Runtime.site t.rt i).durable

let storage_counters t =
  let acc = Durable.zero_counters () in
  Array.iter
    (fun (s : Runtime.site) -> Durable.accumulate_counters acc (Durable.counters s.durable))
    (Runtime.sites t.rt);
  acc

(* ------------------------------------------------------------------ *)
(* Robustness: overload control and gray-failure injection             *)
(* ------------------------------------------------------------------ *)

let client_shed t = t.client_shed
let hedged t = t.hedged
let hedge_wins t = t.hedge_wins
let breaker_trips t = Runtime.breaker_trips t.rt
let messages_shed t = Runtime.Transport.total_shed (Runtime.net t.rt)

let server t i =
  check_site t i;
  Runtime.server t.rt i

let set_rate_factor t i f =
  check_site t i;
  Runtime.Transport.set_rate_factor (Runtime.net t.rt) i f

let flood_site t i ~count =
  check_site t i;
  Runtime.Transport.flood_site (Runtime.net t.rt) i ~count

let read_latency t = t.read_lat

let site_state t i = (Runtime.site t.rt i).state
let site_versions t i = Durable.versions (Runtime.site t.rt i).durable
let site_was_available t i = (Runtime.site t.rt i).w

let system_available t = system_available_rt t.protocol

let run_until t horizon = Sim.Engine.run_until (engine t) horizon
let settle t = Sim.Engine.run (engine t)

let consistent_available_stores t =
  match t.protocol with
  | Voting_p _ | Dynamic_p _ ->
      (* Quorum-intersection safety: whenever the scheme can serve — a read
         quorum's weight is up (voting), or the dynamic service predicate
         holds — some up site holds a verified copy of the globally newest
         provable version of every block.  Effective versions: a
         quarantined copy claims nothing. *)
      let up =
        Array.to_list (Runtime.sites t.rt)
        |> List.filter (fun (s : Runtime.site) -> s.state = Types.Available)
      in
      let serving =
        match t.protocol with
        | Dynamic_p d -> Dynamic_voting.service_available d
        | Voting_p _ | Copy_p _ ->
            let quorum = (config t).quorum in
            Quorum.read_quorum_met quorum
              (Quorum.weight_of quorum (List.map (fun (s : Runtime.site) -> s.id) up))
      in
      let rec newest_held_up block =
        block >= n_blocks t
        ||
        let newest = Runtime.newest_version t.rt block in
        List.exists
          (fun (s : Runtime.site) -> Durable.effective_version s.durable block = newest)
          up
        && newest_held_up (block + 1)
      in
      (not serving) || newest_held_up 0
  | Copy_p _ ->
      (* Every pair of verified copies at available sites must agree; a
         quarantined copy is excused — it refuses to serve rather than
         serving divergent bytes, and peer read-repair heals it. *)
      let avail =
        Array.to_list (Runtime.sites t.rt)
        |> List.filter (fun (s : Runtime.site) -> s.state = Types.Available)
      in
      let ok = ref true in
      for block = 0 to n_blocks t - 1 do
        let copies =
          List.filter_map (fun (s : Runtime.site) -> Durable.read_verified s.durable block) avail
        in
        match copies with
        | [] -> ()
        | (d0, v0) :: rest ->
            if not (List.for_all (fun (d, v) -> v = v0 && Blockdev.Block.equal d d0) rest) then
              ok := false
      done;
      !ok
