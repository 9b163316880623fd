module Int_set = Types.Int_set
module Durable = Blockdev.Durable_store

type t = { rt : Runtime.t; quorum : Quorum.t; witnesses : Int_set.t }

let is_witness t i = Int_set.mem i t.witnesses

(* A vote as tallied by a coordinator: (site, version, weight). *)
let vote_of_reply block = function
  | from, Wire.Vote_reply { block = b; version; weight; _ } when b = block ->
      Some (from, version, weight)
  | _ -> None

let local_vote t site_id block purpose =
  ( site_id,
    Runtime.vote_version (Runtime.site t.rt site_id) purpose block,
    Quorum.weight t.quorum site_id )

(* Witnesses keep only the version number of what they absorb. *)
let absorb t (s : Runtime.site) block version data =
  ignore
    (Durable.absorb s.durable block
       (if is_witness t s.id then Blockdev.Block.zero else data)
       ~version
      : bool)

(* Highest version wins; prefer the local site on ties (free), then the
   lowest id (determinism). *)
let best_vote self votes =
  let better (s1, v1, _) (s2, v2, _) =
    if v1 <> v2 then v1 > v2
    else if s1 = self || s2 = self then s1 = self
    else s1 < s2
  in
  match votes with
  | [] -> invalid_arg "Voting.best_vote: no votes"
  | first :: rest -> List.fold_left (fun acc v -> if better v acc then v else acc) first rest

let coordinator_alive t site_id = (Runtime.site t.rt site_id).state = Types.Available

(* Route around suspected-slow peers: drop breaker-open peers from the
   awaited set — highest id first, deterministically — but only while the
   weight still awaited (survivors plus the coordinator) meets the
   operation's quorum rule, so pruning can never turn a quorum that would
   form into a refusal.  The vote multicast still reaches dropped peers
   and a vote that arrives anyway is tallied; only the waiting stops.
   Safety never rests on the pruning being right: the quorum test runs on
   the votes actually received. *)
let prune_suspects t ~site_id ~quorum_met expected =
  let weight_with set =
    Quorum.weight t.quorum site_id
    + Int_set.fold (fun i acc -> acc + Quorum.weight t.quorum i) set 0
  in
  List.fold_left
    (fun kept peer ->
      if Runtime.breaker_allows t.rt ~coordinator:site_id ~peer then kept
      else
        let kept' = Int_set.remove peer kept in
        if quorum_met (weight_with kept') then kept' else kept)
    expected
    (List.rev (Int_set.elements expected))

let quorum_met_for t purpose =
  match purpose with
  | Net.Message.Write -> Quorum.write_quorum_met t.quorum
  | Net.Message.Read | Net.Message.Recovery | Net.Message.Repair -> Quorum.read_quorum_met t.quorum

let collect_votes ?deadline t ~site_id ~block ~purpose ~k =
  let expected =
    prune_suspects t ~site_id ~quorum_met:(quorum_met_for t purpose) (Runtime.up_peers t.rt site_id)
  in
  let rid =
    Runtime.begin_round ?deadline t.rt ~coordinator:site_id ~expected
      ~on_complete:(fun outcome replies ->
        match outcome with
        | Runtime.Aborted -> k None
        | Runtime.Complete | Runtime.Timeout ->
            if not (coordinator_alive t site_id) then k None
            else begin
              let votes =
                local_vote t site_id block purpose :: List.filter_map (vote_of_reply block) replies
              in
              k (Some votes)
            end)
  in
  Runtime.broadcast t.rt ~op:purpose ~from:site_id (Wire.Vote_request { rid; block; purpose })

(* ------------------------------------------------------------------ *)
(* Group commit (batched writes)                                       *)
(*                                                                     *)
(* The k-block analogue of Figure 4: ONE vote collection covers every  *)
(* block of the batch (a batch-vote-request out, batch-vote replies    *)
(* back) and ONE update multicast carries all k new (block, version,   *)
(* data) triples.  The quorum test is unchanged — weights are per      *)
(* site, not per block — so a batch commits iff a single-block write   *)
(* at the same instant would.                                          *)
(* ------------------------------------------------------------------ *)

(* Per-site batched votes: (site, (block, version) assoc, weight). *)
let collect_batch_votes ?deadline t ~site_id ~blocks ~k =
  let purpose = Net.Message.Write in
  let expected =
    prune_suspects t ~site_id ~quorum_met:(quorum_met_for t purpose) (Runtime.up_peers t.rt site_id)
  in
  let rid =
    Runtime.begin_round ?deadline t.rt ~coordinator:site_id ~expected
      ~on_complete:(fun outcome replies ->
        match outcome with
        | Runtime.Aborted -> k None
        | Runtime.Complete | Runtime.Timeout ->
            if not (coordinator_alive t site_id) then k None
            else begin
              let s = Runtime.site t.rt site_id in
              let local =
                ( site_id,
                  List.map (fun b -> (b, Runtime.vote_version s purpose b)) blocks,
                  Quorum.weight t.quorum site_id )
              in
              let remote =
                List.filter_map
                  (function
                    | from, Wire.Batch_vote_reply { votes; weight; _ } -> Some (from, votes, weight)
                    | _ -> None)
                  replies
              in
              k (Some (local :: remote))
            end)
  in
  Runtime.broadcast t.rt ~op:purpose ~from:site_id (Wire.Batch_vote_request { rid; blocks; purpose })

let batch_max_version votes block =
  List.fold_left
    (fun acc (_, bv, _) -> match List.assoc_opt block bv with Some v -> Int.max acc v | None -> acc)
    0 votes

let write_batch t ?deadline ~site writes callback =
  let s = Runtime.site t.rt site in
  if s.state <> Types.Available then callback (Error Types.Site_not_available)
  else if Runtime.past_deadline t.rt deadline then callback (Error Types.Timed_out)
  else
    let blocks = List.map fst writes in
    collect_batch_votes ?deadline t ~site_id:site ~blocks ~k:(function
      | None -> callback (Error Types.Site_not_available)
      | Some votes ->
          let weight = List.fold_left (fun acc (_, _, w) -> acc + w) 0 votes in
          if not (Quorum.write_quorum_met t.quorum weight) then callback (Error Types.No_quorum)
          else begin
            let versioned =
              List.map
                (fun (block, data) ->
                  let version = batch_max_version votes block + 1 in
                  Durable.write s.durable block
                    (if is_witness t site then Blockdev.Block.zero else data)
                    ~version;
                  (block, version, data))
                writes
            in
            Runtime.broadcast t.rt ~op:Net.Message.Write ~from:site
              (Wire.Batch_update { rid = None; writes = versioned; carried_w = Int_set.empty });
            callback (Ok (List.map (fun (_, v, _) -> v) versioned))
          end)

let read t ?deadline ~site ~block callback =
  let s = Runtime.site t.rt site in
  if s.state <> Types.Available then callback (Error Types.Site_not_available)
  else if Runtime.past_deadline t.rt deadline then callback (Error Types.Timed_out)
  else
    collect_votes ?deadline t ~site_id:site ~block ~purpose:Net.Message.Read ~k:(function
      | None -> callback (Error Types.Site_not_available)
      | Some votes ->
          let weight = List.fold_left (fun acc (_, _, w) -> acc + w) 0 votes in
          if not (Quorum.read_quorum_met t.quorum weight) then callback (Error Types.No_quorum)
          else begin
            let _, max_version, _ = best_vote site votes in
            let data_votes = List.filter (fun (i, _, _) -> not (is_witness t i)) votes in
            match data_votes with
            | [] -> callback (Error Types.Current_copy_unreachable)
            | _ -> (
                let best_data_site, best_data_version, _ = best_vote site data_votes in
                if best_data_version < max_version then
                  (* A witness proves a newer version exists, but no data
                     site in the quorum holds it. *)
                  callback (Error Types.Current_copy_unreachable)
                else begin
                  match Durable.read_verified s.durable block with
                  | Some (data, local_version)
                    when (not (is_witness t site)) && local_version >= best_data_version ->
                      callback (Ok (data, local_version))
                  | Some _ | None ->
                      if best_data_site <> site then
                        if Runtime.past_deadline t.rt deadline then
                          callback (Error Types.Timed_out)
                        else
                          (* Lazy per-block recovery: serve the current copy
                             and install it locally. *)
                          Runtime.fetch ?deadline t.rt ~site ~block ~source:best_data_site
                            ~min_version:best_data_version (function
                            | Ok (data, version) as served ->
                                absorb t s block version data;
                                callback served
                            | Error _ as failed -> callback failed)
                      else begin
                        (* The local copy won the vote tie but cannot serve:
                           it is quarantined at effective version 0 (so every
                           data vote was 0 — a rotted never-written block).
                           There is no remote copy to pull; heal it with the
                           zero block it logically holds and serve that. *)
                        Durable.write s.durable block Blockdev.Block.zero ~version:0;
                        callback (Ok (Blockdev.Block.zero, 0))
                      end
                end)
          end)

let write t ?deadline ~site ~block data callback =
  let s = Runtime.site t.rt site in
  if s.state <> Types.Available then callback (Error Types.Site_not_available)
  else if Runtime.past_deadline t.rt deadline then callback (Error Types.Timed_out)
  else
    collect_votes ?deadline t ~site_id:site ~block ~purpose:Net.Message.Write ~k:(function
      | None -> callback (Error Types.Site_not_available)
      | Some votes ->
          let weight = List.fold_left (fun acc (_, _, w) -> acc + w) 0 votes in
          if not (Quorum.write_quorum_met t.quorum weight) then callback (Error Types.No_quorum)
          else begin
            let _, max_version, _ = best_vote site votes in
            let version = max_version + 1 in
            Durable.write s.durable block
              (if is_witness t site then Blockdev.Block.zero else data)
              ~version;
            Runtime.broadcast t.rt ~op:Net.Message.Write ~from:site
              (Wire.Block_update { rid = None; block; version; data; carried_w = Int_set.empty });
            callback (Ok version)
          end)

let handle t (s : Runtime.site) ~from msg =
  match msg with
  | Wire.Vote_request { rid; block; purpose } ->
      Runtime.send t.rt ~op:purpose ~from:s.id ~dst:from
        (Wire.Vote_reply
           {
             rid;
             block;
             version = Runtime.vote_version s purpose block;
             weight = Quorum.weight t.quorum s.id;
             group_size = Quorum.n_sites t.quorum;
           })
  | Wire.Block_update { block; version; data; _ } ->
      (* Witnesses retain only the version number: the data they are
         handed is dropped, which is their whole storage advantage. *)
      absorb t s block version data
  | Wire.Block_request { rid; block } ->
      (* Only data sites are ever asked, so serving unconditionally is
         safe; a witness replying zeroes would indicate a coordinator bug,
         which the assert below would surface in tests.  A quarantined
         copy serves (0, zero), which the requester rejects against the
         version the vote promised. *)
      assert (not (is_witness t s.id));
      let version, data = Durable.serve s.durable block in
      Runtime.send t.rt ~op:Net.Message.Read ~from:s.id ~dst:from
        (Wire.Block_transfer { rid; block; version; data })
  | Wire.Batch_vote_request { rid; blocks; purpose } ->
      Runtime.send t.rt ~op:purpose ~from:s.id ~dst:from
        (Wire.Batch_vote_reply
           {
             rid;
             votes = List.map (fun b -> (b, Runtime.vote_version s purpose b)) blocks;
             weight = Quorum.weight t.quorum s.id;
             group_size = Quorum.n_sites t.quorum;
           })
  | Wire.Batch_update { writes; _ } ->
      List.iter (fun (block, version, data) -> absorb t s block version data) writes
  | Wire.Vote_reply { rid; _ } | Wire.Block_transfer { rid; _ } | Wire.Batch_vote_reply { rid; _ } ->
      Runtime.reply t.rt ~rid ~from msg
  | Wire.Write_ack _ | Wire.Recovery_probe _ | Wire.Recovery_reply _ | Wire.Vv_send _
  | Wire.Vv_reply _ | Wire.Group_fix _ | Wire.Batch_ack _ ->
      (* Messages of the other schemes have no meaning under voting; a
         misdirected message is a bug in the sender, not the receiver. *)
      ()

let create rt =
  let config = Runtime.config rt in
  let t = { rt; quorum = config.quorum; witnesses = config.witnesses } in
  Runtime.set_dispatch rt (fun s ~from msg -> handle t s ~from msg);
  t

let on_repair t site_id =
  Runtime.repair_site t.rt site_id (fun (s : Runtime.site) ->
      Runtime.set_state t.rt s.id Types.Available)

let quorum_up t =
  let sites = Runtime.sites t.rt in
  let up =
    Array.fold_left
      (fun acc (s : Runtime.site) -> if s.state = Types.Available then s.id :: acc else acc)
      [] sites
  in
  let weight = Quorum.weight_of t.quorum up in
  let quorum = Quorum.read_quorum_met t.quorum weight && Quorum.write_quorum_met t.quorum weight in
  if (not quorum) || Int_set.is_empty t.witnesses then quorum
  else begin
    (* With witnesses, reads additionally need a reachable data site
       holding the current version of every block. *)
    let n_blocks = (Runtime.config t.rt).n_blocks in
    let ok = ref true in
    for block = 0 to n_blocks - 1 do
      let global_max = Runtime.newest_version t.rt block in
      let current_data_up =
        List.exists
          (fun i ->
            (not (is_witness t i))
            && Durable.effective_version sites.(i).durable block = global_max)
          up
      in
      if not current_data_up then ok := false
    done;
    !ok
  end
