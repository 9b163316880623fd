module Int_set = Types.Int_set
module Durable = Blockdev.Durable_store

type t = {
  rt : Runtime.t;
  (* groups.(site).(block): the last update group this site knows for the
     block.  The in-memory mirror of a journaled on-disk record (one
     metadata key per block): like the version numbers it survives site
     failures, and unlike them a torn write of it is caught by the scrub
     and reset to the conservative full-set default — a too-large
     cardinality only makes quorum tests stricter.  Votes carry only the
     cardinality (all the quorum test needs); the membership itself
     drives the availability predicate. *)
  groups : Types.Int_set.t array array;
}

let group_key block = Printf.sprintf "group%d" block

let set_group t site block g =
  t.groups.(site).(block) <- g;
  Durable.set_meta (Runtime.site t.rt site).Runtime.durable (group_key block)
    (Int_set.elements g)

(* A vote: (site, version, recorded group size). *)
let vote_of_reply block = function
  | from, Wire.Vote_reply { block = b; version; group_size; _ } when b = block ->
      Some (from, version, group_size)
  | _ -> None

let local_vote t site block purpose =
  ( site,
    Runtime.vote_version (Runtime.site t.rt site) purpose block,
    Int_set.cardinal t.groups.(site).(block) )

let coordinator_alive t site = (Runtime.site t.rt site).Runtime.state = Types.Available

(* The dynamic quorum test: among [votes], the holders of the highest
   version must form a strict majority of the group that installed it.
   Returns the current holders and the top version on success. *)
let quorum_check votes =
  let top_version = List.fold_left (fun acc (_, v, _) -> Int.max acc v) 0 votes in
  let holders = List.filter (fun (_, v, _) -> v = top_version) votes in
  (* All current holders recorded the same group write, hence the same
     cardinality; max-merge defends against a corrupt straggler. *)
  let last_group = List.fold_left (fun acc (_, _, g) -> Int.max acc g) 0 holders in
  if 2 * List.length holders > last_group then Some (holders, top_version) else None

(* Route around breaker-open peers in the vote round — conservatively:
   group membership is unknown until the votes land, so a peer may only be
   dropped from the awaited set while the survivors plus the coordinator
   still form a strict majority of the {e full} site set, the largest
   group any block can record.  The multicast still reaches dropped peers
   and their votes are tallied if they arrive; safety rests on the quorum
   test over received votes, never on the pruning. *)
let prune_suspects t ~site expected =
  let n = Runtime.n_sites t.rt in
  List.fold_left
    (fun kept peer ->
      if Runtime.breaker_allows t.rt ~coordinator:site ~peer then kept
      else
        let kept' = Int_set.remove peer kept in
        if 2 * (Int_set.cardinal kept' + 1) > n then kept' else kept)
    expected
    (List.rev (Int_set.elements expected))

let collect_votes ?deadline t ~site ~block ~purpose ~k =
  let expected = prune_suspects t ~site (Runtime.up_peers t.rt site) in
  let rid =
    Runtime.begin_round ?deadline t.rt ~coordinator:site ~expected
      ~on_complete:(fun outcome replies ->
        match outcome with
        | Runtime.Aborted -> k None
        | Runtime.Complete | Runtime.Timeout ->
            if not (coordinator_alive t site) then k None
            else
              let remote = List.filter_map (vote_of_reply block) replies in
              k (Some (local_vote t site block purpose :: remote)))
  in
  Runtime.broadcast t.rt ~op:purpose ~from:site (Wire.Vote_request { rid; block; purpose })

let apply_update t site block data ~version ~group =
  if Durable.absorb (Runtime.site t.rt site).Runtime.durable block data ~version then
    set_group t site block group

(* Version-based quorum checks can fail transiently while an update is
   still propagating (only the writer holds the top version for one
   latency).  Operations therefore retry once after the wires quiet
   down before reporting No_quorum. *)
let with_retry t ?deadline ~site attempt callback =
  let retried = ref false in
  let rec go () =
    attempt (function
      | Error Types.No_quorum when not !retried ->
          retried := true;
          let delay = (Runtime.config t.rt).Config.op_timeout in
          (* A retry that would start past the operation's deadline is not
             scheduled at all: the budget is already spent. *)
          if
            Runtime.past_deadline t.rt
              (Option.map (fun d -> d -. delay) deadline)
          then callback (Error Types.Timed_out)
          else
            ignore
              (Sim.Engine.schedule (Runtime.engine t.rt) ~delay (fun () ->
                   if (Runtime.site t.rt site).Runtime.state = Types.Available then go ()
                   else callback (Error Types.Site_not_available))
                : Sim.Engine.handle)
      | result -> callback result)
  in
  go ()

let read_attempt t ?deadline ~site ~block callback =
  let s = Runtime.site t.rt site in
  if s.Runtime.state <> Types.Available then callback (Error Types.Site_not_available)
  else if Runtime.past_deadline t.rt deadline then callback (Error Types.Timed_out)
  else
    collect_votes ?deadline t ~site ~block ~purpose:Net.Message.Read ~k:(function
      | None -> callback (Error Types.Site_not_available)
      | Some votes -> (
          match quorum_check votes with
          | None -> callback (Error Types.No_quorum)
          | Some (holders, top_version) -> (
              match Durable.read_verified s.Runtime.durable block with
              | Some (data, v) when v >= top_version -> callback (Ok (data, top_version))
              | _ when List.for_all (fun (i, _, _) -> i = site) holders ->
                  (* The local site is the only holder yet cannot serve: a
                     quarantined copy only wins the vote at effective
                     version 0 (a rotted never-written block), so there is
                     nothing to pull — heal it with the zero block. *)
                  if top_version = 0 then begin
                    Durable.write s.Runtime.durable block Blockdev.Block.zero ~version:0;
                    callback (Ok (Blockdev.Block.zero, 0))
                  end
                  else callback (Error Types.Current_copy_unreachable)
              | _ when Runtime.past_deadline t.rt deadline ->
                  (* The votes consumed the budget; the pull cannot meet
                     it, so it is not issued. *)
                  callback (Error Types.Timed_out)
              | _ ->
                  (* Pull from the lowest-id current holder (deterministic). *)
                  let source =
                    List.fold_left (fun acc (i, _, _) -> Int.min acc i) max_int
                      (List.filter (fun (i, _, _) -> i <> site) holders)
                  in
                  Runtime.fetch ?deadline t.rt ~site ~block ~source ~min_version:top_version
                    (function
                    | Ok (data, version) as served ->
                        (* Install the data but keep our group record: a
                           pulled copy does not make us a member of the
                           holder's group, and a conservative (over-large)
                           recorded cardinality can only make later quorum
                           tests stricter, never unsafe. *)
                        ignore (Durable.absorb s.Runtime.durable block data ~version : bool);
                        callback served
                    | Error _ as failed -> callback failed))))

let read t ?deadline ~site ~block callback =
  with_retry t ?deadline ~site (fun k -> read_attempt t ?deadline ~site ~block k) callback

let write_attempt t ?deadline ~site ~block data callback =
  let s = Runtime.site t.rt site in
  if s.Runtime.state <> Types.Available then callback (Error Types.Site_not_available)
  else if Runtime.past_deadline t.rt deadline then callback (Error Types.Timed_out)
  else
    collect_votes ?deadline t ~site ~block ~purpose:Net.Message.Write ~k:(function
      | None -> callback (Error Types.Site_not_available)
      | Some votes -> (
          match quorum_check votes with
          | None -> callback (Error Types.No_quorum)
          | Some (_, top_version) ->
              let version = top_version + 1 in
              (* Tentative new group: every voter (stale members are
                 thereby adopted back and rewritten). *)
              let tentative =
                List.fold_left (fun acc (i, _, _) -> Int_set.add i acc) Int_set.empty votes
              in
              Durable.write s.Runtime.durable block data ~version;
              set_group t site block tentative;
              (* The group's recorded cardinality must match who actually
                 applied the write, or a missed update could wedge a small
                 group forever: collect acknowledgements and, when someone
                 died in flight, publish the group that really formed. *)
              let expected = Int_set.remove site tentative in
              (* The ack round is deliberately NOT breaker-pruned: the
                 ackers determine the final group, and not waiting for a
                 live member would shrink the published group for a reason
                 unrelated to who applied the write.  The deadline still
                 clamps the wait. *)
              let rid =
                Runtime.begin_round ?deadline t.rt ~coordinator:site ~expected
                  ~on_complete:(fun outcome replies ->
                    match outcome with
                    | Runtime.Aborted -> callback (Error Types.Site_not_available)
                    | Runtime.Complete | Runtime.Timeout ->
                        let ackers =
                          List.filter_map
                            (function
                              | from, Wire.Write_ack { block = b; _ } when b = block -> Some from
                              | _ -> None)
                            replies
                        in
                        let final = Int_set.add site (Int_set.of_list ackers) in
                        if not (Int_set.equal final tentative) then begin
                          set_group t site block final;
                          Runtime.broadcast t.rt ~op:Net.Message.Write ~from:site
                            (Wire.Group_fix { block; version; group = final })
                        end;
                        callback (Ok version))
              in
              Runtime.broadcast t.rt ~op:Net.Message.Write ~from:site
                (Wire.Block_update { rid = Some rid; block; version; data; carried_w = tentative })))

let write t ?deadline ~site ~block data callback =
  with_retry t ?deadline ~site (fun k -> write_attempt t ?deadline ~site ~block data k) callback

let handle t (s : Runtime.site) ~from msg =
  match msg with
  | Wire.Vote_request { rid; block; purpose } ->
      Runtime.send t.rt ~op:purpose ~from:s.Runtime.id ~dst:from
        (Wire.Vote_reply
           {
             rid;
             block;
             version = Runtime.vote_version s purpose block;
             weight = 1;
             group_size = Int_set.cardinal t.groups.(s.Runtime.id).(block);
           })
  | Wire.Block_update { rid; block; version; data; carried_w } ->
      (* Only named group members may adopt the write: an unlisted site
         silently counting itself into the group would break the
         majority-of-last-group arithmetic. *)
      if Int_set.mem s.Runtime.id carried_w then begin
        apply_update t s.Runtime.id block data ~version ~group:carried_w;
        match rid with
        | Some rid ->
            Runtime.send t.rt ~op:Net.Message.Write ~from:s.Runtime.id ~dst:from
              (Wire.Write_ack { rid; block })
        | None -> ()
      end
  | Wire.Group_fix { block; version; group } ->
      (* Adopt the corrected cardinality only if we hold exactly that
         write. *)
      if
        Int_set.mem s.Runtime.id group
        && Durable.effective_version s.Runtime.durable block = version
      then set_group t s.Runtime.id block group
  | Wire.Block_request { rid; block } ->
      (* A quarantined copy serves (0, zero), which the requester rejects
         against the voted version. *)
      let version, data = Durable.serve s.Runtime.durable block in
      Runtime.send t.rt ~op:Net.Message.Read ~from:s.Runtime.id ~dst:from
        (Wire.Block_transfer { rid; block; version; data })
  | Wire.Vote_reply { rid; _ } | Wire.Block_transfer { rid; _ } | Wire.Write_ack { rid; _ } ->
      Runtime.reply t.rt ~rid ~from msg
  | Wire.Recovery_probe _ | Wire.Recovery_reply _ | Wire.Vv_send _ | Wire.Vv_reply _
  | Wire.Batch_vote_request _ | Wire.Batch_vote_reply _ | Wire.Batch_update _ | Wire.Batch_ack _ ->
      (* Dynamic voting keeps per-block update groups, which a shared
         batch round cannot carry; the cluster layer falls back to
         chained single-block operations for this scheme. *)
      ()

let create rt =
  let config = Runtime.config rt in
  let everyone = Int_set.of_list (List.init config.Config.n_sites Fun.id) in
  let t =
    {
      rt;
      groups = Array.init config.Config.n_sites (fun _ -> Array.make config.Config.n_blocks everyone);
    }
  in
  (* Register the conservative on-disk default for every group record, the
     value a scrub (torn metadata) or disk replacement falls back to. *)
  Array.iter
    (fun (s : Runtime.site) ->
      for b = 0 to config.Config.n_blocks - 1 do
        Durable.set_meta_default s.Runtime.durable (group_key b) (Int_set.elements everyone)
      done)
    (Runtime.sites rt);
  Runtime.set_dispatch rt (fun s ~from msg -> handle t s ~from msg);
  t

let on_repair t site =
  Runtime.repair_site t.rt site (fun (s : Runtime.site) ->
      (* Reload the in-memory group mirror from disk: the scrub may have
         reset a torn record to its full-set default, and a replaced disk
         comes back with defaults everywhere. *)
      let everyone = Int_set.of_list (List.init (Runtime.n_sites t.rt) Fun.id) in
      Array.iteri
        (fun block _ ->
          t.groups.(site).(block) <-
            (match Durable.get_meta s.Runtime.durable (group_key block) with
            | Some ids -> Int_set.of_list ids
            | None -> everyone))
        t.groups.(site);
      Runtime.set_state t.rt s.Runtime.id Types.Available)

(* Post-quiescence availability: once in-flight updates land, every up
   member of a block's last group holds its top version, so the block is
   serviceable iff a strict majority of that group is up.  Among the top
   holders' records we take the smallest group (the coordinator's
   post-fix one) — the most conservative. *)
let service_available t =
  let rt = t.rt in
  let config = Runtime.config rt in
  let sites = Runtime.sites rt in
  let ok = ref true in
  for block = 0 to config.Config.n_blocks - 1 do
    let top_version = ref 0 in
    Array.iter
      (fun (s : Runtime.site) ->
        top_version := Int.max !top_version (Durable.effective_version s.Runtime.durable block))
      sites;
    let group = ref None in
    Array.iter
      (fun (s : Runtime.site) ->
        if Durable.effective_version s.Runtime.durable block = !top_version then begin
          let g = t.groups.(s.Runtime.id).(block) in
          match !group with
          | Some best when Int_set.cardinal best <= Int_set.cardinal g -> ()
          | Some _ | None -> group := Some g
        end)
      sites;
    match !group with
    | None -> ok := false
    | Some g ->
        let members_up =
          Int_set.cardinal
            (Int_set.filter (fun i -> sites.(i).Runtime.state = Types.Available) g)
        in
        if not (2 * members_up > Int_set.cardinal g) then ok := false
  done;
  !ok
