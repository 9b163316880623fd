module Int_set = Types.Int_set
module Durable = Blockdev.Durable_store
module Vv = Blockdev.Version_vector

type variant = Standard | Naive

type t = { rt : Runtime.t; variant : variant }

let full_set t = Int_set.of_list (List.init (Runtime.n_sites t.rt) Fun.id)

(* ------------------------------------------------------------------ *)
(* Data access                                                         *)
(* ------------------------------------------------------------------ *)

(* Steady-state peer read-repair: an available site whose local copy fails
   its checksum asks the available peers for the block instead of serving
   garbage.  Only a verified copy at or above the local stored version may
   heal the quarantine — the intact version number is a floor below which
   this disk must not regress — so a repaired read can never be stale. *)
let read_repair t ?deadline ~site ~block callback =
  let s = Runtime.site t.rt site in
  let floor_version = Durable.version s.durable block in
  if Int_set.is_empty (Runtime.peers_matching t.rt site (fun p -> p.state = Types.Available))
  then
    if floor_version = 0 then begin
      (* A rotted never-written block with nobody to ask: it logically
         holds the zero block, so heal it in place and serve that. *)
      Durable.write s.durable block Blockdev.Block.zero ~version:0;
      callback (Ok (Blockdev.Block.zero, 0))
    end
    else callback (Error Types.Current_copy_unreachable)
  else if Runtime.past_deadline t.rt deadline then callback (Error Types.Timed_out)
  else begin
    let expected = Runtime.peers_matching t.rt site (fun p -> p.state = Types.Available) in
    let rid =
      Runtime.begin_round ?deadline t.rt ~coordinator:site ~expected
        ~on_complete:(fun outcome replies ->
          match outcome with
          | Runtime.Aborted -> callback (Error Types.Site_not_available)
          | Runtime.Complete | Runtime.Timeout -> (
              let best =
                List.fold_left
                  (fun acc reply ->
                    match reply with
                    | _, Wire.Block_transfer { block = b; version; data; _ }
                      when b = block && version >= floor_version -> (
                        match acc with
                        | Some (_, v) when v >= version -> acc
                        | _ -> Some (data, version))
                    | _ -> acc)
                  None replies
              in
              match best with
              | Some (data, version) -> (
                  (* A newer write may have landed while the round was out:
                     install under the replica rule, then serve what the
                     local copy now verifiably holds. *)
                  ignore (Durable.absorb s.durable block data ~version : bool);
                  match Durable.read_verified s.durable block with
                  | Some copy -> callback (Ok copy)
                  | None -> callback (Error Types.Current_copy_unreachable))
              | None -> callback (Error Types.Current_copy_unreachable)))
    in
    Int_set.iter
      (fun peer ->
        Runtime.send t.rt ~op:Net.Message.Repair ~from:site ~dst:peer
          (Wire.Block_request { rid; block }))
      expected
  end

let read t ?deadline ~site ~block callback =
  let s = Runtime.site t.rt site in
  if s.state <> Types.Available then callback (Error Types.Site_not_available)
  else
    match Durable.read_verified s.durable block with
    | Some copy ->
        (* Serving locally issues no sub-request, so an expired deadline
           does not block it — the caller classifies lateness. *)
        callback (Ok copy)
    | None -> read_repair t ?deadline ~site ~block callback

(* The Standard ack round of [write] and [write_batch]: open a round
   awaiting the available peers' acks and return its id for the caller's
   update multicast.  The new W is fixed by who the update was
   {e addressed} to, not by whose ack made it back in time.

   Comatose peers belong in W too: their stores absorb the update (see
   the Block_update handler), and leaving them out loses the race where a
   write lands between a recovering site's version-vector exchange and its
   becoming available — a later total-failure recovery starting there
   could close over a set that misses the newest copy and come back stale.
   W must be the send-time was-available set (plus absorbers), never the
   acker set: an available peer whose ack is merely delayed past the round
   timeout still absorbs the update, and dropping it from W unsoundly
   shrinks every closure computed from this site.  Too large is safe
   (closure recovery waits for more sites and takes the newest copy among
   them); too small is a stale recovery.

   Breaker-open peers are left out of the awaited set only: the multicast
   still reaches them and they still enter W, so pruning stops the
   coordinator waiting on a suspected-slow peer's ack and can never shrink
   W below the send-time was-available set. *)
let ack_round t ?deadline ~site ~ok callback =
  let expected = Runtime.peers_matching t.rt site (fun p -> p.state = Types.Available) in
  let comatose_at_send = Runtime.peers_matching t.rt site (fun p -> p.state = Types.Comatose) in
  let awaited =
    Int_set.filter (fun peer -> Runtime.breaker_allows t.rt ~coordinator:site ~peer) expected
  in
  Runtime.begin_round ?deadline t.rt ~coordinator:site ~expected:awaited
    ~on_complete:(fun outcome replies ->
      ignore (replies : (int * Wire.t) list);
      match outcome with
      | Runtime.Aborted -> callback (Error Types.Site_not_available)
      | Runtime.Complete | Runtime.Timeout ->
          let comatose_now = Runtime.peers_matching t.rt site (fun p -> p.state = Types.Comatose) in
          Runtime.set_w t.rt site
            (Int_set.add site (Int_set.union expected (Int_set.union comatose_at_send comatose_now)));
          callback (Ok ok))

let write t ?deadline ~site ~block data callback =
  let s = Runtime.site t.rt site in
  if s.state <> Types.Available then callback (Error Types.Site_not_available)
  else if Runtime.past_deadline t.rt deadline then callback (Error Types.Timed_out)
  else begin
    let version = Durable.version s.durable block + 1 in
    Durable.write s.durable block data ~version;
    match t.variant with
    | Naive ->
        (* Fire and forget: reliable delivery makes the single broadcast
           sufficient (Section 5.1). *)
        Runtime.broadcast t.rt ~op:Net.Message.Write ~from:site
          (Wire.Block_update { rid = None; block; version; data; carried_w = full_set t });
        callback (Ok version)
    | Standard ->
        (* The broadcast carries our current W estimate (the receivers of
           the previous write). *)
        let rid = ack_round t ?deadline ~site ~ok:version callback in
        Runtime.broadcast t.rt ~op:Net.Message.Write ~from:site
          (Wire.Block_update { rid = Some rid; block; version; data; carried_w = s.w })
  end

(* ------------------------------------------------------------------ *)
(* Group commit                                                        *)
(* ------------------------------------------------------------------ *)

(* Figure 5/6 writes, amortized: all k new versions travel in one
   update multicast, and (Standard) one ack per peer covers the whole
   batch, so a k-block group costs the same number of transmissions as
   a single write. *)
let write_batch t ?deadline ~site writes callback =
  let s = Runtime.site t.rt site in
  if s.state <> Types.Available then callback (Error Types.Site_not_available)
  else if Runtime.past_deadline t.rt deadline then callback (Error Types.Timed_out)
  else begin
    let payloads =
      List.map
        (fun (block, data) ->
          let version = Durable.version s.durable block + 1 in
          Durable.write s.durable block data ~version;
          (block, version, data))
        writes
    in
    let versions = List.map (fun (_, v, _) -> v) payloads in
    match t.variant with
    | Naive ->
        Runtime.broadcast t.rt ~op:Net.Message.Write ~from:site
          (Wire.Batch_update { rid = None; writes = payloads; carried_w = full_set t });
        callback (Ok versions)
    | Standard ->
        let rid = ack_round t ?deadline ~site ~ok:versions callback in
        Runtime.broadcast t.rt ~op:Net.Message.Write ~from:site
          (Wire.Batch_update { rid = Some rid; writes = payloads; carried_w = s.w })
  end

(* ------------------------------------------------------------------ *)
(* Recovery (Figures 5 and 6)                                          *)
(* ------------------------------------------------------------------ *)

let operational_in_cache (s : Runtime.site) u =
  match s.cache.(u) with
  | Some (info : Wire.site_info) -> info.state <> Types.Failed
  | None -> false

(* Version vectors across copies are totally ordered in failure order, but
   we defend against incomparable vectors (which would indicate a protocol
   bug) by falling back to the componentwise sum. *)
let vv_sum v =
  let acc = ref 0 in
  for k = 0 to Vv.length v - 1 do
    acc := !acc + Vv.get v k
  done;
  !acc

let newer a b =
  if Vv.equal a b then false
  else if Vv.dominates a b then true
  else if Vv.dominates b a then false
  else vv_sum a > vv_sum b

let rec become_available t (s : Runtime.site) =
  s.repairing <- false;
  Runtime.set_state t.rt s.id Types.Available;
  (* Deferred recovery replies: every site we believe comatose — we heard
     from it while it (and we) were waiting — now learns an available copy
     exists, firing the "∃u available" arm of its select. *)
  Array.iter
    (fun entry ->
      match entry with
      | Some (info : Wire.site_info)
        when info.state = Types.Comatose
             && Runtime.Transport.is_up (Runtime.net t.rt) info.origin
             && (Runtime.site t.rt info.origin).state = Types.Comatose ->
          Runtime.send t.rt ~op:Net.Message.Recovery ~from:s.id ~dst:info.origin
            (Wire.Recovery_reply { rid = -1; info = Runtime.make_info t.rt s.id })
      | Some _ | None -> ())
    s.cache

and repair_from t (s : Runtime.site) source =
  s.repairing <- true;
  let rid =
    Runtime.begin_round t.rt ~coordinator:s.id ~expected:(Int_set.singleton source)
      ~on_complete:(fun outcome replies ->
        match outcome with
        | Runtime.Aborted -> ()
        | Runtime.Complete | Runtime.Timeout -> (
            let reply =
              List.find_map
                (function
                  | _, Wire.Vv_reply { versions; updates; w_of_source; _ } ->
                      Some (versions, updates, w_of_source)
                  | _ -> None)
                replies
            in
            match reply with
            | Some (versions, updates, w_of_source) when s.state = Types.Comatose ->
                Durable.apply_updates s.durable updates;
                (* [versions] is the source's effective (verified) vector;
                   our stored versions must dominate it — a quarantined
                   block that refused a below-floor offer still holds a
                   stored version above what was offered. *)
                assert (Vv.dominates (Durable.versions s.durable) versions);
                if t.variant = Standard then
                  Runtime.set_w t.rt s.id (Int_set.add s.id w_of_source);
                become_available t s
            | Some _ -> ()
            | None ->
                (* The source died (or re-failed) before answering; forget
                   what we knew about it and probe afresh. *)
                if s.state = Types.Comatose then begin
                  s.repairing <- false;
                  s.cache.(source) <- None;
                  start_recovery t s
                end))
  in
  (* Send the effective vector: a quarantined block claims version 0, so
     the source's transfer set covers it with a verified copy. *)
  Runtime.send t.rt ~op:Net.Message.Recovery ~from:s.id ~dst:source
    (Wire.Vv_send { rid; versions = Durable.effective_versions s.durable; w_of_sender = s.w })

(* The select of Figures 5/6: prefer any available site; otherwise wait for
   the closure of the was-available set (all sites, in the naive variant)
   to have recovered and take its most current member. *)
and evaluate t (s : Runtime.site) =
  if s.state = Types.Comatose && not s.repairing then begin
    let net = Runtime.net t.rt in
    let live u = Runtime.Transport.is_up net u in
    let available_peer =
      Array.fold_left
        (fun acc entry ->
          match (acc, entry) with
          | Some _, _ -> acc
          | None, Some (info : Wire.site_info) ->
              if info.state = Types.Available && live info.origin then Some info.origin else None
          | None, None -> acc)
        None s.cache
    in
    match available_peer with
    | Some u -> repair_from t s u
    | None ->
        let own = match t.variant with Standard -> s.w | Naive -> full_set t in
        let known u =
          match s.cache.(u) with Some (info : Wire.site_info) -> Some info.was_available | None -> None
        in
        let closure = Closure.compute ~self:s.id ~own ~known in
        let recovered u = u = s.id || (operational_in_cache s u && live u) in
        if Int_set.for_all recovered closure then begin
          let my_versions = Durable.versions s.durable in
          let best =
            Int_set.fold
              (fun u ((_, best_vv) as acc) ->
                if u = s.id then acc
                else
                  match s.cache.(u) with
                  | Some (info : Wire.site_info) ->
                      if newer info.versions best_vv then (u, info.versions) else acc
                  | None -> acc)
              closure (s.id, my_versions)
          in
          match best with
          | u, _ when u = s.id ->
              (* We hold the most recent data ourselves: no exchange needed
                 (the [s = t] case of Figure 5). *)
              become_available t s
          | u, _ -> repair_from t s u
        end
  end

and start_recovery t (s : Runtime.site) =
  if s.state = Types.Comatose && not s.repairing then begin
    let expected = Runtime.up_peers t.rt s.id in
    let rid =
      Runtime.begin_round t.rt ~coordinator:s.id ~expected ~on_complete:(fun outcome _replies ->
          (* Replies were folded into the cache on arrival; with the round
             now settled (or timed out), evaluate the select. *)
          match outcome with Runtime.Aborted -> () | Runtime.Complete | Runtime.Timeout -> evaluate t s)
    in
    Runtime.broadcast t.rt ~op:Net.Message.Recovery ~from:s.id
      (Wire.Recovery_probe { rid; info = Runtime.make_info t.rt s.id })
  end

let on_repair t site_id =
  Runtime.repair_site t.rt site_id (fun s ->
      Runtime.set_state t.rt s.id Types.Comatose;
      start_recovery t s)

(* ------------------------------------------------------------------ *)
(* Message handling                                                    *)
(* ------------------------------------------------------------------ *)

let handle t (s : Runtime.site) ~from msg =
  match msg with
  | Wire.Block_update { rid; block; version; data; carried_w } ->
      (* The store absorbs the update whenever the site is up, comatose
         included: versions are monotone so applying is always safe, and a
         comatose site must not miss an update whose delivery races the
         version-vector exchange of its own recovery — it would finish
         recovering with a copy staler than the one the writer believes it
         holds.  Only available sites acknowledge and learn W: a comatose
         site is not yet part of any write's was-available set. *)
      if s.state <> Types.Failed then ignore (Durable.absorb s.durable block data ~version : bool);
      if s.state = Types.Available && t.variant = Standard then begin
        Runtime.set_w t.rt s.id (Int_set.add s.id (Int_set.add from carried_w));
        match rid with
        | Some rid ->
            Runtime.send t.rt ~op:Net.Message.Write ~from:s.id ~dst:from
              (Wire.Write_ack { rid; block })
        | None -> ()
      end
  | Wire.Batch_update { rid; writes; carried_w } ->
      (* Same absorption rule as Block_update, applied per block. *)
      if s.state <> Types.Failed then
        List.iter
          (fun (block, version, data) -> ignore (Durable.absorb s.durable block data ~version : bool))
          writes;
      if s.state = Types.Available && t.variant = Standard then begin
        Runtime.set_w t.rt s.id (Int_set.add s.id (Int_set.add from carried_w));
        match rid with
        | Some rid ->
            Runtime.send t.rt ~op:Net.Message.Write ~from:s.id ~dst:from
              (Wire.Batch_ack { rid; blocks = List.map (fun (b, _, _) -> b) writes })
        | None -> ()
      end
  | Wire.Write_ack { rid; _ } | Wire.Batch_ack { rid; _ } -> Runtime.reply t.rt ~rid ~from msg
  | Wire.Recovery_probe { rid; info } ->
      if s.state <> Types.Failed then begin
        Runtime.cache_info t.rt s.id info;
        Runtime.send t.rt ~op:Net.Message.Recovery ~from:s.id ~dst:from
          (Wire.Recovery_reply { rid; info = Runtime.make_info t.rt s.id });
        if s.state = Types.Comatose then evaluate t s
      end
  | Wire.Recovery_reply { rid; info } ->
      Runtime.cache_info t.rt s.id info;
      if rid >= 0 then Runtime.reply t.rt ~rid ~from msg;
      if s.state = Types.Comatose then evaluate t s
  | Wire.Vv_send { rid; versions; w_of_sender = _ } ->
      if s.state <> Types.Failed then begin
        (* Figure 5's trailing send(t, W_s) collapses to W_t <- W_t ∪ {s}
           since s will set W_s = W_t ∪ {s}; the piggyback spares the extra
           transmission. *)
        if t.variant = Standard then Runtime.set_w t.rt s.id (Int_set.add from s.w);
        let reply () =
          (* Only verified blocks travel: a transfer never ships
             quarantined bytes, and the reply's vector claims only what we
             can prove. *)
          let updates = Durable.verified_blocks_newer_than s.durable versions in
          Runtime.send t.rt ~op:Net.Message.Recovery ~from:s.id ~dst:from
            (Wire.Vv_reply
               {
                 rid;
                 versions = Durable.effective_versions s.durable;
                 updates;
                 w_of_source = s.w;
               })
        in
        (* A quarantined copy the requester needs — our stored version is
           above what it claims — cannot travel.  Heal those blocks from a
           current peer first, then answer: otherwise the recovering site
           would come back with a silent gap where our rotted block should
           be, serve stale version-0 reads and reassign used version
           numbers.  A repair that finds no current peer leaves the block
           quarantined and the reply simply cannot cover it. *)
        let needy = ref [] in
        for b = Durable.capacity s.durable - 1 downto 0 do
          if (not (Durable.checksum_ok s.durable b)) && Durable.version s.durable b > Vv.get versions b
          then needy := b :: !needy
        done;
        (* The repair rounds park this handler's continuation behind wire
           round-trips, and the site can fail in the meantime: [fail_site]
           takes the transport down and then aborts our rounds, so the
           aborted repair's callback lands here synchronously with the
           sender already unreachable (and the state flip to Failed still
           pending).  A dead site heals nothing and answers nothing — the
           requester's repair_from treats the missing reply as a dead
           source and probes afresh. *)
        let rec heal = function
          | _ when not (Runtime.Transport.is_up (Runtime.net t.rt) s.id) -> ()
          | [] -> reply ()
          | b :: rest -> read_repair t ~site:s.id ~block:b (fun _ -> heal rest)
        in
        heal !needy
      end
  | Wire.Vv_reply { rid; _ } -> Runtime.reply t.rt ~rid ~from msg
  | Wire.Block_request { rid; block } ->
      (* Peer read-repair: serve what we can prove — the effective version
         and its verified contents, or (0, zero) when our own copy is
         quarantined.  The requester discards unhelpful replies. *)
      if s.state <> Types.Failed then begin
        let version, data = Durable.serve s.durable block in
        Runtime.send t.rt ~op:Net.Message.Repair ~from:s.id ~dst:from
          (Wire.Block_transfer { rid; block; version; data })
      end
  | Wire.Block_transfer { rid; _ } -> Runtime.reply t.rt ~rid ~from msg
  | Wire.Vote_request _ | Wire.Vote_reply _ | Wire.Group_fix _ | Wire.Batch_vote_request _
  | Wire.Batch_vote_reply _ ->
      (* Voting traffic is meaningless under a copy scheme. *)
      ()

let install_liveness_tracking t =
  (* Idealised W maintenance: every available site always knows the exact
     set of available sites.  Models the instantaneous failure detection
     assumed by the Figure 7 chain; costs no messages. *)
  Runtime.on_state_change t.rt (fun _ _ ->
      let avail =
        Array.fold_left
          (fun acc (p : Runtime.site) -> if p.state = Types.Available then Int_set.add p.id acc else acc)
          Int_set.empty (Runtime.sites t.rt)
      in
      if not (Int_set.is_empty avail) then
        Array.iter
          (fun (p : Runtime.site) ->
            if p.state = Types.Available then Runtime.set_w t.rt p.id avail)
          (Runtime.sites t.rt))

let create rt variant =
  let t = { rt; variant } in
  Runtime.set_dispatch rt (fun s ~from msg -> handle t s ~from msg);
  if variant = Standard && (Runtime.config rt).track_liveness then install_liveness_tracking t;
  t

let any_available t =
  Array.exists (fun (s : Runtime.site) -> s.state = Types.Available) (Runtime.sites t.rt)
