module type PAYLOAD = sig
  type t

  val category : t -> Message.category
  val size : t -> int
  val encode : t -> Bytes.t
  val decode_frame : Bytes.t -> (t, Message.reject) result
end

type mode = Multicast | Unicast

let mode_to_string = function Multicast -> "multicast" | Unicast -> "unicast"

(* Link-layer redelivery budget of encoded mode: a CRC-rejected frame is
   redelivered (fresh latency + corruption draws) at most this many times
   before the loss becomes the retry layer's problem.  At ambient per-frame
   corruption rate p the residual loss is p^(budget+1), which keeps
   probabilistic corruption inside every chaos envelope; a persistent
   (p = 1) corruptor defeats any finite budget by design. *)
let redelivery_budget = 6

(* Poison-frame quarantine: this many consecutive decode failures from one
   sender put the (receiver, sender) link in quarantine for
   [quarantine_cooldown] simulated seconds. *)
let quarantine_threshold = 3
let quarantine_cooldown = 20.0

type ingress = {
  mutable rejected_truncated : int;
  mutable rejected_bad_magic : int;
  mutable rejected_trailing : int;
  mutable rejected_crc : int;
  mutable rejected_bad_tag : int;
  mutable rejected_malformed : int;
  mutable quarantined : int;
  mutable retransmitted : int;
  mutable quarantine_trips : int;
  mutable corrupt_rejected : int;
  mutable corrupt_quarantined : int;
  mutable corrupt_survived : int;
}

let rejected_of g = function
  | Message.Reject_truncated -> g.rejected_truncated
  | Message.Reject_bad_magic -> g.rejected_bad_magic
  | Message.Reject_trailing -> g.rejected_trailing
  | Message.Reject_crc -> g.rejected_crc
  | Message.Reject_bad_tag -> g.rejected_bad_tag
  | Message.Reject_malformed -> g.rejected_malformed

let frames_rejected g = List.fold_left (fun acc r -> acc + rejected_of g r) 0 Message.all_rejects

let count_reject g = function
  | Message.Reject_truncated -> g.rejected_truncated <- g.rejected_truncated + 1
  | Message.Reject_bad_magic -> g.rejected_bad_magic <- g.rejected_bad_magic + 1
  | Message.Reject_trailing -> g.rejected_trailing <- g.rejected_trailing + 1
  | Message.Reject_crc -> g.rejected_crc <- g.rejected_crc + 1
  | Message.Reject_bad_tag -> g.rejected_bad_tag <- g.rejected_bad_tag + 1
  | Message.Reject_malformed -> g.rejected_malformed <- g.rejected_malformed + 1

module Make (P : PAYLOAD) = struct
  type t = {
    engine : Sim.Engine.t;
    mode : mode;
    latency : Util.Dist.t;
    rng : Util.Prng.t;
    traffic : Traffic.t;
    n_sites : int;
    up : bool array;
    handlers : (from:int -> P.t -> unit) option array;
    (* group.(i) = group.(j) && group.(i) >= 0 means i and j can talk;
       -1 means isolated.  No partition: all zero. *)
    group : int array;
    mutable delivered : int;
    mutable faults : Faults.t option;
    (* Service model: when installed, every delivery and client admission
       goes through the destination site's bounded queue.  [None] (the
       default) is the exact legacy zero-cost path — no queue, no extra
       rng draws, bit-identical behaviour. *)
    mutable service : (Service_model.t * Util.Prng.t) option;
    servers : Sim.Server.t option array;
    qstates : (int * int, qstate) Hashtbl.t; (* keyed (receiver, sender) *)
    mutable reject_hook : (dst:int -> from:int -> Message.reject -> unit) option;
    ingress : ingress;
  }

  and qstate = { mutable strikes : int; mutable blocked_until : float }

  let create ?faults engine ~mode ~latency ~rng ~n_sites =
    if n_sites <= 0 then invalid_arg "Network.create: need at least one site";
    {
      engine;
      mode;
      latency;
      rng;
      traffic = Traffic.create ();
      n_sites;
      up = Array.make n_sites true;
      handlers = Array.make n_sites None;
      group = Array.make n_sites 0;
      delivered = 0;
      faults;
      service = None;
      servers = Array.make n_sites None;
      qstates = Hashtbl.create 8;
      reject_hook = None;
      ingress =
        {
          rejected_truncated = 0;
          rejected_bad_magic = 0;
          rejected_trailing = 0;
          rejected_crc = 0;
          rejected_bad_tag = 0;
          rejected_malformed = 0;
          quarantined = 0;
          retransmitted = 0;
          quarantine_trips = 0;
          corrupt_rejected = 0;
          corrupt_quarantined = 0;
          corrupt_survived = 0;
        };
    }

  let engine t = t.engine
  let mode t = t.mode
  let n_sites t = t.n_sites
  let traffic t = t.traffic
  let faults t = t.faults
  let install_faults t f = t.faults <- Some f
  let set_reject_hook t hook = t.reject_hook <- Some hook
  let ingress t = t.ingress

  let corruption_conserved t =
    (* The corruption draw and its classification happen back-to-back
       inside one ingress step, so the identity holds at every instant,
       not only after a drain.  The injector counts [corrupted] itself:
       were it derived from the ingress, the identity would check
       nothing. *)
    let corrupted = match t.faults with Some f -> (Faults.counters f).corrupted | None -> 0 in
    let g = t.ingress in
    corrupted = g.corrupt_rejected + g.corrupt_quarantined + g.corrupt_survived

  let check_site t id name =
    if id < 0 || id >= t.n_sites then invalid_arg (Printf.sprintf "Network.%s: bad site %d" name id)

  let install_service t model ~rng =
    (match Service_model.validate model with
    | Ok _ -> ()
    | Error e -> invalid_arg ("Network.install_service: " ^ e));
    t.service <- Some (model, rng);
    for i = 0 to t.n_sites - 1 do
      t.servers.(i) <- Some (Sim.Server.create t.engine ~capacity:model.Service_model.queue_capacity)
    done

  let server t id =
    check_site t id "server";
    t.servers.(id)

  let set_rate_factor t id factor =
    check_site t id "set_rate_factor";
    match t.servers.(id) with Some srv -> Sim.Server.set_rate_factor srv factor | None -> ()

  let flood_site t id ~count =
    check_site t id "flood_site";
    match (t.servers.(id), t.service) with
    | Some srv, Some (model, rng) ->
        Sim.Server.flood srv ~count ~cost:(Service_model.cost_of model Message.Block_request rng)
    | _ -> ()

  let submit_client t ~site ~drop work =
    check_site t site "submit_client";
    match (t.service, t.servers.(site)) with
    | Some (model, rng), Some srv ->
        let cost = Service_model.client_cost model rng in
        if Sim.Server.submit srv ~cost ~drop work then `Queued else `Shed
    | _ -> `Direct

  let total_shed t =
    Array.fold_left
      (fun acc srv -> match srv with Some s -> acc + Sim.Server.shed s | None -> acc)
      0 t.servers

  let register t ~id handler =
    check_site t id "register";
    t.handlers.(id) <- Some handler

  let set_up t id up =
    check_site t id "set_up";
    t.up.(id) <- up;
    (* Fail-stop kills the site's processor with the site: everything
       queued (and the job in service) dies unserved.  A client operation
       still has a caller waiting, so its drop continuation answers on the
       next tick, once the failure itself has completed. *)
    if not up then
      match t.servers.(id) with
      | Some srv -> (
          match Sim.Server.clear srv with
          | [] -> ()
          | drops ->
              ignore
                (Sim.Engine.schedule t.engine ~delay:0.0 (fun () -> List.iter (fun drop -> drop ()) drops)
                  : Sim.Engine.handle))
      | None -> ()

  let is_up t id =
    check_site t id "is_up";
    t.up.(id)

  let up_sites t =
    let rec collect i acc = if i < 0 then acc else collect (i - 1) (if t.up.(i) then i :: acc else acc) in
    collect (t.n_sites - 1) []

  let reachable t a b =
    check_site t a "reachable";
    check_site t b "reachable";
    t.group.(a) >= 0 && t.group.(a) = t.group.(b)

  let partition t groups =
    Array.fill t.group 0 t.n_sites (-1);
    List.iteri
      (fun gi members ->
        List.iter
          (fun s ->
            check_site t s "partition";
            t.group.(s) <- gi)
          members)
      groups

  let heal t = Array.fill t.group 0 t.n_sites 0

  (* Physical delivery: the receiver must be up both when the message is
     sent (a dead NIC receives nothing) and when it arrives (fail-stop: a
     message racing a failure is lost), and the route must exist at
     delivery.  The fault injector may drop the delivery, double it, or
     stretch its latency; with no injector installed the legacy single-copy
     path runs unchanged (the default-off no-op guarantee). *)
  let schedule_delivery t ~from ~dst payload ~extra =
    let delay = Util.Dist.sample t.latency t.rng +. extra in
    let handle_now () =
      match t.handlers.(dst) with
      | Some handler ->
          t.delivered <- t.delivered + 1;
          handler ~from payload
      | None -> ()
    in
    ignore
      (Sim.Engine.schedule t.engine ~delay (fun () ->
           if t.up.(dst) && reachable t from dst then
             match (t.service, t.servers.(dst)) with
             | None, _ | _, None -> handle_now ()
             | Some (model, rng), Some srv ->
                 (* The message reached the NIC; whether the processor gets
                    to it is the queue's call.  The cost draw happens at
                    arrival (deterministic in arrival order); a full queue
                    sheds the message — counted at the server — and the
                    sender's round times out as if it were lost.  The job
                    re-checks liveness at service time: a failure while the
                    message waited clears the queue, but belt-and-braces. *)
                 let cost = Service_model.cost_of model (P.category payload) rng in
                 ignore (Sim.Server.submit srv ~cost (fun () -> if t.up.(dst) then handle_now ()) : bool))
        : Sim.Engine.handle)

  (* Poison-frame quarantine, keyed (receiver, sender): [quarantine_threshold]
     consecutive decode failures put the link in a [quarantine_cooldown]-long window
     during which arriving frames are discarded {e undecoded} — a flooding
     corruptor cannot make the receiver burn a decode attempt per frame.
     A clean decode resets the strike count. *)
  let quarantined t ~dst ~from ~now =
    match Hashtbl.find_opt t.qstates (dst, from) with
    | Some q -> now < q.blocked_until
    | None -> false

  let clear_strikes t ~dst ~from =
    match Hashtbl.find_opt t.qstates (dst, from) with
    | Some q -> q.strikes <- 0
    | None -> ()

  let strike t ~dst ~from ~now =
    let q =
      match Hashtbl.find_opt t.qstates (dst, from) with
      | Some q -> q
      | None ->
          let q = { strikes = 0; blocked_until = neg_infinity } in
          Hashtbl.add t.qstates (dst, from) q;
          q
    in
    q.strikes <- q.strikes + 1;
    if q.strikes >= quarantine_threshold then begin
      q.strikes <- 0;
      q.blocked_until <- now +. quarantine_cooldown;
      t.ingress.quarantine_trips <- t.ingress.quarantine_trips + 1
    end

  (* Encoded delivery.  The frame crosses the wire as bytes; at ingress the
     injector may damage them, then quarantine is consulted, then the frame
     is decoded — in that order and in one step, so every corruption draw
     is immediately classified (rejected / quarantined / survived) and the
     conservation identity never has an in-flight remainder.  A rejected
     frame is redelivered from the sender's pristine copy while the budget
     lasts (the CRC-triggered link-layer retransmit real stacks do); a
     quarantined frame is not — the whole point is to stop spending on
     that link. *)
  let rec schedule_encoded t ~from ~dst ~cat ~frame ~extra ~budget =
    let delay = Util.Dist.sample t.latency t.rng +. extra in
    let ingest () =
      let bytes, mutated =
        match t.faults with
        | Some f -> Faults.corrupt f ~from ~dst frame
        | None -> (frame, false)
      in
      let now = Sim.Engine.now t.engine in
      let g = t.ingress in
      if quarantined t ~dst ~from ~now then begin
        g.quarantined <- g.quarantined + 1;
        if mutated then g.corrupt_quarantined <- g.corrupt_quarantined + 1
      end
      else
        match P.decode_frame bytes with
        | Ok payload -> (
            if mutated then g.corrupt_survived <- g.corrupt_survived + 1;
            clear_strikes t ~dst ~from;
            match t.handlers.(dst) with
            | Some handler ->
                t.delivered <- t.delivered + 1;
                handler ~from payload
            | None -> ())
        | Error reject ->
            count_reject g reject;
            if mutated then g.corrupt_rejected <- g.corrupt_rejected + 1;
            strike t ~dst ~from ~now;
            (match t.reject_hook with Some h -> h ~dst ~from reject | None -> ());
            if budget > 0 then begin
              g.retransmitted <- g.retransmitted + 1;
              schedule_encoded t ~from ~dst ~cat ~frame ~extra:0.0 ~budget:(budget - 1)
            end
    in
    ignore
      (Sim.Engine.schedule t.engine ~delay (fun () ->
           if t.up.(dst) && reachable t from dst then
             match (t.service, t.servers.(dst)) with
             | None, _ | _, None -> ingest ()
             | Some (model, rng), Some srv ->
                 let cost = Service_model.cost_of model cat rng in
                 ignore (Sim.Server.submit srv ~cost (fun () -> if t.up.(dst) then ingest ()) : bool))
        : Sim.Engine.handle)

  let deliver_encoded t f ~from ~dst ~cat ~frame =
    if t.up.(dst) then
      List.iter
        (fun extra -> schedule_encoded t ~from ~dst ~cat ~frame ~extra ~budget:redelivery_budget)
        (Faults.plan f ~from ~dst)

  let deliver t ~from ~dst payload =
    if t.up.(dst) then begin
      match t.faults with
      | None -> schedule_delivery t ~from ~dst payload ~extra:0.0
      | Some f ->
          List.iter (fun extra -> schedule_delivery t ~from ~dst payload ~extra) (Faults.plan f ~from ~dst)
    end

  let send t ~op ~from ~dst payload =
    check_site t from "send";
    check_site t dst "send";
    if from = dst then invalid_arg "Network.send: local access needs no transmission";
    if not t.up.(from) then invalid_arg "Network.send: sender is down";
    Traffic.record t.traffic ~bytes:(P.size payload) op (P.category payload) 1;
    if reachable t from dst then
      (* Frames cross the wire encoded exactly when the injector can damage
         them; every other run keeps the in-heap path (no encode, no
         decode). *)
      match t.faults with
      | Some f when Faults.corrupting f ->
          deliver_encoded t f ~from ~dst ~cat:(P.category payload) ~frame:(P.encode payload)
      | Some _ | None -> deliver t ~from ~dst payload

  let broadcast t ~op ~from payload =
    check_site t from "broadcast";
    if not t.up.(from) then invalid_arg "Network.broadcast: sender is down";
    let cost = match t.mode with Multicast -> 1 | Unicast -> t.n_sites - 1 in
    Traffic.record t.traffic ~bytes:(cost * P.size payload) op (P.category payload) cost;
    match t.faults with
    | Some f when Faults.corrupting f ->
        (* encode once; per-destination damage works on its own copy *)
        let cat = P.category payload and frame = P.encode payload in
        for dst = 0 to t.n_sites - 1 do
          if dst <> from && reachable t from dst then deliver_encoded t f ~from ~dst ~cat ~frame
        done
    | Some _ | None ->
        for dst = 0 to t.n_sites - 1 do
          if dst <> from && reachable t from dst then deliver t ~from ~dst payload
        done

  let messages_delivered t = t.delivered
end
