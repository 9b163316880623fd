type job = { work : unit -> unit; drop : (unit -> unit) option; cost : float; enqueued_at : float }

type t = {
  engine : Engine.t;
  capacity : int;
  queue : job Queue.t;
  mutable in_service : Engine.handle option;
  mutable in_service_drop : (unit -> unit) option;
  mutable rate_factor : float;
  mutable submitted : int;
  mutable served : int;
  mutable shed : int;
  mutable dropped : int;
  depth_hist : Util.Stats.Histogram.t;
  sojourn : Util.Stats.t;
}

let create engine ~capacity =
  if capacity < 1 then invalid_arg "Server.create: capacity must be at least 1";
  {
    engine;
    capacity;
    queue = Queue.create ();
    in_service = None;
    in_service_drop = None;
    rate_factor = 1.0;
    submitted = 0;
    served = 0;
    shed = 0;
    dropped = 0;
    (* Depth lives in [0, capacity]; one unit-width bin per slot. *)
    depth_hist = Util.Stats.Histogram.create ~lo:0.0 ~hi:(float_of_int (capacity + 1)) ~bins:(capacity + 1);
    sojourn = Util.Stats.create ();
  }

let busy t = Option.is_some t.in_service
let depth t = Queue.length t.queue + if busy t then 1 else 0

(* The service-time multiplier is read when a job *starts* service, so
   degrading a site mid-run slows everything still queued behind the job in
   service — exactly the gray-failure shape (a saturated machine drags its
   whole backlog), and the knob can be flipped both ways by chaos events. *)
let rec start_service t (job : job) =
  let delay = job.cost *. t.rate_factor in
  t.in_service_drop <- job.drop;
  t.in_service <-
    Some
      (Engine.schedule t.engine ~delay (fun () ->
           t.in_service <- None;
           t.in_service_drop <- None;
           t.served <- t.served + 1;
           Util.Stats.add t.sojourn (Engine.now t.engine -. job.enqueued_at);
           job.work ();
           (* The completed job's work may have refilled or cleared the
              queue; re-check rather than assuming the pre-work state. *)
           if not (busy t) then
             match Queue.take_opt t.queue with
             | Some next -> start_service t next
             | None -> ()))

let submit t ~cost ?drop work =
  if cost < 0.0 then invalid_arg "Server.submit: negative cost";
  if busy t && Queue.length t.queue >= t.capacity then begin
    t.shed <- t.shed + 1;
    false
  end
  else begin
    t.submitted <- t.submitted + 1;
    Util.Stats.Histogram.add t.depth_hist (float_of_int (depth t));
    let job = { work; drop; cost; enqueued_at = Engine.now t.engine } in
    if busy t then Queue.add job t.queue else start_service t job;
    true
  end

let set_rate_factor t f =
  if not (Float.is_finite f && f > 0.0) then invalid_arg "Server.set_rate_factor: factor must be positive";
  t.rate_factor <- f

let rate_factor t = t.rate_factor

(* The destroyed jobs' drop continuations, in submission order: the job
   in service first, then the waiting room front to back. *)
let clear t =
  t.dropped <- t.dropped + depth t;
  let waiting =
    Queue.fold (fun acc job -> match job.drop with Some d -> d :: acc | None -> acc) [] t.queue
  in
  let drops =
    match t.in_service_drop with Some d -> d :: List.rev waiting | None -> List.rev waiting
  in
  Queue.clear t.queue;
  (match t.in_service with
  | Some h ->
      Engine.cancel t.engine h;
      t.in_service <- None
  | None -> ());
  t.in_service_drop <- None;
  drops

let flood t ~count ~cost =
  if count < 0 then invalid_arg "Server.flood: negative count";
  for _ = 1 to count do
    ignore (submit t ~cost (fun () -> ()) : bool)
  done

let submitted t = t.submitted
let served t = t.served
let shed t = t.shed
let dropped t = t.dropped
let depth_histogram t = t.depth_hist
let sojourn t = t.sojourn
