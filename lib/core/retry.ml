type policy = {
  max_attempts : int;
  base_delay : float;
  multiplier : float;
  max_delay : float;
  deadline : float;
}

let default_policy ?(unit = 4.0) () =
  if unit <= 0.0 then invalid_arg "Retry.default_policy: unit must be positive";
  {
    max_attempts = 6;
    base_delay = unit;
    multiplier = 2.0;
    max_delay = 16.0 *. unit;
    deadline = 64.0 *. unit;
  }

let validate p =
  if p.max_attempts < 1 then Error "max_attempts must be at least 1"
  else if p.base_delay < 0.0 then Error "base_delay must be non-negative"
  else if p.multiplier < 1.0 then Error "multiplier must be at least 1"
  else if p.max_delay < 0.0 then Error "max_delay must be non-negative"
  else if p.max_delay < p.base_delay then Error "max_delay must not be below base_delay"
  else if p.deadline <= 0.0 then Error "deadline must be positive"
  else Ok p

let backoff p ~attempt =
  (* Delay before attempt [attempt + 1]; attempt is 1-based. *)
  Float.min p.max_delay (p.base_delay *. (p.multiplier ** float_of_int (attempt - 1)))

type stats = {
  mutable operations : int;
  mutable attempts : int;
  mutable retries : int;
  mutable succeeded : int;
  mutable recovered : int;
  mutable timeouts : int;
  mutable gave_up : int;
  mutable last_errors : (float * string) list;
}

let error_window = 8

let create_stats () =
  {
    operations = 0;
    attempts = 0;
    retries = 0;
    succeeded = 0;
    recovered = 0;
    timeouts = 0;
    gave_up = 0;
    last_errors = [];
  }

let operations s = s.operations
let attempts s = s.attempts
let retries s = s.retries
let succeeded s = s.succeeded
let recovered s = s.recovered
let timeouts s = s.timeouts
let gave_up s = s.gave_up
let last_errors s = s.last_errors

let conserved s = s.operations = s.succeeded + s.timeouts + s.gave_up

let record_error s ~at reason =
  let keep = List.filteri (fun i _ -> i < error_window - 1) s.last_errors in
  s.last_errors <- (at, Types.failure_reason_to_string reason) :: keep

(* Everything the cluster can report is potentially transient once the wire
   is lossy: a dropped vote costs the quorum, a dropped transfer times the
   pull out, a dying coordinator looks locally unavailable.  So every error
   is retried, and the attempt and time bounds keep genuinely persistent
   outages from spinning.  Both time bounds are tested before the backoff
   is slept: a retry that could only start past them is never waited for. *)
let run policy ~engine ~stats ?deadline f =
  (match validate policy with Ok _ -> () | Error e -> invalid_arg ("Retry.run: " ^ e));
  let start = Sim.Engine.now engine in
  stats.operations <- stats.operations + 1;
  let rec go attempt =
    stats.attempts <- stats.attempts + 1;
    match f ~attempt with
    | Ok _ as ok ->
        stats.succeeded <- stats.succeeded + 1;
        if attempt > 1 then stats.recovered <- stats.recovered + 1;
        ok
    | Error reason as err ->
        record_error stats ~at:(Sim.Engine.now engine) reason;
        if attempt >= policy.max_attempts then begin
          stats.gave_up <- stats.gave_up + 1;
          err
        end
        else begin
          let delay = backoff policy ~attempt in
          let now = Sim.Engine.now engine in
          let past_op_deadline = match deadline with None -> false | Some d -> now +. delay >= d in
          if now +. delay -. start > policy.deadline || past_op_deadline then begin
            stats.timeouts <- stats.timeouts + 1;
            err
          end
          else begin
            stats.retries <- stats.retries + 1;
            Sim.Engine.run_until engine (now +. delay);
            go (attempt + 1)
          end
        end
  in
  go 1
