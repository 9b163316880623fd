let max_attempts = 6

(* Delay before attempt [attempt + 1]; attempt is 1-based. *)
let backoff ~unit ~attempt = Float.min (16.0 *. unit) (unit *. (2.0 ** float_of_int (attempt - 1)))

let budget ~unit = 64.0 *. unit

(* Everything the cluster can report is potentially transient once the wire
   is lossy: a dropped vote costs the quorum, a dropped transfer times the
   pull out, a dying coordinator looks locally unavailable.  So every error
   is retried, and the attempt and time bounds keep genuinely persistent
   outages from spinning.  Both time bounds are tested before the backoff
   is slept: a retry that could only start past them is never waited for. *)
let run ~unit ~engine ?deadline f =
  let start = Sim.Engine.now engine in
  let rec go attempt =
    match f ~attempt with
    | Ok _ as ok -> ok
    | Error _ as err ->
        if attempt >= max_attempts then err
        else begin
          let delay = backoff ~unit ~attempt in
          let now = Sim.Engine.now engine in
          let past_op_deadline = match deadline with None -> false | Some d -> now +. delay >= d in
          if now +. delay -. start > budget ~unit || past_op_deadline then err
          else begin
            Sim.Engine.run_until engine (now +. delay);
            go (attempt + 1)
          end
        end
  in
  go 1
