type t = {
  queue_capacity : int;
  base : Util.Dist.t;
  per_category : (Message.category * Util.Dist.t) list;
  client : Util.Dist.t;
}

(* Calibrated in units of the default one-hop latency (0.5): applying a
   Block_update is a journaled synchronous write, by far the heaviest step —
   the stable-memory measurements put its mean near half a network hop with
   coefficient of variation below one, hence Erlang-2 (CV 1/sqrt 2) at mean
   0.25.  Votes are metadata-only and cheap; block transfers move data but
   skip the journal fsync; everything else defaults to [base]. *)
let default =
  {
    queue_capacity = 64;
    base = Util.Dist.Constant 0.05;
    per_category =
      [
        (Message.Vote_request, Util.Dist.Constant 0.04);
        (Message.Vote_reply, Util.Dist.Constant 0.02);
        (Message.Block_update, Util.Dist.Erlang (2, 8.0));
        (Message.Write_ack, Util.Dist.Constant 0.02);
        (Message.Block_request, Util.Dist.Constant 0.06);
        (Message.Block_transfer, Util.Dist.Constant 0.12);
      ];
    client = Util.Dist.Constant 0.08;
  }

let dist_for t category =
  match List.assoc_opt category t.per_category with Some d -> d | None -> t.base

let cost_of t category rng = Util.Dist.sample (dist_for t category) rng
let client_cost t rng = Util.Dist.sample t.client rng
let mean_client_cost t = Util.Dist.mean t.client

let validate t =
  if t.queue_capacity < 1 then Error "queue_capacity must be at least 1"
  else begin
    let rec check = function
      | [] -> Ok t
      | (label, d) :: rest -> (
          match Util.Dist.validate d with
          | Ok _ -> check rest
          | Error e -> Error (Printf.sprintf "bad %s distribution: %s" label e))
    in
    check
      (("base", t.base) :: ("client", t.client)
      :: List.map (fun (c, d) -> (Message.to_string c, d)) t.per_category)
  end
