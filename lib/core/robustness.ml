type hedge = { quantile : float; floor : float }
type breaker = { threshold : int; cooldown : float }

type t = {
  deadlines : bool;
  op_budget : float option;
  hedge : hedge option;
  breaker : breaker option;
  admission : int option;
}

let off = { deadlines = false; op_budget = None; hedge = None; breaker = None; admission = None }

let validate t =
  match (t.op_budget, t.hedge, t.breaker, t.admission) with
  | Some b, _, _, _ when b <= 0.0 -> Error "op_budget must be positive"
  | Some _, _, _, _ when not t.deadlines -> Error "op_budget without deadlines has no effect"
  | _, Some h, _, _ when not (h.quantile > 0.0 && h.quantile < 1.0) ->
      Error "hedge quantile must lie strictly between 0 and 1"
  | _, Some h, _, _ when h.floor < 0.0 -> Error "hedge floor must be non-negative"
  | _, _, Some b, _ when b.threshold < 1 -> Error "breaker threshold must be at least 1"
  | _, _, Some b, _ when b.cooldown <= 0.0 -> Error "breaker cooldown must be positive"
  | _, _, _, Some a when a < 1 -> Error "admission limit must be at least 1"
  | _ -> Ok t
