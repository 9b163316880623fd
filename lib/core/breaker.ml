type t = {
  engine : Sim.Engine.t;
  threshold : int;
  cooldown : float;
  mutable consecutive_failures : int;
  mutable opened_at : float option;
  mutable trips : int;
}

type state = Closed | Open | Half_open

let create engine ~threshold ~cooldown =
  if threshold < 1 then invalid_arg "Breaker.create: threshold must be at least 1";
  if cooldown <= 0.0 then invalid_arg "Breaker.create: cooldown must be positive";
  { engine; threshold; cooldown; consecutive_failures = 0; opened_at = None; trips = 0 }

let state t =
  match t.opened_at with
  | None -> Closed
  | Some at -> if Sim.Engine.now t.engine >= at +. t.cooldown then Half_open else Open

let allows t = match state t with Closed | Half_open -> true | Open -> false

let record_success t =
  t.consecutive_failures <- 0;
  t.opened_at <- None

let record_failure t =
  t.consecutive_failures <- t.consecutive_failures + 1;
  match state t with
  | Open -> ()
  | Half_open ->
      (* The trial round failed: straight back to open, cooldown restarted.
         Not a fresh trip — the peer never recovered. *)
      t.opened_at <- Some (Sim.Engine.now t.engine)
  | Closed ->
      if t.consecutive_failures >= t.threshold then begin
        t.opened_at <- Some (Sim.Engine.now t.engine);
        t.trips <- t.trips + 1
      end

let trips t = t.trips
