type t = {
  engine : Sim.Engine.t;
  acc : Util.Stats.Timed.t;
  mutable current : bool;
  mutable transitions : int;
  mutable outages : int;
  mutable down_since : float option;
  durations : Util.Stats.t;
}

let create engine ~initially =
  let now = Sim.Engine.now engine in
  {
    engine;
    acc = Util.Stats.Timed.create ~at:now ~value:(if initially then 1.0 else 0.0);
    current = initially;
    transitions = 0;
    outages = 0;
    down_since = (if initially then None else Some now);
    durations = Util.Stats.create ();
  }

let record t value =
  if value <> t.current then begin
    let now = Sim.Engine.now t.engine in
    t.transitions <- t.transitions + 1;
    if not value then begin
      t.outages <- t.outages + 1;
      t.down_since <- Some now
    end
    else begin
      (match t.down_since with
      | Some since -> Util.Stats.add t.durations (now -. since)
      | None -> ());
      t.down_since <- None
    end;
    t.current <- value;
    Util.Stats.Timed.update t.acc ~at:now ~value:(if value then 1.0 else 0.0)
  end

let current_outage t =
  Option.map (fun since -> Sim.Engine.now t.engine -. since) t.down_since

let availability t = Util.Stats.Timed.average t.acc ~upto:(Sim.Engine.now t.engine)
let transitions t = t.transitions
let outages t = t.outages
let mean_time_to_repair t = Util.Stats.mean t.durations
