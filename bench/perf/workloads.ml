(* The four workloads.  A run of a workload repeats identical passes.  A
   pass runs one or more independent cells; a cell builds its cluster,
   prefills it, runs a fixed op count or virtual horizon, and checks its
   outputs.  Everything a pass computes in virtual time is therefore a
   pure function of the seed and the scale. *)

type scale = Full | Smoke

let names = [ "closed_voting"; "local_reads_ac"; "brownout_ac"; "churn_dv" ]

(* ------------------------------------------------------------------ *)
(* Host-time meter                                                      *)

(* Cuts a cell's measured phase into windows of [size] terminated ops and
   keeps each window's op rate and the p50/p99 of the host-time samples
   taken in it.  Summarising per window, then taking medians over
   windows, keeps a slow stretch of a shared host from moving a run's
   figures much, where pooling every sample would follow it. *)
type meter = {
  size : int;
  mutable n : int;
  mutable start : int;
  wall : Hist.t;  (** this window's host-time samples, us *)
  mutable rates : float list;
  mutable p50s : float list;
  mutable p99s : float list;
}

let meter ~expected =
  { size = max 1 (expected / 10); n = 0; start = Spans.now_ns (); wall = Hist.create (); rates = []; p50s = []; p99s = [] }

let terminated m =
  m.n <- m.n + 1;
  if m.n mod m.size = 0 then begin
    let now = Spans.now_ns () in
    m.rates <- (Float.of_int m.size /. (Float.of_int (now - m.start) *. 1e-9)) :: m.rates;
    m.p50s <- Hist.quantile m.wall 0.5 :: m.p50s;
    m.p99s <- Hist.quantile m.wall 0.99 :: m.p99s;
    Hist.reset m.wall;
    m.start <- now
  end

(* ------------------------------------------------------------------ *)
(* What a cell and a pass measured                                      *)

(* Counters at the start of a measured phase, for deltas. *)
type snap = { traffic : Sut.traffic; events : int; deliveries : int; commits : int; client : Sut.client }

let snap c client =
  {
    traffic = Sut.traffic c;
    events = Sut.events_fired (Sut.engine c);
    deliveries = Sut.deliveries c;
    commits = Sut.journal_commits c;
    client;
  }

let client_zip f ~conserved (a : Sut.client) (b : Sut.client) =
  {
    Sut.requests = f a.requests b.requests;
    attempts = f a.attempts b.attempts;
    retries = f a.retries b.retries;
    succeeded = f a.succeeded b.succeeded;
    hedged = f a.hedged b.hedged;
    hedge_wins = f a.hedge_wins b.hedge_wins;
    shed = f a.shed b.shed;
    breaker_trips = f a.breaker_trips b.breaker_trips;
    msgs_shed = f a.msgs_shed b.msgs_shed;
    conserved;
  }

(* Counters since [a]; conservation is judged on the final state. *)
let client_delta a (b : Sut.client) = client_zip (fun x y -> y - x) ~conserved:b.conserved a b

type gc = { minor_words : float; promoted_words : float; minor_collections : int; major_collections : int }

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor_words = b.Gc.minor_words -. a.Gc.minor_words;
    promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
    minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
    major_collections = b.Gc.major_collections - a.Gc.major_collections;
  }

let gc_sum a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
  }

let gc_zero = { minor_words = 0.0; promoted_words = 0.0; minor_collections = 0; major_collections = 0 }

type cell = {
  lane : int;
  attempted : int;
  succeeded : int;
  refused : int;  (** ops the cluster answered with an error: failed, rejected or shed *)
  wrong : int;  (** ops a check rejected: wrong data, lost acknowledged writes *)
  problems : string list;
  notes : string list;  (** outcomes worth reporting that are not failures *)
  create_s : float;
  prefill_s : float;
  meter : meter;
  vlat : Hist.t;  (** virtual response time of successful ops *)
  pending : Hist.t;  (** traced: event-queue depth after each step *)
  server_depth : Hist.t;  (** traced: every site's work-queue depth after each step *)
  gc : gc;  (** measured phase; meaningless for cells run on parallel lanes *)
  msgs : int;
  bytes : int;
  by_category : int array;
  recovery_msgs : int;
  cells_text : string;  (** canonical traffic cells, for the fingerprint *)
  repairs : int;
  events : int;
  deliveries : int;
  commits : int;
  rounds : int;
  client : Sut.client;
  busy_s : float;
  spans : Spans.t option;
  cluster : Sut.cluster option;  (** kept for the layer probes *)
}

let cell_of ~lane ~attempted ~succeeded ~refused ~wrong ~problems ~create_s ~prefill_s ~meter ~vlat ~pending
    ~server_depth ~gc ~repairs ~rounds ~busy_s ~spans ~cluster c (s : snap) client =
  let t = Sut.traffic c in
  {
    lane;
    attempted;
    succeeded;
    refused;
    wrong;
    problems;
    notes = [];
    create_s;
    prefill_s;
    meter;
    vlat;
    pending;
    server_depth;
    gc;
    msgs = t.msgs - s.traffic.msgs;
    bytes = t.bytes - s.traffic.bytes;
    by_category = Array.map2 ( - ) t.by_category s.traffic.by_category;
    recovery_msgs = t.recovery_msgs - s.traffic.recovery_msgs;
    cells_text = t.cells;
    repairs;
    events = Sut.events_fired (Sut.engine c) - s.events;
    deliveries = Sut.deliveries c - s.deliveries;
    commits = Sut.journal_commits c - s.commits;
    rounds;
    client = client_delta s.client client;
    busy_s;
    spans;
    cluster;
  }

type pass = {
  attempted : int;
  succeeded : int;
  refused : int;
  wrong : int;
  problems : string list;
  notes : string list;
  create_s : float;  (** summed over cells *)
  prefill_s : float;
  rates : float list;  (** op rates: every window of a single lane, else ops / elapsed *)
  wall_p50s : float list;  (** per-window host-time p50 of every cell, us *)
  wall_p99s : float list;
  vlat : Hist.t;
  virtual_s : float;  (** virtual time the goodput is taken over *)
  gc : gc;
  msgs : int;
  bytes : int;
  by_category : int array;
  recovery_msgs : int;
  repairs : int;
  events : int;
  deliveries : int;
  journal_commits : int;
  rounds : int;
  client : Sut.client;
  pending : Hist.t;
  server_depth : Hist.t;
  lane_busy_s : float array;
  elapsed_s : float;
  spans : Spans.t list;
  fingerprint : string;
  cluster : Sut.cluster option;
}

let sum f cells = List.fold_left (fun acc c -> acc + f c) 0 cells
let fsum f cells = List.fold_left (fun acc c -> acc +. f c) 0.0 cells

let merged f cells =
  let h = Hist.create () in
  List.iter (fun c -> Hist.merge ~into:h (f c)) cells;
  h

(* Cells in order, each on its lane; [gc] overrides the cells' own
   allocation figures when they ran on parallel lanes. *)
let aggregate name ~lanes ~virtual_s ~elapsed_s ?gc (cells : cell list) =
  let vlat = merged (fun (c : cell) -> c.vlat) cells in
  let attempted = sum (fun (c : cell) -> c.attempted) cells in
  let succeeded = sum (fun (c : cell) -> c.succeeded) cells in
  let refused = sum (fun (c : cell) -> c.refused) cells in
  let lane_busy_s = Array.make lanes 0.0 in
  List.iter (fun (c : cell) -> lane_busy_s.(c.lane) <- lane_busy_s.(c.lane) +. c.busy_s) cells;
  let client =
    match cells with
    | [] -> invalid_arg "aggregate: no cells"
    | first :: rest ->
        List.fold_left
          (fun (a : Sut.client) (c : cell) -> client_zip ( + ) ~conserved:(a.conserved && c.client.conserved) a c.client)
          first.client rest
  in
  let canonical =
    Printf.sprintf "%s|%d|%d|%d|%s|%s" name attempted succeeded refused
      (String.concat "#" (List.map (fun (c : cell) -> c.cells_text) cells))
      (Hist.render vlat)
  in
  {
    attempted;
    succeeded;
    refused;
    wrong = sum (fun (c : cell) -> c.wrong) cells;
    problems = List.concat_map (fun (c : cell) -> c.problems) cells;
    notes = List.concat_map (fun (c : cell) -> c.notes) cells;
    create_s = fsum (fun (c : cell) -> c.create_s) cells;
    prefill_s = fsum (fun (c : cell) -> c.prefill_s) cells;
    rates =
      (if lanes = 1 then List.concat_map (fun (c : cell) -> c.meter.rates) cells
       else [ Float.of_int attempted /. elapsed_s ]);
    wall_p50s = List.concat_map (fun (c : cell) -> c.meter.p50s) cells;
    wall_p99s = List.concat_map (fun (c : cell) -> c.meter.p99s) cells;
    vlat;
    virtual_s;
    gc = (match gc with Some g -> g | None -> List.fold_left (fun a (c : cell) -> gc_sum a c.gc) gc_zero cells);
    msgs = sum (fun (c : cell) -> c.msgs) cells;
    bytes = sum (fun (c : cell) -> c.bytes) cells;
    by_category =
      List.fold_left
        (fun acc (c : cell) -> Array.map2 ( + ) acc c.by_category)
        (Array.make (Array.length Sut.categories) 0)
        cells;
    recovery_msgs = sum (fun (c : cell) -> c.recovery_msgs) cells;
    repairs = sum (fun (c : cell) -> c.repairs) cells;
    events = sum (fun (c : cell) -> c.events) cells;
    deliveries = sum (fun (c : cell) -> c.deliveries) cells;
    journal_commits = sum (fun (c : cell) -> c.commits) cells;
    rounds = sum (fun (c : cell) -> c.rounds) cells;
    client;
    pending = merged (fun (c : cell) -> c.pending) cells;
    server_depth = merged (fun (c : cell) -> c.server_depth) cells;
    lane_busy_s;
    elapsed_s;
    spans = List.filter_map (fun (c : cell) -> c.spans) cells;
    fingerprint = Digest.to_hex (Digest.string canonical);
    cluster = List.fold_left (fun acc (c : cell) -> match c.cluster with Some _ as k -> k | None -> acc) None cells;
  }

let failed_checks checks = List.filter_map (fun (ok, what) -> if ok then None else Some what) checks

(* Set-up shared by every cell: build, then prefill every block with a
   write tagged op = block id, both timed and, when traced, spanned. *)
let setup tr make fill =
  let t0 = Spans.now_ns () in
  let x = Spans.span tr Spans.Setup_create make in
  let create_s = Spans.seconds_since t0 in
  let t1 = Spans.now_ns () in
  let filled = Spans.span tr Spans.Setup_prefill (fun () -> fill x) in
  (x, filled, create_s, Spans.seconds_since t1)

let prefill write n_blocks =
  let ok = ref true in
  for b = 0 to n_blocks - 1 do
    ok := write b (Sut.payload ~block:b ~op:b) && !ok
  done;
  !ok

let prefill_device dev = prefill (Sut.dev_write dev)
let prefill_cluster c = prefill (fun block data -> Sut.write_sync c ~site:0 ~block data)

(* Steps the engine dry; traced, each step is a span followed by
   [sample]. *)
let drive e tr ~sample =
  match tr with
  | None -> while Sut.step e do () done
  | Some t ->
      let continue = ref true in
      while !continue do
        Spans.enter t Spans.Step;
        continue := Sut.step e;
        Spans.leave t;
        sample ()
      done

(* Poisson arrivals from [start] to [until] as a chain of engine events:
   each arrival issues one op (spanned when traced), samples the host time
   since the previous arrival into the meter, and schedules the next.
   The generator therefore cannot run late; the returned count of
   arrivals that fired off their due time makes that an assertion. *)
let arrivals e tr m ~gaps ~rate ~start ~until issue =
  let late = ref 0 and last = ref (Spans.now_ns ()) in
  let rec arrive due () =
    if Sut.now e <> due then incr late;
    let now = Spans.now_ns () in
    Hist.add m.wall (Float.of_int (now - !last) *. 1e-3);
    last := now;
    (match tr with
    | Some t ->
        Spans.enter t Spans.Issue;
        issue due;
        Spans.leave t
    | None -> issue due);
    let next = due +. Splitmix.exponential gaps ~rate in
    if next <= until then Sut.schedule_at e next (arrive next)
  in
  let first = start +. Splitmix.exponential gaps ~rate in
  Sut.schedule_at e first (arrive first);
  late

(* ------------------------------------------------------------------ *)
(* Closed loops: one client, each op waits for the previous one.        *)

type closed = { name : string; shape : Sut.shape; reads : int; writes : int; ops : int; seed : int }

(* Read-your-write shadow: the op that last wrote each block, plus the
   ops of failed writes since, any of which may have landed. *)
type shadow = { last : int array; maybe : int list array }

let wrote sh b op ok =
  if ok then begin
    sh.last.(b) <- op;
    sh.maybe.(b) <- []
  end
  else sh.maybe.(b) <- op :: sh.maybe.(b)

let read_ok sh b data =
  match Sut.tag data with
  | Some (b', op) when b' = b && (op = sh.last.(b) || List.mem op sh.maybe.(b)) ->
      sh.last.(b) <- op;
      sh.maybe.(b) <- [];
      true
  | Some _ | None -> false

let run_closed w ~traced =
  let tr = if traced then Some (Spans.create ~lane:0) else None in
  let n_blocks = w.shape.n_blocks in
  let dev, filled, create_s, prefill_s =
    setup tr (fun () -> Sut.device w.shape) (fun d -> prefill_device d n_blocks)
  in
  let c = Sut.device_cluster dev in
  let e = Sut.engine c in
  let rounds = ref 0 in
  if traced then Sut.on_round_start c (fun () -> incr rounds);
  let sh = { last = Array.init n_blocks Fun.id; maybe = Array.make n_blocks [] } in
  let rng = Splitmix.derive w.seed 1 in
  let vlat = Hist.create () in
  let succeeded = ref 0 and refused = ref 0 and wrong = ref 0 in
  let s0 = snap c (Sut.device_client dev) and v0 = Sut.now e in
  let m = meter ~expected:w.ops in
  let unused = Sut.payload ~block:0 ~op:0 in
  let gc0 = Gc.quick_stat () in
  let start = Spans.now_ns () in
  m.start <- start;
  for i = 0 to w.ops - 1 do
    let op = n_blocks + i in
    let b = Splitmix.int rng n_blocks in
    let is_read = Splitmix.int rng (w.reads + w.writes) < w.reads in
    let data = if is_read then unused else Sut.payload ~block:b ~op in
    let vt = Sut.now e in
    let h0 = Spans.now_ns () in
    (match tr with Some t -> Spans.enter t Spans.Op | None -> ());
    let ok =
      if is_read then
        match Sut.dev_read dev b with
        | Some got ->
            if not (read_ok sh b got) then incr wrong;
            true
        | None -> false
      else
        let ok = Sut.dev_write dev b data in
        wrote sh b op ok;
        ok
    in
    (match tr with Some t -> Spans.leave t | None -> ());
    Hist.add m.wall (Float.of_int (Spans.now_ns () - h0) *. 1e-3);
    if ok then begin
      incr succeeded;
      Hist.add vlat (Sut.now e -. vt)
    end
    else incr refused;
    terminated m
  done;
  let busy_s = Spans.seconds_since start in
  let gc = gc_delta gc0 (Gc.quick_stat ()) in
  let virtual_s = Sut.now e -. v0 in
  let cell =
    cell_of ~lane:0 ~attempted:w.ops ~succeeded:!succeeded ~refused:!refused ~wrong:!wrong
      ~problems:[] ~create_s ~prefill_s ~meter:m ~vlat ~pending:(Hist.create ()) ~server_depth:(Hist.create ())
      ~gc ~repairs:0 ~rounds:!rounds ~busy_s ~spans:tr ~cluster:(Some c) c s0 (Sut.device_client dev)
  in
  Sut.settle c;
  let problems =
    failed_checks
      [
        (filled, "prefill write refused");
        (!wrong = 0, Printf.sprintf "%d reads broke read-your-write" !wrong);
        (Sut.consistent_available_stores c, "available stores diverge after settling");
      ]
  in
  aggregate w.name ~lanes:1 ~virtual_s ~elapsed_s:busy_s [ { cell with problems } ]

(* ------------------------------------------------------------------ *)
(* brownout_ac: open-loop Poisson arrivals in virtual time.             *)

(* The hedge delay follows the observed read latency, which hedging in
   turn lowers, and a cluster settles into one of two regimes for its
   whole life depending on its seed.  A pass therefore runs several
   independent cells one after the other, so its figures average over the
   regimes instead of following one seed's. *)
type brownout = { bshape : Sut.shape; rate : float; cells : int; horizon : float; bseed : int }

let brownout_cell w tr i =
  let shape = { w.bshape with cluster_seed = Splitmix.bits (Splitmix.derive w.bseed (100 + i)) } in
  let n_blocks = shape.n_blocks in
  let dev, filled, create_s, prefill_s =
    setup tr (fun () -> Sut.device shape) (fun d -> prefill_device d n_blocks)
  in
  let c = Sut.device_cluster dev in
  let e = Sut.engine c in
  let rounds = ref 0 in
  if Option.is_some tr then Sut.on_round_start c (fun () -> incr rounds);
  let seed = Splitmix.bits (Splitmix.derive w.bseed (200 + i)) in
  let ops = Splitmix.derive seed 1 and gaps = Splitmix.derive seed 2 in
  let vlat = Hist.create () and pending = Hist.create () and server_depth = Hist.create () in
  let issued = ref 0 and succeeded = ref 0 and refused = ref 0 and wrong = ref 0 in
  let s0 = snap c (Sut.device_client dev) and v0 = Sut.now e in
  let m = meter ~expected:(Float.to_int (w.rate *. w.horizon)) in
  let finish due ok =
    if ok then begin
      incr succeeded;
      Hist.add vlat (Sut.now e -. due)
    end
    else incr refused;
    terminated m
  in
  let issue due =
    let op = n_blocks + !issued in
    incr issued;
    let b = Splitmix.int ops n_blocks in
    if Splitmix.int ops 3 < 2 then
      Sut.dev_read_async dev b (function
        | Ok (data, _) ->
            (match Sut.tag data with Some (b', _) when b' = b -> () | Some _ | None -> incr wrong);
            finish due true
        | Error _ -> finish due false)
    else
      Sut.dev_write_async dev b (Sut.payload ~block:b ~op) (function
        | Ok _ -> finish due true
        | Error _ -> finish due false)
  in
  let late = arrivals e tr m ~gaps ~rate:w.rate ~start:v0 ~until:(v0 +. w.horizon) issue in
  let sample () =
    Hist.add pending (Float.of_int (Sut.pending e));
    for s = 0 to shape.n_sites - 1 do
      Hist.add server_depth (Float.of_int (Sut.server_depth c s))
    done
  in
  let gc0 = Gc.quick_stat () in
  let start = Spans.now_ns () in
  m.start <- start;
  drive e tr ~sample;
  let busy_s = Spans.seconds_since start in
  let gc = gc_delta gc0 (Gc.quick_stat ()) in
  let client = Sut.device_client dev in
  let delta = client_delta s0.client client in
  (* No store-convergence check: a full site queue sheds update messages
     by design, so replicas may legitimately differ after the drain. *)
  let problems =
    failed_checks
      [
        (filled, "prefill write refused");
        (!wrong = 0, Printf.sprintf "%d reads returned another block's data" !wrong);
        (!late = 0, Printf.sprintf "%d arrivals fired off their due time" !late);
        (delta.conserved, "degradation counters do not reconcile");
        (Sut.in_flight dev = 0, "operations still in flight after the drain");
        (delta.requests = !issued, "device requests differ from ops issued");
        (!succeeded + !refused = !issued, "some ops never terminated");
      ]
  in
  cell_of ~lane:0 ~attempted:!issued ~succeeded:!succeeded ~refused:!refused ~wrong:!wrong ~problems ~create_s
    ~prefill_s ~meter:m ~vlat ~pending ~server_depth ~gc ~repairs:0 ~rounds:!rounds ~busy_s ~spans:None
    ~cluster:(if i = w.cells - 1 then Some c else None)
    c s0 client

let run_brownout w ~traced =
  let tr = if traced then Some (Spans.create ~lane:0) else None in
  let start = Spans.now_ns () in
  let cells = List.init w.cells (brownout_cell w tr) in
  let pass =
    aggregate "brownout_ac" ~lanes:1 ~virtual_s:(Float.of_int w.cells *. w.horizon)
      ~elapsed_s:(Spans.seconds_since start) cells
  in
  { pass with spans = Option.to_list tr }

(* ------------------------------------------------------------------ *)
(* churn_dv: independent dynamic-voting cells under Poisson churn.       *)

(* A cell descriptor is immutable: it is all a lane thunk captures. *)
type churn_cell = {
  id : int;
  lane : int;
  rho : float;  (** failure rate; repair rate is 1 *)
  shape : Sut.shape;
  write_rate : float;
  horizon : float;
  seed : int;
  traced : bool;
}

let churn_cell cell =
  let lane_start = Spans.now_ns () in
  let tr = if cell.traced then Some (Spans.create ~lane:cell.lane) else None in
  (match tr with Some t -> Spans.enter t Spans.Lane | None -> ());
  let n_sites = cell.shape.n_sites and n_blocks = cell.shape.n_blocks in
  let c, filled, create_s, prefill_s =
    setup tr (fun () -> Sut.cluster cell.shape) (fun c -> prefill_cluster c n_blocks)
  in
  let e = Sut.engine c in
  let rounds = ref 0 in
  if cell.traced then Sut.on_round_start c (fun () -> incr rounds);
  let s0 = snap c (Sut.cluster_client c) and v0 = Sut.now e in
  let horizon = v0 +. cell.horizon in
  let ops = Splitmix.derive cell.seed 1 and gaps = Splitmix.derive cell.seed 2 in
  let down = Array.make n_sites false in
  let repairs = ref 0 in
  let traced_call name f =
    match tr with
    | Some t ->
        Spans.enter t name;
        f ();
        Spans.leave t
    | None -> f ()
  in
  (* Every site alternates exponential up (rate rho) and down (rate 1)
     periods drawn from its own stream, until the horizon. *)
  let rec fail_at s rng () =
    down.(s) <- true;
    traced_call Spans.Fail_site (fun () -> Sut.fail_site c s);
    let at = Sut.now e +. Splitmix.exponential rng ~rate:1.0 in
    if at <= horizon then Sut.schedule_at e at (repair_at s rng)
  and repair_at s rng () =
    down.(s) <- false;
    incr repairs;
    traced_call Spans.Repair_site (fun () -> Sut.repair_site c s);
    let at = Sut.now e +. Splitmix.exponential rng ~rate:cell.rho in
    if at <= horizon then Sut.schedule_at e at (fail_at s rng)
  in
  for s = 0 to n_sites - 1 do
    let rng = Splitmix.derive cell.seed (10 + s) in
    let at = v0 +. Splitmix.exponential rng ~rate:cell.rho in
    if at <= horizon then Sut.schedule_at e at (fail_at s rng)
  done;
  (* A client writes at a random site that is up (at a random site when
     none is), so refusals come from lost quorums, not dead entry points. *)
  let up_site k =
    let ups = Array.fold_left (fun n d -> if d then n else n + 1) 0 down in
    let rec nth s k = if down.(s) then nth (s + 1) k else if k = 0 then s else nth (s + 1) (k - 1) in
    if ups = 0 then k else nth 0 (k mod ups)
  in
  let vlat = Hist.create () and pending = Hist.create () in
  let m = meter ~expected:(Float.to_int (cell.write_rate *. cell.horizon)) in
  let issued = ref 0 and succeeded = ref 0 and refused = ref 0 in
  (* Highest acknowledged version of each block and the ops acknowledged
     at it (overlapping writes from two sites can share a version); the
     prefill wrote version 1 of block b as op b. *)
  let acked_version = Array.make n_blocks 1 and acked_ops = Array.init n_blocks (fun b -> [ b ]) in
  let issue due =
    let op = n_blocks + !issued in
    incr issued;
    let site = up_site (Splitmix.int ops n_sites) and b = Splitmix.int ops n_blocks in
    Sut.write c ~site ~block:b (Sut.payload ~block:b ~op) (function
      | Ok version ->
          incr succeeded;
          Hist.add vlat (Sut.now e -. due);
          if version > acked_version.(b) then begin
            acked_version.(b) <- version;
            acked_ops.(b) <- [ op ]
          end
          else if version = acked_version.(b) then acked_ops.(b) <- op :: acked_ops.(b);
          terminated m
      | Error _ ->
          incr refused;
          terminated m)
  in
  let late = arrivals e tr m ~gaps ~rate:cell.write_rate ~start:v0 ~until:horizon issue in
  m.start <- Spans.now_ns ();
  drive e tr ~sample:(fun () -> Hist.add pending (Float.of_int (Sut.pending e)));
  let result =
    cell_of ~lane:cell.lane ~attempted:!issued ~succeeded:!succeeded ~refused:!refused ~wrong:0 ~problems:[]
      ~create_s ~prefill_s ~meter:m ~vlat ~pending ~server_depth:(Hist.create ()) ~gc:gc_zero
      ~repairs:!repairs ~rounds:!rounds ~busy_s:0.0 ~spans:tr ~cluster:None c s0 (Sut.cluster_client c)
  in
  (* End state: every site repaired and the cluster quiet, then every
     block that can be read must hold its newest acknowledged write, or a
     newer one.  A read of the quiet cluster may still be refused: a hop
     can outlast the round timeout, and a block's update group can be
     trapped for good (the known dynamic-voting pathology).  Such blocks
     are counted in a note, not checked. *)
  Array.iteri (fun s d -> if d then Sut.repair_site c s) down;
  Sut.settle c;
  let rec final_read b tries =
    match Sut.read_sync c ~site:0 ~block:b with
    | None when tries > 1 -> final_read b (tries - 1)
    | r -> r
  in
  let lost = ref 0 and unreadable = ref 0 in
  for b = 0 to n_blocks - 1 do
    match final_read b 5 with
    | Some (data, version) -> (
        match Sut.tag data with
        | Some (b', op) when b' = b && (version > acked_version.(b) || List.mem op acked_ops.(b)) -> ()
        | Some _ | None -> incr lost)
    | None -> incr unreadable
  done;
  let problems =
    List.map
      (Printf.sprintf "cell %d: %s" cell.id)
      (failed_checks
         [
           (filled, "prefill write refused");
           (Sut.consistent_available_stores c, "available stores diverge after full repair");
           (!lost = 0, Printf.sprintf "%d blocks lost their newest acknowledged write" !lost);
           (!late = 0, Printf.sprintf "%d arrivals fired off their due time" !late);
           (!succeeded + !refused = !issued, "some writes never terminated");
         ])
  in
  let notes =
    if !unreadable = 0 then []
    else [ Printf.sprintf "cell %d: %d blocks refused every read after full repair" cell.id !unreadable ]
  in
  (match tr with Some t -> Spans.leave t | None -> ());
  (* No device: every write is one request, issued once. *)
  let client = { result.client with Sut.requests = !issued; attempts = !issued; succeeded = !succeeded } in
  { result with wrong = !lost; problems; notes; client; busy_s = Spans.seconds_since lane_start }

type churn = { rhos : float list; cshape : Sut.shape; rate : float; chorizon : float; seed : int; shards : int }

(* Shard_engine's documented split: contiguous balanced chunks. *)
let lane_of ~lanes ~tasks i =
  let q = tasks / lanes and r = tasks mod lanes in
  let rec find lane = if i < ((lane + 1) * q) + min (lane + 1) r then lane else find (lane + 1) in
  find 0

let run_churn w ~traced =
  let tasks = List.length w.rhos in
  let lanes = max 1 (min w.shards tasks) in
  let cells =
    List.mapi
      (fun id rho ->
        {
          id;
          lane = lane_of ~lanes ~tasks id;
          rho;
          shape = { w.cshape with cluster_seed = Splitmix.bits (Splitmix.derive w.seed (100 + id)) };
          write_rate = w.rate;
          horizon = w.chorizon;
          seed = Splitmix.bits (Splitmix.derive w.seed (200 + id));
          traced;
        })
      w.rhos
  in
  let gc0 = Gc.quick_stat () in
  let start = Spans.now_ns () in
  let results = Sim.Shard_engine.map_list ~shards:w.shards cells churn_cell in
  let elapsed_s = Spans.seconds_since start in
  let gc = gc_delta gc0 (Gc.quick_stat ()) in
  aggregate "churn_dv" ~lanes ~virtual_s:(Float.of_int tasks *. w.chorizon) ~elapsed_s ~gc results

(* ------------------------------------------------------------------ *)
(* The workload table                                                   *)

type t = Closed of closed | Brownout of brownout | Churn of churn

let make name ~seed ~scale ~shards =
  let smoke = match scale with Smoke -> true | Full -> false in
  let cluster_seed = Splitmix.bits (Splitmix.derive seed 0) in
  let shape scheme n_sites n_blocks latency =
    { Sut.scheme; n_sites; n_blocks; latency; ssd_sync = false; brownout = false; cluster_seed }
  in
  match name with
  | "closed_voting" ->
      Closed
        {
          name;
          shape = { (shape Sut.Voting 5 256 (Sut.Exponential 2.0)) with ssd_sync = true };
          reads = 3;
          writes = 1;
          ops = (if smoke then 1_000 else 200_000);
          seed;
        }
  | "local_reads_ac" ->
      Closed
        {
          name;
          shape = shape Sut.Available_copy 3 (if smoke then 256 else 16_384) (Sut.Exponential 2.0);
          reads = 9;
          writes = 1;
          ops = (if smoke then 10_000 else 1_000_000);
          seed;
        }
  | "brownout_ac" ->
      Brownout
        {
          bshape = { (shape Sut.Available_copy 3 1_024 (Sut.Constant 0.5)) with brownout = true };
          rate = 2.0 *. Sut.saturation_rate ();
          cells = (if smoke then 2 else 10);
          horizon = (if smoke then 50.0 else 2_000.0);
          bseed = seed;
        }
  | "churn_dv" ->
      Churn
        {
          rhos = [ 0.3; 0.1; 0.3; 0.1 ];
          cshape = shape Sut.Dynamic_voting 5 64 (Sut.Exponential 100.0);
          rate = 20.0;
          chorizon = (if smoke then 10.0 else 1_000.0);
          seed;
          shards;
        }
  | other -> invalid_arg ("unknown workload " ^ other)

let run w ~traced =
  match w with
  | Closed c -> run_closed c ~traced
  | Brownout b -> run_brownout b ~traced
  | Churn c -> run_churn c ~traced

let shape = function Closed c -> c.shape | Brownout b -> b.bshape | Churn c -> c.cshape
let read_share = function Closed c -> (c.reads, c.reads + c.writes) | Brownout _ -> (2, 3) | Churn _ -> (0, 1)

(* One extra set-up, timed like a pass's, for runs whose passes alone give
   too few set-up samples for a steady median. *)
let setup_sample w =
  let device (s : Sut.shape) =
    let _, _, create_s, prefill_s = setup None (fun () -> Sut.device s) (fun d -> prefill_device d s.n_blocks) in
    (create_s, prefill_s)
  in
  let cluster (s : Sut.shape) =
    let _, _, create_s, prefill_s = setup None (fun () -> Sut.cluster s) (fun c -> prefill_cluster c s.n_blocks) in
    (create_s, prefill_s)
  in
  let repeat n f =
    List.fold_left
      (fun (c, p) _ ->
        let c', p' = f () in
        (c +. c', p +. p'))
      (0.0, 0.0) (List.init n Fun.id)
  in
  match w with
  | Closed c -> device c.shape
  | Brownout b -> repeat b.cells (fun () -> device b.bshape)
  | Churn c -> repeat (List.length c.rhos) (fun () -> cluster c.cshape)
