(* Isolated layer probes, run after a traced workload.  Each one calls a
   single layer's public function in a loop, on inputs shaped like the
   workload's, and reports host time per call.  A probe runs the layer
   with caches warmer than in the full stack, so its figures are
   upper-bound shares, not attributions. *)

let time_ns iters f =
  let t0 = Spans.now_ns () in
  for i = 0 to iters - 1 do
    f i
  done;
  Float.of_int (Spans.now_ns () - t0) /. Float.of_int iters

type sizes = { iters : int; codec_iters : int; store_iters : int; cycles : int; replay_ops : int }

let sizes = function
  | Workloads.Full -> { iters = 200_000; codec_iters = 20_000; store_iters = 50_000; cycles = 10; replay_ops = 20_000 }
  | Workloads.Smoke -> { iters = 2_000; codec_iters = 200; store_iters = 500; cycles = 2; replay_ops = 200 }

(* schedule + step on a fresh engine holding [depth] far-future events. *)
let heap_event_ns ~depth ~iters =
  let e = Sut.new_engine () and rng = Splitmix.create depth in
  for _ = 1 to depth do
    Sut.schedule e (1e9 +. Splitmix.unit_pos rng) ignore
  done;
  time_ns iters (fun _ ->
      Sut.schedule e (Splitmix.unit_pos rng) ignore;
      ignore (Sut.step e : bool))

(* Category indices in proportion to the workload's traffic, spread
   evenly, so a probe loop replays the workload's message mix. *)
let category_cycle by_category =
  let total = Array.fold_left ( + ) 0 by_category in
  let slots = 100 in
  List.concat
    (List.init (Array.length by_category) (fun c ->
         let n = if total = 0 then 0 else ((by_category.(c) * slots) + (total / 2)) / total in
         List.init (if n = 0 && by_category.(c) > 0 then 1 else n) (fun _ -> c)))
  |> Array.of_list

(* One transmission (send, or multicast for the categories the protocols
   multicast) through a bare network, deliveries included. *)
let send_deliver_ns shape by_category ~iters =
  let cycle = category_cycle by_category in
  if Array.length cycle = 0 then 0.0
  else begin
    let e = Sut.new_engine () in
    let net = Sut.transport e shape in
    let msgs = Array.init (Array.length Sut.categories) (Sut.sample_message shape) in
    time_ns iters (fun i ->
        let c = cycle.(i mod Array.length cycle) in
        if Sut.is_broadcast c then Sut.broadcast net ~from:0 msgs.(c)
        else Sut.send net ~from:0 ~dst:1 msgs.(c);
        if i land 15 = 15 then while Sut.step e do () done)
  end

type codec = { size_ns_per_op : float; encode_ns_per_op : float; decode_ns_per_op : float }

(* Per-call cost of each codec function per category, weighted by the
   workload's messages of that category per op. *)
let codec shape ~by_category ~ops ~iters =
  let per_op f =
    let acc = ref 0.0 in
    Array.iteri
      (fun c n ->
        if n > 0 then acc := !acc +. (f (Sut.sample_message shape c) *. Float.of_int n /. Float.of_int ops))
      by_category;
    !acc
  in
  {
    size_ns_per_op = per_op (fun m -> time_ns iters (fun _ -> ignore (Sut.wire_size m : int)));
    encode_ns_per_op = per_op (fun m -> time_ns iters (fun _ -> ignore (Sut.wire_encode m : Bytes.t)));
    decode_ns_per_op =
      per_op (fun m ->
          let frame = Sut.wire_encode m in
          time_ns iters (fun _ -> ignore (Sut.wire_decode_ok frame : bool)));
  }

let crc_ns_per_kib ~iters =
  let rng = Splitmix.create 1024 in
  let buf = Bytes.init 1024 (fun _ -> Char.unsafe_chr (Splitmix.int rng 256)) in
  time_ns iters (fun _ -> ignore (Sut.crc buf : int))

(* Journaled writes, then verified reads, over the workload's capacity at
   uniformly drawn block ids. *)
let store_ns ~capacity ~seed ~iters =
  let s = Sut.store ~capacity in
  let versions = Array.make capacity 0 in
  let ids = Splitmix.derive seed 1 in
  let block = Array.init iters (fun _ -> Splitmix.int ids capacity) in
  let data = Sut.payload ~block:0 ~op:0 in
  let write =
    time_ns iters (fun i ->
        let b = block.(i) in
        versions.(b) <- versions.(b) + 1;
        Sut.store_write s b data ~version:versions.(b))
  in
  let verify = time_ns iters (fun i -> ignore (Sut.store_read_verified s block.(i) : bool)) in
  (write, verify)

let avail_check_us c ~iters = time_ns iters (fun _ -> ignore (Sut.system_available c : bool)) *. 1e-3

(* Fail and repair each site in turn on the workload's cluster, letting
   recovery finish between calls.  Returns the recovery messages sent. *)
let fail_repair c tr ~n_sites ~cycles =
  let before = (Sut.traffic c).Sut.recovery_msgs in
  for k = 0 to cycles - 1 do
    let s = k mod n_sites in
    Spans.enter tr Spans.Fail_site;
    Sut.fail_site c s;
    Spans.leave tr;
    Sut.settle c;
    Spans.enter tr Spans.Repair_site;
    Sut.repair_site c s;
    Spans.leave tr;
    Sut.settle c
  done;
  (Sut.traffic c).Sut.recovery_msgs - before

(* A closed loop's op stream replayed through the asynchronous cluster
   calls with the benchmark driving every engine step, so the step and
   issue spans exist for closed loops too. *)
let stepped_replay c tr ~n_blocks ~reads ~of_ops ~seed ~ops ~pending =
  let e = Sut.engine c and rng = Splitmix.derive seed 3 in
  for i = 0 to ops - 1 do
    let b = Splitmix.int rng n_blocks and settled = ref false in
    Spans.enter tr Spans.Issue;
    if Splitmix.int rng of_ops < reads then Sut.read_async c ~site:0 ~block:b (fun () -> settled := true)
    else Sut.write c ~site:0 ~block:b (Sut.payload ~block:b ~op:(-2 - i)) (fun _ -> settled := true);
    Spans.leave tr;
    while not !settled do
      Spans.enter tr Spans.Step;
      let more = Sut.step e in
      Spans.leave tr;
      Hist.add pending (Float.of_int (Sut.pending e));
      if not more then settled := true
    done
  done
