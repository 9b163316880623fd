(* Sharded execution of independent simulation units.

   The determinism story: a sweep is first decomposed into
   self-contained units (chaos seeds, bench cells) whose identity and
   seeds depend only on the experiment parameters — never on the shard
   count.  [map_tasks] then distributes those units over at most
   [shards] lanes in contiguous, balanced chunks and reassembles the
   results in unit order.  Because every unit builds its own engine,
   cluster and PRNG, the shard count controls only how many domains
   execute the fold, not what any unit computes — so [--shards n] is
   bit-identical to [--shards 1] by construction. *)

let map_tasks ~shards ~tasks f =
  if shards <= 0 then invalid_arg "Shard_engine.map_tasks: shards must be positive";
  if tasks < 0 then invalid_arg "Shard_engine.map_tasks: negative task count";
  if tasks = 0 then [||]
  else begin
    let lanes = min shards tasks in
    (* Contiguous balanced chunks: lane [l] covers [lo, hi).  Chunking
       only affects which domain runs a unit, never the unit itself. *)
    let chunk lane =
      let q = tasks / lanes and r = tasks mod lanes in
      let lo = (lane * q) + min lane r in
      let hi = lo + q + if lane < r then 1 else 0 in
      let rec go t acc = if t >= hi then List.rev acc else go (t + 1) (f t :: acc) in
      go lo []
    in
    let per_lane = Domains_compat.parallel_run ~lanes chunk in
    Array.of_list (List.concat (Array.to_list per_lane))
  end
[@@lint.allow "domain-capture"
  "f is the spawn-point contract itself: map_tasks is listed in Config.spawn_points, so the \
   analyzer inspects the concrete thunk at every call site instead of this opaque parameter"]

let map_list ~shards xs f =
  let arr = Array.of_list xs in
  Array.to_list (map_tasks ~shards ~tasks:(Array.length arr) (fun i -> f arr.(i)))
[@@lint.allow "domain-capture"
  "f is the spawn-point contract, analysed at map_list call sites; arr is sealed before the \
   spawn (Array.of_list of the caller's list) and every lane only reads its own disjoint \
   indices afterwards"]
