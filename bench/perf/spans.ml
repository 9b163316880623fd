(* Host-time spans recorded around the calls the benchmark makes into each
   layer.  One tracer per lane, preallocated: entering and leaving a span
   writes into fixed arrays and one histogram, so a traced run allocates
   only what the untraced run does plus boxed durations.  Per-name count,
   total, self time and a duration histogram cover every span; the first
   [raw_cap] completed spans are also kept raw for a Chrome trace. *)

type name = Op | Step | Issue | Fail_site | Repair_site | Lane | Setup_create | Setup_prefill

let names = [| "op"; "step"; "issue"; "fail_site"; "repair_site"; "lane"; "setup.create"; "setup.prefill" |]

let index = function
  | Op -> 0
  | Step -> 1
  | Issue -> 2
  | Fail_site -> 3
  | Repair_site -> 4
  | Lane -> 5
  | Setup_create -> 6
  | Setup_prefill -> 7

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = Float.of_int (now_ns () - t0) *. 1e-9
let raw_cap = 20_000
let max_depth = 16
let n_names = Array.length names

type t = {
  lane : int;
  count : int array;
  total : int array;  (** ns *)
  self : int array;  (** ns: duration minus the time child spans cover *)
  durations : Hist.t array;  (** ns *)
  stack_name : int array;
  stack_start : int array;
  stack_child : int array;
  stack_id : int array;
  mutable depth : int;
  mutable next_id : int;
  raw : int array;  (** [raw_cap] x (name, start, stop, id, parent) *)
  mutable n_raw : int;
}

let create ~lane =
  {
    lane;
    count = Array.make n_names 0;
    total = Array.make n_names 0;
    self = Array.make n_names 0;
    durations = Array.init n_names (fun _ -> Hist.create ());
    stack_name = Array.make max_depth 0;
    stack_start = Array.make max_depth 0;
    stack_child = Array.make max_depth 0;
    stack_id = Array.make max_depth 0;
    depth = 0;
    next_id = 0;
    raw = Array.make (5 * raw_cap) 0;
    n_raw = 0;
  }

let enter t name =
  let d = t.depth in
  t.stack_name.(d) <- index name;
  t.stack_child.(d) <- 0;
  t.stack_id.(d) <- t.next_id;
  t.next_id <- t.next_id + 1;
  t.depth <- d + 1;
  t.stack_start.(d) <- now_ns ()

let leave t =
  let stop = now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let n = t.stack_name.(d) and start = t.stack_start.(d) in
  let dur = stop - start in
  t.count.(n) <- t.count.(n) + 1;
  t.total.(n) <- t.total.(n) + dur;
  t.self.(n) <- t.self.(n) + dur - t.stack_child.(d);
  Hist.add t.durations.(n) (Float.of_int dur);
  if d > 0 then t.stack_child.(d - 1) <- t.stack_child.(d - 1) + dur;
  if t.n_raw < raw_cap then begin
    let r = 5 * t.n_raw in
    t.raw.(r) <- n;
    t.raw.(r + 1) <- start;
    t.raw.(r + 2) <- stop;
    t.raw.(r + 3) <- t.stack_id.(d);
    t.raw.(r + 4) <- (if d > 0 then t.stack_id.(d - 1) else -1);
    t.n_raw <- t.n_raw + 1
  end

let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      enter t name;
      let r = f () in
      leave t;
      r

(* Fold [src]'s per-name figures into [into]; raw spans stay with their
   own tracer. *)
let merge ~into src =
  for n = 0 to n_names - 1 do
    into.count.(n) <- into.count.(n) + src.count.(n);
    into.total.(n) <- into.total.(n) + src.total.(n);
    into.self.(n) <- into.self.(n) + src.self.(n);
    Hist.merge ~into:into.durations.(n) src.durations.(n)
  done

let count t name = t.count.(index name)
let per_span t sums name = if count t name = 0 then 0.0 else Float.of_int sums.(index name) /. Float.of_int (count t name)
let mean_ns t name = per_span t t.total name
let self_mean_ns t name = per_span t t.self name

(* Per-name summary lines: name, count, total s, self s, p50 us, p99 us. *)
let summary t =
  List.filter_map
    (fun n ->
      if t.count.(n) = 0 then None
      else
        Some
          ( names.(n),
            t.count.(n),
            Float.of_int t.total.(n) *. 1e-9,
            Float.of_int t.self.(n) *. 1e-9,
            Hist.quantile t.durations.(n) 0.5 *. 1e-3,
            Hist.quantile t.durations.(n) 0.99 *. 1e-3 ))
    (List.init n_names Fun.id)

(* Chrome trace-event JSON ("X" complete events, microseconds) of the raw
   spans of [tracers], lane by lane, at most [raw_cap] in total. *)
let write_chrome oc tracers =
  let t0 =
    List.fold_left (fun m t -> if t.n_raw > 0 then min m t.raw.(1) else m) max_int tracers
  in
  output_string oc "{\"traceEvents\":[\n";
  let written = ref 0 in
  List.iter
    (fun t ->
      for i = 0 to t.n_raw - 1 do
        if !written < raw_cap then begin
          let r = 5 * i in
          Printf.fprintf oc
            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
            (if !written = 0 then "" else ",\n")
            names.(t.raw.(r)) t.lane
            (Float.of_int (t.raw.(r + 1) - t0) *. 1e-3)
            (Float.of_int (t.raw.(r + 2) - t.raw.(r + 1)) *. 1e-3)
            t.raw.(r + 3) t.raw.(r + 4);
          incr written
        end
      done)
    tracers;
  output_string oc "\n]}\n"
