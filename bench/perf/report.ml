(* Metric names, units and directions; summary statistics; results files
   and the comparator.  The bounds live in BENCHMARK.json only: the
   comparator reads them from there, so there is one copy. *)

type better = Lower | Higher

let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("ops_per_s", "ops/s", Higher);
    ("wall_us_p50", "us", Lower);
    ("wall_us_p99", "us", Lower);
    ("alloc_words_per_op", "words", Lower);
    ("peak_heap_mb", "MiB", Lower);
    ("msgs_per_op", "msgs", Lower);
    ("bytes_per_op", "bytes", Lower);
    ("vlat_mean", "vtime", Lower);
    ("vlat_p99", "vtime", Lower);
    ("goodput", "ops/vtime", Higher);
    ("ok_ratio", "fraction", Higher);
  ]

let per_layer =
  [
    ("sim.events_per_op", "events", Lower);
    ("sim.step_ns", "ns", Lower);
    ("sim.step_self_ns", "ns", Lower);
    ("sim.pending_p99", "events", Lower);
    ("sim.heap_event_ns", "ns", Lower);
    ("sim.server_depth_p99", "jobs", Lower);
    ("shard.parallelism", "lanes", Higher);
    ("shard.imbalance", "ratio", Lower);
    ("net.deliveries_per_op", "msgs", Lower);
    ("net.send_deliver_ns", "ns", Lower);
    ("net.msgs_shed_per_op", "msgs", Lower);
    ("codec.size_ns_per_op", "ns", Lower);
    ("codec.encode_ns_per_op", "ns", Lower);
    ("codec.decode_ns_per_op", "ns", Lower);
    ("codec.crc_ns_per_kib", "ns", Lower);
    ("codec.bytes_per_msg", "bytes", Lower);
    ("proto.rounds_per_op", "rounds", Lower);
    ("proto.issue_us", "us", Lower);
    ("proto.fail_site_us", "us", Lower);
    ("proto.repair_site_us", "us", Lower);
    ("proto.avail_check_us", "us", Lower);
    ("proto.recovery_msgs_per_repair", "msgs", Lower);
    ("store.journal_commits_per_op", "commits", Lower);
    ("store.write_ns", "ns", Lower);
    ("store.verify_ns", "ns", Lower);
    ("store.sync_vms_per_op", "vtime", Lower);
    ("client.attempts_per_op", "attempts", Lower);
    ("client.retries_per_op", "retries", Lower);
    ("client.hedged_per_op", "hedges", Lower);
    ("client.hedge_win_ratio", "fraction", Higher);
    ("client.shed_ratio", "fraction", Lower);
    ("client.breaker_trips", "count", Lower);
    ("gc.minor_collections_per_kop", "count", Lower);
    ("gc.promoted_words_per_op", "words", Lower);
    ("gc.major_collections", "count", Lower);
    ("setup.create_s", "s", Lower);
    ("setup.prefill_s", "s", Lower);
    ("trace.overhead_pct", "%", Lower);
  ]

let unit_of name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) (end_to_end @ per_layer) with
  | Some (_, u, _) -> u
  | None -> invalid_arg ("unknown metric " ^ name)

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles as Python's statistics.quantiles(xs, n=4)
   computes them (the default "exclusive" method). *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. Float.of_int (4 - delta)) +. (a.(j) *. Float.of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* A flat results line: workload, metric, value, unit. *)
let line workload (name, value) = Printf.sprintf "%s %s %s %s" workload name (number value) (unit_of name)

let json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted
    failed
    (String.concat ", "
       (List.map
          (fun (n, v) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (number v) (unit_of n))
          metrics))

(* Parse a flat line back; [None] for anything else (JSON, comments,
   fingerprints). *)
let parse_line l =
  match String.split_on_char ' ' (String.trim l) with
  | [ w; m; v; u ] -> Option.map (fun v -> (w, m, v, u)) (Float.of_string_opt v)
  | _ -> None

(* Runs grouped per (workload, metric), in first-seen order. *)
let group lines =
  let keys = ref [] and tbl = Hashtbl.create 64 in
  List.iter
    (fun l ->
      match parse_line l with
      | Some (w, m, v, u) ->
          let k = (w, m) in
          (match Hashtbl.find_opt tbl k with
          | Some (vs, _) -> Hashtbl.replace tbl k (v :: vs, u)
          | None ->
              keys := k :: !keys;
              Hashtbl.replace tbl k ([ v ], u))
      | None -> ())
    lines;
  List.rev_map
    (fun k ->
      let vs, u = Hashtbl.find tbl k in
      (k, List.rev vs, u))
    !keys

let summary_json groups =
  let stats ((_, m), vs, u) =
    let q1, q3 = quartiles vs in
    Printf.sprintf "\"%s\": {\"unit\": \"%s\", \"median\": %s, \"q1\": %s, \"q3\": %s, \"runs\": [%s]}" m u
      (number (median vs)) (number q1) (number q3)
      (String.concat ", " (List.map number vs))
  in
  let workloads = List.sort_uniq String.compare (List.map (fun ((w, _), _, _) -> w) groups) in
  Printf.sprintf "{\"workloads\": {%s}}"
    (String.concat ", "
       (List.map
          (fun w ->
            Printf.sprintf "\"%s\": {%s}" w
              (String.concat ", "
                 (List.filter_map
                    (fun (((w', _), _, _) as g) -> if String.equal w w' then Some (stats g) else None)
                    groups)))
          workloads))

(* ------------------------------------------------------------------ *)
(* Comparator                                                           *)

(* The value after ["key":] on a one-line JSON object, quotes dropped. *)
let field line key =
  let pat = "\"" ^ key ^ "\":" in
  let pl = String.length pat and n = String.length line in
  let rec find i = if i + pl > n then None else if String.equal (String.sub line i pl) pat then Some (i + pl) else find (i + 1) in
  Option.map
    (fun i ->
      let buf = Buffer.create 16 in
      let rec take i =
        if i < n then
          match line.[i] with
          | ' ' | '"' -> take (i + 1)
          | ',' | '}' -> ()
          | c ->
              Buffer.add_char buf c;
              take (i + 1)
      in
      take i;
      Buffer.contents buf)
    (find 0)

(* (name, better, bound) of every end-to-end metric in a BENCHMARK.json
   that lists one metric per line. *)
let bounds_of_file path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match (field l "name", field l "better", Option.bind (field l "bound") Float.of_string_opt) with
         | Some n, Some b, Some bound -> Some (n, (if String.equal b "higher" then Higher else Lower), bound)
         | _ -> None)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* A regression is a median worse than the base's by more than the
   bound.  When the base's own quartile spread exceeds the bound nothing
   can be resolved, unless every current run beats every base run.  A
   gain needs the medians to differ by more than the base's spread and
   the current runs to win nine tenths of all run pairs. *)
let verdict ~better ~bound base cur =
  let m0 = median base and m1 = median cur in
  let q1, q3 = quartiles base in
  let scale = Float.abs m0 in
  let spread = if scale > 0.0 then (q3 -. q1) /. scale else 0.0 in
  let beats a b = match better with Lower -> a < b | Higher -> a > b in
  let worse = if scale > 0.0 then (match better with Lower -> m1 -. m0 | Higher -> m0 -. m1) /. scale else 0.0 in
  let pairs = List.concat_map (fun c -> List.map (fun b -> beats c b) base) cur in
  let wins = List.length (List.filter Fun.id pairs) in
  let all_better = List.for_all Fun.id pairs in
  if spread > bound then if all_better then Improved else Unresolved
  else if worse > bound then Regressed
  else if -.worse > spread && 10 * wins >= 9 * List.length pairs then Improved
  else Unchanged

let read_lines path = In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n'

let compare ~bounds_file base_file cur_file =
  let bounds = bounds_of_file bounds_file in
  let base = group (read_lines base_file) and cur = group (read_lines cur_file) in
  let regressed = ref false in
  Printf.printf "%-16s %-20s %-11s %14s %14s %9s %9s\n" "workload" "metric" "verdict" "base" "current" "change%"
    "spread%";
  List.iter
    (fun ((w, m), base_vs, _) ->
      match
        ( List.find_opt (fun (n, _, _) -> String.equal n m) bounds,
          List.find_opt (fun ((w', m'), _, _) -> String.equal w w' && String.equal m m') cur )
      with
      | Some (_, better, bound), Some (_, cur_vs, _) ->
          let v = verdict ~better ~bound base_vs cur_vs in
          (match v with Regressed -> regressed := true | Improved | Unchanged | Unresolved -> ());
          let m0 = median base_vs and m1 = median cur_vs in
          let q1, q3 = quartiles base_vs in
          let pct x = if m0 = 0.0 then 0.0 else 100.0 *. x /. Float.abs m0 in
          Printf.printf "%-16s %-20s %-11s %14.6g %14.6g %+9.2f %9.2f\n" w m (verdict_to_string v) m0 m1
            (pct (m1 -. m0)) (pct (q3 -. q1))
      | _ -> ())
    base;
  not !regressed
