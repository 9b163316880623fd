(* Benchmark command line.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     main.exe --all [--repeat N] [--out FILE] [--fingerprints]
     main.exe --compare BASE CUR        (bounds from ./BENCHMARK.json)

   One workload runs in one process: it repeats identical passes until
   --seconds of host time are used (at least one pass), checks every pass,
   and prints flat "workload metric value unit" lines followed by one JSON
   line.  --trace 1 alternates untraced and traced passes, runs the
   isolated layer probes, and reports the per-layer ledger instead of the
   end-to-end metrics.  --all runs every workload, each in a fresh child
   process. *)

let ratio a b = if b = 0 then 0.0 else Float.of_int a /. Float.of_int b

(* Set-up samples per run: passes give one each, extra set-ups make up the
   rest, so the set-up median never rests on one or two samples. *)
let min_setups = 5

type options = {
  workload : string option;
  all : bool;
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
  shards : int;
  scale : Workloads.scale;
  repeat : int;
  out : string option;
  fingerprints : bool;
  compare : (string * string) option;
}

(* ------------------------------------------------------------------ *)
(* One workload in this process                                         *)

let ops_per_s (passes : Workloads.pass list) = Report.median (List.concat_map (fun (p : Workloads.pass) -> p.rates) passes)

let end_to_end (passes : Workloads.pass list) setups ~top_heap_words =
  let first = List.hd passes in
  let windows f = Report.median (List.concat_map f passes) in
  [
    ("setup_s", Report.median (List.map (fun (c, p) -> c +. p) setups));
    ("ops_per_s", ops_per_s passes);
    ("wall_us_p50", windows (fun (p : Workloads.pass) -> p.wall_p50s));
    ("wall_us_p99", windows (fun (p : Workloads.pass) -> p.wall_p99s));
    ( "alloc_words_per_op",
      Report.median
        (List.map (fun (p : Workloads.pass) -> p.gc.minor_words /. Float.of_int p.attempted) passes) );
    ("peak_heap_mb", Float.of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    ("msgs_per_op", ratio first.msgs first.attempted);
    ("bytes_per_op", ratio first.bytes first.attempted);
    ("vlat_mean", Hist.mean first.vlat);
    ("vlat_p99", Hist.quantile first.vlat 0.99);
    ("goodput", Float.of_int first.succeeded /. first.virtual_s);
    ("ok_ratio", ratio first.succeeded first.attempted);
  ]

let per_layer w ~scale ~seed (p : Workloads.pass) ~overhead_pct =
  let sz = Probes.sizes scale in
  let shape = Workloads.shape w in
  let ops = p.attempted in
  let per_op n = ratio n ops in
  let spans = Spans.create ~lane:0 in
  List.iter (fun s -> Spans.merge ~into:spans s) p.spans;
  (* Spans a closed loop or a churn-free workload lacks come from probes
     on the workload's own cluster, recorded in a tracer of their own. *)
  let probe = Spans.create ~lane:0 in
  let pending = Hist.create () in
  Hist.merge ~into:pending p.pending;
  let recovery_msgs, repairs, cluster =
    match p.cluster with
    | None -> (p.recovery_msgs, p.repairs, Sut.cluster shape)
    | Some c ->
        (match w with
        | Workloads.Closed _ ->
            let reads, of_ops = Workloads.read_share w in
            Probes.stepped_replay c probe ~n_blocks:shape.n_blocks ~reads ~of_ops ~seed ~ops:sz.replay_ops
              ~pending
        | Workloads.Brownout _ | Workloads.Churn _ -> ());
        let msgs = Probes.fail_repair c probe ~n_sites:shape.n_sites ~cycles:sz.cycles in
        (msgs, sz.cycles, c)
  in
  let from name = if Spans.count spans name > 0 then spans else probe in
  let mean_ns name = Spans.mean_ns (from name) name in
  let codec = Probes.codec shape ~by_category:p.by_category ~ops ~iters:sz.codec_iters in
  let write_ns, verify_ns = Probes.store_ns ~capacity:shape.n_blocks ~seed ~iters:sz.store_iters in
  let lanes = p.lane_busy_s in
  let busy = Array.fold_left ( +. ) 0.0 lanes in
  let c = p.client in
  ( [
      ("sim.events_per_op", per_op p.events);
      ("sim.step_ns", mean_ns Spans.Step);
      ("sim.step_self_ns", Spans.self_mean_ns (from Spans.Step) Spans.Step);
      ("sim.pending_p99", Hist.quantile pending 0.99);
      ( "sim.heap_event_ns",
        Probes.heap_event_ns ~depth:(max 1 (Float.to_int (Hist.quantile pending 0.5))) ~iters:sz.iters );
      ("sim.server_depth_p99", Hist.quantile p.server_depth 0.99);
      ("shard.parallelism", busy /. p.elapsed_s);
      ( "shard.imbalance",
        Array.fold_left Float.max 0.0 lanes /. (busy /. Float.of_int (Array.length lanes)) );
      ("net.deliveries_per_op", per_op p.deliveries);
      ("net.send_deliver_ns", Probes.send_deliver_ns shape p.by_category ~iters:sz.iters);
      ("net.msgs_shed_per_op", per_op c.msgs_shed);
      ("codec.size_ns_per_op", codec.size_ns_per_op);
      ("codec.encode_ns_per_op", codec.encode_ns_per_op);
      ("codec.decode_ns_per_op", codec.decode_ns_per_op);
      ("codec.crc_ns_per_kib", Probes.crc_ns_per_kib ~iters:sz.iters);
      ("codec.bytes_per_msg", ratio p.bytes p.msgs);
      ("proto.rounds_per_op", per_op p.rounds);
      ("proto.issue_us", mean_ns Spans.Issue *. 1e-3);
      ("proto.fail_site_us", mean_ns Spans.Fail_site *. 1e-3);
      ("proto.repair_site_us", mean_ns Spans.Repair_site *. 1e-3);
      ("proto.avail_check_us", Probes.avail_check_us cluster ~iters:sz.iters);
      ("proto.recovery_msgs_per_repair", ratio recovery_msgs repairs);
      ("store.journal_commits_per_op", per_op p.journal_commits);
      ("store.write_ns", write_ns);
      ("store.verify_ns", verify_ns);
      ("store.sync_vms_per_op", per_op p.journal_commits *. Sut.ssd_fsync);
      ("client.attempts_per_op", per_op c.attempts);
      ("client.retries_per_op", per_op c.retries);
      ("client.hedged_per_op", per_op c.hedged);
      ("client.hedge_win_ratio", ratio c.hedge_wins c.hedged);
      ("client.shed_ratio", per_op c.shed);
      ("client.breaker_trips", Float.of_int c.breaker_trips);
      ("gc.minor_collections_per_kop", 1000.0 *. per_op p.gc.minor_collections);
      ("gc.promoted_words_per_op", p.gc.promoted_words /. Float.of_int ops);
      ("gc.major_collections", Float.of_int p.gc.major_collections);
      ("setup.create_s", p.create_s);
      ("setup.prefill_s", p.prefill_s);
      ("trace.overhead_pct", overhead_pct);
    ],
    spans,
    probe )

let span_lines name spans =
  List.concat_map
    (fun (n, count, total, self, p50, p99) ->
      List.map
        (fun (stat, v, u) -> Printf.sprintf "%s span.%s.%s %s %s" name n stat (Report.number v) u)
        [
          ("count", Float.of_int count, "count");
          ("total_s", total, "s");
          ("self_s", self, "s");
          ("p50_us", p50, "us");
          ("p99_us", p99, "us");
        ])
    (Spans.summary spans)

let run_one o name =
  let w = Workloads.make name ~seed:o.seed ~scale:o.scale ~shards:o.shards in
  let start = Spans.now_ns () in
  let min_passes = if o.trace then 2 else 1 in
  (* Passes alternate untraced and traced under --trace 1.  Only the first
     traced pass keeps its cluster and spans (for the probes); dropping
     them from the others keeps earlier passes from growing the heap that
     later passes run in. *)
  let top_heap_words = ref 0 in
  let rec loop k untraced traced =
    Gc.compact ();
    let is_traced = o.trace && k mod 2 = 1 in
    let p = Workloads.run w ~traced:is_traced in
    (* The heap peak of the first pass: later passes and extra set-ups
       would only add the garbage of earlier ones. *)
    if k = 0 then top_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    let untraced, traced =
      match (is_traced, traced) with
      | true, [] -> (untraced, [ p ])
      | true, _ :: _ -> (untraced, { p with cluster = None; spans = [] } :: traced)
      | false, _ -> ({ p with cluster = None } :: untraced, traced)
    in
    let n = k + 1 in
    let elapsed = Spans.seconds_since start in
    if n < min_passes || elapsed +. (elapsed /. Float.of_int n) <= o.seconds then loop n untraced traced
    else (List.rev untraced, List.rev traced)
  in
  let untraced, traced = loop 0 [] [] in
  let passes = untraced @ traced in
  let setups = ref (List.map (fun (p : Workloads.pass) -> (p.create_s, p.prefill_s)) passes) in
  while List.length !setups < min_setups do
    setups := Workloads.setup_sample w :: !setups
  done;
  let first = List.hd passes in
  let problems =
    List.concat_map (fun (p : Workloads.pass) -> p.problems) passes
    @
    if List.for_all (fun (p : Workloads.pass) -> String.equal p.fingerprint first.fingerprint) passes then []
    else [ "passes of one seed produced different fingerprints" ]
  in
  let metrics, extra =
    match traced with
    | tp :: _ ->
        let overhead_pct = 100.0 *. ((ops_per_s untraced /. ops_per_s traced) -. 1.0) in
        let metrics, spans, probe = per_layer w ~scale:o.scale ~seed:o.seed tp ~overhead_pct in
        Option.iter
          (fun path -> Out_channel.with_open_text path (fun oc -> Spans.write_chrome oc (tp.spans @ [ probe ])))
          o.trace_out;
        (metrics, span_lines name spans @ span_lines name probe)
    | [] -> (end_to_end untraced !setups ~top_heap_words:!top_heap_words, [])
  in
  let problems =
    problems
    @ List.filter_map
        (fun (m, v) -> if Float.is_finite v then None else Some (m ^ " is not a finite number"))
        metrics
  in
  let attempted = List.fold_left (fun acc (p : Workloads.pass) -> acc + p.attempted) 0 passes in
  let failed = List.fold_left (fun acc (p : Workloads.pass) -> acc + p.wrong) 0 passes in
  Printf.printf "# %s seed=%d passes=%d (%d traced) attempted=%d\n" name o.seed (List.length passes)
    (List.length traced) attempted;
  List.iter (fun m -> Printf.printf "# check failed: %s\n" m) problems;
  List.iter (fun m -> Printf.printf "# note: %s\n" m) first.notes;
  Printf.printf "%s fingerprint %s md5\n" name first.fingerprint;
  List.iter (fun m -> print_endline (Report.line name m)) metrics;
  List.iter print_endline extra;
  let correct = (match problems with [] -> true | _ :: _ -> false) && failed = 0 in
  print_endline (Report.json ~correct ~attempted ~failed metrics);
  correct

(* ------------------------------------------------------------------ *)
(* Every workload, each in a child process                              *)

let child_args o name seed =
  [ "--workload"; name; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" o.seconds ]
  @ [ "--trace"; (if o.trace then "1" else "0"); "--shards"; string_of_int o.shards ]
  @ (match o.scale with Workloads.Smoke -> [ "--scale"; "smoke" ] | Workloads.Full -> [])
  @ match o.trace_out with Some f -> [ "--trace-out"; Printf.sprintf "%s.%s.%d.json" f name seed ] | None -> []

let run_child o name seed =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: child_args o name seed)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (fun l -> l <> "") in
  let status = Unix.close_process_in ic in
  let correct =
    match (status, List.rev lines) with
    | Unix.WEXITED 0, last :: _ -> String.length last > 0 && last.[0] = '{' && Report.field last "correct" = Some "true"
    | _ -> false
  in
  (lines, correct)

let run_all o =
  let ok = ref true and results = ref [] in
  List.iter
    (fun name ->
      for r = 0 to o.repeat - 1 do
        let lines, correct = run_child o name (o.seed + r) in
        if not correct then begin
          ok := false;
          Printf.printf "# %s seed %d: FAILED\n" name (o.seed + r)
        end;
        results := !results @ lines;
        if o.fingerprints then
          List.iter
            (fun l ->
              match String.split_on_char ' ' l with
              | [ _; "fingerprint"; _; _ ] -> print_endline l
              | _ -> ())
            lines
        else if o.repeat = 1 then List.iter print_endline lines
      done)
    (match o.workload with Some w -> [ w ] | None -> Workloads.names);
  let groups = Report.group !results in
  if o.repeat > 1 && not o.fingerprints then begin
    Printf.printf "%-16s %-34s %14s %14s %14s  %s\n" "workload" "metric" "median" "q1" "q3" "unit";
    List.iter
      (fun ((w, m), vs, u) ->
        let q1, q3 = Report.quartiles vs in
        Printf.printf "%-16s %-34s %14.6g %14.6g %14.6g  %s\n" w m (Report.median vs) q1 q3 u)
      groups
  end;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Report.summary_json groups);
          output_char oc '\n';
          List.iter
            (fun l -> if Option.is_some (Report.parse_line l) then (output_string oc l; output_char oc '\n'))
            !results))
    o.out;
  !ok

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let () =
  let workload = ref None and all = ref false and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and trace_out = ref None and shards = ref 2 and scale = ref Workloads.Full in
  let repeat = ref 1 and out = ref None and fingerprints = ref false in
  let compare = ref [] in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME  run one workload in this process");
      ("--all", Arg.Set all, " run every workload (or --workload's), each in a child process");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  host seconds of passes per run (default 10; at least one pass)");
      ( "--trace",
        Arg.Int (fun t -> trace := t <> 0),
        "0|1  1 reports the per-layer ledger from traced passes and isolated probes" );
      ("--trace-out", Arg.String (fun f -> trace_out := Some f), "FILE  write raw spans as Chrome trace JSON");
      ("--shards", Arg.Set_int shards, "N  lanes for churn_dv cells (default 2)");
      ( "--scale",
        Arg.Symbol ([ "full"; "smoke" ], fun s -> scale := if s = "smoke" then Workloads.Smoke else Workloads.Full),
        " input size (smoke: a fraction of a second per workload)" );
      ("--repeat", Arg.Set_int repeat, "N  with --all: N runs per workload, seeds seed..seed+N-1");
      ("--out", Arg.String (fun f -> out := Some f), "FILE  with --all: write a results file");
      ("--fingerprints", Arg.Set fingerprints, " with --all: print only the fingerprint lines");
      ( "--compare",
        Arg.Tuple [ Arg.String (fun b -> compare := [ b ]); Arg.String (fun c -> compare := !compare @ [ c ]) ],
        "BASE CUR  compare two results files per workload and end-to-end metric" );
    ]
  in
  let usage = "main.exe (--workload NAME | --all | --compare BASE CUR) [options]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let o =
    {
      workload = !workload;
      all = !all;
      seed = !seed;
      seconds = !seconds;
      trace = !trace;
      trace_out = !trace_out;
      shards = !shards;
      scale = !scale;
      repeat = max 1 !repeat;
      out = !out;
      fingerprints = !fingerprints;
      compare = (match !compare with [ b; c ] -> Some (b, c) | _ -> None);
    }
  in
  let ok =
    match (o.compare, o.all, o.workload) with
    | Some (base, cur), _, _ -> Report.compare ~bounds_file:"BENCHMARK.json" base cur
    | None, true, _ -> run_all o
    | None, false, Some name when List.mem name Workloads.names -> run_one o name
    | None, false, _ ->
        prerr_endline usage;
        false
  in
  exit (if ok then 0 else 1)
