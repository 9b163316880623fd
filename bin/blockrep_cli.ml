(* blockrep: command-line front end to the reproduction.

   Subcommands:
     figure      regenerate one of the paper's figures (9, 10, 11, 12)
     identities  check every analytic identity/theorem of Section 4-5
     availability  one availability measurement (model + chain + simulation)
     traffic     one traffic measurement (model + simulation)
     simulate    free-form cluster run with failures and a workload
     chaos       seeded chaos sweep with a one-copy consistency oracle *)

open Cmdliner

let scheme_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "voting" | "mcv" -> Ok Blockrep.Types.Voting
    | "ac" | "available-copy" -> Ok Blockrep.Types.Available_copy
    | "nac" | "naive" | "naive-available-copy" -> Ok Blockrep.Types.Naive_available_copy
    | "dynamic" | "dynamic-voting" | "dv" -> Ok Blockrep.Types.Dynamic_voting
    | other -> Error (`Msg (Printf.sprintf "unknown scheme %S (voting|ac|nac|dynamic)" other))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Blockrep.Types.scheme_to_string s))

let scheme_arg =
  Arg.(
    value
    & opt scheme_conv Blockrep.Types.Naive_available_copy
    & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Consistency scheme: voting, ac or nac.")

let sites_arg =
  Arg.(value & opt int 3 & info [ "sites"; "n" ] ~docv:"N" ~doc:"Number of sites holding copies.")

let rho_arg =
  Arg.(value & opt float 0.05 & info [ "rho" ] ~docv:"RHO" ~doc:"Failure-to-repair rate ratio.")

let simulate_arg =
  Arg.(value & flag & info [ "simulate" ] ~doc:"Add event-driven simulation measurements (slower).")

let horizon_arg =
  Arg.(
    value & opt float 50_000.0
    & info [ "horizon" ] ~docv:"T" ~doc:"Virtual-time horizon for simulations.")

(* ------------------------------------------------------------------ *)

let figure_cmd =
  let which = Arg.(required & pos 0 (some int) None & info [] ~docv:"FIGURE" ~doc:"9, 10, 11 or 12.") in
  let csv_arg =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the series as CSV for external plotting.")
  in
  let maybe_csv csv lines =
    match csv with
    | None -> `Ok ()
    | Some path -> (
        match Report.Csv.write_file path lines with
        | Ok () ->
            Format.printf "(wrote %s)@." path;
            `Ok ()
        | Error msg -> `Error (false, msg))
  in
  let run which simulate horizon csv =
    match which with
    | 9 | 10 ->
        let n_copies = if which = 9 then 3 else 4 in
        let rows = Report.Figures.figure_9_10 ~n_copies ~simulate ~sim_horizon:horizon () in
        Format.printf "%a@."
          (fun ppf ->
            Report.Figures.print_availability ppf
              ~title:
                (Printf.sprintf "Figure %d: %d copies (voting: %d); availability vs rho" which
                   n_copies (2 * n_copies)))
          rows;
        maybe_csv csv (Report.Csv.availability_rows rows)
    | 11 ->
        let rows = Report.Figures.figure_11 ~simulate () in
        Format.printf "%a@."
          (fun ppf ->
            Report.Figures.print_traffic ppf
              ~title:"Figure 11: multicast transmissions per (1 write + x reads), rho=0.05")
          rows;
        maybe_csv csv (Report.Csv.traffic_rows rows)
    | 12 ->
        let rows = Report.Figures.figure_12 ~simulate () in
        Format.printf "%a@."
          (fun ppf ->
            Report.Figures.print_traffic ppf
              ~title:"Figure 12: unique-address transmissions per (1 write + x reads), rho=0.05")
          rows;
        maybe_csv csv (Report.Csv.traffic_rows rows)
    | other -> `Error (false, Printf.sprintf "no figure %d in the paper's evaluation" other)
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate one of the paper's evaluation figures.")
    Term.(ret (const run $ which $ simulate_arg $ horizon_arg $ csv_arg))

let identities_cmd =
  let run () =
    let rows = Report.Figures.identity_checks () in
    Format.printf "%a@." Report.Figures.print_identities rows;
    if List.for_all (fun r -> r.Report.Figures.holds) rows then `Ok ()
    else `Error (false, "some identities violated")
  in
  Cmd.v
    (Cmd.info "identities" ~doc:"Check the analytic identities and theorems of Sections 4 and 5.")
    Term.(ret (const run $ const ()))

let availability_cmd =
  let run scheme n rho horizon =
    let model =
      match scheme with
      | Blockrep.Types.Voting -> Some (Analysis.Voting_model.availability ~n ~rho)
      | Blockrep.Types.Available_copy -> Some (Analysis.Ac_model.availability ~n ~rho)
      | Blockrep.Types.Naive_available_copy -> Some (Analysis.Nac_model.availability ~n ~rho)
      | Blockrep.Types.Dynamic_voting -> None (* simulation-only; no closed form shipped *)
    in
    let chain =
      match scheme with
      | Blockrep.Types.Voting -> Some (Markov.Chains.voting_availability ~n ~rho)
      | Blockrep.Types.Available_copy -> Some (Markov.Chains.ac_availability ~n ~rho)
      | Blockrep.Types.Naive_available_copy -> Some (Markov.Chains.nac_availability ~n ~rho)
      | Blockrep.Types.Dynamic_voting -> None
    in
    let sample = Workload.Experiment.measure_availability ~scheme ~n_sites:n ~rho ~horizon () in
    Format.printf "scheme=%s n=%d rho=%g@." (Blockrep.Types.scheme_to_string scheme) n rho;
    let print_opt label = function
      | Some v -> Format.printf "%s: %.6f@." label v
      | None -> Format.printf "%s: (not available for this scheme)@." label
    in
    print_opt "closed form " model;
    print_opt "markov chain" chain;
    Format.printf "simulation  : %.6f  (horizon %.0f, %d failures injected)@."
      sample.Workload.Experiment.availability horizon sample.Workload.Experiment.failures
  in
  Cmd.v
    (Cmd.info "availability" ~doc:"Availability of one configuration, three ways.")
    Term.(const run $ scheme_arg $ sites_arg $ rho_arg $ horizon_arg)

let traffic_cmd =
  let env_arg =
    let env_conv =
      Arg.conv
        ( (fun s ->
            match String.lowercase_ascii s with
            | "multicast" -> Ok Net.Network.Multicast
            | "unicast" | "unique" | "unique-address" -> Ok Net.Network.Unicast
            | other -> Error (`Msg (Printf.sprintf "unknown environment %S" other))),
          fun ppf m -> Format.pp_print_string ppf (Net.Network.mode_to_string m) )
    in
    Arg.(
      value & opt env_conv Net.Network.Multicast
      & info [ "env" ] ~docv:"ENV" ~doc:"Network environment: multicast or unique-address.")
  in
  let ratio_arg =
    Arg.(value & opt float 2.5 & info [ "ratio" ] ~docv:"X" ~doc:"Reads per write (paper: 2.5).")
  in
  let ops_arg = Arg.(value & opt int 2000 & info [ "ops" ] ~docv:"OPS" ~doc:"Operations to run.") in
  let run scheme n env ratio ops rho =
    let model_scheme =
      match scheme with
      | Blockrep.Types.Voting
      (* Failure-free, dynamic voting generates exactly static voting's
         message pattern: the groups never shrink. *)
      | Blockrep.Types.Dynamic_voting -> Analysis.Traffic_model.Voting
      | Blockrep.Types.Available_copy -> Analysis.Traffic_model.Available_copy
      | Blockrep.Types.Naive_available_copy -> Analysis.Traffic_model.Naive_available_copy
    in
    let model_env =
      match env with
      | Net.Network.Multicast -> Analysis.Traffic_model.Multicast
      | Net.Network.Unicast -> Analysis.Traffic_model.Unique_address
    in
    let model_at rho =
      Analysis.Traffic_model.workload_cost model_env model_scheme ~n ~rho ~reads_per_write:ratio
    in
    let sample =
      Workload.Experiment.measure_traffic ~scheme ~n_sites:n ~env ~reads_per_write:ratio ~ops ()
    in
    Format.printf "scheme=%s n=%d env=%s reads/write=%g@."
      (Blockrep.Types.scheme_to_string scheme)
      n
      (Net.Network.mode_to_string env)
      ratio;
    Format.printf "model (rho=%g)        : %.3f transmissions per write group@." rho (model_at rho);
    Format.printf "model (failure-free)  : %.3f@." (model_at 1e-12);
    Format.printf "measured (failure-free): %.3f  (%d writes, %d reads, %.0f payload bytes/group)@."
      sample.Workload.Experiment.messages_per_write_group sample.Workload.Experiment.writes
      sample.Workload.Experiment.reads sample.Workload.Experiment.bytes_per_write_group
  in
  Cmd.v
    (Cmd.info "traffic" ~doc:"Message traffic of one configuration, model vs measured.")
    Term.(const run $ scheme_arg $ sites_arg $ env_arg $ ratio_arg $ ops_arg $ rho_arg)

let simulate_cmd =
  let blocks_arg =
    Arg.(value & opt int 64 & info [ "blocks" ] ~docv:"B" ~doc:"Device capacity in blocks.")
  in
  let rate_arg =
    Arg.(
      value & opt float 5.0
      & info [ "op-rate" ] ~docv:"R" ~doc:"Client operation arrival rate (per time unit).")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed.") in
  let run scheme n blocks rho horizon rate seed =
    let config = Blockrep.Config.make_exn ~scheme ~n_sites:n ~n_blocks:blocks ~seed () in
    let cluster = Blockrep.Cluster.create config in
    let frng = Util.Prng.create (seed + 1) in
    let failures =
      if rho > 0.0 then Some (Workload.Failure_gen.attach cluster ~rng:frng ~lambda:rho ~mu:1.0)
      else None
    in
    let gen =
      Workload.Access_gen.create ~rng:(Util.Prng.create (seed + 2)) ~n_blocks:blocks
        ~reads_per_write:2.5 ()
    in
    let results = Workload.Runner.run_open_loop cluster gen ~site:0 ~rate ~horizon in
    Option.iter Workload.Failure_gen.stop failures;
    let monitor = Blockrep.Cluster.monitor cluster in
    Format.printf "scheme=%s n=%d rho=%g horizon=%.0f@."
      (Blockrep.Types.scheme_to_string scheme)
      n rho horizon;
    Format.printf "ops: %d issued, %d/%d reads ok, %d/%d writes ok@." results.Workload.Runner.issued
      results.Workload.Runner.read_ok
      (results.Workload.Runner.read_ok + results.Workload.Runner.read_failed)
      results.Workload.Runner.write_ok
      (results.Workload.Runner.write_ok + results.Workload.Runner.write_failed);
    Format.printf "availability: %.6f (%d outages, MTTR %.3f)@."
      (Blockrep.Availability_monitor.availability monitor)
      (Blockrep.Availability_monitor.outages monitor)
      (Blockrep.Availability_monitor.mean_time_to_repair monitor);
    Format.printf "traffic:@.%a@." Net.Traffic.pp (Blockrep.Cluster.traffic cluster)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Free-form cluster simulation with failures and a client workload.")
    Term.(const run $ scheme_arg $ sites_arg $ blocks_arg $ rho_arg $ horizon_arg $ rate_arg $ seed_arg)

let chaos_cmd =
  let seeds_arg =
    Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep.")
  in
  let seed0_arg =
    Arg.(value & opt int 1 & info [ "seed0" ] ~docv:"S" ~doc:"First seed of the sweep.")
  in
  let ops_arg =
    Arg.(value & opt (some int) None & info [ "ops" ] ~docv:"OPS" ~doc:"Client operations per run.")
  in
  (* The run's envelope: the scheme's base folded through every flag
     given — the layers first, then the single fault families — so flags
     compose instead of overriding one another. *)
  let shape_arg =
    let layers =
      [
        ( "media",
          "Add the scheme's storage-fault envelope: crash-torn writes, latent bitrot and disk \
           replacement for the copy schemes, bitrot only for the voting flavours.",
          Check.Chaos.media );
        ( "overload",
          "Add the overload + gray-failure envelope: per-site service model, slow-site episodes, \
           client bursts and queue floods, with deadlines, hedged reads, circuit breakers and \
           admission control enabled client-side (site and total failures are taken out).",
          Check.Chaos.overload );
        ( "wire",
          "Add the hostile-bytes envelope: the injector damages frame bytes (bit flips, \
           truncation, garbage prefix/suffix, frame splices) at ambient rates, so frames cross the \
           network encoded; the hardened ingress must absorb all of it with every injected \
           corruption accounted for.",
          Check.Chaos.wire );
      ]
    in
    let families =
      List.filter_map
        (fun family ->
          Option.map
            (fun (name, doc) ->
              ( name,
                doc,
                fun env -> { env with Check.Chaos.families = family :: env.Check.Chaos.families } ))
            (Check.Chaos.flag family))
        Check.Chaos.families
    in
    List.fold_left
      (fun shape (name, doc, layer) ->
        let on = Arg.(value & flag & info [ name ] ~doc) in
        Term.(const (fun shape on env -> if on then layer (shape env) else shape env) $ shape $ on))
      (Term.const Fun.id) (layers @ families)
  in
  let drop_arg =
    Arg.(
      value & opt (some float) None
      & info [ "drop" ] ~docv:"P" ~doc:"Message drop probability (outside every envelope).")
  in
  let read_threshold_arg =
    Arg.(
      value & opt (some int) None
      & info [ "read-threshold" ] ~docv:"R"
          ~doc:
            "Voting: force this read threshold through the unsafe quorum constructor (e.g. 1 to \
             break read/write intersection).")
  in
  let write_threshold_arg =
    Arg.(
      value & opt (some int) None
      & info [ "write-threshold" ] ~docv:"W" ~doc:"Voting: force this write threshold (unsafe).")
  in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Skip schedule minimization of the first failure.")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Run the sweep's seeds on up to N parallel domains (OCaml 5; sequential fallback on \
             4.14). Results are bit-identical to --shards 1.")
  in
  let expect_violations_arg =
    Arg.(
      value & flag
      & info [ "expect-violations" ]
          ~doc:"Invert the verdict: succeed only if the sweep finds at least one violation.")
  in
  let dump_schedule_arg =
    Arg.(
      value & opt (some string) None
      & info [ "dump-schedule" ] ~docv:"FILE"
          ~doc:"Write the (shrunken, if available) failing schedule to FILE for replay.")
  in
  let replay_arg =
    Arg.(
      value & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay one run (seed = --seed0) against the schedule in FILE instead of sweeping.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write the row as CSV.")
  in
  let run scheme sites seeds seed0 ops shape drop read_threshold write_threshold no_shrink shards
      expect_violations dump_schedule replay csv =
    if shards <= 0 then `Error (false, "--shards must be positive")
    else
    let env = shape (Check.Chaos.default_env ~seed:seed0 scheme) in
    let env =
      {
        env with
        Check.Chaos.n_sites = sites;
        weaken_read = read_threshold;
        weaken_write = write_threshold;
      }
    in
    let env = match ops with Some ops -> { env with Check.Chaos.ops } | None -> env in
    let env =
      match drop with
      | Some p -> { env with Check.Chaos.faults = { env.Check.Chaos.faults with Net.Faults.drop = p } }
      | None -> env
    in
    match replay with
    | Some file -> (
        let ic = open_in file in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match Check.Chaos.schedule_of_string text with
        | Error e -> `Error (false, "bad schedule file: " ^ e)
        | Ok schedule ->
            let outcome = Check.Chaos.run ~schedule env in
            let violations = Check.Chaos.violations outcome in
            Format.printf "replay of %s (seed %d): %d event(s), %d violation(s)@." file seed0
              (List.length schedule) (List.length violations);
            List.iter (fun v -> Format.printf "  %a@." Check.Violation.pp v) violations;
            if (violations <> []) = expect_violations then `Ok ()
            else `Error (false, "replay verdict did not match expectation"))
    | None ->
        let seed_list = List.init seeds (fun i -> seed0 + i) in
        let sweep = Check.Chaos.sweep ~shrink_failures:(not no_shrink) ~shards env ~seeds:seed_list in
        let label =
          Printf.sprintf "%s%s%s" (Check.Chaos.label env)
            (match drop with Some p -> Printf.sprintf "+drop%g" p | None -> "")
            (match (read_threshold, write_threshold) with
            | None, None -> ""
            | r, w ->
                Printf.sprintf "+weak(r=%s,w=%s)"
                  (match r with Some r -> string_of_int r | None -> "-")
                  (match w with Some w -> string_of_int w | None -> "-"))
        in
        let row = Report.Chaos_report.row_of_sweep ~label sweep in
        Format.printf "%a@." Report.Chaos_report.print [ row ];
        if sweep.Check.Chaos.failing <> [] then
          Format.printf "%a@." Report.Chaos_report.print_failure sweep;
        (match dump_schedule with
        | Some path ->
            let schedule =
              match (sweep.Check.Chaos.shrunk, sweep.Check.Chaos.first_failure) with
              | Some (s, _), _ -> Some s
              | None, Some (_, o) -> Some o.Check.Chaos.schedule
              | None, None -> None
            in
            (match schedule with
            | Some s ->
                let oc = open_out path in
                output_string oc (Check.Chaos.schedule_to_string s);
                output_string oc "\n";
                close_out oc;
                Format.printf "(wrote %s)@." path
            | None -> Format.printf "(no failing schedule to dump)@.")
        | None -> ());
        (match csv with
        | Some path -> (
            match Report.Csv.write_file path (Report.Chaos_report.csv_rows [ row ]) with
            | Ok () -> Format.printf "(wrote %s)@." path
            | Error msg -> Format.printf "(csv error: %s)@." msg)
        | None -> ());
        let failed = sweep.Check.Chaos.failing <> [] in
        if failed = expect_violations then `Ok ()
        else if expect_violations then
          `Error (false, "expected the sweep to surface violations, but every seed passed")
        else
          `Error
            ( false,
              Printf.sprintf "%d of %d seed(s) violated one-copy consistency"
                (List.length sweep.Check.Chaos.failing)
                seeds )
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded chaos sweep: failures/partitions/message faults and media faults (torn writes, \
          bitrot, disk replacement) over a live workload, judged by a one-copy consistency oracle \
          and quiescent invariant scans, with greedy schedule shrinking of any failure.")
    Term.(
      ret
        (const run $ scheme_arg $ sites_arg $ seeds_arg $ seed0_arg $ ops_arg $ shape_arg
       $ drop_arg $ read_threshold_arg $ write_threshold_arg $ no_shrink_arg $ shards_arg
       $ expect_violations_arg $ dump_schedule_arg $ replay_arg $ csv_arg))

let scenario_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Scenario (.scn) file to run.")
  in
  let run file =
    match Scenario.parse_file file with
    | Error e -> `Error (false, "parse error: " ^ e)
    | Ok t ->
        let outcome = Scenario.run t in
        if outcome.Scenario.passed then begin
          Format.printf "%s: ok (%d events)@." file outcome.Scenario.events_run;
          `Ok ()
        end
        else begin
          List.iter (fun f -> Format.printf "%s: %s@." file f) outcome.Scenario.failures;
          `Error (false, Printf.sprintf "%d expectation(s) failed" (List.length outcome.Scenario.failures))
        end
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:"Run a failure/workload scenario file and check its expectations (see lib/scenario).")
    Term.(ret (const run $ file))

(* ------------------------------------------------------------------ *)
(* Device images and an offline file-system tool                       *)
(* ------------------------------------------------------------------ *)

module Hfs = Fs.Hier_fs.Make (Blockdev.Mem_device)

let image_create_cmd =
  let path_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Image file.") in
  let blocks_arg =
    Arg.(value & opt int 256 & info [ "blocks" ] ~docv:"N" ~doc:"Device capacity in blocks.")
  in
  let run path blocks =
    let dev = Blockdev.Mem_device.create ~capacity:blocks in
    match Hfs.format dev with
    | Error e -> `Error (false, Fs.Fs_core.error_to_string e)
    | Ok _fs -> (
        match Blockdev.Image.save (module Blockdev.Mem_device) dev path with
        | Error msg -> `Error (false, msg)
        | Ok () ->
            Format.printf "created %s: %d blocks, hierarchical file system@." path blocks;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "image-create" ~doc:"Create a device image with a fresh hierarchical file system.")
    Term.(ret (const run $ path_arg $ blocks_arg))

let fs_cmd =
  let image_arg =
    Arg.(required & opt (some file) None & info [ "image"; "i" ] ~docv:"FILE" ~doc:"Device image.")
  in
  let op_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP" ~doc:"One of: ls, tree, cat, write, append, mkdir, rm, rmdir, mv, fsck.")
  in
  let args_arg = Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS") in
  let run image op args =
    let ( let* ) = Result.bind in
    let fail_fs e = Error (Fs.Fs_core.error_to_string e) in
    let outcome =
      let* dev = Blockdev.Image.load_mem image in
      let* fs = Result.map_error Fs.Fs_core.error_to_string (Hfs.mount dev) in
      let save () = Blockdev.Image.save (module Blockdev.Mem_device) dev image in
      let mutating result =
        match result with
        | Error e -> fail_fs e
        | Ok () ->
            let* () = save () in
            Ok ()
      in
      match (op, args) with
      | "ls", ([] | [ _ ]) -> (
          let path = match args with [ p ] -> p | _ -> "/" in
          match Hfs.list fs path with
          | Error e -> fail_fs e
          | Ok entries ->
              List.iter
                (fun e ->
                  Format.printf "%s%s@." e.Fs.Hier_fs.name
                    (match e.Fs.Hier_fs.kind with Fs.Hier_fs.Directory -> "/" | Fs.Hier_fs.File -> ""))
                entries;
              Ok ())
      | "tree", ([] | [ _ ]) -> (
          let path = match args with [ p ] -> p | _ -> "/" in
          match Hfs.walk fs path with
          | Error e -> fail_fs e
          | Ok paths ->
              List.iter (Format.printf "%s@.") paths;
              Ok ())
      | "cat", [ path ] -> (
          match Hfs.read fs path with
          | Error e -> fail_fs e
          | Ok data ->
              print_string (Bytes.to_string data);
              Ok ())
      | "write", [ path; text ] ->
          let* () =
            match Hfs.exists fs path with
            | true -> Ok ()
            | false -> Result.map_error Fs.Fs_core.error_to_string (Hfs.create fs path)
          in
          let* () =
            Result.map_error Fs.Fs_core.error_to_string (Hfs.truncate fs path)
          in
          mutating (Hfs.write fs path (Bytes.of_string text))
      | "append", [ path; text ] -> mutating (Hfs.append fs path (Bytes.of_string text))
      | "mkdir", [ path ] -> mutating (Hfs.mkdir_p fs path)
      | "rm", [ path ] -> mutating (Hfs.unlink fs path)
      | "rmdir", [ path ] -> mutating (Hfs.rmdir fs path)
      | "mv", [ src; dst ] -> mutating (Hfs.rename fs src dst)
      | "fsck", [] -> (
          match Hfs.fsck fs with
          | Error e -> fail_fs e
          | Ok () ->
              Format.printf "clean@.";
              Ok ())
      | _ -> Error (Printf.sprintf "bad operation %S or wrong arguments" op)
    in
    match outcome with Ok () -> `Ok () | Error msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "fs" ~doc:"Operate on the hierarchical file system inside a device image.")
    Term.(ret (const run $ image_arg $ op_arg $ args_arg))

let () =
  let info =
    Cmd.info "blockrep" ~version:"1.0.0"
      ~doc:"Block-level consistency of replicated files (ICDCS 1987) — reproduction toolkit"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figure_cmd;
            identities_cmd;
            availability_cmd;
            traffic_cmd;
            simulate_cmd;
            chaos_cmd;
            scenario_cmd;
            image_create_cmd;
            fs_cmd;
          ]))
