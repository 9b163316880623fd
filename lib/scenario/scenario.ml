type action =
  | Fault of Check.Chaos.fault
  | Burst of int * int
  | Write of int * int * string
  | Read of int * int
  | Expect_read of int * int * string
  | Expect_read_fail of int * int
  | Expect_write_fail of int * int
  | Expect_state of int * Blockrep.Types.site_state
  | Expect_available of bool
  | Expect_consistent
  | Expect_inconsistent
  | Check_invariants

type event = { time : float; line : int; action : action }

type header = {
  mutable scheme : Blockrep.Types.scheme option;
  mutable sites : int option;
  mutable blocks : int;
  mutable seed : int;
  mutable latency : float option;
  mutable witnesses : int list;
  mutable track_liveness : bool;
  mutable horizon : float option;
  mutable faults : Net.Faults.profile;
  mutable service : bool;
}

type t = { header : header; events : event list }

let state_of_string = function
  | "failed" -> Some Blockrep.Types.Failed
  | "comatose" -> Some Blockrep.Types.Comatose
  | "available" -> Some Blockrep.Types.Available
  | _ -> None

type outcome = {
  passed : bool;
  failures : string list;
  events_run : int;
  cluster : Blockrep.Cluster.t;
}

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let fresh_header () =
  {
    scheme = None;
    sites = None;
    blocks = 8;
    seed = 42;
    latency = None;
    witnesses = [];
    track_liveness = false;
    horizon = None;
    faults = Net.Faults.pristine;
    service = false;
  }

let scheme_of_string = function
  | "voting" -> Some Blockrep.Types.Voting
  | "ac" | "available-copy" -> Some Blockrep.Types.Available_copy
  | "nac" | "naive" | "naive-available-copy" -> Some Blockrep.Types.Naive_available_copy
  | "dynamic" | "dynamic-voting" -> Some Blockrep.Types.Dynamic_voting
  | _ -> None

let split_words s =
  String.split_on_char ' ' s |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let strip_comment line =
  match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line

let parse_int ~line what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "line %d: bad %s %S" line what s)

let parse_float ~line what s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "line %d: bad %s %S" line what s)

let ( let* ) = Result.bind

(* The verbs this driver owns; cluster faults are Chaos's (see below). *)
let parse_own_action ~line words =
  match words with
  | [ "burst"; s; n ] ->
      let* s = parse_int ~line "site" s in
      let* n = parse_int ~line "burst size" n in
      Ok (Burst (s, n))
  | [ "write"; s; b; payload ] ->
      let* s = parse_int ~line "site" s in
      let* b = parse_int ~line "block" b in
      Ok (Write (s, b, payload))
  | [ "read"; s; b ] ->
      let* s = parse_int ~line "site" s in
      let* b = parse_int ~line "block" b in
      Ok (Read (s, b))
  | [ "expect-read"; s; b; payload ] ->
      let* s = parse_int ~line "site" s in
      let* b = parse_int ~line "block" b in
      Ok (Expect_read (s, b, payload))
  | [ "expect-read-fail"; s; b ] ->
      let* s = parse_int ~line "site" s in
      let* b = parse_int ~line "block" b in
      Ok (Expect_read_fail (s, b))
  | [ "expect-write-fail"; s; b ] ->
      let* s = parse_int ~line "site" s in
      let* b = parse_int ~line "block" b in
      Ok (Expect_write_fail (s, b))
  | [ "expect-state"; s; state ] -> (
      let* s = parse_int ~line "site" s in
      match state_of_string state with
      | Some st -> Ok (Expect_state (s, st))
      | None -> Error (Printf.sprintf "line %d: unknown state %S" line state))
  | [ "expect-available"; b ] -> (
      match bool_of_string_opt b with
      | Some b -> Ok (Expect_available b)
      | None -> Error (Printf.sprintf "line %d: expect-available wants true/false" line))
  | [ "expect-consistent" ] -> Ok Expect_consistent
  | [ "expect-inconsistent" ] -> Ok Expect_inconsistent
  | [ "check-invariants" ] -> Ok Check_invariants
  | cmd :: _ -> Error (Printf.sprintf "line %d: unknown command %S" line cmd)
  | [] -> Error (Printf.sprintf "line %d: empty event" line)

let parse_action ~line words =
  match Check.Chaos.fault_of_words words with
  | Some (Ok f) -> Ok (Fault f)
  | Some (Error e) -> Error (Printf.sprintf "line %d: %s" line e)
  | None -> parse_own_action ~line words

let parse_header_line header ~line words =
  match words with
  | [ "scheme"; s ] -> (
      match scheme_of_string s with
      | Some scheme ->
          header.scheme <- Some scheme;
          Ok ()
      | None -> Error (Printf.sprintf "line %d: unknown scheme %S" line s))
  | [ "sites"; n ] ->
      let* n = parse_int ~line "site count" n in
      header.sites <- Some n;
      Ok ()
  | [ "blocks"; n ] ->
      let* n = parse_int ~line "block count" n in
      header.blocks <- n;
      Ok ()
  | [ "seed"; n ] ->
      let* n = parse_int ~line "seed" n in
      header.seed <- n;
      Ok ()
  | [ "latency"; x ] ->
      let* x = parse_float ~line "latency" x in
      header.latency <- Some x;
      Ok ()
  | "witnesses" :: rest ->
      let* ws =
        List.fold_left
          (fun acc w ->
            let* acc = acc in
            let* v = parse_int ~line "witness" w in
            Ok (v :: acc))
          (Ok []) rest
      in
      header.witnesses <- List.rev ws;
      Ok ()
  | [ "track-liveness"; b ] -> (
      match bool_of_string_opt b with
      | Some b ->
          header.track_liveness <- b;
          Ok ()
      | None -> Error (Printf.sprintf "line %d: track-liveness wants true/false" line))
  | [ "horizon"; x ] ->
      let* x = parse_float ~line "horizon" x in
      header.horizon <- Some x;
      Ok ()
  | [ "fault-drop"; x ] ->
      let* x = parse_float ~line "fault-drop" x in
      header.faults <- { header.faults with Net.Faults.drop = x };
      Ok ()
  | [ "fault-duplicate"; x ] ->
      let* x = parse_float ~line "fault-duplicate" x in
      header.faults <- { header.faults with Net.Faults.duplicate = x };
      Ok ()
  | [ "fault-reorder"; x ] ->
      let* x = parse_float ~line "fault-reorder" x in
      header.faults <- { header.faults with Net.Faults.reorder = x };
      Ok ()
  | [ "fault-jitter"; x ] ->
      let* x = parse_float ~line "fault-jitter" x in
      header.faults <- { header.faults with Net.Faults.jitter = Util.Dist.Uniform (0.0, x) };
      Ok ()
  | [ "fault-delay"; x ] ->
      let* x = parse_float ~line "fault-delay" x in
      header.faults <- { header.faults with Net.Faults.extra_delay = x };
      Ok ()
  | [ "service-model"; b ] -> (
      match bool_of_string_opt b with
      | Some b ->
          header.service <- b;
          Ok ()
      | None -> Error (Printf.sprintf "line %d: service-model wants true/false" line))
  | key :: _ -> Error (Printf.sprintf "line %d: unknown directive %S" line key)
  | [] -> Ok ()

let parse text =
  let header = fresh_header () in
  let lines = String.split_on_char '\n' text in
  let rec go line_no events = function
    | [] -> Ok (List.rev events)
    | raw :: rest -> (
        let words = split_words (strip_comment raw) in
        match words with
        | [] -> go (line_no + 1) events rest
        | at :: cmd when String.length at > 0 && at.[0] = '@' ->
            let* time = parse_float ~line:line_no "time" (String.sub at 1 (String.length at - 1)) in
            let* action = parse_action ~line:line_no cmd in
            go (line_no + 1) ({ time; line = line_no; action } :: events) rest
        | directive -> (
            match parse_header_line header ~line:line_no directive with
            | Ok () -> go (line_no + 1) events rest
            | Error _ as err -> err))
  in
  let* events = go 1 [] lines in
  match (header.scheme, header.sites) with
  | None, _ -> Error "missing 'scheme' directive"
  | _, None -> Error "missing 'sites' directive"
  | Some _, Some _ -> (
      match Net.Faults.validate_profile header.faults with
      | Error e -> Error ("bad fault directives: " ^ e)
      | Ok _ -> Ok { header; events })

let parse_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      parse text

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let payload_matches expected block =
  let s = Blockdev.Block.to_string block in
  String.length expected <= String.length s && String.sub s 0 (String.length expected) = expected

let run t =
  let h = t.header in
  let scheme, n_sites =
    match (h.scheme, h.sites) with
    | Some scheme, Some sites -> (scheme, sites)
    | None, _ | _, None ->
        (* parse rejects scenarios without these directives. *)
        invalid_arg "Scenario.run: header lacks scheme or sites"
  in
  let config =
    Blockrep.Config.make_exn ~scheme ~n_sites ~n_blocks:h.blocks
      ?latency:(Option.map (fun x -> Util.Dist.Constant x) h.latency)
      ~witnesses:h.witnesses ~track_liveness:h.track_liveness ~seed:h.seed
      ~fault_profile:h.faults
      ?service:(if h.service then Some Net.Service_model.default else None)
      ()
  in
  let cluster = Blockrep.Cluster.create config in
  let engine = Blockrep.Cluster.engine cluster in
  let failures = ref [] in
  let events_run = ref 0 in
  let fail_line line fmt =
    Printf.ksprintf (fun msg -> failures := Printf.sprintf "line %d: %s" line msg :: !failures) fmt
  in
  let execute ev =
    incr events_run;
    let line = ev.line in
    match ev.action with
    | Fault f -> Check.Chaos.apply cluster f
    | Burst (site, n) ->
        (* Arrival pressure: [n] back-to-back client reads of block 0 at
           the site, answers discarded — with a service model installed
           they pile into the site's entry queue. *)
        for _ = 1 to n do
          Blockrep.Cluster.read cluster ~site ~block:0 (fun _ -> ())
        done
    | Write (site, block, payload) ->
        Blockrep.Cluster.write cluster ~site ~block (Blockdev.Block.of_string payload) (function
          | Ok _ -> ()
          | Error e ->
              fail_line line "write %d@%d failed: %s" block site
                (Blockrep.Types.failure_reason_to_string e))
    | Read (site, block) -> Blockrep.Cluster.read cluster ~site ~block (fun _ -> ())
    | Expect_read (site, block, payload) ->
        Blockrep.Cluster.read cluster ~site ~block (function
          | Ok (b, _) ->
              if not (payload_matches payload b) then
                fail_line line "read %d@%d returned %S, wanted %S" block site
                  (String.trim (String.sub (Blockdev.Block.to_string b) 0 24))
                  payload
          | Error e ->
              fail_line line "read %d@%d refused: %s" block site
                (Blockrep.Types.failure_reason_to_string e))
    | Expect_read_fail (site, block) ->
        Blockrep.Cluster.read cluster ~site ~block (function
          | Ok _ -> fail_line line "read %d@%d unexpectedly succeeded" block site
          | Error _ -> ())
    | Expect_write_fail (site, block) ->
        Blockrep.Cluster.write cluster ~site ~block (Blockdev.Block.of_string "must-fail") (function
          | Ok _ -> fail_line line "write %d@%d unexpectedly succeeded" block site
          | Error _ -> ())
    | Expect_state (site, state) ->
        let actual = Blockrep.Cluster.site_state cluster site in
        if actual <> state then
          fail_line line "site %d is %s, expected %s" site
            (Blockrep.Types.site_state_to_string actual)
            (Blockrep.Types.site_state_to_string state)
    | Expect_available b ->
        let actual = Blockrep.Cluster.system_available cluster in
        if actual <> b then fail_line line "system availability is %b, expected %b" actual b
    | Expect_consistent ->
        if not (Blockrep.Cluster.consistent_available_stores cluster) then
          fail_line line "available stores disagree"
    | Expect_inconsistent ->
        (* For documenting failure modes (e.g. available copy under a
           partition): the scenario asserts the divergence happens. *)
        if Blockrep.Cluster.consistent_available_stores cluster then
          fail_line line "stores unexpectedly consistent"
    | Check_invariants ->
        (* The full per-scheme invariant scan of the checking subsystem;
           meaningful at quiescent points (give in-flight messages time to
           land before scheduling it). *)
        List.iter
          (fun v -> fail_line line "invariant violated: %s" (Check.Violation.to_string v))
          (Check.Invariant.scan cluster)
  in
  List.iter
    (fun ev -> ignore (Sim.Engine.schedule_at engine ~time:ev.time (fun () -> execute ev) : Sim.Engine.handle))
    t.events;
  let horizon =
    match h.horizon with
    | Some x -> x
    | None -> List.fold_left (fun acc ev -> Float.max acc ev.time) 0.0 t.events +. 100.0
  in
  Blockrep.Cluster.run_until cluster horizon;
  { passed = !failures = []; failures = List.rev !failures; events_run = !events_run; cluster }

let check text =
  match parse text with
  | Error e -> Error [ e ]
  | Ok t ->
      let outcome = run t in
      if outcome.passed then Ok () else Error outcome.failures
