module Types = Blockrep.Types
module Cluster = Blockrep.Cluster
module Runtime = Blockrep.Runtime
module Prng = Util.Prng

type fault =
  | Fail of int
  | Repair of int
  | Partition of int list list
  | Heal
  | Crash_torn of int
  | Bitrot of int * int
  | Disk_replace of int
  | Slow_site of int * float
  | Queue_flood of int * int
  | Wire_corrupt of int * int
  | Wire_heal of int * int

type event = Fault of fault | Burst of int
type schedule = (float * event) list

type family =
  | Failures
  | Partitions
  | Total_failures
  | Torn_writes
  | Latent_rot
  | Disk_swaps
  | Overload
  | Corrupt_links

type env = {
  scheme : Types.scheme;
  n_sites : int;
  seed : int;
  ops : int;
  batch : int;
  faults : Net.Faults.profile;
  weaken_read : int option;
  weaken_write : int option;
  families : family list;
}

(* The group-commit fast path under chaos: client writes are absorbed by
   a write-back cache over the reliable device and committed in batched
   groups when the coalescing window closes (or on an explicit flush).
   The harness flushes eagerly just before injecting a failure or a
   partition — the moment a deployment's flush-on-failover hook fires —
   so the dirty set crosses the wire while the quorum that accepted the
   writes is still intact. *)
module Wb_cache = Fs.Buffer_cache.Make_batched (Blockrep.Reliable_device)

(* Every run drives the same small device with the same closed-loop mix:
   exponential think time of mean [mean_gap] between operations. *)
let n_blocks = 8
let mean_gap = 2.5
let reads_per_write = 2.5

let supported_faults =
  Net.Faults.make_exn ~duplicate:0.05 ~reorder:0.05
    ~jitter:(Util.Dist.Uniform (0.0, 1.0))
    ~extra_delay:0.1 ()

(* Ambient byte damage of the wire layer.  The hardened ingress
   redelivers a rejected frame up to [Net.Network.redelivery_budget]
   times, so at a combined per-frame corruption rate around 6% the
   residual loss is ~ 0.06^7 — far below anything a 25-seed sweep could
   surface.  A {e persistent} corruptor link defeats the budget by
   design, which is why the wire layer leaves [Corrupt_links] off: that
   family turns corruption into message loss, and drops are outside every
   scheme's envelope (fire-and-forget updates are lost for good). *)
let supported_corruption =
  {
    Net.Faults.bit_flip = 0.02;
    truncate = 0.01;
    garbage_prefix = 0.01;
    garbage_suffix = 0.01;
    splice = 0.01;
  }

(* The overload layer's client stack: deadlines, hedged reads, breakers
   and admission control, on top of the default per-site service model. *)
let overload_robustness =
  {
    Blockrep.Robustness.deadlines = true;
    op_budget = None;
    hedge = Some { Blockrep.Robustness.quantile = 0.9; floor = 1.0 };
    breaker = Some { Blockrep.Robustness.threshold = 5; cooldown = 30.0 };
    admission = Some 64;
  }

let default_env ?(seed = 1) scheme =
  let families =
    match scheme with
    | Types.Available_copy | Types.Naive_available_copy -> [ Failures; Total_failures ]
    | Types.Voting | Types.Dynamic_voting ->
        (* The one-round write (commit on votes, unacknowledged update
           multicast — the paper's 1+u message budget) leaves a window
           where a voter crashes after its vote was counted but before the
           update reaches its disk; a later read quorum formed without the
           writer can then be jointly stale.  Site failures are therefore
           outside the voting envelope — [run] with [Failures] added
           demonstrates the oracle catching exactly that. *)
        []
  in
  {
    scheme;
    n_sites = 3;
    seed;
    ops = 110;
    batch = 1;
    faults = supported_faults;
    weaken_read = None;
    weaken_write = None;
    families;
  }

let media env =
  (* The storage-fault envelope per scheme.  Crash-torn writes and disk
     replacement take a site down; under the one-round voting write any
     site failure is already outside that scheme's envelope (see
     [default_env]), so the voting flavours get latent bitrot only —
     every copy stays mounted, quarantine + quorum re-pull heal it. *)
  let added =
    match env.scheme with
    | Types.Available_copy | Types.Naive_available_copy -> [ Torn_writes; Latent_rot; Disk_swaps ]
    | Types.Voting | Types.Dynamic_voting -> [ Latent_rot ]
  in
  { env with families = env.families @ added }

let overload env =
  (* The overload + gray-failure envelope: slow sites, client bursts and
     queue floods never take a site down or lose an acknowledged message,
     so they are inside {e every} scheme's correctness envelope (including
     voting, whose envelope excludes site failures) — the oracle must stay
     silent while p99 degrades.  Crash processes are taken out so the
     layer means the same thing for every scheme. *)
  let kept = List.filter (function Failures | Total_failures -> false | _ -> true) env.families in
  { env with families = kept @ [ Overload ] }

let wire env =
  (* The hostile-bytes envelope: the injector damages frame bytes at the
     [supported_corruption] ambient rates on top of the message faults,
     which also makes the network carry encoded frames.  The hardened
     ingress (CRC/shape rejection + bounded link-layer redelivery) must
     absorb all of it, so byte damage is inside {e every} scheme's
     correctness envelope — the oracle must stay silent and every
     injected corruption must be accounted for by the ingress
     conservation identity (checked as an invariant, not assumed). *)
  { env with faults = { env.faults with Net.Faults.corruption = supported_corruption } }

(* --- schedules --- *)

(* Schedule events are generated on [0, horizon]. *)
let horizon = 260.0

let exp_sample rng mean = -.mean *. log (Prng.float_pos rng)

(* Poisson arrivals of [rate] on [0, horizon].  [arrive t emit] emits the
   events of the arrival at [t] and returns the time the next gap counts
   from (the arrival itself, or the end of the episode it opened). *)
let arrivals ~rate rng arrive =
  let events = ref [] in
  let emit t ev = events := (t, ev) :: !events in
  let t = ref (exp_sample rng (1.0 /. rate)) in
  while !t <= horizon do
    let from = arrive !t emit in
    t := from +. exp_sample rng (1.0 /. rate)
  done;
  List.rev !events

(* An episode: [opening] at [t], [closing] after an exponential length of
   mean [mean] if that is still inside the horizon; the next arrival
   counts from the close. *)
let episode rng ~mean emit t opening closing =
  emit t (Fault opening);
  let close = t +. exp_sample rng mean in
  if close <= horizon then emit close (Fault closing);
  close

(* A crash-like media fault at [t], repaired half a time unit plus an
   exponential outage of mean [media_down_mean] later; the next arrival
   counts from the fault. *)
let media_down_mean = 6.0

let outage rng emit t site fault =
  emit t (Fault fault);
  let repair = t +. 0.5 +. exp_sample rng media_down_mean in
  if repair <= horizon then emit repair (Fault (Repair site));
  t

(* Independent per-site failure/repair processes: mean up time
   1/[failure_rate], mean repair time [down_mean]; one split stream per
   site, split in site order. *)
let failure_rate = 0.04
let down_mean = 6.0

let site_failures n_sites frng =
  let rec go site =
    if site >= n_sites then []
    else
      let rng = Prng.split frng in
      let events =
        arrivals ~rate:failure_rate rng (fun t emit ->
            episode rng ~mean:down_mean emit t (Fail site) (Repair site))
      in
      events @ go (site + 1)
  in
  go 0

let partition_rate = 0.01
let partition_duration = 8.0

let partition_events n_sites rng =
  arrivals ~rate:partition_rate rng (fun t emit ->
      (* a random two-way split with both sides nonempty *)
      let side = Array.init n_sites (fun _ -> Prng.bool rng) in
      let all_same = Array.for_all (fun b -> b = side.(0)) side in
      if all_same then side.(Prng.int rng n_sites) <- not side.(0);
      let left = ref [] and right = ref [] in
      Array.iteri (fun i b -> if b then left := i :: !left else right := i :: !right) side;
      episode rng ~mean:partition_duration emit t (Partition [ List.rev !left; List.rev !right ]) Heal)

(* Whole-system crashes; [total_down_mean] is the mean per-site outage. *)
let total_failure_rate = 0.004
let total_down_mean = 4.0

let total_failure_events n_sites rng =
  arrivals ~rate:total_failure_rate rng (fun t emit ->
      let last_repair = ref t in
      for site = 0 to n_sites - 1 do
        (* stagger the crashes slightly so there is a genuine "last site to
           fail", then repair each site independently *)
        let fail_t = t +. (0.3 *. Prng.float rng) in
        emit fail_t (Fault (Fail site));
        let repair_t = fail_t +. 0.5 +. exp_sample rng total_down_mean in
        if repair_t <= horizon then begin
          emit repair_t (Fault (Repair site));
          last_repair := Float.max !last_repair repair_t
        end
      done;
      !last_repair)

(* Crash-torn writes: the site loses power mid-write; the next crash is
   armed to tear the apply of its most recent journaled write, and the
   site is repaired a while later (the scrub replays the intention). *)
let crash_write_rate = 0.02

let crash_write_events n_sites rng =
  arrivals ~rate:crash_write_rate rng (fun t emit ->
      let site = Prng.int rng n_sites in
      outage rng emit t site (Crash_torn site))

let bitrot_rate = 0.03

let bitrot_events n_sites rng =
  arrivals ~rate:bitrot_rate rng (fun t emit ->
      emit t (Fault (Bitrot (Prng.int rng n_sites, Prng.int rng n_blocks)));
      t)

let disk_replace_rate = 0.005

let disk_replace_events n_sites rng =
  arrivals ~rate:disk_replace_rate rng (fun t emit ->
      let site = Prng.int rng n_sites in
      outage rng emit t site (Disk_replace site))

(* Gray failure: a random site turns [slow_factor]x slow for an episode
   of mean [slow_mean], then recovers to full speed (factor 1.0). *)
let slow_rate = 0.02
let slow_factor = 10.0
let slow_mean = 12.0

let slow_site_events n_sites rng =
  arrivals ~rate:slow_rate rng (fun t emit ->
      let site = Prng.int rng n_sites in
      episode rng ~mean:slow_mean emit t (Slow_site (site, slow_factor)) (Slow_site (site, 1.0)))

(* Each burst issues [burst_ops] operations back-to-back. *)
let burst_rate = 0.015
let burst_ops = 15

let burst_events _n_sites rng =
  arrivals ~rate:burst_rate rng (fun t emit ->
      emit t (Burst burst_ops);
      t)

(* Each flood injects [flood_count] junk jobs. *)
let flood_rate = 0.015
let flood_count = 48

let queue_flood_events n_sites rng =
  arrivals ~rate:flood_rate rng (fun t emit ->
      emit t (Fault (Queue_flood (Prng.int rng n_sites, flood_count)));
      t)

(* Persistent-corruptor episodes: one directed link flips every frame it
   carries until healed, after an episode of mean [wire_corrupt_mean]. *)
let wire_corrupt_rate = 0.01
let wire_corrupt_mean = 10.0

let wire_corrupt_events n_sites rng =
  arrivals ~rate:wire_corrupt_rate rng (fun t emit ->
      let from = Prng.int rng n_sites in
      let dst = (from + 1 + Prng.int rng (n_sites - 1)) mod n_sites in
      episode rng ~mean:wire_corrupt_mean emit t (Wire_corrupt (from, dst)) (Wire_heal (from, dst)))

(* The family table.  Each family's events come from one or more seeded
   streams, stream [salt] drawing from [Prng.create (seed lxor salt)]; a
   family may name the [chaos] CLI flag that forces it on, and tags sweep
   labels with its suffix. *)
type spec = {
  streams : (int * (int -> Prng.t -> schedule)) list;  (** (salt, generator over n_sites) *)
  flag : (string * string) option;
  suffix : string;
}

let spec = function
  | Failures ->
      {
        streams = [ (0x6661696c, site_failures) ];
        flag =
          Some
            ( "failures",
              "Force individual site failures on (outside the voting/dynamic envelope: expected to \
               surface violations there)." );
        suffix = "+fail";
      }
  | Partitions ->
      {
        streams = [ (0x70617274, partition_events) ];
        flag = Some ("partitions", "Force network partitions on (outside every scheme's envelope).");
        suffix = "+part";
      }
  | Total_failures ->
      {
        streams = [ (0x746f7461, total_failure_events) ];
        flag = Some ("total-failures", "Force whole-system crashes on.");
        suffix = "+total";
      }
  | Torn_writes ->
      {
        streams = [ (0x746f726e, crash_write_events) ];
        flag = Some ("crash-writes", "Force crash-torn writes on (crash mid-write; scrub replays).");
        suffix = "+torn";
      }
  | Latent_rot ->
      {
        streams = [ (0x726f74, bitrot_events) ];
        flag = Some ("bitrot", "Force latent sector errors on (maskable injections only).");
        suffix = "+rot";
      }
  | Disk_swaps ->
      {
        streams = [ (0x7265706c, disk_replace_events) ];
        flag =
          Some ("disk-replace", "Force whole-disk replacements on (blank medium, rebuilt by recovery).");
        suffix = "+swap";
      }
  | Overload ->
      {
        streams =
          [
            (0x736c6f77, slow_site_events); (0x62757273, burst_events); (0x666c6f64, queue_flood_events);
          ];
        flag = None;
        suffix = "+over";
      }
  | Corrupt_links ->
      { streams = [ (0x77697265, wire_corrupt_events) ]; flag = None; suffix = "+corruptor" }

let families =
  [
    Failures; Partitions; Total_failures; Torn_writes; Latent_rot; Disk_swaps; Overload; Corrupt_links;
  ]

let flag family = (spec family).flag
let enabled env = List.filter (fun f -> List.mem f env.families) families

let label env =
  String.concat ""
    ((Types.scheme_to_string env.scheme :: List.map (fun f -> (spec f).suffix) (enabled env))
    @ if Net.Faults.corruption_is_trivial env.faults.Net.Faults.corruption then [] else [ "+wire" ])

let generate_schedule env =
  enabled env
  |> List.concat_map (fun f ->
         List.concat_map
           (fun (salt, generate) -> generate env.n_sites (Prng.create (env.seed lxor salt)))
           (spec f).streams)
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)

(* --- the fault verbs: one printer, parser and executor --- *)

let fault_to_string = function
  | Fail s -> Printf.sprintf "fail %d" s
  | Repair s -> Printf.sprintf "repair %d" s
  | Partition groups ->
      "partition "
      ^ String.concat " | " (List.map (fun g -> String.concat " " (List.map string_of_int g)) groups)
  | Heal -> "heal"
  | Crash_torn s -> Printf.sprintf "crash-torn %d" s
  | Bitrot (s, b) -> Printf.sprintf "bitrot %d %d" s b
  | Disk_replace s -> Printf.sprintf "disk-replace %d" s
  | Slow_site (s, f) -> Printf.sprintf "slow-site %d %.4f" s f
  | Queue_flood (s, n) -> Printf.sprintf "queue-flood %d %d" s n
  | Wire_corrupt (s, d) -> Printf.sprintf "wire-corrupt %d %d" s d
  | Wire_heal (s, d) -> Printf.sprintf "wire-heal %d %d" s d

let fault_of_words = function
  | [] -> None
  | verb :: args -> (
      let ( let* ) = Result.bind in
      let num of_string what s =
        match of_string s with Some v -> Ok v | None -> Error (Printf.sprintf "bad %s %S" what s)
      in
      let int = num int_of_string_opt in
      let arity n = Error (Printf.sprintf "%s takes %d argument(s)" verb n) in
      let one k = match args with [ s ] -> Result.map k (int "site" s) | _ -> arity 1 in
      let two what k =
        match args with
        | [ a; b ] ->
            let* a = int "site" a in
            let* b = what b in
            Ok (k a b)
        | _ -> arity 2
      in
      let groups () =
        (* site ids separated by spaces, groups by '|'; no group empty *)
        let rec go cur acc = function
          | [] ->
              let groups = List.rev (List.rev cur :: acc) in
              if List.exists (function [] -> true | _ :: _ -> false) groups then
                Error "empty partition group"
              else Ok (Partition groups)
          | "|" :: rest -> go [] (List.rev cur :: acc) rest
          | w :: rest ->
              let* site = int "site" w in
              go (site :: cur) acc rest
        in
        go [] [] args
      in
      match verb with
      | "fail" -> Some (one (fun s -> Fail s))
      | "repair" -> Some (one (fun s -> Repair s))
      | "partition" -> Some (groups ())
      | "heal" -> Some (match args with [] -> Ok Heal | _ :: _ -> arity 0)
      | "crash-torn" -> Some (one (fun s -> Crash_torn s))
      | "bitrot" -> Some (two (int "block") (fun s b -> Bitrot (s, b)))
      | "disk-replace" -> Some (one (fun s -> Disk_replace s))
      | "slow-site" ->
          Some (two (num float_of_string_opt "rate factor") (fun s f -> Slow_site (s, f)))
      | "queue-flood" -> Some (two (int "flood count") (fun s n -> Queue_flood (s, n)))
      | "wire-corrupt" -> Some (two (int "site") (fun s d -> Wire_corrupt (s, d)))
      | "wire-heal" -> Some (two (int "site") (fun s d -> Wire_heal (s, d)))
      | _ -> None)

let apply cluster = function
  | Fail s -> Cluster.fail_site cluster s
  | Repair s -> Cluster.repair_site cluster s
  | Partition groups -> Cluster.partition cluster groups
  | Heal -> Cluster.heal cluster
  | Crash_torn s ->
      (* Arm the tear, then crash: the site's most recent journaled write
         is left garbled on the platter for the recovery scrub to replay. *)
      Cluster.arm_torn_write cluster s;
      Cluster.fail_site cluster s
  | Bitrot (site, block) -> Cluster.inject_bitrot cluster ~site ~block
  | Disk_replace s -> Cluster.replace_disk cluster s
  | Slow_site (s, f) -> Cluster.set_rate_factor cluster s f
  | Queue_flood (s, n) -> Cluster.flood_site cluster s ~count:n
  | Wire_corrupt (from, dst) -> Cluster.corrupt_link cluster ~from ~dst
  | Wire_heal (from, dst) -> Cluster.heal_link cluster ~from ~dst

(* --- serialization --- *)

let pp_event ppf (time, ev) =
  match ev with
  | Fault f -> Format.fprintf ppf "@%.4f %s" time (fault_to_string f)
  | Burst n -> Format.fprintf ppf "@%.4f burst %d" time n

let pp_schedule ppf schedule =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_event ppf schedule

let schedule_to_string schedule =
  String.concat "\n" (List.map (Format.asprintf "%a" pp_event) schedule)

let schedule_of_string text =
  let parse_line i line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then Ok None
    else
      let fail why = Error (Printf.sprintf "line %d: cannot parse %S%s" (i + 1) line why) in
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | time :: rest when String.length time > 1 && time.[0] = '@' -> (
          match float_of_string_opt (String.sub time 1 (String.length time - 1)) with
          | None -> fail ""
          | Some t -> (
              match rest with
              | [ "burst"; n ] -> (
                  match int_of_string_opt n with Some n -> Ok (Some (t, Burst n)) | None -> fail "")
              | words -> (
                  match fault_of_words words with
                  | Some (Ok f) -> Ok (Some (t, Fault f))
                  | Some (Error why) -> fail (": " ^ why)
                  | None -> fail "")))
      | _ -> fail ""
  in
  let lines = String.split_on_char '\n' text in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line i line with
        | Error e -> Error e
        | Ok None -> go (i + 1) acc rest
        | Ok (Some ev) -> go (i + 1) (ev :: acc) rest)
  in
  go 0 [] lines

(* --- running --- *)

type outcome = {
  seed : int;
  schedule : schedule;
  history : History.t;
  oracle : Violation.t list;
  invariants_mid : Violation.t list;
  invariants_final : Violation.t list;
  ops_ok : int;
  ops_failed : int;
  faults_injected : int;
  storage : Blockdev.Durable_store.counters;
  end_time : float;
}

let violations o = o.oracle @ o.invariants_mid @ o.invariants_final
let passed o = violations o = []

let cluster_of_env env =
  let quorum =
    match (env.weaken_read, env.weaken_write) with
    | None, None -> None
    | r, w ->
        let majority = (env.n_sites / 2) + 1 in
        Some
          (Blockrep.Quorum.unsafe
             ~weights:(Array.make env.n_sites 1)
             ~read_threshold:(Option.value r ~default:majority)
             ~write_threshold:(Option.value w ~default:majority))
  in
  (* The overload family runs every site behind the default service model
     and turns the client robustness stack on. *)
  let overloaded = List.mem Overload env.families in
  Cluster.create
    (Blockrep.Config.make_exn ~scheme:env.scheme ~n_sites:env.n_sites ~n_blocks ?quorum
       ~seed:env.seed ~fault_profile:env.faults
       ?service:(if overloaded then Some Net.Service_model.default else None)
       ~robustness:(if overloaded then overload_robustness else Blockrep.Robustness.off)
       ())

(* Maskability guards for media faults.  The paper's disks are fail-stop;
   a latent fault that destroys the {e only} current copy of a block is
   unmaskable by any replication protocol, so the generator's random
   injections are filtered at apply time to those a correct system must
   survive: some other mounted site still holds a verified copy at least
   as new as whatever the fault wipes out.  (Crash-torn writes need no
   guard: the committed intention journal survives the tear and the
   recovery scrub replays it, so even a sole survivor loses nothing.) *)

let covered_elsewhere cluster ~victim ~block ~version =
  version = 0
  ||
  let n = Cluster.n_sites cluster in
  let rec check j =
    j < n
    && ((j <> victim
        && Cluster.site_state cluster j = Types.Available
        && Cluster.checksum_ok cluster ~site:j ~block
        && Cluster.effective_version cluster ~site:j ~block >= version)
       || check (j + 1))
  in
  check 0

let stored_version cluster s block =
  Blockdev.Durable_store.version (Runtime.site (Cluster.runtime cluster) s).Runtime.durable block

(* The chaos filter in front of [apply]: crash and repair events only
   act on a site in the matching state, and media faults only where they
   are maskable. *)
let admissible cluster = function
  | Fail s -> Cluster.site_state cluster s <> Types.Failed
  | Repair s -> Cluster.site_state cluster s = Types.Failed
  | Crash_torn s -> Cluster.site_state cluster s = Types.Available
  | Bitrot (s, b) ->
      Cluster.site_state cluster s <> Types.Failed
      && covered_elsewhere cluster ~victim:s ~block:b ~version:(stored_version cluster s b)
  | Disk_replace s ->
      let n_blocks = Cluster.n_blocks cluster in
      let rec all_covered b =
        b >= n_blocks
        || (covered_elsewhere cluster ~victim:s ~block:b ~version:(stored_version cluster s b)
           && all_covered (b + 1))
      in
      all_covered 0
  | Partition _ | Heal | Slow_site _ | Queue_flood _ | Wire_corrupt _ | Wire_heal _ -> true

let run_against env ~cluster ~schedule =
  let engine = Cluster.engine cluster in
  let rt = Cluster.runtime cluster in
  let n_blocks = Cluster.n_blocks cluster in
  (* Oracle baseline: the newest committed state per block at entry, so a
     restored (checkpointed) cluster's contents are legal first reads. *)
  let baseline_tbl =
    Array.init n_blocks (fun block ->
        let best = ref (0, Blockdev.Block.zero) in
        Array.iter
          (fun (s : Runtime.site) ->
            (* Verified copies only: a quarantined block must not seed the
               oracle's notion of committed state. *)
            match Blockdev.Durable_store.read_verified s.durable block with
            | Some (data, v) -> if v > fst !best then best := (v, data)
            | None -> ())
          (Runtime.sites rt);
        !best)
  in
  let baseline block = baseline_tbl.(block) in
  let device = Blockrep.Reliable_device.create cluster in
  let history = History.create () in
  History.attach history device;
  (* No coalescing timer here: a timer can close the window in the middle
     of another client operation's engine drive, and the nested batched
     write would make the recorded history non-sequential (the oracle
     judges single-client histories).  The loop below commits the dirty
     set explicitly once [batch] writes have been absorbed, which is the
     same group size with deterministic, never-nested flush points. *)
  let cache =
    if env.batch <= 1 then None
    else Some (Wb_cache.create ~policy:Fs.Buffer_cache.Write_back ~capacity:n_blocks device)
  in
  let in_op = ref false in
  let flush_cache () =
    match cache with
    | None -> ()
    | Some c ->
        (* Never flush from inside a client operation (a schedule event
           can fire while one is driving the engine): the nested write
           would be recorded before the in-flight operation responds. *)
        if not !in_op then ignore (Wb_cache.flush c : bool)
  in
  let now0 = Sim.Engine.now engine in
  (* Bursts ask the workload loop to skip its think time for the next [n]
     operations — closed-loop arrival pressure, no cluster state touched. *)
  let burst_credit = ref 0 in
  let handles =
    List.filter_map
      (fun (time, ev) ->
        if time < now0 then None
        else
          Some
            (Sim.Engine.schedule_at engine ~time (fun () ->
                 match ev with
                 | Burst n -> burst_credit := !burst_credit + n
                 | Fault f ->
                     (* Flush-on-failover: commit the dirty set before the
                        fault lands (reentrant flushes are ignored by the
                        cache, so a flush already in flight is safe). *)
                     (match f with
                     | Fail _ | Partition _ | Crash_torn _ | Disk_replace _ -> flush_cache ()
                     | Repair _ | Heal | Bitrot _ | Slow_site _ | Queue_flood _ | Wire_corrupt _
                     | Wire_heal _ ->
                         ());
                     if admissible cluster f then apply cluster f)))
      schedule
  in
  let gap_rng = Prng.create (env.seed lxor 0x676170) in
  let gen =
    Workload.Access_gen.create
      ~rng:(Prng.create (env.seed lxor 0x6f7073))
      ~n_blocks ~reads_per_write
      ~payload_seed:(Printf.sprintf "chaos-%d" env.seed)
      ()
  in
  let ops_ok = ref 0 and ops_failed = ref 0 in
  for _ = 1 to env.ops do
    if !burst_credit > 0 then decr burst_credit
    else Cluster.run_until cluster (Sim.Engine.now engine +. exp_sample gap_rng mean_gap);
    in_op := true;
    (match Workload.Access_gen.next gen with
    | Workload.Access_gen.Read block -> (
        let answer =
          match cache with
          | Some c -> Wb_cache.read_block c block
          | None -> Blockrep.Reliable_device.read_block device block
        in
        match answer with Some _ -> incr ops_ok | None -> incr ops_failed)
    | Workload.Access_gen.Write (block, data) ->
        let ok =
          match cache with
          | Some c -> Wb_cache.write_block c block data
          | None -> Blockrep.Reliable_device.write_block device block data
        in
        if ok then incr ops_ok else incr ops_failed);
    in_op := false;
    (* Group commit: the dirty set rides one batched request as soon as
       it reaches the configured group size. *)
    match cache with
    | Some c when Wb_cache.dirty_blocks c >= env.batch -> ignore (Wb_cache.flush c : bool)
    | Some _ | None -> ()
  done;
  (* Stop injecting, commit anything still buffered, drain, and look at
     the state the run ended in. *)
  List.iter (Sim.Engine.cancel engine) handles;
  flush_cache ();
  Cluster.settle cluster;
  let invariants_mid = Invariant.scan cluster in
  (* Full recovery: heal, repair everyone, let recovery protocols finish. *)
  Cluster.heal cluster;
  for site = 0 to Cluster.n_sites cluster - 1 do
    if Cluster.site_state cluster site = Types.Failed then Cluster.repair_site cluster site
  done;
  Cluster.settle cluster;
  (* A flush during the run may have failed with the quorum down; with
     everything repaired the leftovers must commit. *)
  flush_cache ();
  Cluster.settle cluster;
  let invariants_final = Invariant.scan cluster in
  (* The ingress conservation identity is checked, not assumed: every
     corruption the injector counted must have been classified exactly
     one way (decoder reject, quarantine discard, or survived decode). *)
  let invariants_final =
    let net = Cluster.network cluster in
    if Runtime.Transport.corruption_conserved net then invariants_final
    else
      let g = Runtime.Transport.ingress net in
      let corrupted =
        match Cluster.faults cluster with Some f -> (Net.Faults.counters f).corrupted | None -> 0
      in
      invariants_final
      @ [
          Violation.make ~code:"wire-unconserved" ~time:(Sim.Engine.now engine)
            (Printf.sprintf
               "corrupted deliveries %d <> rejected %d + quarantined %d + survived %d" corrupted
               g.corrupt_rejected g.corrupt_quarantined g.corrupt_survived);
        ]
  in
  for block = 0 to n_blocks - 1 do
    ignore (Blockrep.Reliable_device.read_block device block)
  done;
  let oracle = Oracle.check ~baseline history in
  {
    seed = env.seed;
    schedule;
    history;
    oracle;
    invariants_mid;
    invariants_final;
    ops_ok = !ops_ok;
    ops_failed = !ops_failed;
    faults_injected =
      (match Cluster.faults cluster with None -> 0 | Some f -> Net.Faults.total_injected f);
    storage = Cluster.storage_counters cluster;
    end_time = Sim.Engine.now engine;
  }

let run ?schedule env =
  let schedule = match schedule with Some s -> s | None -> generate_schedule env in
  run_against env ~cluster:(cluster_of_env env) ~schedule

(* --- shrinking --- *)

let shrink ?(max_runs = 300) env schedule =
  let runs = ref 0 in
  let try_run sched =
    incr runs;
    run_against env ~cluster:(cluster_of_env env) ~schedule:sched
  in
  let failing o = not (passed o) in
  let first = try_run schedule in
  if not (failing first) then (schedule, first)
  else begin
    let best = ref (Array.of_list schedule) in
    let best_outcome = ref first in
    let chunk = ref (max 1 ((Array.length !best + 1) / 2)) in
    while !chunk >= 1 && !runs < max_runs do
      let progressed = ref false in
      let i = ref 0 in
      while !i < Array.length !best && !runs < max_runs do
        let len = Array.length !best in
        let hi = min len (!i + !chunk) in
        let candidate = Array.append (Array.sub !best 0 !i) (Array.sub !best hi (len - hi)) in
        if Array.length candidate < len then begin
          let o = try_run (Array.to_list candidate) in
          if failing o then begin
            best := candidate;
            best_outcome := o;
            progressed := true
            (* keep [i]: the next chunk slid into place *)
          end
          else i := !i + !chunk
        end
        else i := !i + !chunk
      done;
      if not !progressed then if !chunk = 1 then chunk := 0 else chunk := !chunk / 2
    done;
    (Array.to_list !best, !best_outcome)
  end

(* --- sweeping --- *)

type run_summary = {
  run_seed : int;
  run_passed : bool;
  run_violations : int;
  run_ops_ok : int;
  run_ops_failed : int;
  run_faults : int;
  run_storage_faults : int;
}

type sweep_result = {
  sweep_env : env;
  summaries : run_summary list;
  failing : int list;
  first_failure : (int * outcome) option;
  shrunk : (schedule * outcome) option;
}

let sweep ?(shrink_failures = true) ?max_shrink_runs ?(shards = 1) env ~seeds =
  (* Each seed's run builds its own cluster, schedule and PRNG streams
     from [{env with seed}] alone, so seeds are the sweep's shard units:
     [shards] picks only how many domains execute them, and the verdict
     merge below walks the results in seed-list order either way. *)
  let runs =
    Sim.Shard_engine.map_list ~shards seeds (fun seed ->
        let o = run { env with seed } in
        let n_violations = List.length (violations o) in
        ( {
            run_seed = seed;
            run_passed = n_violations = 0;
            run_violations = n_violations;
            run_ops_ok = o.ops_ok;
            run_ops_failed = o.ops_failed;
            run_faults = o.faults_injected;
            run_storage_faults =
              o.storage.Blockdev.Durable_store.torn_writes
              + o.storage.Blockdev.Durable_store.bitrot_injected
              + o.storage.Blockdev.Durable_store.disk_replacements;
          },
          o ))
  in
  let summaries = List.map fst runs in
  let first_failure =
    List.find_map (fun (s, o) -> if s.run_passed then None else Some (s.run_seed, o)) runs
  in
  let failing = List.filter_map (fun s -> if s.run_passed then None else Some s.run_seed) summaries in
  let shrunk =
    match first_failure with
    | Some (seed, o) when shrink_failures ->
        Some (shrink ?max_runs:max_shrink_runs { env with seed } o.schedule)
    | _ -> None
  in
  { sweep_env = env; summaries; failing; first_failure; shrunk }
