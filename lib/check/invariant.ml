module Types = Blockrep.Types
module Runtime = Blockrep.Runtime
module Durable = Blockdev.Durable_store
module Vv = Blockdev.Version_vector

(* Staleness and divergence are judged over {e verified} copies: a
   quarantined (checksum-invalid) copy refuses to serve, vote or transfer,
   so it can make nobody read garbage — the protocols owe it a repair, not
   an excuse.  Stored version numbers stay trustworthy under media faults
   (the version table is journaled separately from the data bytes), so the
   dominance and closure checks keep using stored vectors. *)
let effective (s : Runtime.site) block = Durable.effective_version s.durable block

(* Maximal groups of mutually reachable sites (singleton groups for
   isolated sites).  With no partition installed this is one group. *)
let connectivity_groups net n =
  let assigned = Array.make n false in
  let groups = ref [] in
  for i = 0 to n - 1 do
    if not assigned.(i) then begin
      let group = ref [] in
      for j = n - 1 downto 0 do
        if (not assigned.(j)) && Runtime.Transport.reachable net i j && Runtime.Transport.reachable net j i
        then begin
          assigned.(j) <- true;
          group := j :: !group
        end
      done;
      groups := !group :: !groups
    end
  done;
  List.rev !groups

let scan_copy cluster ~add =
  let rt = Blockrep.Cluster.runtime cluster in
  let sites = Runtime.sites rt in
  let n_blocks = Blockrep.Cluster.n_blocks cluster in
  let available = Array.to_list sites |> List.filter (fun (s : Runtime.site) -> s.state = Types.Available) in
  let comatose = Array.to_list sites |> List.filter (fun (s : Runtime.site) -> s.state = Types.Comatose) in
  (* 1. Every available site is current everywhere, and current copies agree. *)
  for block = 0 to n_blocks - 1 do
    let gm = Runtime.newest_version rt block in
    List.iter
      (fun (s : Runtime.site) ->
        (* A quarantined copy is excused from the staleness check: it
           serves nothing (reads there trigger peer repair) and the bitrot
           guard guarantees a verified current copy elsewhere. *)
        if Durable.checksum_ok s.durable block then begin
          let v = effective s block in
          if v < gm then
            add ~block "stale-available-copy"
              (Printf.sprintf
                 "site %d is available but holds version %d of block %d while version %d exists in \
                  the system — a read served there would be stale"
                 s.id v block gm)
        end)
      available;
    (match
       List.filter_map
         (fun (s : Runtime.site) ->
           match Durable.read_verified s.durable block with
           | Some (data, v) when v = gm -> Some (s, data)
           | _ -> None)
         available
     with
    | [] | [ _ ] -> ()
    | (first, reference) :: rest ->
        List.iter
          (fun ((s : Runtime.site), data) ->
            if not (Blockdev.Block.equal data reference) then
              add ~block "copy-divergence"
                (Printf.sprintf
                   "sites %d and %d both hold version %d of block %d with different contents — \
                    two writes were committed under one version number"
                   first.id s.id gm block))
          rest)
  done;
  (* 2. Available version vectors dominate comatose ones. *)
  List.iter
    (fun (a : Runtime.site) ->
      List.iter
        (fun (c : Runtime.site) ->
          let va = Durable.versions a.durable and vc = Durable.versions c.durable in
          if not (Vv.dominates va vc) then begin
            let block = ref (-1) in
            for b = n_blocks - 1 downto 0 do
              if Vv.get vc b > Vv.get va b then block := b
            done;
            add ~block:!block "dominance"
              (Printf.sprintf
                 "available site %d is behind comatose site %d on block %d (v%d < v%d): the \
                  recovering site holds news the serving site missed"
                 a.id c.id !block (Vv.get va !block) (Vv.get vc !block))
          end)
        comatose)
    available;
  (* 3. W-set closure soundness: recovery from a total failure waits for
     the closure of the recovering site's was-available set, so for every
     site that closure must reach a holder of every block's newest
     version. *)
  let w_of u = Some (Runtime.site rt u).w in
  Array.iter
    (fun (s : Runtime.site) ->
      let closure = Blockrep.Closure.compute ~self:s.id ~own:s.w ~known:w_of in
      for block = 0 to n_blocks - 1 do
        let gm = Runtime.newest_version rt block in
        let reaches_current =
          (* Verified copies only: a quarantined gm-holder cannot be
             transferred from, so it does not plug a closure gap. *)
          Types.Int_set.exists (fun u -> effective (Runtime.site rt u) block = gm) closure
        in
        if not reaches_current then
          add ~block "closure-gap"
            (Printf.sprintf
               "the closure of site %d's was-available set (%s) holds only stale copies of block \
                %d (newest is v%d): recovery from a total failure starting at site %d could come \
                back stale"
               s.id
               (Format.asprintf "%a" Types.pp_int_set closure)
               block gm s.id)
      done)
    sites

let scan_quorum cluster ~add =
  let rt = Blockrep.Cluster.runtime cluster in
  let n_sites = Blockrep.Cluster.n_sites cluster in
  let n_blocks = Blockrep.Cluster.n_blocks cluster in
  let net = Blockrep.Cluster.network cluster in
  let check_group label group =
    for block = 0 to n_blocks - 1 do
      let gm = Runtime.newest_version rt block in
      let known_up =
        List.exists
          (fun i ->
            let s = Runtime.site rt i in
            s.state = Types.Available && effective s block = gm)
          group
      in
      if not known_up then
        add ~block "quorum-stale"
          (Printf.sprintf
             "%s can still form a read quorum, but no available site in it knows version %d of \
              block %d — the quorum the next read collects cannot see the newest write"
             label gm block)
    done
  in
  match Blockrep.Cluster.scheme cluster with
  | Types.Voting ->
      let quorum = (Blockrep.Cluster.config cluster).Blockrep.Config.quorum in
      List.iter
        (fun group ->
          let avail =
            List.filter (fun i -> (Runtime.site rt i).state = Types.Available) group
          in
          let weight = Blockrep.Quorum.weight_of quorum avail in
          if Blockrep.Quorum.read_quorum_met quorum weight then
            check_group
              (Printf.sprintf "reachable group {%s}" (String.concat "," (List.map string_of_int group)))
              group)
        (connectivity_groups net n_sites)
  | Types.Dynamic_voting ->
      if Blockrep.Cluster.system_available cluster then
        check_group "the service-available system" (List.init n_sites Fun.id)
  | Types.Available_copy | Types.Naive_available_copy ->
      ((assert false)
      [@lint.allow "partiality"
        "unreachable: scan dispatches copy schemes to scan_copy; scan_quorum is only ever entered for quorum schemes"])

let scan cluster =
  let now = Sim.Engine.now (Blockrep.Cluster.engine cluster) in
  let violations = ref [] in
  let add ~block code detail =
    let block = if block < 0 then None else Some block in
    violations := Violation.make ?block ~code ~time:now detail :: !violations
  in
  (match Blockrep.Cluster.scheme cluster with
  | Types.Available_copy | Types.Naive_available_copy -> scan_copy cluster ~add
  | Types.Voting | Types.Dynamic_voting -> scan_quorum cluster ~add);
  List.rev !violations
