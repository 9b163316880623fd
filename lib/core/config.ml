type t = {
  scheme : Types.scheme;
  n_sites : int;
  n_blocks : int;
  net_mode : Net.Network.mode;
  latency : Util.Dist.t;
  op_timeout : float;
  quorum : Quorum.t;
  witnesses : Types.Int_set.t;
  track_liveness : bool;
  seed : int;
  fault_profile : Net.Faults.profile;
  service : Net.Service_model.t option;
  robustness : Robustness.t;
  sync_profile : Blockdev.Sync_cost.profile option;
}

let make_exn ~scheme ~n_sites ?(n_blocks = 64) ?(net_mode = Net.Network.Multicast)
    ?(latency = Util.Dist.Constant 0.5) ?op_timeout ?quorum ?(witnesses = []) ?(track_liveness = false)
    ?(seed = 42) ?(fault_profile = Net.Faults.pristine) ?service ?(robustness = Robustness.off) ?sync_profile
    () =
  let fail msg = invalid_arg ("Config.make: " ^ msg) in
  let valid what = function Ok v -> v | Error e -> fail (what ^ e) in
  if n_sites < 1 then fail "need at least one site";
  if n_blocks < 1 then fail "need at least one block";
  let latency = valid "bad latency distribution: " (Util.Dist.validate latency) in
  let op_timeout = Option.value op_timeout ~default:(8.0 *. Util.Dist.mean latency) in
  if op_timeout <= 0.0 then fail "op_timeout must be positive";
  let quorum = match quorum with Some q -> q | None -> Quorum.majority ~n:n_sites in
  let witnesses = Types.int_set_of_list witnesses in
  if not (Int.equal (Quorum.n_sites quorum) n_sites) then
    fail "quorum weight vector length must equal n_sites";
  if Types.Int_set.exists (fun w -> w < 0 || w >= n_sites) witnesses then
    fail "witness ids must name existing sites";
  if Types.Int_set.cardinal witnesses >= n_sites then fail "at least one site must hold data";
  if (not (Types.Int_set.is_empty witnesses)) && scheme <> Types.Voting then
    fail "witnesses only make sense under voting";
  let fault_profile = valid "bad fault profile: " (Net.Faults.validate_profile fault_profile) in
  let service = Option.map (fun m -> valid "bad service model: " (Net.Service_model.validate m)) service in
  let robustness = valid "bad robustness config: " (Robustness.validate robustness) in
  {
    scheme;
    n_sites;
    n_blocks;
    net_mode;
    latency;
    op_timeout;
    quorum;
    witnesses;
    track_liveness;
    seed;
    fault_profile;
    service;
    robustness;
    sync_profile;
  }

let pp ppf t =
  Format.fprintf ppf "config(%s, n=%d, blocks=%d, %s, latency=%a, timeout=%g, seed=%d)"
    (Types.scheme_to_string t.scheme)
    t.n_sites t.n_blocks
    (Net.Network.mode_to_string t.net_mode)
    Util.Dist.pp t.latency t.op_timeout t.seed
