type site_load = {
  site : int;
  served : int;
  queue_shed : int;
  depth_p50 : float;
  depth_p99 : float;
  sojourn_mean : float;
  sojourn_max : float;
}

type summary = {
  label : string;
  device : Blockrep.Reliable_device.degradation;
  faults : Net.Faults.counters option;
  ingress : Net.Network.ingress;
  sites : site_load list;
}

let site_loads cluster =
  let n = Blockrep.Cluster.n_sites cluster in
  List.filter_map
    (fun site ->
      match Blockrep.Cluster.server cluster site with
      | None -> None
      | Some srv ->
          let depth = Sim.Server.depth_histogram srv in
          let sojourn = Sim.Server.sojourn srv in
          Some
            {
              site;
              served = Sim.Server.served srv;
              queue_shed = Sim.Server.shed srv;
              depth_p50 = Util.Stats.Histogram.quantile depth 0.5;
              depth_p99 = Util.Stats.Histogram.quantile depth 0.99;
              sojourn_mean = Util.Stats.mean sojourn;
              sojourn_max = Util.Stats.max_value sojourn;
            })
    (List.init n Fun.id)

let collect ?(label = "device") device =
  let cluster = Blockrep.Reliable_device.cluster device in
  {
    label;
    device = Blockrep.Reliable_device.degradation device;
    faults = Option.map Net.Faults.counters (Blockrep.Cluster.faults cluster);
    ingress = Blockrep.Runtime.Transport.ingress (Blockrep.Cluster.network cluster);
    sites = site_loads cluster;
  }

let header =
  Printf.sprintf
    "%-18s %8s %8s %8s %8s %8s %8s %8s %6s %6s %5s %6s %6s %5s %7s %6s %5s %5s %5s %6s %7s %6s %6s %5s"
    "label" "requests" "attempts" "failover" "retries" "ok" "recover" "timeout" "gaveup" "reject"
    "shed" "hedged" "hwins" "trips" "msgshed" "drops" "dups" "reord" "delay" "jitter" "corrupt"
    "frej" "fquar" "retx"

let print_row ppf s =
  let d = s.device and g = s.ingress in
  let drops, dups, reorders, delayed, jittered, corrupted =
    match s.faults with
    | None -> (0, 0, 0, 0, 0, 0)
    | Some c -> Net.Faults.(c.drops, c.duplicates, c.reorders, c.delayed, c.jittered, c.corrupted)
  in
  Format.fprintf ppf
    "%-18s %8d %8d %8d %8d %8d %8d %8d %6d %6d %5d %6d %6d %5d %7d %6d %5d %5d %5d %6d %7d %6d %6d %5d"
    s.label d.requests d.site_attempts d.failovers d.retries d.succeeded d.recovered d.timeouts
    d.gave_up d.rejected d.shed d.hedged d.hedge_wins d.breaker_trips d.messages_shed drops dups
    reorders delayed jittered corrupted (Net.Network.frames_rejected g) g.quarantined
    g.retransmitted

(* nan quantiles/means (no samples yet) print as a dash, not "nan". *)
let pf v = if Float.is_nan v then "-" else Printf.sprintf "%.3f" v

let print_site_row ppf l =
  Format.fprintf ppf "    site %-3d %8d served %6d shed  depth p50/p99 %s/%s  sojourn mean/max %s/%s"
    l.site l.served l.queue_shed (pf l.depth_p50) (pf l.depth_p99) (pf l.sojourn_mean)
    (pf l.sojourn_max)

let print ppf ?(errors = false) rows =
  Format.fprintf ppf "@[<v>%s@," header;
  List.iter
    (fun s ->
      print_row ppf s;
      Format.fprintf ppf "@,";
      List.iter
        (fun l ->
          print_site_row ppf l;
          Format.fprintf ppf "@,")
        s.sites;
      if errors then
        List.iter
          (fun (at, msg) -> Format.fprintf ppf "    t=%-10.3f %s@," at msg)
          (List.rev s.device.last_errors))
    rows;
  Format.fprintf ppf "@]"
