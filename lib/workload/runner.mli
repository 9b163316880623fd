(** Drive workloads against a cluster and collect outcome statistics. *)

type results = {
  issued : int;
  read_ok : int;
  read_failed : int;
  write_ok : int;
  write_failed : int;
  span : float;  (** virtual time consumed by the run *)
  read_latency : Util.Stats.t;
      (** virtual-time latency of successful reads: 0 for the copy schemes'
          local reads, a vote round trip under voting *)
  write_latency : Util.Stats.t;
      (** successful writes: 0 for naive fire-and-forget, one round trip
          for AC acks and voting quorums *)
}

val ops_total : results -> int
val success_fraction : results -> float

val mean_read_latency : results -> float
(** [nan] when no read succeeded. *)

val mean_write_latency : results -> float

val run_closed_loop :
  ?observe:(Access_gen.op -> float -> unit) ->
  Blockrep.Cluster.t ->
  Access_gen.t ->
  site:int ->
  ops:int ->
  results
(** Issue [ops] operations one after another from [site], each waiting for
    the previous to settle (the reliable device's usage pattern).  Operations
    failing because the site is down are counted as failures and the run
    continues — with an attached failure generator the site may well be
    down for a while.  [observe] (default: nothing) is called with each
    {e successful} operation and its virtual-time latency, in completion
    order — sharded campaigns use it to fill per-group histograms. *)

val run_open_loop :
  Blockrep.Cluster.t ->
  Access_gen.t ->
  site:int ->
  rate:float ->
  horizon:float ->
  results
(** Schedule operation arrivals as a Poisson process of the given [rate]
    from time now until [now + horizon], then run the engine to the
    horizon.  Models clients that do not wait for each other. *)

val replay :
  Blockrep.Cluster.t -> Trace.entry list -> site:int -> results
(** Closed-loop replay of a saved trace. *)
