(** Reporting of the reliable device's degradation statistics.

    One {!summary} row per device, printed as an aligned text table.  A
    row combines the device's {!Blockrep.Reliable_device.degradation}
    (request, failover, retry and overload counts), per-site work-queue
    load, and the wire's two ledgers, read where they live: the
    injector's {!Net.Faults.counters} and the network's
    {!Net.Network.ingress}. *)

type site_load = {
  site : int;
  served : int;  (** jobs whose service completed at this site *)
  queue_shed : int;  (** submissions refused on a full queue *)
  depth_p50 : float;  (** median queue depth seen at submission *)
  depth_p99 : float;
  sojourn_mean : float;  (** mean wait-plus-service time *)
  sojourn_max : float;
}
(** Per-site work-queue load, present only when the cluster runs a
    service model; quantiles and means are [nan] (printed as a dash)
    before any sample. *)

type summary = {
  label : string;
  device : Blockrep.Reliable_device.degradation;
      (** the client's counts: requests, retries, overload *)
  faults : Net.Faults.counters option;  (** the injector's counters; [None] without one *)
  ingress : Net.Network.ingress;  (** the network's receive-side ledger *)
  sites : site_load list;  (** empty without a service model *)
}
(** [device] and [sites] are snapshots; [faults] and [ingress] are the
    wire's own live records, read when the row is printed. *)

val collect : ?label:string -> Blockrep.Reliable_device.t -> summary
(** One row for a device: its degradation snapshot, per-site load, and
    its cluster's two wire records. *)

val print : Format.formatter -> ?errors:bool -> summary list -> unit
(** Aligned table, one row per summary, with per-site load sub-rows when a
    service model is installed; [errors] (default false) appends each
    row's recent-error window.  Fault columns read zero when no injector
    is installed, robustness columns zero when the stack is off. *)
