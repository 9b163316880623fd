(** Reporting of the reliable device's degradation statistics.

    The fault-injection studies need the same answer in three shapes: a
    structured record (for assertions), an aligned text table (for the CLI
    and examples) and CSV (for external plotting).  One {!summary} row per
    device, combining its request/failover counters, the retry
    layer's degradation counts, the robustness stack's overload counters
    (shed, hedged, breaker trips), per-site work-queue load and the
    network injector's per-category fault totals. *)

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
  requests : int;
  site_attempts : int;
  failovers : int;
  retries : int;
  succeeded : int;
  recovered : int;
  timeouts : int;
  gave_up : int;
  rejected : int;
  shed : int;  (** operations refused at device admission *)
  hedged : int;  (** reads that issued a hedge *)
  hedge_wins : int;  (** hedges that answered first *)
  breaker_trips : int;  (** closed-to-open breaker transitions *)
  messages_shed : int;  (** protocol messages lost to full queues *)
  drops : int;
  duplicates : int;
  reorders : int;
  delayed : int;
  jittered : int;
  corrupted : int;  (** deliveries the injector byte-damaged *)
  frames_rejected : int;  (** ingress decode refusals, all classes *)
  rejects : (Net.Message.reject * int) list;  (** per-class breakdown *)
  frames_quarantined : int;  (** discarded undecoded under quarantine *)
  frames_retransmitted : int;  (** link-layer redeliveries *)
  quarantine_trips : int;
  corrupt_survived : int;  (** corrupted frames that still decoded *)
  wire_conserved : bool;
      (** the ingress conservation identity held: corrupted =
          caught + quarantined + survived *)
  sites : site_load list;  (** empty without a service model *)
  last_errors : (float * string) list;
}

val collect : ?label:string -> Blockrep.Reliable_device.t -> summary
(** Snapshot a device's degradation state; fault counters are zero when no
    injector is installed, robustness counters zero when the stack is off. *)

val print : Format.formatter -> ?errors:bool -> summary list -> unit
(** Aligned table, one row per summary, with per-site load sub-rows when a
    service model is installed; [errors] (default false) appends each
    row's recent-error window. *)

val csv_rows : summary list -> string list
(** Header line plus one CSV line per summary, for {!Csv.write_file}. *)

val site_csv_rows : summary list -> string list
(** Header line plus one CSV line per (summary, site-load) pair. *)
