(** Time-weighted availability measurement.

    The availability A of Section 4 is the limiting fraction of time the
    replicated block is in an operating state; this monitor integrates the
    indicator of that state over virtual time. *)

type t

val create : Sim.Engine.t -> initially:bool -> t
(** Starts observing at the engine's current time. *)

val record : t -> bool -> unit
(** Note the current availability at the engine's current time; redundant
    notes (same value) are fine. *)

val availability : t -> float
(** Fraction of elapsed virtual time the system was available; [nan] before
    any time has passed. *)

val transitions : t -> int
(** Number of availability changes (up→down plus down→up). *)

val outages : t -> int
(** Number of up→down transitions observed. *)

val current_outage : t -> float option
(** Elapsed duration of the outage in progress at the engine's current
    time, or [None] when the system is up.  An outage still in progress at
    the end of a measurement run is {e truncated}: it is absent from
    {!mean_time_to_repair} and would silently bias MTTR low if ignored —
    report it alongside. *)

val mean_time_to_repair : t -> float
(** Mean completed-outage duration (an outage still in progress is not
    included): the replicated system's observed MTTR; [nan] before the
    first completed outage. *)
