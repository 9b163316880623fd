(** Bounded retries with exponential backoff, in virtual time.

    The paper's request path fails an operation on the first error because
    its environment never loses a message; once {!Net.Faults} can drop or
    delay deliveries, a single lost vote or transfer must not surface as a
    device error.  This module wraps a synchronous attempt in a bounded
    retry loop: between attempts it {e advances the simulation engine} by
    the backoff delay, so retries consume virtual time exactly like any
    other protocol activity, and every run remains deterministic in the
    seed.  The backoff schedule is deterministic: no random draw is ever
    taken here.

    Degradation is observable: a shared {!stats} record counts attempts,
    retries, recoveries, deadline timeouts and abandoned operations, and
    keeps a bounded window of the most recent errors — surfaced through
    [Reliable_device.degradation] and [Report.Degradation]. *)

type policy = {
  max_attempts : int;  (** total tries, including the first (>= 1) *)
  base_delay : float;  (** backoff before the second attempt *)
  multiplier : float;  (** backoff growth factor per retry (>= 1) *)
  max_delay : float;  (** cap on any single backoff *)
  deadline : float;
      (** total virtual-time budget measured from the first attempt; a
          retry that would start beyond it is not issued *)
}

val default_policy : ?unit:float -> unit -> policy
(** Six attempts, backoff [unit, 2 unit, 4 unit, ...] capped at [16 unit],
    deadline [64 unit].  [unit] defaults to 4.0 (= the default
    [Config.op_timeout]); pass the cluster's own timeout to scale. *)

val validate : policy -> (policy, string) result

val backoff : policy -> attempt:int -> float
(** Backoff scheduled after failed attempt number [attempt] (1-based). *)

(** {1 Degradation statistics} *)

type stats

val create_stats : unit -> stats
(** A fresh, all-zero record keeping the 8 most recent errors. *)

val operations : stats -> int
(** Operations submitted to {!run}. *)

val attempts : stats -> int
(** Attempts issued, including each operation's first. *)

val retries : stats -> int
(** Attempts beyond an operation's first. *)

val succeeded : stats -> int
(** Operations that returned [Ok] (on any attempt). *)

val recovered : stats -> int
(** Operations that failed at least once and then succeeded;
    [recovered <= succeeded]. *)

val timeouts : stats -> int
(** Operations abandoned because the next attempt would have started past
    the policy's budget or the operation's deadline. *)

val gave_up : stats -> int
(** Operations abandoned after exhausting [max_attempts]. *)

val conserved : stats -> bool
(** Counter conservation: with no operation in flight, every operation
    submitted to {!run} terminated exactly one way —
    [operations = succeeded + timeouts + gave_up]. *)

val last_errors : stats -> (float * string) list
(** Most recent first: (virtual time, failure reason) of failed attempts. *)

(** {1 Running} *)

val run :
  policy ->
  engine:Sim.Engine.t ->
  stats:stats ->
  ?deadline:float ->
  (attempt:int -> ('a, Types.failure_reason) result) ->
  ('a, Types.failure_reason) result
(** [run policy ~engine ~stats f] calls [f ~attempt:1], and on an error
    backs off (driving [engine] forward by the delay) and tries again, up
    to the policy's attempt and budget bounds.  Every failure reason is
    retried: under a lossy network each one can be transient, and the
    bounds contain persistent outages.  [deadline] is the operation's
    absolute virtual-time deadline: a retry that would start at or past it
    is not issued, since every round it opened would be refused (see
    {!Runtime.past_deadline}).  Either bound counts a timeout.  Returns
    the first success or the last error.  Raises [Invalid_argument] on an
    invalid policy. *)
