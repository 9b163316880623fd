(** Bounded retries with exponential backoff, in virtual time.

    The paper's request path fails an operation on the first error because
    its environment never loses a message; once {!Net.Faults} can drop or
    delay deliveries, a single lost vote or transfer must not surface as a
    device error.  This module wraps a synchronous attempt in a bounded
    retry loop: between attempts it {e advances the simulation engine} by
    the backoff delay, so retries consume virtual time exactly like any
    other protocol activity, and every run remains deterministic in the
    seed.

    The schedule is fixed and scales with one [unit], the cluster's
    [op_timeout]: at most {!max_attempts} attempts, backoff [unit, 2 unit,
    4 unit, ...] capped at [16 unit], and a total budget of [64 unit] from
    the first attempt.  No random draw is ever taken here, and nothing is
    counted: [Reliable_device] keeps the one ledger of what the retries
    cost. *)

val max_attempts : int
(** Total tries per operation, including the first: 6. *)

val backoff : unit:float -> attempt:int -> float
(** Backoff slept after failed attempt number [attempt] (1-based). *)

val budget : unit:float -> float
(** [64 unit]: a retry that would start later than this after the first
    attempt is not issued. *)

val run :
  unit:float ->
  engine:Sim.Engine.t ->
  ?deadline:float ->
  (attempt:int -> ('a, Types.failure_reason) result) ->
  ('a, Types.failure_reason) result
(** [run ~unit ~engine f] calls [f ~attempt:1], and on an error backs off
    (driving [engine] forward by the delay) and tries again, up to
    {!max_attempts} attempts and the {!budget}.  Every failure reason is
    retried: under a lossy network each one can be transient, and the
    bounds contain persistent outages.  [deadline] is the operation's
    absolute virtual-time deadline: a retry that would start at or past it
    is not issued, since every round it opened would be refused (see
    {!Runtime.past_deadline}).  Returns the first success or the last
    error.  A failed run ended at attempt {!max_attempts} exhausted its
    attempts; one ended at an earlier attempt was stopped by a time
    bound. *)
