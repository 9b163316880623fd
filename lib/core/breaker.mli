(** Per-peer circuit breaker: stop sending to a peer that keeps failing
    rounds, probe it again after a cooldown.

    A breaker is a pure view over the virtual clock — it schedules nothing.
    [Closed] (healthy) trips to [Open] after [threshold] consecutive round
    failures; [Open] refuses traffic until [cooldown] has elapsed, after
    which the breaker is [Half_open] and allows trial traffic whose outcome
    decides: success closes it, failure re-opens it (cooldown restarts,
    no new trip counted).

    Coordinators consult breakers only to {e prefer} responsive peers —
    pruning a suspect from a round's expected set is legal only while the
    remainder still satisfies the scheme's safety rule (quorum weight,
    W-set inclusion), which the call sites enforce.  Safety never rests on
    a breaker being right. *)

type t

type state = Closed | Open | Half_open

val create : Sim.Engine.t -> threshold:int -> cooldown:float -> t
(** [threshold >= 1] consecutive failures trip; the peer is shunned for
    [cooldown > 0] virtual time. *)

val state : t -> state
val allows : t -> bool
(** [true] iff the breaker would let a request through now ([Closed] or
    [Half_open]). *)

val record_success : t -> unit
(** The peer answered a round: reset the failure run and close. *)

val record_failure : t -> unit
(** The peer missed a round (unanswered at timeout): extend the failure
    run, tripping or re-opening as the state dictates. *)

val trips : t -> int
(** Closed-to-open transitions so far (re-opens from half-open excluded). *)
