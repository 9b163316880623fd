(** A bounded single-server FIFO work queue on the simulation engine.

    Models a site's finite processing capacity: jobs (message handling,
    client operations) queue behind one virtual processor that drains them
    in submission order, each occupying the processor for its caller-sampled
    service cost times the current {e rate factor} (the gray-failure /
    degradation knob).  A full queue {e sheds} new work — the submission is
    refused and counted, never silently dropped.

    The server draws no randomness of its own: callers sample service costs
    from whatever seeded distribution they maintain, so determinism is
    entirely in their hands.  With no server in the path (the default
    everywhere), nothing here ever runs. *)

type t

val create : Engine.t -> capacity:int -> t
(** A fresh idle server whose waiting room holds at most [capacity] jobs
    (the job in service is not counted against it).  [capacity >= 1] or
    [Invalid_argument]. *)

val submit : t -> cost:float -> ?drop:(unit -> unit) -> (unit -> unit) -> bool
(** [submit t ~cost work] enqueues a job whose effects ([work]) fire when
    its service completes, [cost *. rate_factor] after it reaches the head
    of the queue.  Returns [false] — and counts a shed — when the waiting
    room is full; the job then never runs.  [drop] marks a job that has a
    caller waiting on it (a client operation): {!clear} hands it back, so
    the caller can be answered, instead of destroying the job silently. *)

val set_rate_factor : t -> float -> unit
(** Service-time multiplier, applied as each job {e starts} service (the
    job currently in service keeps its schedule).  [1.0] is healthy;
    [10.0] is the canonical slow-site gray failure.  Must be positive. *)

val clear : t -> (unit -> unit) list
(** Drop every queued job and cancel the one in service (their [work]
    never runs); the drops are counted in {!dropped}, not {!shed}.  Used
    when the owning site fail-stops: queued work dies with the machine.
    Returns the [drop] continuations of the destroyed jobs that carried
    one, in submission order, without calling them. *)

val flood : t -> count:int -> cost:float -> unit
(** Inject [count] no-op jobs of the given cost — an adversarial burst
    that fills the queue ahead of legitimate work (the [queue-flood] chaos
    event).  Jobs beyond capacity shed as usual. *)

val busy : t -> bool
val depth : t -> int
(** Jobs in the server right now, the one in service included. *)

(** {1 Counters and distributions} *)

val served : t -> int
(** Jobs whose service completed and whose [work] ran. *)

val shed : t -> int
(** Submissions refused on a full queue. *)

val dropped : t -> int
(** Jobs destroyed by {!clear} (site failure), in-service one included. *)

val depth_histogram : t -> Util.Stats.Histogram.t
(** Queue depth observed at each accepted submission (before the job
    joins), one unit-width bin per slot. *)

val sojourn : t -> Util.Stats.t
(** Wait-plus-service time of served jobs. *)
