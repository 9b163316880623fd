(** Streaming statistics.

    Availability in the paper is a *time average* (the limiting probability of
    being in an operating state), so alongside the usual sample statistics we
    provide a time-weighted accumulator for piecewise-constant signals such as
    "the replicated block is currently available". *)

(** {1 Sample statistics} *)

type t
(** Running mean/variance accumulator (Welford's algorithm: numerically
    stable, single pass). *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** [mean s] is [nan] when no samples were added. *)

val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two samples. *)

val min_value : t -> float
val max_value : t -> float

val merge : t -> t -> t
(** [merge a b] summarises the union of both sample sets (Chan et al.
    parallel combination). *)

(** {1 Time-weighted averages} *)

module Timed : sig
  type t
  (** Accumulates the time integral of a piecewise-constant real signal. *)

  val create : at:float -> value:float -> t
  (** [create ~at ~value] starts observing a signal equal to [value] at time
      [at]. *)

  val update : t -> at:float -> value:float -> unit
  (** [update t ~at ~value] records that the signal changed to [value] at
      time [at].  Raises [Invalid_argument] if [at] precedes the previous
      update (time must be non-decreasing). *)

  val average : t -> upto:float -> float
  (** [average t ~upto] is the time average of the signal on
      [\[start, upto\]].  [nan] when the window is empty. *)

  val integral : t -> upto:float -> float
  (** Time integral of the signal over the observation window. *)
end

(** {1 Histograms} *)

module Histogram : sig
  type t
  (** Fixed-width binned histogram over [\[lo, hi)].  Out-of-range samples
      are tracked in separate {!underflow}/{!overflow} counters rather than
      clamped into the edge bins (an earlier version clamped, which dragged
      the edge quantiles toward [lo]/[hi]). *)

  val create : lo:float -> hi:float -> bins:int -> t
  val add : t -> float -> unit

  val merge : t -> t -> t
  (** [merge a b] is a fresh histogram holding both sample sets; bin
      counts, totals and under/overflow add cell-wise.  Raises
      [Invalid_argument] unless both share the same [lo]/[hi]/bin
      geometry.  Merging per-shard histograms in shard-id order equals
      the unsharded histogram exactly (integer addition commutes). *)

  val counts : t -> int array

  val total : t -> int
  (** Every sample ever added, including out-of-range ones. *)

  val underflow : t -> int
  (** Samples below [lo]. *)

  val overflow : t -> int
  (** Samples at or above [hi]. *)

  val in_range : t -> int
  (** [total - underflow - overflow]: the samples the bins actually hold. *)

  val quantile : t -> float -> float
  (** [quantile h q] approximates the [q]-quantile ([0 <= q <= 1]) of the
      {e in-range} samples by linear interpolation within the containing
      bin; under/overflow samples are excluded.  [nan] when no in-range
      samples exist. *)
end
