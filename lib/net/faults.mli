(** Seeded message-level fault injection for {!Network}.

    The paper's evaluation assumes reliable, partition-free message delivery;
    this module lets adversarial experiments relax that assumption without
    touching any protocol code.  Each link (ordered site pair) carries a
    {!profile} of independent per-message fault probabilities:

    - {b drop}: the message vanishes after being charged to the traffic
      counters (transmissions are accounted at send time, as in Section 5 —
      a lossy wire does not refund the sender);
    - {b duplicate}: a second copy is delivered, with its own latency draw;
    - {b jitter}: a random extra latency drawn from the [jitter]
      distribution on {e every} delivery of the link;
    - {b reorder}: the delivery is additionally deferred by a second,
      independent [jitter] draw, letting later sends overtake it;
    - {b extra_delay}: a deterministic added latency on every delivery.

    The default profile is {!pristine} (all knobs zero), and a network with
    no faults installed — or a pristine profile — behaves {e exactly} as the
    fault-free network: same code path, same RNG draws, same counters.  The
    injector owns a dedicated RNG, so enabling faults never perturbs the
    latency or workload streams of the same seed. *)

(** Byte-level wire damage, applied to the {e encoded frame} of a delivery.
    A network encodes its traffic as soon as its injector can corrupt (see
    {!corrupting}), so a non-trivial corruption profile always has bytes
    to damage.  Independent per-delivery probabilities; every kind
    that fires actually changes the byte string (a splice of two identical
    frames is the one exception, and the ingress accounts it as a
    corruption the decoder survived). *)
type corruption = {
  bit_flip : float;  (** flip one random bit of the frame *)
  truncate : float;  (** drop at least one byte off the tail *)
  garbage_prefix : float;  (** prepend 1–8 random bytes *)
  garbage_suffix : float;  (** append 1–8 random bytes *)
  splice : float;
      (** run the head of the link's previous frame into the tail of this
          one (two sends damaged into one byte string).  When the cut
          falls where both tails agree the result is the previous frame
          itself, which decodes: the ingress counts it as survived and
          delivers the old message in place of this one. *)
}

val no_corruption : corruption
val corruption_is_trivial : corruption -> bool

type profile = {
  drop : float;  (** probability a delivery is lost, in [0, 1] *)
  duplicate : float;  (** probability a delivery is doubled *)
  reorder : float;  (** probability of an extra deferring jitter draw *)
  jitter : Util.Dist.t;  (** random extra delay, drawn on every delivery *)
  extra_delay : float;  (** deterministic extra latency, every delivery *)
  corruption : corruption;  (** byte-level damage to the encoded frame *)
}

val pristine : profile
(** All-zero knobs: provably no fault is ever injected. *)

val persistent_corruptor : profile
(** Every delivery on the link gets one bit flipped ([bit_flip = 1.0],
    everything else pristine): a hostile or broken NIC.  Defeats any
    bounded retransmission budget, so it belongs on individual links
    (breaker experiments), not in a sweep's ambient profile. *)

val is_pristine : profile -> bool
(** Whether every knob — including the jitter distribution, which only
    [Constant 0.0] makes trivial — is at its pristine value. *)

val validate_profile : profile -> (profile, string) result
(** Checks probabilities are in [0, 1], the jitter distribution is valid and
    the extra delay non-negative. *)

val make :
  ?drop:float ->
  ?duplicate:float ->
  ?reorder:float ->
  ?jitter:Util.Dist.t ->
  ?extra_delay:float ->
  ?corruption:corruption ->
  unit ->
  (profile, string) result
(** Build a validated profile; every knob defaults to its pristine value. *)

val make_exn :
  ?drop:float ->
  ?duplicate:float ->
  ?reorder:float ->
  ?jitter:Util.Dist.t ->
  ?extra_delay:float ->
  ?corruption:corruption ->
  unit ->
  profile

type t
(** A fault injector: a default profile, per-link overrides, a dedicated
    RNG and per-category injection counters. *)

val create : rng:Util.Prng.t -> profile -> t
(** [create ~rng profile] validates [profile] and installs it as the
    default for every link.  Raises [Invalid_argument] on a bad profile. *)

val of_seed : seed:int -> profile -> t
(** Convenience: [create] with a fresh SplitMix64 stream. *)

val set_link : t -> from:int -> dst:int -> profile -> unit
(** Override the profile of one directed link.  A profile with non-trivial
    corruption makes the injector {!corrupting}. *)

val link_profile : t -> from:int -> dst:int -> profile
(** The profile governing [from -> dst] (the default unless overridden). *)

val default_profile : t -> profile

val corrupting : t -> bool
(** Whether this injector can damage bytes: its default profile carries
    non-trivial corruption, or {!set_link} has ever given a link some.
    Sticky — healing the link does not clear it.  {!Network} delivers
    encoded frames exactly when its injector is corrupting; links without
    corruption then cost no extra draws ({!corrupt} draws nothing on
    them) and a clean frame decodes to the payload it carries, so the
    switch is draw-for-draw invisible. *)

val plan : t -> from:int -> dst:int -> float list
(** Decide the fate of one delivery on a link: a list of extra delays, one
    per copy to deliver.  [[]] means the message is dropped; [[0.0]] is an
    undisturbed delivery; two elements mean a duplicate.  Updates the
    injection counters.  On a pristine link this returns [[0.0]] without
    drawing from the RNG. *)

val corrupt : t -> from:int -> dst:int -> Bytes.t -> Bytes.t * bool
(** [corrupt t ~from ~dst frame] decides the byte-level fate of one
    encoded delivery on a link: the (possibly damaged) frame to hand to
    the ingress, and whether it differs from the input.  The caller's
    buffer is never mutated — damage is applied to a fresh copy, so
    duplicates sharing one encoded buffer are corrupted independently.
    On a link with trivial corruption this returns the input unchanged
    without drawing from the RNG; otherwise it draws one uniform per
    kind unconditionally (stream stability, as in {!plan}) and applies
    the kinds that fire in a fixed order: splice, truncate, garbage
    prefix, garbage suffix, bit flip.  Updates the injection counters,
    including [corrupted] when any kind fired. *)

(** {1 Injection counters} *)

type counters = private {
  mutable drops : int;
  mutable duplicates : int;
  mutable reorders : int;
  mutable delayed : int;  (** deliveries that received the deterministic [extra_delay] *)
  mutable jittered : int;  (** delivery copies that received a random [jitter] draw *)
  mutable bit_flips : int;
  mutable truncates : int;
  mutable garbage_prefixed : int;
  mutable garbage_suffixed : int;
  mutable splices : int;
  mutable corrupted : int;
      (** deliveries whose frame left {!corrupt} different from how it
          went in (at most one per delivery, however many kinds fired);
          {!Network.Make.corruption_conserved} accounts each one as
          rejected, quarantined or survived *)
}
(** Per-category injection counts, updated by {!plan} and {!corrupt}. *)

val counters : t -> counters
(** Live counters of this injector (shared, not a snapshot). *)

val total_injected : t -> int
(** Every injection of {!plan} and {!corrupt}, summed over kinds
    ([corrupted] is not a kind: it counts damaged deliveries). *)
