(** Per-site service-time profile: what each kind of work costs a site's
    processor, and how much work may wait.

    The paper's sites are infinitely fast — a vote or transfer is served the
    instant it arrives.  Installing a service model puts a bounded
    single-server queue ({!Sim.Server}) in front of every site so overload
    and gray failure (slow, not dead) become simulable: each delivered
    message occupies the site for a draw from its category's distribution,
    and client operations entering the cluster pay the [client] cost. *)

type t = {
  queue_capacity : int;  (** waiting-room size of each site's queue *)
  base : Util.Dist.t;  (** service time of categories not listed below *)
  per_category : (Message.category * Util.Dist.t) list;
      (** overrides by message kind; first match wins *)
  client : Util.Dist.t;  (** cost of admitting one client operation *)
}

val default : t
(** Calibrated against the synchronous-write measurements of the
    stable-memory literature (see DESIGN.md §4h): applying an update —
    a journaled sync write — is Erlang-2 with mean 0.25 (half the default
    network hop, CV below one); votes and acks are cheap metadata; block
    transfers cost 0.12; capacity 64. *)

val cost_of : t -> Message.category -> Util.Prng.t -> float
(** Sample the service time of handling one message of the category. *)

val client_cost : t -> Util.Prng.t -> float
(** Sample the admission cost of one client operation. *)

val mean_client_cost : t -> float
(** Analytic mean of the client cost — the saturation arrival rate of a
    site is its reciprocal (open-loop benchmarks size load against it). *)

val validate : t -> (t, string) result
