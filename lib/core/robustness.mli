(** The client-side robustness stack's switchboard.

    One record collects the four tail-latency defences so that a cluster
    or device can be built with any subset on.  {!off} — every field
    disabled — is the construction-time default throughout, and is
    guaranteed bit-identical to the pre-robustness code paths: no extra
    rng draws, no extra events, no wire-traffic change (the twin-run test
    in [test_robustness.ml] holds the guarantee down to message counts). *)

type hedge = {
  quantile : float;
      (** arm the hedge at this quantile of observed read latency
          (strictly between 0 and 1; 0.9 hedges the slowest decile) *)
  floor : float;
      (** minimum hedge delay, and the delay used before enough latency
          samples exist — keeps cold starts from hedging every read *)
}

type breaker = {
  threshold : int;  (** consecutive round failures that trip (>= 1) *)
  cooldown : float;  (** virtual time open before a half-open probe *)
}

type t = {
  deadlines : bool;
      (** propagate each operation's budget into protocol rounds, which
          clamp their timeouts to it and refuse to start past it *)
  op_budget : float option;
      (** per-operation wall budget (virtual time) measured from the
          moment the device accepts the operation; [None] with [deadlines]
          on falls back to the retry policy's deadline.  Requires
          [deadlines = true]. *)
  hedge : hedge option;
      (** hedged reads (AC/NAC only): if the local serve has not completed
          by the delay, race a single remote copy against it *)
  breaker : breaker option;  (** per-peer circuit breakers at every coordinator *)
  admission : int option;
      (** device-level admission control: at most this many client
          operations in flight, the rest refused fast with [Overloaded] *)
}

val off : t
(** Everything disabled — the bit-identical default. *)

val validate : t -> (t, string) result
