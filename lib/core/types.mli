(** Shared vocabulary of the replication layer. *)

module Int_set : Set.S with type elt = int

type site_state =
  | Failed  (** down due to hardware or software failure *)
  | Comatose
      (** repaired, but the currency of its blocks is not yet established
          (copy schemes only; voting sites go straight back to service) *)
  | Available  (** operational and known to hold current data *)

val site_state_to_string : site_state -> string
val pp_site_state : Format.formatter -> site_state -> unit

(** Consistency-control scheme selector.  [Dynamic_voting] is the
    extension of the reference [10] line: quorums are majorities of the
    {e last update group} rather than of the static site set, adjusted
    per block as sites fail and recover. *)
type scheme = Voting | Available_copy | Naive_available_copy | Dynamic_voting

val scheme_to_string : scheme -> string
val all_schemes : scheme list
val pp_scheme : Format.formatter -> scheme -> unit

(** Why an operation could not be served. *)
type failure_reason =
  | No_quorum  (** voting: too few votes collected *)
  | Site_not_available  (** the local site is failed or comatose *)
  | Timed_out  (** a needed peer stopped responding mid-operation *)
  | Current_copy_unreachable
      (** witness voting: a quorum exists and names the current version,
          but no reachable data site holds it *)
  | Overloaded
      (** shed rather than served: the site's work queue was full or the
          device's admission limit was reached — a fast, explicit refusal
          so callers back off instead of waiting out a timeout *)

val failure_reason_to_string : failure_reason -> string

type read_result = (Blockdev.Block.t * int, failure_reason) result
(** On success: the block's contents and its version number. *)

type write_result = (int, failure_reason) result
(** On success: the version number assigned to the write. *)

type batch_write_result = (int list, failure_reason) result
(** Group commit: the versions assigned, in batch order, or one failure
    for the whole batch (the first per-block failure a single-block write
    would report).  Callers wanting partial progress split the batch and
    retry the halves — see [Fs.Buffer_cache]'s flush. *)

val int_set_of_list : int list -> Int_set.t
val pp_int_set : Format.formatter -> Int_set.t -> unit
