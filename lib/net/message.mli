(** Taxonomy of the "high-level transmissions" of Section 5.

    The paper's traffic analysis counts high-level requests — vote
    collections, block transfers, version-vector exchanges — rather than wire
    packets, arguing that low-level message counts are proportional.  We give
    each such transmission a category so that traffic accounting can report
    exactly the quantities the paper compares. *)

type category =
  | Vote_request  (** voting: collect votes / ascertain a quorum *)
  | Vote_reply  (** a site's vote: version number + weight *)
  | Block_update  (** the new block + version sent to quorum/available sites *)
  | Write_ack  (** AC only: reply to a write, refreshing the was-available set *)
  | Block_request  (** voting read: ask the most current site for the block *)
  | Block_transfer  (** the requested block's contents *)
  | Recovery_probe  (** recovering site's "who is operational?" enquiry *)
  | Recovery_reply  (** response to a recovery probe *)
  | Version_vector_send  (** recovering site sends its version vector v *)
  | Version_vector_reply  (** v' plus the blocks modified during the outage *)
  | Was_available_update  (** AC: recovered site sends its new W_s *)

val all : category list
(** Every category, for iteration in reports. *)

val to_string : category -> string

(** The operation on whose behalf a transmission was sent, for the per-class
    breakdowns of Figures 11 and 12.  [Repair] is outside the paper's
    taxonomy: it tags steady-state peer read-repair of a checksum-invalid
    block, so the robustness tax of an honest storage model is accounted
    separately from the Section 5 categories (its cells stay zero when no
    media faults are injected). *)
type operation = Read | Write | Recovery | Repair

val operation_to_string : operation -> string
val all_operations : operation list

(** Why the hardened ingress refused an arriving frame.  The taxonomy is
    codec-agnostic — {!Net} does not depend on [lib/codec] — so a payload
    module maps its own decoder errors onto these classes (frame-envelope
    damage: truncation, magic, trailing bytes, CRC; payload damage: an
    unknown dispatch tag, a structurally malformed body). *)
type reject =
  | Reject_truncated
  | Reject_bad_magic
  | Reject_trailing
  | Reject_crc
  | Reject_bad_tag
  | Reject_malformed

val all_rejects : reject list
(** Every reject class, for iteration in reports. *)

val reject_to_string : reject -> string
