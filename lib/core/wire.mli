(** On-the-wire protocol messages for all three schemes.

    Each constructor corresponds to one "high-level transmission" of the
    Section 5 analysis; {!category} is the accounting bucket.  [rid] values
    correlate replies with the coordinator round that awaits them. *)

type site_info = {
  origin : int;  (** whose information this is *)
  state : Types.site_state;
  versions : Blockdev.Version_vector.t;
  was_available : Types.Int_set.t;
}
(** A site's self-description, carried in recovery probes and replies so
    comatose sites can evaluate the select of Figures 5 and 6. *)

type t =
  | Vote_request of { rid : int; block : Blockdev.Block.id; purpose : Net.Message.operation }
      (** voting: collect version + weight for one block; [purpose] tells
          repliers which operation class to account their votes to *)
  | Vote_reply of {
      rid : int;
      block : Blockdev.Block.id;
      version : int;
      weight : int;
      group_size : int;
          (** dynamic voting: cardinality of the last update group the
              voter knows for this block; static voting sends the total
              site count and ignores it on receipt *)
    }
  | Block_update of {
      rid : int option;
          (** [Some] when the sender expects acknowledgements (available
              copy writes); [None] for voting updates and naive writes *)
      block : Blockdev.Block.id;
      version : int;
      data : Blockdev.Block.t;
      carried_w : Types.Int_set.t;
          (** the writer's current was-available estimate (Section 3.2's
              delayed propagation); empty and ignored outside AC *)
    }
  | Write_ack of { rid : int; block : Blockdev.Block.id }
  | Block_request of { rid : int; block : Blockdev.Block.id }
      (** voting read: pull a newer copy from the best respondent *)
  | Block_transfer of {
      rid : int;
      block : Blockdev.Block.id;
      version : int;
      data : Blockdev.Block.t;
    }
  | Recovery_probe of { rid : int; info : site_info }
      (** "who is out there, and in what state?" — carries the prober's own
          info so operational receivers can update their caches too *)
  | Recovery_reply of { rid : int; info : site_info }
  | Vv_send of { rid : int; versions : Blockdev.Version_vector.t; w_of_sender : Types.Int_set.t }
      (** recovering site ships its version vector (W piggybacked, cf. the
          [send(t, W_s)] of Figure 5) *)
  | Vv_reply of {
      rid : int;
      versions : Blockdev.Version_vector.t;
      updates : (Blockdev.Block.id * int * Blockdev.Block.t) list;
      w_of_source : Types.Int_set.t;
    }
  | Group_fix of { block : Blockdev.Block.id; version : int; group : Types.Int_set.t }
      (** dynamic voting: after an update round in which some tentative
          group member failed to acknowledge, the coordinator publishes
          the group that actually applied the write, so recorded
          cardinalities match reality *)
  | Batch_vote_request of {
      rid : int;
      blocks : Blockdev.Block.id list;
      purpose : Net.Message.operation;
    }
      (** group commit: one vote collection covering every block of a
          batch — the k-block analogue of [Vote_request], accounted to the
          same category with a size that grows with the batch *)
  | Batch_vote_reply of {
      rid : int;
      votes : (Blockdev.Block.id * int) list;  (** (block, version) pairs *)
      weight : int;
      group_size : int;
    }
  | Batch_update of {
      rid : int option;  (** as in [Block_update]: [Some] iff acked (AC) *)
      writes : (Blockdev.Block.id * int * Blockdev.Block.t) list;
      carried_w : Types.Int_set.t;
    }
      (** group commit: one update multicast carrying a whole batch of
          (block, version, data) writes *)
  | Batch_ack of { rid : int; blocks : Blockdev.Block.id list }

val category : t -> Net.Message.category
(** Batch messages account to the category of their single-block
    counterpart ([Batch_update] to [Block_update], and so on): a batch is
    {e one} high-level transmission whose {!size} grows with the blocks it
    carries, which is exactly what keeps the Section 5 message counts
    honest under group commit. *)

val size : t -> int
(** {e Measured} wire size in bytes: the exact length of the frame
    {!encode} produces, computed by a counting pass over the encoder
    arms — no allocation, no shared scratch state (safe from sharded
    bench lanes).  Drives the byte-level traffic comparison of
    Section 5. *)

val model_size : t -> int
(** The legacy analytic size model (32-byte header, 4 bytes per integer
    or set member, full {!Blockdev.Block.size} per block carried).
    Retained only as a cross-check against {!size}; the documented
    per-category tolerance is asserted in [test_traffic_counts]. *)

(** {2 Binary codec}

    Each message is one checksummed {!Codec.Frame} whose payload is a
    varint constructor tag followed by the fields in declaration order
    (varint integers, single-byte enums, length-prefixed collections,
    raw [Block.size]-byte block payloads). *)

module Tag : sig
  (** One constant constructor per {!t} constructor — the codec's wire
      discriminant.  The decoder dispatches over [Tag.t] with one arm
      per tag and no catch-all, which blockrep-lint's wire-exhaustive
      rule checks alongside the compiler. *)
  type t =
    | Vote_request
    | Vote_reply
    | Block_update
    | Write_ack
    | Block_request
    | Block_transfer
    | Recovery_probe
    | Recovery_reply
    | Vv_send
    | Vv_reply
    | Group_fix
    | Batch_vote_request
    | Batch_vote_reply
    | Batch_update
    | Batch_ack

  val to_int : t -> int
  (** Stable on-the-wire tag code, 1–15 in declaration order. *)

  val of_int : int -> t option
  (** [None] for any code outside 1–15. *)
end

val tag_of : t -> Tag.t
(** The codec tag of a message (lint-checked: every constructor mapped
    exactly once). *)

val encode : t -> Bytes.t
(** Encode into one checksummed frame: a counting pass sizes the
    buffer, a writing pass fills it — a single allocation, no
    intermediate values. *)

type decode_error =
  | Frame_error of Codec.Frame.error
      (** Truncated/oversized frame, bad magic, or CRC mismatch —
          detected before any payload byte is interpreted. *)
  | Bad_tag of int  (** Unknown constructor tag. *)
  | Malformed of string
      (** Payload structure invalid: truncated fields, bad enum codes,
          over-long lists, or trailing payload bytes. *)

val decode_error_to_string : decode_error -> string

val decode : Bytes.t -> (t, decode_error) result
(** Decode exactly one frame.  Never raises: every corruption mode maps
    to a typed error, which is what lets the durable journal and the
    byte-accurate media chaos rely on decode verdicts. *)

val reject_of_error : decode_error -> Net.Message.reject
(** Map a decoder error onto the transport's codec-agnostic reject
    taxonomy (frame envelope errors to their classes, [Bad_tag] and
    [Malformed] to theirs). *)

val decode_frame : Bytes.t -> (t, Net.Message.reject) result
(** [decode] with errors mapped through {!reject_of_error} — this is
    what makes [Wire] satisfy {!Net.Network.PAYLOAD} for encoded
    delivery. *)

val rid : t -> int option
(** The correlation id, when the message participates in a round. *)

val describe : t -> string
(** One-line rendering for logs. *)
