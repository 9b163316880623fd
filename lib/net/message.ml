type category =
  | Vote_request
  | Vote_reply
  | Block_update
  | Write_ack
  | Block_request
  | Block_transfer
  | Recovery_probe
  | Recovery_reply
  | Version_vector_send
  | Version_vector_reply
  | Was_available_update

let all =
  [
    Vote_request;
    Vote_reply;
    Block_update;
    Write_ack;
    Block_request;
    Block_transfer;
    Recovery_probe;
    Recovery_reply;
    Version_vector_send;
    Version_vector_reply;
    Was_available_update;
  ]

let to_string = function
  | Vote_request -> "vote-request"
  | Vote_reply -> "vote-reply"
  | Block_update -> "block-update"
  | Write_ack -> "write-ack"
  | Block_request -> "block-request"
  | Block_transfer -> "block-transfer"
  | Recovery_probe -> "recovery-probe"
  | Recovery_reply -> "recovery-reply"
  | Version_vector_send -> "version-vector-send"
  | Version_vector_reply -> "version-vector-reply"
  | Was_available_update -> "was-available-update"

type operation = Read | Write | Recovery | Repair

let operation_to_string = function
  | Read -> "read"
  | Write -> "write"
  | Recovery -> "recovery"
  | Repair -> "repair"

let all_operations = [ Read; Write; Recovery; Repair ]

type reject =
  | Reject_truncated
  | Reject_bad_magic
  | Reject_trailing
  | Reject_crc
  | Reject_bad_tag
  | Reject_malformed

let all_rejects =
  [
    Reject_truncated;
    Reject_bad_magic;
    Reject_trailing;
    Reject_crc;
    Reject_bad_tag;
    Reject_malformed;
  ]

let reject_to_string = function
  | Reject_truncated -> "truncated"
  | Reject_bad_magic -> "bad-magic"
  | Reject_trailing -> "trailing"
  | Reject_crc -> "crc"
  | Reject_bad_tag -> "bad-tag"
  | Reject_malformed -> "malformed"
