(* Expected findings: 2x wire-exhaustive — a dispatch over enough
   frame-tag constructors to count as a codec dispatch but ending in a
   wildcard (a new wire message would silently fall through the
   decoder), and a tag-charging function (named in the test config)
   whose catch-all would silently hand a new constructor a default
   tag. *)

open Blockrep

let tag_name = function
  | Wire.Tag.Vote_request -> "vote-request"
  | Wire.Tag.Block_update -> "block-update"
  | Wire.Tag.Write_ack -> "write-ack"
  | Wire.Tag.Batch_ack -> "batch-ack"
  | _ -> "other"

(* Two distinct wire constructors: below the dispatch threshold, so
   only the charging rule fires here. *)
let bad_tag_of : Wire.t -> Wire.Tag.t = function
  | Wire.Vote_request _ -> Wire.Tag.Vote_request
  | Wire.Block_update _ -> Wire.Tag.Block_update
  | _ -> Wire.Tag.Group_fix
