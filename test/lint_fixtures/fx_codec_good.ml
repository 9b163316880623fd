(* Expected findings: none.  Codec-side counterparts of fx_wire_good:
   a full-width dispatch over the frame-tag enumeration with no
   wildcard, and a tag-charging function (named in the test config)
   that maps every wire constructor to a constant tag. *)

open Blockrep

let tag_byte = function
  | Wire.Tag.Vote_request -> 'a'
  | Wire.Tag.Vote_reply -> 'b'
  | Wire.Tag.Block_update -> 'c'
  | Wire.Tag.Write_ack -> 'd'
  | Wire.Tag.Block_request -> 'e'
  | Wire.Tag.Block_transfer -> 'f'
  | Wire.Tag.Recovery_probe -> 'g'
  | Wire.Tag.Recovery_reply -> 'h'
  | Wire.Tag.Vv_send -> 'i'
  | Wire.Tag.Vv_reply -> 'j'
  | Wire.Tag.Group_fix -> 'k'
  | Wire.Tag.Batch_vote_request -> 'l'
  | Wire.Tag.Batch_vote_reply -> 'm'
  | Wire.Tag.Batch_update -> 'n'
  | Wire.Tag.Batch_ack -> 'o'

let good_tag_of : Wire.t -> Wire.Tag.t = function
  | Wire.Vote_request _ -> Wire.Tag.Vote_request
  | Wire.Vote_reply _ -> Wire.Tag.Vote_reply
  | Wire.Block_update _ -> Wire.Tag.Block_update
  | Wire.Write_ack _ -> Wire.Tag.Write_ack
  | Wire.Block_request _ -> Wire.Tag.Block_request
  | Wire.Block_transfer _ -> Wire.Tag.Block_transfer
  | Wire.Recovery_probe _ -> Wire.Tag.Recovery_probe
  | Wire.Recovery_reply _ -> Wire.Tag.Recovery_reply
  | Wire.Vv_send _ -> Wire.Tag.Vv_send
  | Wire.Vv_reply _ -> Wire.Tag.Vv_reply
  | Wire.Group_fix _ -> Wire.Tag.Group_fix
  | Wire.Batch_vote_request _ -> Wire.Tag.Batch_vote_request
  | Wire.Batch_vote_reply _ -> Wire.Tag.Batch_vote_reply
  | Wire.Batch_update _ -> Wire.Tag.Batch_update
  | Wire.Batch_ack _ -> Wire.Tag.Batch_ack
