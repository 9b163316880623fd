(* Expected findings: none.  Full-width dispatch with no wildcard, and a
   charging function (named in the test config) that enumerates every
   constructor with a constant category on the right-hand side. *)

open Blockrep

type cat = Vote | Data | Ack | Control

let good_category : Wire.t -> cat = function
  | Wire.Vote_request _ | Wire.Batch_vote_request _ -> Vote
  | Wire.Vote_reply _ | Wire.Batch_vote_reply _ -> Vote
  | Wire.Block_update _ | Wire.Batch_update _ -> Data
  | Wire.Block_transfer _ -> Data
  | Wire.Write_ack _ | Wire.Batch_ack _ -> Ack
  | Wire.Block_request _ -> Control
  | Wire.Recovery_probe _ | Wire.Recovery_reply _ -> Control
  | Wire.Vv_send _ | Wire.Vv_reply _ -> Control
  | Wire.Group_fix _ -> Control
