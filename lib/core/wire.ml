type site_info = {
  origin : int;
  state : Types.site_state;
  versions : Blockdev.Version_vector.t;
  was_available : Types.Int_set.t;
}

type t =
  | Vote_request of { rid : int; block : Blockdev.Block.id; purpose : Net.Message.operation }
  | Vote_reply of {
      rid : int;
      block : Blockdev.Block.id;
      version : int;
      weight : int;
      group_size : int;
    }
  | Block_update of {
      rid : int option;
      block : Blockdev.Block.id;
      version : int;
      data : Blockdev.Block.t;
      carried_w : Types.Int_set.t;
    }
  | Write_ack of { rid : int; block : Blockdev.Block.id }
  | Block_request of { rid : int; block : Blockdev.Block.id }
  | Block_transfer of {
      rid : int;
      block : Blockdev.Block.id;
      version : int;
      data : Blockdev.Block.t;
    }
  | Recovery_probe of { rid : int; info : site_info }
  | Recovery_reply of { rid : int; info : site_info }
  | Vv_send of { rid : int; versions : Blockdev.Version_vector.t; w_of_sender : Types.Int_set.t }
  | Vv_reply of {
      rid : int;
      versions : Blockdev.Version_vector.t;
      updates : (Blockdev.Block.id * int * Blockdev.Block.t) list;
      w_of_source : Types.Int_set.t;
    }
  | Group_fix of { block : Blockdev.Block.id; version : int; group : Types.Int_set.t }
  | Batch_vote_request of {
      rid : int;
      blocks : Blockdev.Block.id list;
      purpose : Net.Message.operation;
    }
  | Batch_vote_reply of {
      rid : int;
      votes : (Blockdev.Block.id * int) list;
      weight : int;
      group_size : int;
    }
  | Batch_update of {
      rid : int option;
      writes : (Blockdev.Block.id * int * Blockdev.Block.t) list;
      carried_w : Types.Int_set.t;
    }
  | Batch_ack of { rid : int; blocks : Blockdev.Block.id list }

let category = function
  | Vote_request _ -> Net.Message.Vote_request
  | Vote_reply _ -> Net.Message.Vote_reply
  | Block_update _ -> Net.Message.Block_update
  | Write_ack _ -> Net.Message.Write_ack
  | Block_request _ -> Net.Message.Block_request
  | Block_transfer _ -> Net.Message.Block_transfer
  | Recovery_probe _ -> Net.Message.Recovery_probe
  | Recovery_reply _ -> Net.Message.Recovery_reply
  | Vv_send _ -> Net.Message.Version_vector_send
  | Vv_reply _ -> Net.Message.Version_vector_reply
  | Group_fix _ -> Net.Message.Was_available_update
  (* Batch messages are one transmission of the same category as their
     single-block counterpart; only their size grows with the batch. *)
  | Batch_vote_request _ -> Net.Message.Vote_request
  | Batch_vote_reply _ -> Net.Message.Vote_reply
  | Batch_update _ -> Net.Message.Block_update
  | Batch_ack _ -> Net.Message.Write_ack

(* Binary codec.

   Every message is one {!Codec.Frame} (9-byte header: magic, payload
   length, CRC-32) whose payload starts with a varint constructor tag
   followed by the fields in declaration order.  Integers are varints,
   enums single bytes, sets/vectors/lists length-prefixed, block
   payloads raw [Block.size] bytes.  The encoder arms below serve both
   [size] (counting pass — measured, allocation-free, domain-safe) and
   [encode] (one exactly-sized allocation); [decode] validates frame
   length and CRC before any payload decoding and returns typed errors,
   never raising. *)

module B = Codec.Buf

module Tag = struct
  (* One constant constructor per [Wire.t] constructor.  [tag_of] is
     lint-checked (charging rule) to map every wire constructor to a
     tag exactly once, and the decoder's dispatch over [Tag.t] is
     wire-exhaustiveness-checked like any other wire dispatch — so a
     new message cannot silently skip the codec. *)
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

  let to_int = function
    | Vote_request -> 1
    | Vote_reply -> 2
    | Block_update -> 3
    | Write_ack -> 4
    | Block_request -> 5
    | Block_transfer -> 6
    | Recovery_probe -> 7
    | Recovery_reply -> 8
    | Vv_send -> 9
    | Vv_reply -> 10
    | Group_fix -> 11
    | Batch_vote_request -> 12
    | Batch_vote_reply -> 13
    | Batch_update -> 14
    | Batch_ack -> 15

  let of_int = function
    | 1 -> Some Vote_request
    | 2 -> Some Vote_reply
    | 3 -> Some Block_update
    | 4 -> Some Write_ack
    | 5 -> Some Block_request
    | 6 -> Some Block_transfer
    | 7 -> Some Recovery_probe
    | 8 -> Some Recovery_reply
    | 9 -> Some Vv_send
    | 10 -> Some Vv_reply
    | 11 -> Some Group_fix
    | 12 -> Some Batch_vote_request
    | 13 -> Some Batch_vote_reply
    | 14 -> Some Batch_update
    | 15 -> Some Batch_ack
    | _ -> None
end

let tag_of = function
  | Vote_request _ -> Tag.Vote_request
  | Vote_reply _ -> Tag.Vote_reply
  | Block_update _ -> Tag.Block_update
  | Write_ack _ -> Tag.Write_ack
  | Block_request _ -> Tag.Block_request
  | Block_transfer _ -> Tag.Block_transfer
  | Recovery_probe _ -> Tag.Recovery_probe
  | Recovery_reply _ -> Tag.Recovery_reply
  | Vv_send _ -> Tag.Vv_send
  | Vv_reply _ -> Tag.Vv_reply
  | Group_fix _ -> Tag.Group_fix
  | Batch_vote_request _ -> Tag.Batch_vote_request
  | Batch_vote_reply _ -> Tag.Batch_vote_reply
  | Batch_update _ -> Tag.Batch_update
  | Batch_ack _ -> Tag.Batch_ack

(* Field emitters, shared by the counting and writing passes. *)

let put_operation w (op : Net.Message.operation) =
  B.u8 w
    (match op with
    | Net.Message.Read -> 0
    | Net.Message.Write -> 1
    | Net.Message.Recovery -> 2
    | Net.Message.Repair -> 3)

let put_state w (s : Types.site_state) =
  B.u8 w (match s with Types.Failed -> 0 | Types.Comatose -> 1 | Types.Available -> 2)

(* [None] is 0; [Some r] is [r + 1] — rids are non-negative. *)
let put_rid_opt w = function None -> B.varint w 0 | Some r -> B.varint w (r + 1)

let put_set w s =
  B.varint w (Types.Int_set.cardinal s);
  Types.Int_set.iter (fun x -> B.varint w x) s

let put_vv w v =
  let n = Blockdev.Version_vector.length v in
  B.varint w n;
  for i = 0 to n - 1 do
    B.varint w (Blockdev.Version_vector.get v i)
  done

(* [Block.to_string] is the identity on the immutable representation —
   no copy on the encode hot path. *)
let put_block w (data : Blockdev.Block.t) = B.raw_string w (Blockdev.Block.to_string data)

let put_info w (info : site_info) =
  B.varint w info.origin;
  put_state w info.state;
  put_vv w info.versions;
  put_set w info.was_available

let put_blocks w blocks =
  B.varint w (List.length blocks);
  List.iter (fun b -> B.varint w b) blocks

let put_votes w votes =
  B.varint w (List.length votes);
  List.iter
    (fun (b, v) ->
      B.varint w b;
      B.varint w v)
    votes

let put_writes w writes =
  B.varint w (List.length writes);
  List.iter
    (fun (b, v, data) ->
      B.varint w b;
      B.varint w v;
      put_block w data)
    writes

(* The encoder dispatch: exactly one arm per constructor, no catch-all
   (enforced by warn-error 8 and blockrep-lint's wire-exhaustive rule). *)
let encode_fields w = function
  | Vote_request { rid; block; purpose } ->
      B.varint w rid;
      B.varint w block;
      put_operation w purpose
  | Vote_reply { rid; block; version; weight; group_size } ->
      B.varint w rid;
      B.varint w block;
      B.varint w version;
      B.varint w weight;
      B.varint w group_size
  | Block_update { rid; block; version; data; carried_w } ->
      put_rid_opt w rid;
      B.varint w block;
      B.varint w version;
      put_block w data;
      put_set w carried_w
  | Write_ack { rid; block } ->
      B.varint w rid;
      B.varint w block
  | Block_request { rid; block } ->
      B.varint w rid;
      B.varint w block
  | Block_transfer { rid; block; version; data } ->
      B.varint w rid;
      B.varint w block;
      B.varint w version;
      put_block w data
  | Recovery_probe { rid; info } ->
      B.varint w rid;
      put_info w info
  | Recovery_reply { rid; info } ->
      B.varint w rid;
      put_info w info
  | Vv_send { rid; versions; w_of_sender } ->
      B.varint w rid;
      put_vv w versions;
      put_set w w_of_sender
  | Vv_reply { rid; versions; updates; w_of_source } ->
      B.varint w rid;
      put_vv w versions;
      put_writes w updates;
      put_set w w_of_source
  | Group_fix { block; version; group } ->
      B.varint w block;
      B.varint w version;
      put_set w group
  | Batch_vote_request { rid; blocks; purpose } ->
      B.varint w rid;
      put_blocks w blocks;
      put_operation w purpose
  | Batch_vote_reply { rid; votes; weight; group_size } ->
      B.varint w rid;
      put_votes w votes;
      B.varint w weight;
      B.varint w group_size
  | Batch_update { rid; writes; carried_w } ->
      put_rid_opt w rid;
      put_writes w writes;
      put_set w carried_w
  | Batch_ack { rid; blocks } ->
      B.varint w rid;
      put_blocks w blocks

let encode_payload w m =
  B.varint w (Tag.to_int (tag_of m));
  encode_fields w m

let size m = Codec.Frame.encoded_size ~payload:(fun w -> encode_payload w m)
let encode m = Codec.Frame.encode ~payload:(fun w -> encode_payload w m)

(* Field readers.  These raise [B.Short]/[B.Bad] internally; [decode]
   catches both at the frame boundary and returns a typed error. *)

let get_operation r : Net.Message.operation =
  match B.r_u8 r with
  | 0 -> Net.Message.Read
  | 1 -> Net.Message.Write
  | 2 -> Net.Message.Recovery
  | 3 -> Net.Message.Repair
  | n -> raise (B.Bad (Printf.sprintf "bad operation code %d" n))

let get_state r : Types.site_state =
  match B.r_u8 r with
  | 0 -> Types.Failed
  | 1 -> Types.Comatose
  | 2 -> Types.Available
  | n -> raise (B.Bad (Printf.sprintf "bad site-state code %d" n))

let get_rid_opt r =
  match B.r_varint r with 0 -> None | n -> Some (n - 1)

(* Length sanity: every encoded element is at least one byte, so a
   declared length beyond the remaining payload is malformed — checked
   before allocating, to keep corrupt frames from forcing huge lists. *)
let get_len r =
  let n = B.r_varint r in
  if n < 0 || n > B.remaining r then raise (B.Bad "list length exceeds payload");
  n

let get_list r f =
  let n = get_len r in
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f r :: acc) in
  go n []

let get_set r =
  let n = get_len r in
  let rec go k acc = if k = 0 then acc else go (k - 1) (Types.Int_set.add (B.r_varint r) acc) in
  go n Types.Int_set.empty

let get_vv r =
  let n = get_len r in
  let v = Blockdev.Version_vector.create n in
  for i = 0 to n - 1 do
    Blockdev.Version_vector.set v i (B.r_varint r)
  done;
  v

let get_block r = Blockdev.Block.of_string (B.r_raw_string r Blockdev.Block.size)

let get_info r =
  let origin = B.r_varint r in
  let state = get_state r in
  let versions = get_vv r in
  let was_available = get_set r in
  { origin; state; versions; was_available }

let get_blocks r = get_list r B.r_varint

let get_votes r =
  get_list r (fun r ->
      let b = B.r_varint r in
      let v = B.r_varint r in
      (b, v))

let get_writes r =
  get_list r (fun r ->
      let b = B.r_varint r in
      let v = B.r_varint r in
      let data = get_block r in
      (b, v, data))

(* The decoder dispatch: exactly one arm per tag, no catch-all — the
   mirror image of [encode_fields], lint-checked the same way. *)
let decode_fields r (tag : Tag.t) =
  match tag with
  | Tag.Vote_request ->
      let rid = B.r_varint r in
      let block = B.r_varint r in
      let purpose = get_operation r in
      Vote_request { rid; block; purpose }
  | Tag.Vote_reply ->
      let rid = B.r_varint r in
      let block = B.r_varint r in
      let version = B.r_varint r in
      let weight = B.r_varint r in
      let group_size = B.r_varint r in
      Vote_reply { rid; block; version; weight; group_size }
  | Tag.Block_update ->
      let rid = get_rid_opt r in
      let block = B.r_varint r in
      let version = B.r_varint r in
      let data = get_block r in
      let carried_w = get_set r in
      Block_update { rid; block; version; data; carried_w }
  | Tag.Write_ack ->
      let rid = B.r_varint r in
      let block = B.r_varint r in
      Write_ack { rid; block }
  | Tag.Block_request ->
      let rid = B.r_varint r in
      let block = B.r_varint r in
      Block_request { rid; block }
  | Tag.Block_transfer ->
      let rid = B.r_varint r in
      let block = B.r_varint r in
      let version = B.r_varint r in
      let data = get_block r in
      Block_transfer { rid; block; version; data }
  | Tag.Recovery_probe ->
      let rid = B.r_varint r in
      let info = get_info r in
      Recovery_probe { rid; info }
  | Tag.Recovery_reply ->
      let rid = B.r_varint r in
      let info = get_info r in
      Recovery_reply { rid; info }
  | Tag.Vv_send ->
      let rid = B.r_varint r in
      let versions = get_vv r in
      let w_of_sender = get_set r in
      Vv_send { rid; versions; w_of_sender }
  | Tag.Vv_reply ->
      let rid = B.r_varint r in
      let versions = get_vv r in
      let updates = get_writes r in
      let w_of_source = get_set r in
      Vv_reply { rid; versions; updates; w_of_source }
  | Tag.Group_fix ->
      let block = B.r_varint r in
      let version = B.r_varint r in
      let group = get_set r in
      Group_fix { block; version; group }
  | Tag.Batch_vote_request ->
      let rid = B.r_varint r in
      let blocks = get_blocks r in
      let purpose = get_operation r in
      Batch_vote_request { rid; blocks; purpose }
  | Tag.Batch_vote_reply ->
      let rid = B.r_varint r in
      let votes = get_votes r in
      let weight = B.r_varint r in
      let group_size = B.r_varint r in
      Batch_vote_reply { rid; votes; weight; group_size }
  | Tag.Batch_update ->
      let rid = get_rid_opt r in
      let writes = get_writes r in
      let carried_w = get_set r in
      Batch_update { rid; writes; carried_w }
  | Tag.Batch_ack ->
      let rid = B.r_varint r in
      let blocks = get_blocks r in
      Batch_ack { rid; blocks }

type decode_error =
  | Frame_error of Codec.Frame.error
  | Bad_tag of int
  | Malformed of string

let decode_error_to_string = function
  | Frame_error e -> Format.asprintf "%a" Codec.Frame.pp_error e
  | Bad_tag n -> Printf.sprintf "unknown wire tag %d" n
  | Malformed msg -> Printf.sprintf "malformed payload: %s" msg

let decode buf =
  match Codec.Frame.decode buf with
  | Error e -> Error (Frame_error e)
  | Ok r -> (
      match
        let code = B.r_varint r in
        match Tag.of_int code with
        | None -> Error (Bad_tag code)
        | Some tag ->
            let m = decode_fields r tag in
            if B.at_end r then Ok m else Error (Malformed "trailing payload bytes")
      with
      | result -> result
      | exception B.Short -> Error (Malformed "payload truncated")
      | exception B.Bad msg -> Error (Malformed msg))

let reject_of_error = function
  | Frame_error (Codec.Frame.Truncated _) -> Net.Message.Reject_truncated
  | Frame_error (Codec.Frame.Bad_magic _) -> Net.Message.Reject_bad_magic
  | Frame_error (Codec.Frame.Trailing _) -> Net.Message.Reject_trailing
  | Frame_error (Codec.Frame.Crc_mismatch _) -> Net.Message.Reject_crc
  | Bad_tag _ -> Net.Message.Reject_bad_tag
  | Malformed _ -> Net.Message.Reject_malformed

let decode_frame buf = Result.map_error reject_of_error (decode buf)

let rid = function
  | Vote_request { rid; _ }
  | Vote_reply { rid; _ }
  | Write_ack { rid; _ }
  | Block_request { rid; _ }
  | Block_transfer { rid; _ }
  | Recovery_probe { rid; _ }
  | Recovery_reply { rid; _ }
  | Vv_send { rid; _ }
  | Vv_reply { rid; _ }
  | Batch_vote_request { rid; _ }
  | Batch_vote_reply { rid; _ }
  | Batch_ack { rid; _ } ->
      Some rid
  | Block_update { rid; _ } | Batch_update { rid; _ } -> rid
  | Group_fix _ -> None

let describe = function
  | Vote_request { rid; block; purpose } ->
      Printf.sprintf "vote-request(rid=%d, block=%d, %s)" rid block
        (Net.Message.operation_to_string purpose)
  | Vote_reply { rid; block; version; weight; group_size } ->
      Printf.sprintf "vote-reply(rid=%d, block=%d, v=%d, w=%d, g=%d)" rid block version weight
        group_size
  | Block_update { block; version; _ } -> Printf.sprintf "block-update(block=%d, v=%d)" block version
  | Write_ack { rid; block } -> Printf.sprintf "write-ack(rid=%d, block=%d)" rid block
  | Block_request { rid; block } -> Printf.sprintf "block-request(rid=%d, block=%d)" rid block
  | Block_transfer { rid; block; version; _ } ->
      Printf.sprintf "block-transfer(rid=%d, block=%d, v=%d)" rid block version
  | Recovery_probe { rid; info } -> Printf.sprintf "recovery-probe(rid=%d, from=%d)" rid info.origin
  | Recovery_reply { rid; info } -> Printf.sprintf "recovery-reply(rid=%d, from=%d)" rid info.origin
  | Vv_send { rid; _ } -> Printf.sprintf "vv-send(rid=%d)" rid
  | Vv_reply { rid; updates; _ } -> Printf.sprintf "vv-reply(rid=%d, %d updates)" rid (List.length updates)
  | Group_fix { block; version; group } ->
      Printf.sprintf "group-fix(block=%d, v=%d, |g|=%d)" block version (Types.Int_set.cardinal group)
  | Batch_vote_request { rid; blocks; purpose } ->
      Printf.sprintf "batch-vote-request(rid=%d, %d blocks, %s)" rid (List.length blocks)
        (Net.Message.operation_to_string purpose)
  | Batch_vote_reply { rid; votes; weight; _ } ->
      Printf.sprintf "batch-vote-reply(rid=%d, %d votes, w=%d)" rid (List.length votes) weight
  | Batch_update { writes; _ } -> Printf.sprintf "batch-update(%d writes)" (List.length writes)
  | Batch_ack { rid; blocks } -> Printf.sprintf "batch-ack(rid=%d, %d blocks)" rid (List.length blocks)
