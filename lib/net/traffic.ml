let category_index = function
  | Message.Vote_request -> 0
  | Message.Vote_reply -> 1
  | Message.Block_update -> 2
  | Message.Write_ack -> 3
  | Message.Block_request -> 4
  | Message.Block_transfer -> 5
  | Message.Recovery_probe -> 6
  | Message.Recovery_reply -> 7
  | Message.Version_vector_send -> 8
  | Message.Version_vector_reply -> 9
  | Message.Was_available_update -> 10

let operation_index = function
  | Message.Read -> 0
  | Message.Write -> 1
  | Message.Recovery -> 2
  | Message.Repair -> 3

let n_categories = List.length Message.all
let n_operations = List.length Message.all_operations

let reject_index = function
  | Message.Reject_truncated -> 0
  | Message.Reject_bad_magic -> 1
  | Message.Reject_trailing -> 2
  | Message.Reject_crc -> 3
  | Message.Reject_bad_tag -> 4
  | Message.Reject_malformed -> 5

let n_rejects = List.length Message.all_rejects

type t = {
  cells : int array; (* n_operations * n_categories transmission counts *)
  byte_cells : int array; (* parallel payload-byte totals *)
  reject_cells : int array; (* per-class rejected-frame counts at ingress *)
  mutable quarantined : int; (* frames discarded undecoded by quarantine *)
}

let create () =
  let size = n_operations * n_categories in
  {
    cells = Array.make size 0;
    byte_cells = Array.make size 0;
    reject_cells = Array.make n_rejects 0;
    quarantined = 0;
  }

let reset t =
  Array.fill t.cells 0 (Array.length t.cells) 0;
  Array.fill t.byte_cells 0 (Array.length t.byte_cells) 0;
  Array.fill t.reject_cells 0 (Array.length t.reject_cells) 0;
  t.quarantined <- 0

let cell_index op cat = (operation_index op * n_categories) + category_index cat

let record t ?(bytes = 0) op cat k =
  if k < 0 then invalid_arg "Traffic.record: negative count";
  if bytes < 0 then invalid_arg "Traffic.record: negative bytes";
  let i = cell_index op cat in
  t.cells.(i) <- t.cells.(i) + k;
  t.byte_cells.(i) <- t.byte_cells.(i) + bytes

let record_rejected t reject =
  let i = reject_index reject in
  t.reject_cells.(i) <- t.reject_cells.(i) + 1

let record_quarantined t = t.quarantined <- t.quarantined + 1
let rejected_of t reject = t.reject_cells.(reject_index reject)
let frames_rejected t = Array.fold_left ( + ) 0 t.reject_cells
let frames_quarantined t = t.quarantined

let rejected_snapshot t =
  List.filter_map
    (fun r ->
      let k = rejected_of t r in
      if k = 0 then None else Some (r, k))
    Message.all_rejects

let accumulate ~into src =
  (* Both tables have the same fixed geometry, so cell-wise addition is
     the whole merge: folding per-lane tables in lane order gives the
     totals of one unsharded run. *)
  for i = 0 to Array.length into.cells - 1 do
    into.cells.(i) <- into.cells.(i) + src.cells.(i);
    into.byte_cells.(i) <- into.byte_cells.(i) + src.byte_cells.(i)
  done;
  for i = 0 to Array.length into.reject_cells - 1 do
    into.reject_cells.(i) <- into.reject_cells.(i) + src.reject_cells.(i)
  done;
  into.quarantined <- into.quarantined + src.quarantined

let total t = Array.fold_left ( + ) 0 t.cells
let total_bytes t = Array.fold_left ( + ) 0 t.byte_cells

let by_category t cat =
  List.fold_left (fun acc op -> acc + t.cells.(cell_index op cat)) 0 Message.all_operations

let by_operation t op =
  List.fold_left (fun acc cat -> acc + t.cells.(cell_index op cat)) 0 Message.all

let bytes_by_operation t op =
  List.fold_left (fun acc cat -> acc + t.byte_cells.(cell_index op cat)) 0 Message.all

let of_cell t op cat = t.cells.(cell_index op cat)
let bytes_of_cell t op cat = t.byte_cells.(cell_index op cat)

let snapshot t =
  List.concat_map
    (fun op ->
      List.filter_map
        (fun cat ->
          let k = of_cell t op cat in
          if k = 0 then None else Some (op, cat, k))
        Message.all)
    Message.all_operations

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (op, cat, k) ->
      Format.fprintf ppf "%-8s %-22s %6d  %8d B@," (Message.operation_to_string op)
        (Message.to_string cat) k
        (bytes_of_cell t op cat))
    (snapshot t);
  List.iter
    (fun (r, k) ->
      Format.fprintf ppf "rejected %-22s %6d@," (Message.reject_to_string r) k)
    (rejected_snapshot t);
  if t.quarantined > 0 then Format.fprintf ppf "quarantined %6d@," t.quarantined;
  Format.fprintf ppf "total %d transmissions, %d payload bytes@]" (total t) (total_bytes t)
