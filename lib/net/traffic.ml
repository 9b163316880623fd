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

type t = {
  cells : int array; (* n_operations * n_categories transmission counts *)
  byte_cells : int array; (* parallel payload-byte totals *)
}

let create () =
  let size = n_operations * n_categories in
  { cells = Array.make size 0; byte_cells = Array.make size 0 }

let reset t =
  Array.fill t.cells 0 (Array.length t.cells) 0;
  Array.fill t.byte_cells 0 (Array.length t.byte_cells) 0

let cell_index op cat = (operation_index op * n_categories) + category_index cat

let record t ?(bytes = 0) op cat k =
  if k < 0 then invalid_arg "Traffic.record: negative count";
  if bytes < 0 then invalid_arg "Traffic.record: negative bytes";
  let i = cell_index op cat in
  t.cells.(i) <- t.cells.(i) + k;
  t.byte_cells.(i) <- t.byte_cells.(i) + bytes

let accumulate ~into src =
  (* Both tables have the same fixed geometry, so cell-wise addition is
     the whole merge: folding per-lane tables in lane order gives the
     totals of one unsharded run. *)
  for i = 0 to Array.length into.cells - 1 do
    into.cells.(i) <- into.cells.(i) + src.cells.(i);
    into.byte_cells.(i) <- into.byte_cells.(i) + src.byte_cells.(i)
  done

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
  Format.fprintf ppf "total %d transmissions, %d payload bytes@]" (total t) (total_bytes t)
