type kind = Blockrep.Driver_stub.kind = Read | Write

type entry = {
  id : int;
  kind : kind;
  block : int;
  site : int;
  invoked : float;
  responded : float;
  payload : Blockdev.Block.t option;
  version : int option;
  error : string option;
}

let ok e = e.error = None

type t = { mutable rev_entries : entry list; mutable n : int }

let create () = { rev_entries = []; n = 0 }

let record t ~kind ~block ~site ~invoked ~responded ?payload ?version ?error () =
  let entry = { id = t.n; kind; block; site; invoked; responded; payload; version; error } in
  t.rev_entries <- entry :: t.rev_entries;
  t.n <- t.n + 1

let attach_stub t stub =
  Blockrep.Driver_stub.add_observer stub (fun (v : Blockrep.Driver_stub.op_view) ->
      record t ~kind:v.kind ~block:v.block ~site:v.site ~invoked:v.invoked
        ~responded:v.responded ?payload:v.payload ?version:v.version
        ?error:(Option.map Blockrep.Types.failure_reason_to_string v.error)
        ())

let length t = t.n
let entries t = List.rev t.rev_entries

let payload_brief = function
  | None -> "-"
  | Some b ->
      let s = Blockdev.Block.to_string b in
      let rec measure i = if i < String.length s && s.[i] <> '\000' then measure (i + 1) else i in
      String.sub s 0 (Int.min (measure 0) 16)

let pp_entry ppf e =
  Format.fprintf ppf "#%d %-5s block %d @ site %d [%.3f, %.3f] %s"
    e.id
    (match e.kind with Read -> "read" | Write -> "write")
    e.block e.site e.invoked e.responded
    (match (e.version, e.error) with
    | Some v, _ -> Printf.sprintf "-> v%d %S" v (payload_brief e.payload)
    | None, Some err -> "failed: " ^ err
    | None, None -> "failed")

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun e -> Format.fprintf ppf "%a@," pp_entry e) (entries t);
  Format.fprintf ppf "@]"
