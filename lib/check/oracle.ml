module Block = Blockdev.Block

type block_state = {
  bound : (int, Block.t) Hashtbl.t;  (** version -> payload, once established *)
  written : (string, int) Hashtbl.t;  (** payloads of invoked writes -> write id *)
  mutable floor : int;  (** largest committed version: baseline + ok writes *)
  mutable floor_src : string;
  mutable max_write : int;  (** largest successful-write version *)
  mutable last_read : int;  (** largest version observed by a read; -1 = none *)
  mutable last_read_id : int;
}

let state_for states ~baseline block =
  match Hashtbl.find_opt states block with
  | Some s -> s
  | None ->
      let bound = Hashtbl.create 16 in
      let base_version, base_payload = baseline block in
      Hashtbl.replace bound 0 Block.zero;
      Hashtbl.replace bound base_version base_payload;
      let s =
        {
          bound;
          written = Hashtbl.create 16;
          floor = base_version;
          floor_src =
            (if base_version = 0 then "the initial device"
             else Printf.sprintf "the baseline state (v%d)" base_version);
          max_write = base_version;
          last_read = -1;
          last_read_id = -1;
        }
      in
      Hashtbl.replace states block s;
      s

let default_baseline _ = (0, Block.zero)

let check ?(baseline = default_baseline) history =
  let states : (int, block_state) Hashtbl.t = Hashtbl.create 16 in
  let violations = ref [] in
  let add ~block ~time code detail = violations := Violation.make ~block ~code ~time detail :: !violations in
  let prev_responded = ref neg_infinity in
  let prev_interval = ref (neg_infinity, neg_infinity) in
  let seq_reported = ref false in
  List.iter
    (fun (e : History.entry) ->
      (* Per-block views of one batched request share the request's
         [invoked, responded] interval exactly — they are one operation,
         not concurrent clients — so only genuinely different overlapping
         intervals break sequentiality. *)
      let same_batch = !prev_interval = (e.invoked, e.responded) in
      if e.invoked < !prev_responded -. 1e-9 && (not same_batch) && not !seq_reported then begin
        seq_reported := true;
        add ~block:e.block ~time:e.invoked "non-sequential-history"
          (Printf.sprintf
             "operation #%d was invoked at %.3f, before the previous response at %.3f; the oracle \
              judges sequential (single-client) histories only"
             e.id e.invoked !prev_responded)
      end;
      prev_responded := Float.max !prev_responded e.responded;
      prev_interval := (e.invoked, e.responded);
      let s = state_for states ~baseline e.block in
      match e.kind with
      | History.Write -> (
          (match e.payload with
          | Some p ->
              if not (Hashtbl.mem s.written (Block.to_string p)) then
                Hashtbl.replace s.written (Block.to_string p) e.id
          | None -> ());
          match (e.version, e.payload) with
          | Some v, Some p ->
              (match Hashtbl.find_opt s.bound v with
              | Some p' when not (Block.equal p p') ->
                  add ~block:e.block ~time:e.responded "version-collision"
                    (Printf.sprintf
                       "write #%d was assigned version %d of block %d, but that version already \
                        holds different contents — two writes were committed under one version \
                        number"
                       e.id v e.block)
              | _ -> Hashtbl.replace s.bound v p);
              if v <= s.max_write then
                add ~block:e.block ~time:e.responded "write-version-regression"
                  (Printf.sprintf
                     "write #%d of block %d was assigned version %d, not above the version %d an \
                      earlier successful write already holds — the version order no longer \
                      matches the request order"
                     e.id e.block v s.max_write);
              s.max_write <- Int.max s.max_write v;
              if v > s.floor then begin
                s.floor <- v;
                s.floor_src <- Printf.sprintf "write #%d (committed v%d at t=%.3f)" e.id v e.responded
              end
          | _ -> ())
      | History.Read -> (
          match (e.version, e.payload) with
          | Some v, Some p ->
              if v < s.floor then
                add ~block:e.block ~time:e.responded "stale-read"
                  (Printf.sprintf
                     "read #%d at site %d returned version %d of block %d, but %s had already \
                      made version %d the current copy — a one-copy device can never serve the \
                      older state again"
                     e.id e.site v e.block s.floor_src s.floor)
              else if v < s.last_read then
                add ~block:e.block ~time:e.responded "read-regression"
                  (Printf.sprintf
                     "read #%d at site %d returned version %d of block %d, but read #%d had \
                      already observed version %d — the device forgot a state it had revealed"
                     e.id e.site v e.block s.last_read_id s.last_read);
              (match Hashtbl.find_opt s.bound v with
              | Some p' ->
                  if not (Block.equal p p') then
                    add ~block:e.block ~time:e.responded "read-value-conflict"
                      (Printf.sprintf
                         "read #%d returned contents for version %d of block %d that differ from \
                          the contents previously established for that version"
                         e.id v e.block)
              | None ->
                  if Hashtbl.mem s.written (Block.to_string p) then Hashtbl.replace s.bound v p
                  else
                    add ~block:e.block ~time:e.responded "phantom-read"
                      (Printf.sprintf
                         "read #%d returned version %d of block %d with contents no write ever \
                          produced"
                         e.id v e.block));
              if v > s.last_read then begin
                s.last_read <- v;
                s.last_read_id <- e.id
              end
          | _ -> ()))
    (History.entries history);
  List.rev !violations
