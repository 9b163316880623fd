module Durable = Blockdev.Durable_store
module Block = Blockdev.Block
module Int_set = Types.Int_set

let magic = "BRCKPT1\n"

let ( let* ) = Result.bind

let state_to_char = function Types.Failed -> 'F' | Types.Comatose -> 'C' | Types.Available -> 'A'

let state_of_char = function
  | 'F' -> Some Types.Failed
  | 'C' -> Some Types.Comatose
  | 'A' -> Some Types.Available
  | _ -> None

let scheme_code = function
  | Types.Voting -> 'V'
  | Types.Available_copy -> 'A'
  | Types.Naive_available_copy -> 'N'
  | Types.Dynamic_voting -> 'D'

let write_u32 oc v =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int v);
  output_bytes oc b

let read_u32 ic =
  match really_input_string ic 4 with
  | exception End_of_file -> Error "truncated checkpoint"
  | s ->
      let v = Int32.to_int (Bytes.get_int32_be (Bytes.of_string s) 0) in
      if v < 0 then Error "corrupt integer field" else Ok v

let read_char ic =
  match input_char ic with exception End_of_file -> Error "truncated checkpoint" | c -> Ok c

(* The first (site, block) whose copy is quarantined, in site order. *)
let first_quarantined rt n_blocks =
  Array.to_list (Runtime.sites rt)
  |> List.find_map (fun (s : Runtime.site) ->
         List.init n_blocks Fun.id
         |> List.find_opt (fun k -> not (Durable.checksum_ok s.Runtime.durable k))
         |> Option.map (fun k -> (s.Runtime.id, k)))

let save cluster path =
  let rt = Cluster.runtime cluster in
  let config = Cluster.config cluster in
  let* () =
    if config.Config.scheme = Types.Dynamic_voting then
      (* The dynamic scheme keeps per-block group records outside the store;
         checkpointing it is not supported yet. *)
      Error "checkpointing a dynamic-voting cluster is not supported"
    else
      (* Restore seals everything it installs, so a quarantined copy would
         come back verified: only verified state may be saved. *)
      match first_quarantined rt config.Config.n_blocks with
      | Some (site, block) ->
          Error
            (Printf.sprintf "site %d holds a quarantined copy of block %d; repair it before saving"
               site block)
      | None -> Ok ()
  in
  match open_out_bin path with
  | exception Sys_error msg -> Error msg
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc magic;
          output_char oc (scheme_code config.Config.scheme);
          write_u32 oc config.Config.n_sites;
          write_u32 oc config.Config.n_blocks;
          Array.iter
            (fun (s : Runtime.site) ->
              output_char oc (state_to_char s.Runtime.state);
              write_u32 oc (Int_set.cardinal s.Runtime.w);
              Int_set.iter (write_u32 oc) s.Runtime.w;
              for k = 0 to config.Config.n_blocks - 1 do
                let version, data = Durable.serve s.Runtime.durable k in
                write_u32 oc version;
                output_string oc (Block.to_string data)
              done)
            (Runtime.sites rt);
          Ok ())

let restore cluster path =
  let rt = Cluster.runtime cluster in
  let config = Cluster.config cluster in
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let* () =
            match really_input_string ic (String.length magic) with
            | exception End_of_file -> Error "truncated checkpoint"
            | m when m <> magic -> Error "not a checkpoint file"
            | _ -> Ok ()
          in
          let* code = read_char ic in
          if code <> scheme_code config.Config.scheme then Error "checkpoint is for another scheme"
          else
            let* n_sites = read_u32 ic in
            let* n_blocks = read_u32 ic in
            if n_sites <> config.Config.n_sites || n_blocks <> config.Config.n_blocks then
              Error "checkpoint geometry does not match the cluster"
            else begin
              (* Refuse to restore over used state: versions never regress. *)
              let fresh =
                Array.for_all
                  (fun (s : Runtime.site) ->
                    let rec all_zero k =
                      k >= n_blocks || (Durable.version s.Runtime.durable k = 0 && all_zero (k + 1))
                    in
                    all_zero 0)
                  (Runtime.sites rt)
              in
              if not fresh then Error "restore target must be a freshly created cluster"
              else begin
                let rec restore_site i =
                  if i >= n_sites then Ok ()
                  else begin
                    let s = Runtime.site rt i in
                    let* state_char = read_char ic in
                    let* state =
                      match state_of_char state_char with
                      | Some st -> Ok st
                      | None -> Error "corrupt site state"
                    in
                    let* w_count = read_u32 ic in
                    let rec read_w k acc =
                      if k = 0 then Ok acc
                      else
                        let* v = read_u32 ic in
                        read_w (k - 1) (Int_set.add v acc)
                    in
                    let* w = read_w w_count Int_set.empty in
                    let rec read_blocks k acc =
                      if k >= n_blocks then Ok acc
                      else
                        let* version = read_u32 ic in
                        match really_input_string ic Block.size with
                        | exception End_of_file -> Error "truncated checkpoint"
                        | raw -> read_blocks (k + 1) ((k, version, Block.of_string raw) :: acc)
                    in
                    let* blocks = read_blocks 0 [] in
                    (* The fresh disk takes every saved copy as verified data;
                       W goes through set_w so the on-disk record matches. *)
                    Durable.apply_updates s.Runtime.durable blocks;
                    Runtime.set_w rt i w;
                    Runtime.Transport.set_up (Runtime.net rt) i (state <> Types.Failed);
                    Runtime.set_state rt i state;
                    restore_site (i + 1)
                  end
                in
                restore_site 0
              end
            end)
