type entry_kind = File | Directory

type entry = { name : string; kind : entry_kind }

type stats = { size : int; blocks_used : int; inode : int; kind : entry_kind }

let file_kind = Fs_core.file_kind
let dir_kind = Fs_core.dir_kind
let root_inode = 0
let dirent_size = Fs_core.dirent_size

let ( let* ) = Result.bind

(* "/a/b/" -> ["a"; "b"]; "" and "/" -> []. *)
let split_path path =
  String.split_on_char '/' path |> List.filter (fun c -> c <> "")

let kind_of_char c = if c = dir_kind then Directory else File

module Make (Dev : Blockdev.Device_intf.S) = struct
  module Core = Fs_core.Make (Dev)

  type t = Core.t

  let device = Core.device

  let format ?(n_inodes = 128) dev = Core.format ~n_inodes dev
  let mount = Core.mount

  (* ---------------------------------------------------------------- *)
  (* Directory primitives (work on any directory inode)                *)
  (* ---------------------------------------------------------------- *)

  let dir_contents t ino = Core.read_inode_range t ino ~offset:0 ~length:ino.Core.size

  let dir_entries t ino =
    let* contents = dir_contents t ino in
    let n = Bytes.length contents / dirent_size in
    let rec collect i acc =
      if i >= n then Ok (List.rev acc)
      else
        match Core.decode_dirent contents (i * dirent_size) with
        | Some entry -> collect (i + 1) ((i, entry) :: acc)
        | None -> collect (i + 1) acc
    in
    collect 0 []

  let dir_lookup t ino name =
    let* entries = dir_entries t ino in
    Ok (List.find_opt (fun (_, (entry_name, _)) -> String.equal entry_name name) entries)

  let dir_add t dir_idx ino name child =
    let* contents = dir_contents t ino in
    let n = Bytes.length contents / dirent_size in
    let rec first_free i =
      if i >= n then n
      else if Core.decode_dirent contents (i * dirent_size) = None then i
      else first_free (i + 1)
    in
    let slot = first_free 0 in
    let* _ino =
      Core.write_inode_range t dir_idx ino ~offset:(slot * dirent_size)
        (Core.encode_dirent name child)
    in
    Ok ()

  let dir_remove t dir_idx ino slot =
    let* _ino =
      Core.write_inode_range t dir_idx ino ~offset:(slot * dirent_size)
        (Bytes.make dirent_size '\000')
    in
    Ok ()

  let dir_is_empty t ino =
    let* entries = dir_entries t ino in
    Ok (entries = [])

  (* ---------------------------------------------------------------- *)
  (* Path resolution                                                   *)
  (* ---------------------------------------------------------------- *)

  (* Resolve a path to (inode index, inode). *)
  let resolve t path =
    let rec walk idx components =
      let* ino = Core.load_inode t idx in
      match components with
      | [] -> Ok (idx, ino)
      | name :: rest ->
          if ino.Core.kind <> dir_kind then Error Fs_core.Not_a_directory
          else
            let* () = Core.check_name name in
            let* hit = dir_lookup t ino name in
            (match hit with
            | None -> Error Fs_core.Not_found
            | Some (_, (_, child)) -> walk child rest)
    in
    walk root_inode (split_path path)

  (* Resolve the parent directory of a path; returns
     (parent_idx, parent_inode, final component). *)
  let resolve_parent t path =
    match List.rev (split_path path) with
    | [] -> Error Fs_core.Invalid_path
    | name :: rev_parent ->
        let parent_path = String.concat "/" (List.rev rev_parent) in
        let* parent_idx, parent_ino = resolve t parent_path in
        if parent_ino.Core.kind <> dir_kind then Error Fs_core.Not_a_directory
        else
          let* () = Core.check_name name in
          Ok (parent_idx, parent_ino, name)

  (* ---------------------------------------------------------------- *)
  (* Creation                                                          *)
  (* ---------------------------------------------------------------- *)

  let make_node t path kind =
    let* parent_idx, parent_ino, name = resolve_parent t path in
    let* existing = dir_lookup t parent_ino name in
    match existing with
    | Some _ -> Error Fs_core.Already_exists
    | None ->
        let* idx = Core.find_free_inode t in
        let* () = Core.store_inode t idx { Core.empty_inode with used = true; kind } in
        dir_add t parent_idx parent_ino name idx

  let create t path = make_node t path file_kind
  let mkdir t path = make_node t path dir_kind

  let rec mkdir_p t path =
    match mkdir t path with
    | Ok () -> Ok ()
    | Error Fs_core.Already_exists -> (
        (* Fine if it is already a directory. *)
        let* _, ino = resolve t path in
        if ino.Core.kind = dir_kind then Ok () else Error Fs_core.Not_a_directory)
    | Error Fs_core.Not_found -> (
        match List.rev (split_path path) with
        | [] -> Error Fs_core.Invalid_path
        | _ :: rev_parent when rev_parent <> [] ->
            let parent = String.concat "/" (List.rev rev_parent) in
            let* () = mkdir_p t parent in
            mkdir t path
        | _ -> Error Fs_core.Not_found)
    | Error _ as err -> err

  (* ---------------------------------------------------------------- *)
  (* File operations                                                   *)
  (* ---------------------------------------------------------------- *)

  let resolve_file t path =
    let* parent_idx, parent_ino, name = resolve_parent t path in
    let* hit = dir_lookup t parent_ino name in
    match hit with
    | None -> Error Fs_core.Not_found
    | Some (slot, (_, idx)) ->
        let* ino = Core.load_inode t idx in
        if not ino.Core.used then Error (Fs_core.Corrupt "entry to free inode")
        else Ok (parent_idx, parent_ino, slot, idx, ino)

  let as_file (ino : Core.inode) = if ino.Core.kind = dir_kind then Error Fs_core.Is_a_directory else Ok ino

  let write t path ?(offset = 0) data =
    let* _, _, _, idx, ino = resolve_file t path in
    let* ino = as_file ino in
    let* _ino = Core.write_inode_range t idx ino ~offset data in
    Ok ()

  let append t path data =
    let* _, _, _, idx, ino = resolve_file t path in
    let* ino = as_file ino in
    let* _ino = Core.write_inode_range t idx ino ~offset:ino.Core.size data in
    Ok ()

  let read t path =
    let* _, ino = resolve t path in
    let* ino = as_file ino in
    Core.read_inode_range t ino ~offset:0 ~length:ino.Core.size

  let read_range t path ~offset ~length =
    let* _, ino = resolve t path in
    let* ino = as_file ino in
    Core.read_inode_range t ino ~offset ~length

  let truncate t path =
    let* _, _, _, idx, ino = resolve_file t path in
    let* _ = as_file ino in
    let* () = Core.free_inode_blocks t ino in
    Core.store_inode t idx { Core.empty_inode with used = true; kind = file_kind }

  let unlink t path =
    let* parent_idx, parent_ino, slot, idx, ino = resolve_file t path in
    let* _ = as_file ino in
    let* () = Core.free_inode_blocks t ino in
    let* () = Core.store_inode t idx Core.empty_inode in
    dir_remove t parent_idx parent_ino slot

  let rmdir t path =
    if split_path path = [] then Error Fs_core.Invalid_path
    else
      let* parent_idx, parent_ino, slot, idx, ino = resolve_file t path in
      if ino.Core.kind <> dir_kind then Error Fs_core.Not_a_directory
      else
        let* empty = dir_is_empty t ino in
        if not empty then Error Fs_core.Directory_not_empty
        else begin
          let* () = Core.free_inode_blocks t ino in
          let* () = Core.store_inode t idx Core.empty_inode in
          dir_remove t parent_idx parent_ino slot
        end

  (* ---------------------------------------------------------------- *)
  (* Queries                                                           *)
  (* ---------------------------------------------------------------- *)

  let list t path =
    let* _, ino = resolve t path in
    if ino.Core.kind <> dir_kind then Error Fs_core.Not_a_directory
    else
      let* entries = dir_entries t ino in
      List.fold_left
        (fun acc (_, (name, idx)) ->
          let* acc = acc in
          let* child = Core.load_inode t idx in
          Ok ({ name; kind = kind_of_char child.Core.kind } :: acc))
        (Ok []) entries
      |> Result.map List.rev

  let exists t path = match resolve t path with Ok _ -> true | Error _ -> false

  let kind_of t path =
    let* _, ino = resolve t path in
    Ok (kind_of_char ino.Core.kind)

  let free_blocks = Core.free_blocks

  let stat t path =
    let* idx, ino = resolve t path in
    let* blocks = Core.blocks_used t ino in
    Ok { size = ino.Core.size; blocks_used = blocks; inode = idx; kind = kind_of_char ino.Core.kind }

  let rename t src dst =
    let src_components = split_path src in
    if src_components = [] then Error Fs_core.Invalid_path
    else begin
      (* Reject moving a directory under itself: dst's components must not
         extend src's. *)
      let dst_components = split_path dst in
      let rec is_prefix a b =
        match (a, b) with
        | [], _ -> true
        | _, [] -> false
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
      in
      if is_prefix src_components dst_components then Error Fs_core.Invalid_path
      else
        let* src_parent_idx, src_parent_ino, src_slot, idx, _ino = resolve_file t src in
        let* dst_parent_idx, dst_parent_ino, dst_name = resolve_parent t dst in
        let* existing = dir_lookup t dst_parent_ino dst_name in
        match existing with
        | Some _ -> Error Fs_core.Already_exists
        | None ->
            (* Insert at the destination first: a crash between the two
               steps leaves the node reachable (twice) rather than lost. *)
            let* () = dir_add t dst_parent_idx dst_parent_ino dst_name idx in
            (* The source directory's inode may just have changed (same
               parent): reload before rewriting the slot. *)
            let* src_parent_ino =
              if src_parent_idx = dst_parent_idx then Core.load_inode t src_parent_idx
              else Ok src_parent_ino
            in
            dir_remove t src_parent_idx src_parent_ino src_slot
    end

  let walk t path =
    let rec go prefix idx acc =
      let* ino = Core.load_inode t idx in
      if ino.Core.kind <> dir_kind then Ok acc
      else
        let* entries = dir_entries t ino in
        List.fold_left
          (fun acc (_, (name, child_idx)) ->
            let* acc = acc in
            let child_path = if prefix = "" then name else prefix ^ "/" ^ name in
            let* child = Core.load_inode t child_idx in
            let acc = child_path :: acc in
            if child.Core.kind = dir_kind then go child_path child_idx acc else Ok acc)
          (Ok acc) entries
    in
    let* idx, ino = resolve t path in
    if ino.Core.kind <> dir_kind then Error Fs_core.Not_a_directory
    else
      let prefix = String.concat "/" (split_path path) in
      let* paths = go prefix idx [] in
      Ok (List.rev paths)

  (* ---------------------------------------------------------------- *)
  (* Fsck: tree walk + block accounting                                *)
  (* ---------------------------------------------------------------- *)

  let fsck t =
    let visited = Hashtbl.create 64 in
    (* Reachability walk from the root, rejecting inode sharing. *)
    let rec visit idx acc =
      if Hashtbl.mem visited idx then Error (Fs_core.Corrupt (Printf.sprintf "inode %d linked twice" idx))
      else begin
        Hashtbl.add visited idx ();
        let* ino = Core.load_inode t idx in
        if not ino.Core.used then Error (Fs_core.Corrupt (Printf.sprintf "entry to free inode %d" idx))
        else begin
          let acc = (idx, ino) :: acc in
          if ino.Core.kind <> dir_kind then Ok acc
          else
            let* entries = dir_entries t ino in
            List.fold_left
              (fun acc (_, (_, child)) ->
                let* acc = acc in
                visit child acc)
              (Ok acc) entries
        end
      end
    in
    let* reachable = visit root_inode [] in
    (* Every used inode must be reachable (no orphans). *)
    let rec check_orphans idx =
      if idx >= Core.n_inodes t then Ok ()
      else
        let* ino = Core.load_inode t idx in
        if ino.Core.used && not (Hashtbl.mem visited idx) then
          Error (Fs_core.Corrupt (Printf.sprintf "orphan inode %d" idx))
        else check_orphans (idx + 1)
    in
    let* () = check_orphans 0 in
    Core.fsck_blocks t ~live:reachable
end
