module Block = Blockdev.Block

type error =
  | Device_unavailable
  | No_space
  | Not_found
  | Already_exists
  | Name_too_long
  | File_too_large
  | Not_formatted
  | Not_a_directory
  | Is_a_directory
  | Directory_not_empty
  | Invalid_path
  | Corrupt of string

let error_to_string = function
  | Device_unavailable -> "device unavailable"
  | No_space -> "no space left on device"
  | Not_found -> "no such file or directory"
  | Already_exists -> "file exists"
  | Name_too_long -> "name too long"
  | File_too_large -> "file too large"
  | Not_formatted -> "device is not formatted"
  | Not_a_directory -> "not a directory"
  | Is_a_directory -> "is a directory"
  | Directory_not_empty -> "directory not empty"
  | Invalid_path -> "invalid path"
  | Corrupt msg -> "corrupt file system: " ^ msg

(* Geometry constants. *)
let magic = 0x42465331 (* "BFS1" *)
let inode_size = 64
let inodes_per_block = Block.size / inode_size
let direct_pointers = 11
let pointers_per_block = Block.size / 4
let max_file_blocks = direct_pointers + pointers_per_block
let max_file_bytes = max_file_blocks * Block.size
let dirent_size = 32
let max_name = 27
let file_kind = 'f'
let dir_kind = 'd'

let ( let* ) = Result.bind

let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF
let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)

module Make (Dev : Blockdev.Device_intf.S) = struct
  type geometry = {
    total_blocks : int;
    n_inodes : int;
    bitmap_start : int;
    bitmap_blocks : int;
    inode_start : int;
    inode_blocks : int;
    data_start : int;
  }

  type t = { dev : Dev.t; geo : geometry }

  let device t = t.dev
  let n_inodes t = t.geo.n_inodes

  (* ---------------------------------------------------------------- *)
  (* Raw block IO                                                      *)
  (* ---------------------------------------------------------------- *)

  let read_raw dev k =
    match Dev.read_block dev k with Some b -> Ok (Block.to_bytes b) | None -> Error Device_unavailable

  let write_raw dev k bytes =
    if Dev.write_block dev k (Block.of_bytes bytes) then Ok () else Error Device_unavailable

  (* ---------------------------------------------------------------- *)
  (* Superblock                                                        *)
  (* ---------------------------------------------------------------- *)

  (* Byte 32 is written as 'H' so that a fresh format stays byte for byte
     what earlier versions wrote, and never read: a disk marked 'F' (every
     file at the root) is an ordinary one and must mount. *)
  let geometry_of_superblock b =
    if get_u32 b 0 <> magic then Error Not_formatted
    else begin
      let geo =
        {
          total_blocks = get_u32 b 4;
          n_inodes = get_u32 b 8;
          bitmap_start = get_u32 b 12;
          bitmap_blocks = get_u32 b 16;
          inode_start = get_u32 b 20;
          inode_blocks = get_u32 b 24;
          data_start = get_u32 b 28;
        }
      in
      if geo.data_start > geo.total_blocks || geo.bitmap_start <> 1 then
        Error (Corrupt "superblock geometry out of range")
      else Ok geo
    end

  let superblock_bytes geo =
    let b = Bytes.make Block.size '\000' in
    set_u32 b 0 magic;
    set_u32 b 4 geo.total_blocks;
    set_u32 b 8 geo.n_inodes;
    set_u32 b 12 geo.bitmap_start;
    set_u32 b 16 geo.bitmap_blocks;
    set_u32 b 20 geo.inode_start;
    set_u32 b 24 geo.inode_blocks;
    set_u32 b 28 geo.data_start;
    Bytes.set b 32 'H';
    b

  let plan_geometry ~total_blocks ~n_inodes =
    let inode_blocks = (n_inodes + inodes_per_block - 1) / inodes_per_block in
    let bitmap_blocks = ((total_blocks + Block.size - 1) / Block.size) + 1 in
    let bitmap_start = 1 in
    let inode_start = bitmap_start + bitmap_blocks in
    let data_start = inode_start + inode_blocks in
    if data_start >= total_blocks then None
    else Some { total_blocks; n_inodes; bitmap_start; bitmap_blocks; inode_start; inode_blocks; data_start }

  (* ---------------------------------------------------------------- *)
  (* Inodes                                                            *)
  (* ---------------------------------------------------------------- *)

  type inode = { used : bool; kind : char; size : int; direct : int array; indirect : int }

  let empty_inode =
    { used = false; kind = '\000'; size = 0; direct = Array.make direct_pointers 0; indirect = 0 }

  let inode_location geo idx =
    let block = geo.inode_start + (idx / inodes_per_block) in
    let off = idx mod inodes_per_block * inode_size in
    (block, off)

  let decode_inode b off =
    {
      used = Bytes.get b off <> '\000';
      kind = Bytes.get b (off + 1);
      size = get_u32 b (off + 4);
      direct = Array.init direct_pointers (fun i -> get_u32 b (off + 8 + (4 * i)));
      indirect = get_u32 b (off + 8 + (4 * direct_pointers));
    }

  let encode_inode b off ino =
    Bytes.set b off (if ino.used then '\001' else '\000');
    Bytes.set b (off + 1) ino.kind;
    set_u32 b (off + 4) ino.size;
    Array.iteri (fun i p -> set_u32 b (off + 8 + (4 * i)) p) ino.direct;
    set_u32 b (off + 8 + (4 * direct_pointers)) ino.indirect

  let load_inode t idx =
    if idx < 0 || idx >= t.geo.n_inodes then Error (Corrupt "inode index out of range")
    else begin
      let block, off = inode_location t.geo idx in
      let* b = read_raw t.dev block in
      Ok (decode_inode b off)
    end

  let store_inode t idx ino =
    let block, off = inode_location t.geo idx in
    let* b = read_raw t.dev block in
    encode_inode b off ino;
    write_raw t.dev block b

  let find_free_inode t =
    let rec scan idx =
      if idx >= t.geo.n_inodes then Error No_space
      else
        let* ino = load_inode t idx in
        if ino.used then scan (idx + 1) else Ok idx
    in
    scan 1

  (* ---------------------------------------------------------------- *)
  (* Allocation bitmap (one byte per data block)                       *)
  (* ---------------------------------------------------------------- *)

  let bitmap_location geo data_block =
    let idx = data_block - geo.data_start in
    (geo.bitmap_start + (idx / Block.size), idx mod Block.size)

  let set_allocated t data_block allocated =
    let block, off = bitmap_location t.geo data_block in
    let* b = read_raw t.dev block in
    Bytes.set b off (if allocated then '\001' else '\000');
    write_raw t.dev block b

  let is_allocated t data_block =
    let block, off = bitmap_location t.geo data_block in
    let* b = read_raw t.dev block in
    Ok (Bytes.get b off <> '\000')

  let alloc_block t =
    let rec scan k =
      if k >= t.geo.total_blocks then Error No_space
      else
        let* allocated = is_allocated t k in
        if not allocated then begin
          let* () = set_allocated t k true in
          (* Fresh blocks must read back as zeroes even if recycled. *)
          let* () = write_raw t.dev k (Bytes.make Block.size '\000') in
          Ok k
        end
        else scan (k + 1)
    in
    scan t.geo.data_start

  let free_block t k = set_allocated t k false

  let free_blocks t =
    let rec count k acc =
      if k >= t.geo.total_blocks then Ok acc
      else
        let* allocated = is_allocated t k in
        count (k + 1) (if allocated then acc else acc + 1)
    in
    count t.geo.data_start 0

  (* ---------------------------------------------------------------- *)
  (* File block mapping                                                *)
  (* ---------------------------------------------------------------- *)

  let pointer_of t ino fbi =
    if fbi < direct_pointers then Ok ino.direct.(fbi)
    else if fbi < max_file_blocks then
      if ino.indirect = 0 then Ok 0
      else begin
        let* b = read_raw t.dev ino.indirect in
        Ok (get_u32 b (4 * (fbi - direct_pointers)))
      end
    else Error File_too_large

  let ensure_block t ino fbi =
    let* existing = pointer_of t ino fbi in
    if existing <> 0 then Ok (existing, ino)
    else if fbi < direct_pointers then begin
      let* fresh = alloc_block t in
      let direct = Array.copy ino.direct in
      direct.(fbi) <- fresh;
      Ok (fresh, { ino with direct })
    end
    else begin
      let* ino =
        if ino.indirect <> 0 then Ok ino
        else
          let* ib = alloc_block t in
          Ok { ino with indirect = ib }
      in
      let* b = read_raw t.dev ino.indirect in
      let* fresh = alloc_block t in
      set_u32 b (4 * (fbi - direct_pointers)) fresh;
      let* () = write_raw t.dev ino.indirect b in
      Ok (fresh, ino)
    end

  let iter_file_blocks t ino f =
    let n_blocks = (ino.size + Block.size - 1) / Block.size in
    let rec go fbi acc =
      if fbi >= n_blocks then Ok acc
      else
        let* ptr = pointer_of t ino fbi in
        let* acc = f acc fbi ptr in
        go (fbi + 1) acc
    in
    go 0 ()

  (* ---------------------------------------------------------------- *)
  (* File content IO                                                   *)
  (* ---------------------------------------------------------------- *)

  let read_inode_range t ino ~offset ~length =
    if offset < 0 || length < 0 || offset + length > ino.size then Error Not_found
    else begin
      let out = Bytes.make length '\000' in
      let rec go pos =
        if pos >= length then Ok out
        else begin
          let abs = offset + pos in
          let fbi = abs / Block.size in
          let in_block = abs mod Block.size in
          let chunk = Int.min (Block.size - in_block) (length - pos) in
          let* ptr = pointer_of t ino fbi in
          let* () =
            if ptr = 0 then Ok ()
            else
              let* b = read_raw t.dev ptr in
              Bytes.blit b in_block out pos chunk;
              Ok ()
          in
          go (pos + chunk)
        end
      in
      go 0
    end

  let write_inode_range t idx ino ~offset data =
    let length = Bytes.length data in
    if offset < 0 then Error (Corrupt "negative offset")
    else if offset + length > max_file_bytes then Error File_too_large
    else begin
      let rec go ino pos =
        if pos >= length then Ok ino
        else begin
          let abs = offset + pos in
          let fbi = abs / Block.size in
          let in_block = abs mod Block.size in
          let chunk = Int.min (Block.size - in_block) (length - pos) in
          let* ptr, ino = ensure_block t ino fbi in
          let* b = read_raw t.dev ptr in
          Bytes.blit data pos b in_block chunk;
          let* () = write_raw t.dev ptr b in
          go ino (pos + chunk)
        end
      in
      let* ino = go ino 0 in
      let ino = { ino with size = Int.max ino.size (offset + length); used = true } in
      let* () = store_inode t idx ino in
      Ok ino
    end

  let free_inode_blocks t ino =
    let* () = iter_file_blocks t ino (fun () _ ptr -> if ptr = 0 then Ok () else free_block t ptr) in
    if ino.indirect <> 0 then free_block t ino.indirect else Ok ()

  let blocks_used t ino =
    let count = ref 0 in
    let* () =
      iter_file_blocks t ino (fun () _ ptr ->
          if ptr <> 0 then incr count;
          Ok ())
    in
    Ok !count

  (* ---------------------------------------------------------------- *)
  (* Directory entries                                                 *)
  (* ---------------------------------------------------------------- *)

  let decode_dirent b off =
    if Bytes.get b (off + 31) = '\000' then None
    else begin
      let raw = Bytes.sub_string b off max_name in
      let name = match String.index_opt raw '\000' with Some i -> String.sub raw 0 i | None -> raw in
      Some (name, get_u32 b (off + 27))
    end

  let encode_dirent name inode =
    let b = Bytes.make dirent_size '\000' in
    Bytes.blit_string name 0 b 0 (String.length name);
    set_u32 b 27 inode;
    Bytes.set b 31 '\001';
    b

  let check_name name =
    if String.length name = 0 || String.length name > max_name || String.contains name '\000' then
      Error Name_too_long
    else Ok ()

  (* ---------------------------------------------------------------- *)
  (* Format / mount                                                    *)
  (* ---------------------------------------------------------------- *)

  let format ~n_inodes dev =
    match plan_geometry ~total_blocks:(Dev.capacity dev) ~n_inodes with
    | None -> Error No_space
    | Some geo ->
        let t = { dev; geo } in
        let* () = write_raw dev 0 (superblock_bytes geo) in
        let zero = Bytes.make Block.size '\000' in
        let rec zero_range k upto =
          if k >= upto then Ok () else let* () = write_raw dev k zero in zero_range (k + 1) upto
        in
        let* () = zero_range geo.bitmap_start geo.data_start in
        let* () = store_inode t 0 { empty_inode with used = true; kind = dir_kind } in
        Ok t

  let mount dev =
    let* sb = read_raw dev 0 in
    let* geo = geometry_of_superblock sb in
    if geo.total_blocks <> Dev.capacity dev then Error (Corrupt "device size does not match superblock")
    else begin
      let t = { dev; geo } in
      let* root = load_inode t 0 in
      if not root.used then Error (Corrupt "missing root directory") else Ok t
    end

  (* ---------------------------------------------------------------- *)
  (* Fsck block accounting                                             *)
  (* ---------------------------------------------------------------- *)

  let fsck_blocks t ~live =
    let seen = Hashtbl.create 64 in
    let claim idx ptr =
      if ptr < t.geo.data_start || ptr >= t.geo.total_blocks then
        Error (Corrupt (Printf.sprintf "inode %d: pointer %d outside data region" idx ptr))
      else if Hashtbl.mem seen ptr then
        Error (Corrupt (Printf.sprintf "block %d multiply referenced" ptr))
      else begin
        Hashtbl.add seen ptr ();
        Ok ()
      end
    in
    let* () =
      List.fold_left
        (fun acc (idx, ino) ->
          let* () = acc in
          if ino.size > max_file_bytes then
            Error (Corrupt (Printf.sprintf "inode %d size beyond pointer reach" idx))
          else begin
            let* () =
              iter_file_blocks t ino (fun () _ ptr -> if ptr = 0 then Ok () else claim idx ptr)
            in
            if ino.indirect <> 0 then claim idx ino.indirect else Ok ()
          end)
        (Ok ()) live
    in
    let rec check_bitmap k =
      if k >= t.geo.total_blocks then Ok ()
      else
        let* allocated = is_allocated t k in
        let referenced = Hashtbl.mem seen k in
        if allocated && not referenced then Error (Corrupt (Printf.sprintf "block %d leaked" k))
        else if referenced && not allocated then
          Error (Corrupt (Printf.sprintf "block %d in use but free in bitmap" k))
        else check_bitmap (k + 1)
    in
    check_bitmap t.geo.data_start
end
