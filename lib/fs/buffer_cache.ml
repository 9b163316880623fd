type policy = Write_through | Write_back

module Make_batched (Dev : Blockdev.Device_intf.BATCHED) = struct
  type entry = { mutable data : Blockdev.Block.t; mutable last_used : int; mutable dirty : bool }

  type t = {
    dev : Dev.t;
    capacity : int;
    policy : policy;
    entries : (Blockdev.Block.id, entry) Hashtbl.t;
    scheduler : (float -> (unit -> unit) -> unit) option;
    window : float;
    mutable window_armed : bool;
    mutable flushing : bool;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable write_backs : int;
    mutable blocks_written_back : int;
    mutable lost_updates : int;
  }

  let create ?(policy = Write_through) ?scheduler ?(window = 0.0) ~capacity dev =
    if capacity <= 0 then invalid_arg "Buffer_cache.create: capacity must be positive";
    if window < 0.0 then invalid_arg "Buffer_cache.create: window must be non-negative";
    {
      dev;
      capacity;
      policy;
      entries = Hashtbl.create capacity;
      scheduler;
      window;
      window_armed = false;
      flushing = false;
      clock = 0;
      hits = 0;
      misses = 0;
      write_backs = 0;
      blocks_written_back = 0;
      lost_updates = 0;
    }

  let device t = t.dev
  let capacity t = Dev.capacity t.dev
  let policy t = t.policy

  let touch t entry =
    t.clock <- t.clock + 1;
    entry.last_used <- t.clock

  (* ---------------------------------------------------------------- *)
  (* Write-back machinery                                              *)
  (* ---------------------------------------------------------------- *)

  let dirty_set t =
    Hashtbl.fold (fun k e acc -> if e.dirty then (k, e.data) :: acc else acc) t.entries []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  let dirty_blocks t =
    (Hashtbl.fold (fun _ e acc -> if e.dirty then acc + 1 else acc) t.entries 0
    [@lint.allow "hashtbl-order" "pure count: integer addition is commutative, so the result cannot depend on iteration order"])

  (* Commit a group of dirty blocks.  The whole group goes down in one
     batched device request; if the device rejects it — a quorum lost
     mid-rotation can fail some blocks' round and not others' — the
     group is split in half and each half retried, so every block that
     {e can} commit does, and the failure is narrowed to the blocks
     that genuinely cannot.  An entry is marked clean only if it still
     holds exactly the data that went down (a client may overwrite a
     block while its flush is in flight on the simulated wire). *)
  let rec write_back t writes =
    match writes with
    | [] -> true
    | _ ->
        t.write_backs <- t.write_backs + 1;
        t.blocks_written_back <- t.blocks_written_back + List.length writes;
        let ok =
          match writes with
          | [ (k, d) ] -> Dev.write_block t.dev k d
          | _ -> Dev.write_blocks t.dev writes
        in
        if ok then begin
          List.iter
            (fun (k, d) ->
              match Hashtbl.find_opt t.entries k with
              | Some e when e.data == d -> e.dirty <- false
              | Some _ | None -> ())
            writes;
          true
        end
        else begin
          match writes with
          | [ _ ] -> false
          | _ ->
              let n = List.length writes / 2 in
              let left = List.filteri (fun i _ -> i < n) writes in
              let right = List.filteri (fun i _ -> i >= n) writes in
              (* Attempt both halves even if the first fails: commit
                 whatever the device will take. *)
              let l = write_back t left in
              let r = write_back t right in
              l && r
        end

  let flush t =
    if t.flushing then true
    else begin
      t.flushing <- true;
      let ok = write_back t (dirty_set t) in
      t.flushing <- false;
      ok
    end

  let arm_window t =
    match t.scheduler with
    | Some schedule when t.window > 0.0 && not t.window_armed ->
        t.window_armed <- true;
        schedule t.window (fun () ->
            t.window_armed <- false;
            ignore (flush t : bool))
    | Some _ | None -> ()

  (* ---------------------------------------------------------------- *)
  (* LRU with dirty-aware eviction                                     *)
  (* ---------------------------------------------------------------- *)

  let evict_if_full t =
    if Hashtbl.length t.entries >= t.capacity then begin
      (* LRU by linear scan: cache capacities are small and this keeps
         the structure trivially correct.  Clean frames are preferred —
         reclaiming one is free; only when every frame is dirty is the
         LRU dirty block written back (exactly once) to make room. *)
      let oldest pred =
        (* Minimum by (last_used, key): the key tie-break makes the
           winner independent of hash iteration order even when two
           frames were touched on the same tick. *)
        (Hashtbl.fold
           (fun k e acc ->
             if not (pred e) then acc
             else
               match acc with
               | Some (k', u') when u' < e.last_used || (u' = e.last_used && k' < k) -> acc
               | _ -> Some (k, e.last_used))
           t.entries None
        [@lint.allow "hashtbl-order"
          "commutative min-reduction over (last_used, key); the total tie-break keeps the result iteration-order independent"])
      in
      match oldest (fun e -> not e.dirty) with
      | Some (k, _) -> Hashtbl.remove t.entries k
      | None -> (
          match oldest (fun _ -> true) with
          | Some (k, _) -> (
              match Hashtbl.find_opt t.entries k with
              | Some e ->
                  if write_back t [ (k, e.data) ] then Hashtbl.remove t.entries k
                  (* Device refused: keep the dirty block (dropping it
                     would lose the update) and overflow capacity by one
                     frame until a later flush succeeds. *)
              | None -> ())
          | None -> ())
    end

  let install t k data ~dirty =
    match Hashtbl.find_opt t.entries k with
    | Some entry ->
        touch t entry;
        entry.data <- data;
        entry.dirty <- entry.dirty || dirty
    | None ->
        evict_if_full t;
        t.clock <- t.clock + 1;
        Hashtbl.replace t.entries k { data; last_used = t.clock; dirty }

  (* ---------------------------------------------------------------- *)
  (* The device interface                                              *)
  (* ---------------------------------------------------------------- *)

  let read_block t k =
    match Hashtbl.find_opt t.entries k with
    | Some entry ->
        t.hits <- t.hits + 1;
        touch t entry;
        Some entry.data
    | None -> (
        t.misses <- t.misses + 1;
        match Dev.read_block t.dev k with
        | Some data ->
            install t k data ~dirty:false;
            Some data
        | None -> None)

  let write_block t k data =
    match t.policy with
    | Write_through ->
        (* The device is the source of truth; only cache what it
           accepted. *)
        if Dev.write_block t.dev k data then begin
          install t k data ~dirty:false;
          true
        end
        else false
    | Write_back ->
        (* The cache absorbs the write; the device sees it at the next
           flush (or when the coalescing window closes).  Only range
           errors are detectable now — availability errors surface at
           flush time. *)
        if k < 0 || k >= Dev.capacity t.dev then false
        else begin
          install t k data ~dirty:true;
          arm_window t;
          true
        end

  (* ---------------------------------------------------------------- *)
  (* Introspection                                                     *)
  (* ---------------------------------------------------------------- *)

  let hits t = t.hits
  let misses t = t.misses

  let hit_rate t =
    let total = t.hits + t.misses in
    if total = 0 then nan else float_of_int t.hits /. float_of_int total

  let cached_blocks t = Hashtbl.length t.entries
  let write_backs t = t.write_backs
  let blocks_written_back t = t.blocks_written_back
  let lost_updates t = t.lost_updates

  let invalidate t =
    t.lost_updates <- t.lost_updates + dirty_blocks t;
    Hashtbl.reset t.entries
end

module Make (Dev : Blockdev.Device_intf.S) = Make_batched (Blockdev.Device_intf.Batched_of_simple (Dev))
