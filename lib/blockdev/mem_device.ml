type t = { durable : Durable_store.t; mutable alive : bool }

let create ~capacity = { durable = Durable_store.create ~capacity; alive = true }

let capacity t = Durable_store.capacity t.durable

let read_block t k =
  if (not t.alive) || k < 0 || k >= capacity t then None
  else
    match Durable_store.read_verified t.durable k with
    | Some (b, _) -> Some b
    | None ->
        (* A single disk has no peer to repair from: a rotten sector is a
           read failure, the contrast replication exists to mask. *)
        None

let write_block t k b =
  if (not t.alive) || k < 0 || k >= capacity t then false
  else begin
    let version = Durable_store.version t.durable k + 1 in
    Durable_store.write t.durable k b ~version;
    true
  end

let fail t =
  Durable_store.crash t.durable;
  t.alive <- false

let revive t =
  ignore (Durable_store.scrub t.durable);
  t.alive <- true

let arm_torn_write ?mode t = Durable_store.arm_torn_write ?mode t.durable
let inject_bitrot t k = if k >= 0 && k < capacity t then Durable_store.inject_bitrot t.durable k
let replace_disk t = Durable_store.replace_disk t.durable
let checksum_ok t k = k >= 0 && k < capacity t && Durable_store.checksum_ok t.durable k
let storage_counters t = Durable_store.counters t.durable
