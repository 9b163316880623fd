type counters = {
  mutable torn_writes : int;
  mutable bitrot_injected : int;
  mutable refused_installs : int;
  mutable repaired_blocks : int;
  mutable scrub_runs : int;
  mutable scrub_replayed : int;
  mutable scrub_quarantined : int;
  mutable scrub_meta_reset : int;
  mutable disk_replacements : int;
  mutable journal_commits : int;
}

let zero_counters () =
  {
    torn_writes = 0;
    bitrot_injected = 0;
    refused_installs = 0;
    repaired_blocks = 0;
    scrub_runs = 0;
    scrub_replayed = 0;
    scrub_quarantined = 0;
    scrub_meta_reset = 0;
    disk_replacements = 0;
    journal_commits = 0;
  }

let accumulate_counters acc c =
  acc.torn_writes <- acc.torn_writes + c.torn_writes;
  acc.bitrot_injected <- acc.bitrot_injected + c.bitrot_injected;
  acc.refused_installs <- acc.refused_installs + c.refused_installs;
  acc.repaired_blocks <- acc.repaired_blocks + c.repaired_blocks;
  acc.scrub_runs <- acc.scrub_runs + c.scrub_runs;
  acc.scrub_replayed <- acc.scrub_replayed + c.scrub_replayed;
  acc.scrub_quarantined <- acc.scrub_quarantined + c.scrub_quarantined;
  acc.scrub_meta_reset <- acc.scrub_meta_reset + c.scrub_meta_reset;
  acc.disk_replacements <- acc.disk_replacements + c.disk_replacements;
  acc.journal_commits <- acc.journal_commits + c.journal_commits

type scrub_report = { replayed : int; quarantined : int; meta_reset : string list }

(* The data and pre-image a torn apply needs, or the key of a metadata
   write (a torn one falls back to its registered default). *)
type intention =
  | Data of { block : Block.id; version : int; data : Block.t; prev_data : Block.t }
  | Meta of { key : string }

type t = {
  bf : Block_file.t;
  meta : (string, int list) Hashtbl.t;
  meta_defaults : (string, int list) Hashtbl.t;
  mutable journal : intention option;
  mutable armed : bool;
  mutable torn_meta : string option;
  mutable last_scrub : scrub_report option;
  counters : counters;
}

(* The journal's single slot holds the last intention; recording it is its
   commit, the one sync-write point a real journal pays for. *)
let commit_journal t intent =
  t.journal <- Some intent;
  t.counters.journal_commits <- t.counters.journal_commits + 1

let create ~capacity =
  {
    bf = Block_file.create ~capacity;
    meta = Hashtbl.create 7;
    meta_defaults = Hashtbl.create 7;
    journal = None;
    armed = false;
    torn_meta = None;
    last_scrub = None;
    counters = zero_counters ();
  }

let capacity t = Block_file.capacity t.bf
let counters t = t.counters
let last_scrub t = t.last_scrub

(* The checksum lives in the block-file index: CRC-32 over the payload
   bytes in the image, mixed with the version, sealed only at this
   layer's commit points (see the sealing discipline in block_file.mli). *)
let checksum_ok t k = Block_file.checksum_ok t.bf k

let version t k = Block_file.version t.bf k

let effective_version t k = if checksum_ok t k then version t k else 0

let vector t version_of =
  let v = Version_vector.create (capacity t) in
  for k = 0 to capacity t - 1 do
    Version_vector.set v k (version_of t k)
  done;
  v

let versions t = vector t version
let effective_versions t = vector t effective_version

let read_verified t k =
  if checksum_ok t k then Some (Block_file.read t.bf k, version t k) else None

let serve t k = if checksum_ok t k then (version t k, Block_file.read t.bf k) else (0, Block.zero)

let verified_blocks_newer_than t v =
  if Version_vector.length v <> capacity t then
    invalid_arg "Durable_store.verified_blocks_newer_than: vector length mismatch";
  let rec collect k acc =
    if k < 0 then acc
    else
      let ver = version t k in
      let acc =
        if ver > Version_vector.get v k && checksum_ok t k then
          (k, ver, Block_file.read t.bf k) :: acc
        else acc
      in
      collect (k - 1) acc
  in
  collect (capacity t - 1) []

(* Payload and version land unsealed; sealing is this module's commit
   point (see the sealing discipline in block_file.mli). *)
let install t k data ~version =
  Block_file.write t.bf k data ~version;
  Block_file.seal t.bf k

let write t k data ~version =
  let stored = Block_file.version t.bf k in
  if version < stored then begin
    if checksum_ok t k then
      invalid_arg
        (Printf.sprintf "Durable_store.write: version regression on block %d (%d < %d)" k version
           stored)
    else
      (* The local copy is corrupt but its version metadata is intact and
         higher than what we are being offered: installing would regress
         below a version this disk is known to have acknowledged.  Stay
         quarantined and wait for data at >= the stored version. *)
      t.counters.refused_installs <- t.counters.refused_installs + 1
  end
  else begin
    let was_corrupt = not (checksum_ok t k) in
    (* Commit the intention, then apply it in place.  A crash can tear only
       the apply (see {!crash}), and the scrub replays it from the journal,
       so the block write and its version update are atomic as a pair. *)
    commit_journal t (Data { block = k; version; data; prev_data = Block_file.read t.bf k });
    install t k data ~version;
    if was_corrupt then t.counters.repaired_blocks <- t.counters.repaired_blocks + 1
  end

let absorb t k data ~version =
  let stored = Block_file.version t.bf k in
  let installs = version > stored || (version = stored && not (checksum_ok t k)) in
  if installs then write t k data ~version;
  installs

let apply_updates t updates =
  List.iter
    (fun (k, ver, data) ->
      let stored = Block_file.version t.bf k in
      let corrupt = not (checksum_ok t k) in
      if ver > stored || (corrupt && ver = stored) then begin
        install t k data ~version:ver;
        if corrupt then t.counters.repaired_blocks <- t.counters.repaired_blocks + 1
      end
      else if corrupt then t.counters.refused_installs <- t.counters.refused_installs + 1)
    updates

let set_meta t key value =
  commit_journal t (Meta { key });
  Hashtbl.replace t.meta key value

let get_meta t key = Hashtbl.find_opt t.meta key

let set_meta_default t key value =
  Hashtbl.replace t.meta_defaults key value;
  if not (Hashtbl.mem t.meta key) then Hashtbl.replace t.meta key value

(* Deterministic in-place scramble of the stored image bytes of block
   [k].  The version metadata is left intact — sector decay and torn
   sector writes corrupt data bytes, not the separately journaled
   version table — so the index checksum no longer matches and the
   block is quarantined.  A single CRC-32 input flip always changes the
   digest; the second flip only fires when the first undid a previous
   injection at the same (block, version) position. *)
let corrupt_in_place t k =
  let v = Block_file.version t.bf k in
  let pos = (k * 131 + v * 31) mod Block.size in
  Block_file.flip_byte t.bf k ~pos ~mask:0xA5;
  if checksum_ok t k then Block_file.flip_byte t.bf k ~pos:((pos + 1) mod Block.size) ~mask:0x3C

let inject_bitrot t k =
  corrupt_in_place t k;
  t.counters.bitrot_injected <- t.counters.bitrot_injected + 1

let arm_torn_write t = t.armed <- true

(* A torn in-place apply, byte-accurately: the prefix of the new payload
   reached the platter, the suffix still holds pre-image bytes.  The
   tear point is seeded by (block, version); when new and old agree
   across the tear (so the sealed checksum would still validate), fall
   back to a byte scramble — the sector was damaged either way. *)
let tear_apply t block version prev_data =
  let tear = 1 + ((block * 131 + version * 31) mod (Block.size - 1)) in
  Block_file.blit_suffix t.bf block ~from:tear (Block.to_string prev_data);
  if checksum_ok t block then corrupt_in_place t block

let crash t =
  (if t.armed then
     match t.journal with
     | Some (Data { block; version; prev_data; _ }) ->
         (* The journal committed, but the in-place apply was torn: stale
            pre-image bytes under an intact version number. *)
         tear_apply t block version prev_data;
         t.counters.torn_writes <- t.counters.torn_writes + 1
     | Some (Meta { key }) ->
         t.torn_meta <- Some key;
         t.counters.torn_writes <- t.counters.torn_writes + 1
     | None -> ());
  t.armed <- false

let scrub t =
  t.counters.scrub_runs <- t.counters.scrub_runs + 1;
  let replayed =
    match t.journal with
    | Some (Data { block; version; data; _ })
      when Block_file.version t.bf block = version && not (checksum_ok t block) ->
        (* Committed intention whose apply was torn: replay it exactly. *)
        install t block data ~version;
        1
    | _ -> 0
  in
  t.journal <- None;
  let meta_reset =
    match t.torn_meta with
    | Some key ->
        (match Hashtbl.find_opt t.meta_defaults key with
        | Some d -> Hashtbl.replace t.meta key d
        | None -> Hashtbl.remove t.meta key);
        t.torn_meta <- None;
        t.counters.scrub_meta_reset <- t.counters.scrub_meta_reset + 1;
        [ key ]
    | None -> []
  in
  let quarantined = ref 0 in
  for k = 0 to capacity t - 1 do
    if not (checksum_ok t k) then incr quarantined
  done;
  t.counters.scrub_replayed <- t.counters.scrub_replayed + replayed;
  t.counters.scrub_quarantined <- t.counters.scrub_quarantined + !quarantined;
  let report = { replayed; quarantined = !quarantined; meta_reset } in
  t.last_scrub <- Some report;
  report

let replace_disk t =
  Block_file.reset t.bf;
  Hashtbl.reset t.meta;
  (Hashtbl.iter (fun k v -> Hashtbl.replace t.meta k v) t.meta_defaults
  [@lint.allow "hashtbl-order"
    "copies bindings between tables keyed on the same distinct keys; replace is idempotent per key, so order cannot matter"]);
  t.journal <- None;
  t.armed <- false;
  t.torn_meta <- None;
  t.counters.disk_replacements <- t.counters.disk_replacements + 1

