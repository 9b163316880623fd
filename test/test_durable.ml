(* Tests for Blockdev.Durable_store: checksums, the intention journal, torn-write crash faults, bitrot quarantine discipline,
   journaled metadata, and disk replacement. *)

module Block = Blockdev.Block
module Vv = Blockdev.Version_vector
module Durable = Blockdev.Durable_store

let block = Block.of_string

(* ------------------------------------------------------------------ *)
(* Fault-free pass-through                                             *)
(* ------------------------------------------------------------------ *)

let test_passthrough () =
  let d = Durable.create ~capacity:8 in
  Alcotest.(check bool) "fresh block verified" true (Durable.checksum_ok d 3);
  Alcotest.(check int) "fresh effective version" 0 (Durable.effective_version d 3);
  Durable.write d 3 (block "hello") ~version:2;
  Alcotest.(check bool) "written block verified" true (Durable.checksum_ok d 3);
  Alcotest.(check int) "effective = stored" 2 (Durable.effective_version d 3);
  (match Durable.read_verified d 3 with
  | Some (b, v) ->
      Alcotest.(check bool) "contents" true (Block.equal b (block "hello"));
      Alcotest.(check int) "version" 2 v
  | None -> Alcotest.fail "verified read refused a clean block");
  Alcotest.(check int) "stored version" 2 (Durable.version d 3)

let test_version_regression_on_verified () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 0 (block "v2") ~version:2;
  Alcotest.check_raises "regression over a verified block raises"
    (Invalid_argument "Durable_store.write: version regression on block 0 (1 < 2)") (fun () ->
      Durable.write d 0 (block "v1") ~version:1)

(* ------------------------------------------------------------------ *)
(* Bitrot quarantine                                                   *)
(* ------------------------------------------------------------------ *)

let test_bitrot_quarantines () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 1 (block "precious") ~version:3;
  Durable.inject_bitrot d 1;
  Alcotest.(check bool) "checksum fails" false (Durable.checksum_ok d 1);
  Alcotest.(check int) "effective version drops to 0" 0 (Durable.effective_version d 1);
  Alcotest.(check bool) "verified read refuses" true (Durable.read_verified d 1 = None);
  (* Stored version metadata stays trustworthy: decay hits data bytes,
     not the separately journaled version table. *)
  Alcotest.(check int) "stored version intact" 3 (Durable.version d 1);
  Alcotest.(check int) "counted" 1 (Durable.counters d).Durable.bitrot_injected

let test_quarantined_never_transferred () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 0 (block "good") ~version:1;
  Durable.write d 2 (block "bad") ~version:5;
  Durable.inject_bitrot d 2;
  let updates = Durable.verified_blocks_newer_than d (Vv.create 4) in
  Alcotest.(check (list int)) "only the verified block ships" [ 0 ]
    (List.map (fun (k, _, _) -> k) updates)

let test_version_floor () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 0 (block "acked") ~version:4;
  Durable.inject_bitrot d 0;
  (* Below the stored floor: silently refused, still quarantined. *)
  Durable.write d 0 (block "stale") ~version:2;
  Alcotest.(check bool) "still quarantined" false (Durable.checksum_ok d 0);
  Alcotest.(check int) "refusal counted" 1 (Durable.counters d).Durable.refused_installs;
  Alcotest.(check int) "floor intact" 4 (Durable.version d 0);
  (* At the floor: verified data heals the block in place. *)
  Durable.write d 0 (block "current") ~version:4;
  Alcotest.(check bool) "healed" true (Durable.checksum_ok d 0);
  Alcotest.(check int) "repair counted" 1 (Durable.counters d).Durable.repaired_blocks;
  match Durable.read_verified d 0 with
  | Some (b, 4) -> Alcotest.(check bool) "healed contents" true (Block.equal b (block "current"))
  | _ -> Alcotest.fail "healed block unreadable"

let test_apply_updates_repairs_at_floor () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 1 (block "x") ~version:3;
  Durable.inject_bitrot d 1;
  (* A recovery transfer at the exact stored version repairs in place,
     although it is not strictly newer. *)
  Durable.apply_updates d [ (1, 3, block "x") ];
  Alcotest.(check bool) "repaired by transfer" true (Durable.checksum_ok d 1);
  Alcotest.(check int) "version kept" 3 (Durable.effective_version d 1);
  (* And a below-floor transfer entry is refused, not installed. *)
  Durable.inject_bitrot d 1;
  Durable.apply_updates d [ (1, 2, block "older") ];
  Alcotest.(check bool) "below-floor transfer refused" false (Durable.checksum_ok d 1)

(* ------------------------------------------------------------------ *)
(* Torn writes and the recovery scrub                                  *)
(* ------------------------------------------------------------------ *)

let test_torn_apply_replayed () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 2 (block "a") ~version:1;
  Durable.write d 2 (block "b") ~version:2;
  Durable.arm_torn_write d;
  Durable.crash d;
  (* The journal committed but the in-place apply tore: garbage bytes
     under an intact version number. *)
  Alcotest.(check bool) "torn block quarantined" false (Durable.checksum_ok d 2);
  Alcotest.(check int) "torn write counted" 1 (Durable.counters d).Durable.torn_writes;
  let report = Durable.scrub d in
  Alcotest.(check int) "scrub replays the intention" 1 report.Durable.replayed;
  match Durable.read_verified d 2 with
  | Some (b, 2) ->
      Alcotest.(check bool) "acknowledged write survives" true (Block.equal b (block "b"))
  | _ -> Alcotest.fail "replayed block unreadable"

let test_crash_unarmed_is_harmless () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 1 (block "kept") ~version:1;
  Durable.crash d;
  Alcotest.(check bool) "disk intact" true (Durable.checksum_ok d 1);
  let report = Durable.scrub d in
  Alcotest.(check int) "clean scrub: nothing to replay" 0 report.Durable.replayed;
  Alcotest.(check int) "clean scrub: nothing quarantined" 0 report.Durable.quarantined

let test_scrub_counts_quarantined () =
  let d = Durable.create ~capacity:4 in
  Durable.write d 0 (block "x") ~version:1;
  Durable.write d 3 (block "y") ~version:1;
  (* A later clean write: the journal's single slot holds block 1, so the
     rot below is genuine decay, not a torn apply the journal could replay. *)
  Durable.write d 1 (block "z") ~version:1;
  Durable.inject_bitrot d 0;
  Durable.inject_bitrot d 3;
  let report = Durable.scrub d in
  Alcotest.(check int) "both rotten blocks counted" 2 report.Durable.quarantined;
  Alcotest.(check bool) "last_scrub kept" true (Durable.last_scrub d = Some report)

(* One commit per journalled write, a healing write included, and one per
   metadata write: the sync writes bench/perf prices per op.  Nothing that
   installs no intention commits. *)
let test_journal_commits () =
  let d = Durable.create ~capacity:4 in
  let commits () = (Durable.counters d).Durable.journal_commits in
  Durable.write d 0 (block "a") ~version:1;
  Durable.write d 0 (block "a") ~version:1;
  Alcotest.(check int) "one per write" 2 (commits ());
  Durable.inject_bitrot d 0;
  Durable.write d 0 (block "stale") ~version:0;
  Alcotest.(check int) "none for a refused below-floor write" 2 (commits ());
  Durable.write d 0 (block "healed") ~version:1;
  Alcotest.(check int) "one for a healing write" 3 (commits ());
  Alcotest.(check bool) "stale offer refused" false (Durable.absorb d 0 (block "old") ~version:1);
  Alcotest.(check int) "none for a stale absorb" 3 (commits ());
  Durable.apply_updates d [ (1, 2, block "t"); (2, 1, block "u") ];
  Alcotest.(check int) "none for apply_updates" 3 (commits ());
  Durable.set_meta d "w" [ 1 ];
  Durable.set_meta d "w" [ 1; 2 ];
  Alcotest.(check int) "one per set_meta" 5 (commits ())

(* ------------------------------------------------------------------ *)
(* Journaled metadata                                                  *)
(* ------------------------------------------------------------------ *)

let test_meta_roundtrip () =
  let d = Durable.create ~capacity:2 in
  Alcotest.(check (option (list int))) "unset key" None (Durable.get_meta d "w");
  Durable.set_meta_default d "w" [ 0; 1; 2 ];
  Alcotest.(check (option (list int))) "default installs" (Some [ 0; 1; 2 ]) (Durable.get_meta d "w");
  Durable.set_meta d "w" [ 1 ];
  Alcotest.(check (option (list int))) "update sticks" (Some [ 1 ]) (Durable.get_meta d "w")

let test_torn_meta_reset_to_default () =
  let d = Durable.create ~capacity:2 in
  Durable.set_meta_default d "w" [ 0; 1; 2 ];
  Durable.set_meta d "w" [ 1 ];
  Durable.arm_torn_write d;
  Durable.crash d;
  let report = Durable.scrub d in
  Alcotest.(check (list string)) "torn key reported" [ "w" ] report.Durable.meta_reset;
  Alcotest.(check (option (list int)))
    "conservative default restored" (Some [ 0; 1; 2 ]) (Durable.get_meta d "w")

(* ------------------------------------------------------------------ *)
(* Disk replacement                                                    *)
(* ------------------------------------------------------------------ *)

let test_replace_disk () =
  let d = Durable.create ~capacity:4 in
  Durable.set_meta_default d "w" [ 0; 1 ];
  Durable.set_meta d "w" [ 0 ];
  Durable.write d 2 (block "doomed") ~version:7;
  Durable.inject_bitrot d 2;
  Durable.replace_disk d;
  Alcotest.(check bool) "blank block verified" true (Durable.checksum_ok d 2);
  Alcotest.(check int) "version reset" 0 (Durable.effective_version d 2);
  Alcotest.(check bool) "contents zeroed" true (Durable.read_verified d 2 = Some (Block.zero, 0));
  Alcotest.(check (option (list int))) "meta back to default" (Some [ 0; 1 ])
    (Durable.get_meta d "w");
  Alcotest.(check int) "counted" 1 (Durable.counters d).Durable.disk_replacements

let test_counter_accumulation () =
  let a = Durable.zero_counters () in
  let d = Durable.create ~capacity:2 in
  Durable.write d 0 (block "x") ~version:1;
  Durable.inject_bitrot d 0;
  Durable.write d 0 (block "x") ~version:1;
  Durable.accumulate_counters a (Durable.counters d);
  Durable.accumulate_counters a (Durable.counters d);
  Alcotest.(check int) "bitrot summed" 2 a.Durable.bitrot_injected;
  Alcotest.(check int) "repairs summed" 2 a.Durable.repaired_blocks

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Bitrot is always detected: whatever (contents, version) pair is on the
   platter, scrambling the data bytes breaks the checksum. *)
let prop_bitrot_always_detected =
  QCheck.Test.make ~name:"inject_bitrot always breaks the checksum" ~count:300
    QCheck.(pair (string_of_size (Gen.int_range 0 64)) (int_range 1 50))
    (fun (s, v) ->
      let d = Durable.create ~capacity:4 in
      Durable.write d 1 (block s) ~version:v;
      Durable.inject_bitrot d 1;
      (not (Durable.checksum_ok d 1)) && Durable.version d 1 = v)

(* Crash-atomicity: an armed crash tears the apply of the last write and
   the scrub replays it from the journal, so the acknowledged write
   survives verified — never the pre-image, a mix or garbage. *)
let prop_scrub_keeps_torn_write =
  QCheck.Test.make ~name:"scrub keeps the torn write, verified" ~count:200
    QCheck.(pair small_printable_string small_printable_string)
    (fun (old_s, new_s) ->
      let d = Durable.create ~capacity:2 in
      Durable.write d 0 (block old_s) ~version:1;
      Durable.write d 0 (block new_s) ~version:2;
      Durable.arm_torn_write d;
      Durable.crash d;
      ignore (Durable.scrub d : Durable.scrub_report);
      match Durable.read_verified d 0 with
      | Some (b, 2) -> Block.equal b (block new_s)
      | _ -> false)

(* The replica rules against a model.  Random sequences of installs and
   media faults; the model tracks, per block, the stored version, the
   last installed contents and whether the copy is still verified.  After
   every step the store must agree with the model: its stored version,
   its checksum verdict, and [serve] answering only verified bytes.
   [absorb] must install exactly when the offer is newer than the stored
   version or reaches a quarantined block's floor, and never lower a
   version. *)
type op =
  | Write of int * int * string  (** block, versions above the stored one, payload *)
  | Absorb of int * int * string  (** block, offered version, payload *)
  | Apply of (int * int * string) list
  | Rot of int
  | Replace

let show_op = function
  | Write (k, d, s) -> Printf.sprintf "write %d +%d %S" k d s
  | Absorb (k, v, s) -> Printf.sprintf "absorb %d v%d %S" k v s
  | Apply l ->
      Printf.sprintf "apply [%s]"
        (String.concat "; " (List.map (fun (k, v, s) -> Printf.sprintf "%d v%d %S" k v s) l))
  | Rot k -> Printf.sprintf "rot %d" k
  | Replace -> "replace"

let arb_ops =
  let open QCheck.Gen in
  let blk = int_range 0 3 and ver = int_range 0 6 in
  let payload = string_size ~gen:printable (int_range 1 6) in
  let op =
    frequency
      [
        (3, map3 (fun k d s -> Write (k, d, s)) blk (int_range 0 2) payload);
        (4, map3 (fun k v s -> Absorb (k, v, s)) blk ver payload);
        (2, map (fun l -> Apply l) (list_size (int_range 0 3) (triple blk ver payload)));
        (2, map (fun k -> Rot k) blk);
        (1, return Replace);
      ]
  in
  QCheck.make ~print:(QCheck.Print.list show_op) (list_size (int_range 1 40) op)

let prop_replica_rules =
  QCheck.Test.make ~name:"absorb and serve follow the replica rules" ~count:300 arb_ops
    (fun ops ->
      let capacity = 4 in
      let d = Durable.create ~capacity in
      let m_version = Array.make capacity 0
      and m_data = Array.make capacity Block.zero
      and m_ok = Array.make capacity true in
      let installs k v = v > m_version.(k) || ((not m_ok.(k)) && v >= m_version.(k)) in
      let install k v data =
        m_version.(k) <- v;
        m_data.(k) <- data;
        m_ok.(k) <- true
      in
      let agrees k =
        Durable.version d k = m_version.(k)
        && Durable.checksum_ok d k = m_ok.(k)
        &&
        match Durable.serve d k with
        | v, data when m_ok.(k) -> v = m_version.(k) && Block.equal data m_data.(k)
        | v, data -> v = 0 && Block.equal data Block.zero
      in
      let step = function
        | Write (k, delta, s) ->
            let v = Durable.version d k + delta in
            Durable.write d k (block s) ~version:v;
            install k v (block s);
            true
        | Absorb (k, v, s) ->
            let stored = Durable.version d k in
            let rule = v > stored || ((not (Durable.checksum_ok d k)) && v >= stored) in
            let installed = Durable.absorb d k (block s) ~version:v in
            if installed then install k v (block s);
            installed = rule && Durable.version d k >= stored
        | Apply l ->
            List.iter (fun (k, v, s) -> if installs k v then install k v (block s)) l;
            Durable.apply_updates d (List.map (fun (k, v, s) -> (k, v, block s)) l);
            true
        | Rot k ->
            Durable.inject_bitrot d k;
            m_ok.(k) <- false;
            true
        | Replace ->
            Durable.replace_disk d;
            for k = 0 to capacity - 1 do
              install k 0 Block.zero
            done;
            true
      in
      List.for_all (fun op -> step op && List.for_all agrees (List.init capacity Fun.id)) ops)

let () =
  Alcotest.run "durable"
    [
      ( "pass-through",
        [
          Alcotest.test_case "checked read/write" `Quick test_passthrough;
          Alcotest.test_case "version regression" `Quick test_version_regression_on_verified;
        ] );
      ( "bitrot",
        [
          Alcotest.test_case "quarantine" `Quick test_bitrot_quarantines;
          Alcotest.test_case "never transferred" `Quick test_quarantined_never_transferred;
          Alcotest.test_case "version floor" `Quick test_version_floor;
          Alcotest.test_case "transfer repairs at floor" `Quick test_apply_updates_repairs_at_floor;
          QCheck_alcotest.to_alcotest prop_bitrot_always_detected;
          QCheck_alcotest.to_alcotest prop_replica_rules;
        ] );
      ( "torn-writes",
        [
          Alcotest.test_case "torn apply replayed" `Quick test_torn_apply_replayed;
          Alcotest.test_case "unarmed crash harmless" `Quick test_crash_unarmed_is_harmless;
          Alcotest.test_case "scrub counts quarantined" `Quick test_scrub_counts_quarantined;
          Alcotest.test_case "journal commits" `Quick test_journal_commits;
          QCheck_alcotest.to_alcotest prop_scrub_keeps_torn_write;
        ] );
      ( "metadata",
        [
          Alcotest.test_case "roundtrip" `Quick test_meta_roundtrip;
          Alcotest.test_case "torn apply resets to default" `Quick test_torn_meta_reset_to_default;
        ] );
      ( "replacement",
        [
          Alcotest.test_case "replace disk" `Quick test_replace_disk;
          Alcotest.test_case "counter accumulation" `Quick test_counter_accumulation;
        ] );
    ]
