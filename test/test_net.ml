(* Tests for Net: Message, Traffic, Network. *)

module Payload = struct
  type t = Ping of int | Data of string

  let category = function
    | Ping _ -> Net.Message.Vote_request
    | Data _ -> Net.Message.Block_transfer

  let size = function Ping _ -> 8 | Data s -> String.length s

  (* A real checksummed frame, so encoded-delivery tests exercise the same
     rejection machinery the production [Wire] payload does. *)
  let encode = function
    | Ping n ->
        Codec.Frame.encode ~payload:(fun w ->
            Codec.Buf.u8 w 1;
            Codec.Buf.varint w n)
    | Data s ->
        Codec.Frame.encode ~payload:(fun w ->
            Codec.Buf.u8 w 2;
            Codec.Buf.string w s)

  let decode_frame buf =
    match Codec.Frame.decode buf with
    | Error (Codec.Frame.Truncated _) -> Error Net.Message.Reject_truncated
    | Error (Codec.Frame.Bad_magic _) -> Error Net.Message.Reject_bad_magic
    | Error (Codec.Frame.Trailing _) -> Error Net.Message.Reject_trailing
    | Error (Codec.Frame.Crc_mismatch _) -> Error Net.Message.Reject_crc
    | Ok r -> (
        match
          match Codec.Buf.r_u8 r with
          | 1 -> Ok (Ping (Codec.Buf.r_varint r))
          | 2 -> Ok (Data (Codec.Buf.r_string r))
          | _ -> Error Net.Message.Reject_bad_tag
        with
        | Ok m when Codec.Buf.at_end r -> Ok m
        | Ok _ -> Error Net.Message.Reject_malformed
        | (Error _ as e) -> e
        | exception Codec.Buf.Short -> Error Net.Message.Reject_malformed
        | exception Codec.Buf.Bad _ -> Error Net.Message.Reject_malformed)
end

module N = Net.Network.Make (Payload)

let make ?(mode = Net.Network.Multicast) ?(latency = Util.Dist.Constant 1.0) ?(n_sites = 4) () =
  let engine = Sim.Engine.create () in
  let net = N.create engine ~mode ~latency ~rng:(Util.Prng.create 1) ~n_sites in
  (engine, net)

(* ------------------------------------------------------------------ *)
(* Message / Traffic                                                   *)
(* ------------------------------------------------------------------ *)

let test_message_strings_unique () =
  let names = List.map Net.Message.to_string Net.Message.all in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_traffic_record () =
  let t = Net.Traffic.create () in
  Net.Traffic.record t Net.Message.Read Net.Message.Vote_request 3;
  Net.Traffic.record t Net.Message.Write Net.Message.Vote_request 2;
  Net.Traffic.record t Net.Message.Read Net.Message.Block_transfer 1;
  Alcotest.(check int) "total" 6 (Net.Traffic.total t);
  Alcotest.(check int) "by category" 5 (Net.Traffic.by_category t Net.Message.Vote_request);
  Alcotest.(check int) "by operation" 4 (Net.Traffic.by_operation t Net.Message.Read);
  Alcotest.(check int) "cell" 3 (Net.Traffic.of_cell t Net.Message.Read Net.Message.Vote_request)

let test_traffic_reset () =
  let t = Net.Traffic.create () in
  Net.Traffic.record t Net.Message.Recovery Net.Message.Recovery_probe 5;
  Net.Traffic.reset t;
  Alcotest.(check int) "reset" 0 (Net.Traffic.total t)

let test_traffic_rejects_negative () =
  let t = Net.Traffic.create () in
  Alcotest.check_raises "negative count" (Invalid_argument "Traffic.record: negative count")
    (fun () -> Net.Traffic.record t Net.Message.Read Net.Message.Vote_reply (-1))

let test_traffic_snapshot () =
  let t = Net.Traffic.create () in
  Net.Traffic.record t Net.Message.Write Net.Message.Block_update 7;
  Alcotest.(check int) "one non-zero cell" 1 (List.length (Net.Traffic.snapshot t))

let test_traffic_rejects () =
  (* Traffic counts sends only; rejects are filed per class in the
     network's ingress ledger.  Each of four links from site 0 damages
     every frame in one way, so each burns three rejects and then
     quarantines the fourth attempt. *)
  let engine, net = make ~n_sites:5 () in
  let f = Net.Faults.of_seed ~seed:7 Net.Faults.pristine in
  let damage = Net.Faults.no_corruption in
  List.iter
    (fun (dst, corruption) ->
      Net.Faults.set_link f ~from:0 ~dst (Net.Faults.make_exn ~corruption ()))
    [
      (1, { damage with truncate = 1.0 });
      (2, { damage with garbage_prefix = 1.0 });
      (3, { damage with garbage_suffix = 1.0 });
      (4, { damage with bit_flip = 1.0 });
    ];
  N.install_faults net f;
  let hooked = ref [] in
  N.set_reject_hook net (fun ~dst ~from:_ reject -> hooked := (dst, reject) :: !hooked);
  for dst = 1 to 4 do
    N.send net ~op:Net.Message.Read ~from:0 ~dst (Payload.Ping dst)
  done;
  Sim.Engine.run engine;
  Alcotest.(check int) "one charge per send" 4 (Net.Traffic.total (N.traffic net));
  let classes_at dst =
    List.sort_uniq compare (List.filter_map (fun (d, r) -> if d = dst then Some r else None) !hooked)
  in
  Alcotest.(check bool) "truncation is its own class" true
    (classes_at 1 = [ Net.Message.Reject_truncated ]);
  Alcotest.(check bool) "leading garbage is a bad magic" true
    (classes_at 2 = [ Net.Message.Reject_bad_magic ]);
  Alcotest.(check bool) "trailing garbage is its own class" true
    (classes_at 3 = [ Net.Message.Reject_trailing ]);
  let g = N.ingress net in
  List.iter
    (fun r ->
      Alcotest.(check int)
        ("per class " ^ Net.Message.reject_to_string r)
        (List.length (List.filter (fun (_, r') -> r' = r) !hooked))
        (Net.Network.rejected_of g r))
    Net.Message.all_rejects;
  Alcotest.(check int) "sum over classes" 12 (Net.Network.frames_rejected g);
  (* Quarantined frames were never decoded, so they carry no reject class
     and stay out of the frames_rejected sum. *)
  Alcotest.(check int) "quarantined separate" 4 g.quarantined;
  Alcotest.(check int) "damaged frames rejected" 12 g.corrupt_rejected;
  Alcotest.(check int) "damaged frames quarantined" 4 g.corrupt_quarantined;
  Alcotest.(check bool) "conservation" true (N.corruption_conserved net)

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

let collect_at net id log =
  N.register net ~id (fun ~from payload -> log := (from, payload) :: !log)

let test_send_delivers () =
  let engine, net = make () in
  let log = ref [] in
  collect_at net 1 log;
  N.send net ~op:Net.Message.Read ~from:0 ~dst:1 (Payload.Ping 7);
  Alcotest.(check int) "not delivered before latency" 0 (List.length !log);
  Sim.Engine.run engine;
  Alcotest.(check int) "delivered" 1 (List.length !log);
  (match !log with
  | [ (from, Payload.Ping 7) ] -> Alcotest.(check int) "sender id" 0 from
  | _ -> Alcotest.fail "wrong delivery");
  Alcotest.(check (float 1e-9)) "took one latency" 1.0 (Sim.Engine.now engine)

let test_send_counts_one () =
  let _, net = make () in
  N.send net ~op:Net.Message.Read ~from:0 ~dst:1 (Payload.Ping 1);
  Alcotest.(check int) "one transmission" 1 (Net.Traffic.total (N.traffic net))

let test_send_rejects_self () =
  let _, net = make () in
  Alcotest.check_raises "self send" (Invalid_argument "Network.send: local access needs no transmission")
    (fun () -> N.send net ~op:Net.Message.Read ~from:2 ~dst:2 (Payload.Ping 0))

let test_send_from_down_site_rejected () =
  let _, net = make () in
  N.set_up net 0 false;
  Alcotest.check_raises "dead sender" (Invalid_argument "Network.send: sender is down") (fun () ->
      N.send net ~op:Net.Message.Read ~from:0 ~dst:1 (Payload.Ping 0))

let test_down_receiver_drops () =
  let engine, net = make () in
  let log = ref [] in
  collect_at net 1 log;
  N.set_up net 1 false;
  N.send net ~op:Net.Message.Read ~from:0 ~dst:1 (Payload.Ping 1);
  Sim.Engine.run engine;
  Alcotest.(check int) "dropped" 0 (List.length !log);
  Alcotest.(check int) "but still counted as sent" 1 (Net.Traffic.total (N.traffic net))

let test_receiver_fails_in_flight () =
  let engine, net = make () in
  let log = ref [] in
  collect_at net 1 log;
  N.send net ~op:Net.Message.Read ~from:0 ~dst:1 (Payload.Ping 1);
  (* The receiver dies before the message lands. *)
  ignore (Sim.Engine.schedule engine ~delay:0.5 (fun () -> N.set_up net 1 false));
  Sim.Engine.run engine;
  Alcotest.(check int) "lost with the site" 0 (List.length !log)

let test_broadcast_multicast_counts_one () =
  let engine, net = make ~mode:Net.Network.Multicast () in
  let logs = Array.init 4 (fun _ -> ref []) in
  for i = 0 to 3 do
    collect_at net i logs.(i)
  done;
  N.broadcast net ~op:Net.Message.Write ~from:0 (Payload.Data "x");
  Sim.Engine.run engine;
  Alcotest.(check int) "one transmission in multicast" 1 (Net.Traffic.total (N.traffic net));
  Alcotest.(check int) "sender not delivered to" 0 (List.length !(logs.(0)));
  for i = 1 to 3 do
    Alcotest.(check int) (Printf.sprintf "site %d got it" i) 1 (List.length !(logs.(i)))
  done

let test_broadcast_unicast_counts_n_minus_1 () =
  let engine, net = make ~mode:Net.Network.Unicast () in
  N.set_up net 3 false;
  N.broadcast net ~op:Net.Message.Write ~from:0 (Payload.Data "x");
  Sim.Engine.run engine;
  (* Down destinations still cost a transmission: the sender cannot know. *)
  Alcotest.(check int) "n-1 transmissions in unicast" 3 (Net.Traffic.total (N.traffic net))

let test_partition_blocks () =
  let engine, net = make () in
  let log = ref [] in
  collect_at net 3 log;
  N.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Alcotest.(check bool) "same group reachable" true (N.reachable net 2 3);
  Alcotest.(check bool) "cross group unreachable" false (N.reachable net 0 3);
  N.send net ~op:Net.Message.Read ~from:0 ~dst:3 (Payload.Ping 1);
  Sim.Engine.run engine;
  Alcotest.(check int) "message did not cross" 0 (List.length !log);
  N.heal net;
  N.send net ~op:Net.Message.Read ~from:0 ~dst:3 (Payload.Ping 2);
  Sim.Engine.run engine;
  Alcotest.(check int) "after heal it flows" 1 (List.length !log)

let test_partition_isolates_missing_sites () =
  let _, net = make () in
  N.partition net [ [ 0; 1 ] ];
  Alcotest.(check bool) "listed pair" true (N.reachable net 0 1);
  Alcotest.(check bool) "unlisted site isolated" false (N.reachable net 2 3);
  Alcotest.(check bool) "unlisted to listed" false (N.reachable net 2 0)

let test_up_sites () =
  let _, net = make () in
  N.set_up net 2 false;
  Alcotest.(check (list int)) "up sites" [ 0; 1; 3 ] (N.up_sites net)

let test_latency_distribution_applied () =
  let engine, net = make ~latency:(Util.Dist.Constant 2.5) ~n_sites:2 () in
  let at = ref 0.0 in
  N.register net ~id:1 (fun ~from:_ _ -> at := Sim.Engine.now engine);
  N.send net ~op:Net.Message.Read ~from:0 ~dst:1 (Payload.Ping 1);
  Sim.Engine.run engine;
  Alcotest.(check (float 1e-9)) "constant latency applied" 2.5 !at

let test_delivered_counter () =
  let engine, net = make () in
  let log = ref [] in
  collect_at net 1 log;
  N.set_up net 2 false;
  N.broadcast net ~op:Net.Message.Write ~from:0 (Payload.Data "y");
  Sim.Engine.run engine;
  (* 3 destinations, one down, one without a handler (site 3): handler-less
     deliveries do not count. *)
  Alcotest.(check int) "delivered to registered up sites" 1 (N.messages_delivered net)

(* ------------------------------------------------------------------ *)
(* Encoded delivery                                                    *)
(* ------------------------------------------------------------------ *)

(* One run of a fixed message program, returning everything observable.
   The program sends on links 0->1, 1->2, 2->0 and 2->1 only. *)
let run_program ?injector () =
  let engine, net = make ~n_sites:3 () in
  Option.iter (N.install_faults net) injector;
  let logs = Array.init 3 (fun _ -> ref []) in
  for i = 0 to 2 do
    collect_at net i logs.(i)
  done;
  N.send net ~op:Net.Message.Read ~from:0 ~dst:1 (Payload.Ping 7);
  N.send net ~op:Net.Message.Write ~from:1 ~dst:2 (Payload.Data "hello");
  N.broadcast net ~op:Net.Message.Write ~from:2 (Payload.Data "world");
  Sim.Engine.run engine;
  (net, logs, Sim.Engine.now engine)

let test_encoded_twin_run_identical () =
  (* The delivery path is picked by the injector, not by a switch: once
     any link has been given corruption the network encodes everything.
     An override on the unused link 1->0, healed again before the run,
     leaves a corrupting injector whose every used link is pristine —
     encoded delivery must then be bit-identical to the in-heap path:
     same deliveries, same virtual time, same traffic. *)
  let sticky = Net.Faults.of_seed ~seed:42 Net.Faults.pristine in
  Net.Faults.set_link sticky ~from:1 ~dst:0 Net.Faults.persistent_corruptor;
  Net.Faults.set_link sticky ~from:1 ~dst:0 Net.Faults.pristine;
  Alcotest.(check bool) "the heal leaves the injector corrupting" true
    (Net.Faults.corrupting sticky);
  let net_a, logs_a, end_a = run_program () in
  let net_b, logs_b, end_b = run_program ~injector:sticky () in
  Alcotest.(check (float 0.0)) "same end time" end_a end_b;
  Alcotest.(check int) "same traffic total" (Net.Traffic.total (N.traffic net_a))
    (Net.Traffic.total (N.traffic net_b));
  Alcotest.(check int) "same delivered" (N.messages_delivered net_a) (N.messages_delivered net_b);
  for i = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "site %d saw the same messages" i)
      true
      (!(logs_a.(i)) = !(logs_b.(i)))
  done;
  Alcotest.(check int) "no rejects" 0 (Net.Network.frames_rejected (N.ingress net_b));
  Alcotest.(check int) "no retransmissions" 0 (N.ingress net_b).retransmitted;
  Alcotest.(check int) "nothing injected" 0 (Net.Faults.total_injected sticky)

let test_encoded_ambient_corruption_recovers () =
  (* Ambient bit flips on every link: the bounded link-layer redelivery
     must still get every message through, and every corruption draw must
     be classified (the conservation identity). *)
  let profile = Net.Faults.make_exn ~corruption:{ Net.Faults.no_corruption with bit_flip = 0.4 } () in
  let net, logs, _ = run_program ~injector:(Net.Faults.of_seed ~seed:42 profile) () in
  (* Disable quarantine interference for this test by checking it did not
     trip (threshold 3 consecutive failures at p=0.4 is unlikely but
     possible; the seed is fixed, so this is deterministic either way). *)
  let delivered = List.length !(logs.(1)) + List.length !(logs.(2)) + List.length !(logs.(0)) in
  Alcotest.(check int) "all four deliveries landed" 4 delivered;
  Alcotest.(check bool) "some frames were damaged" true
    (match N.faults net with Some f -> (Net.Faults.counters f).corrupted > 0 | None -> false);
  let g = N.ingress net in
  Alcotest.(check bool) "rejected frames were retransmitted" true
    (g.retransmitted >= Net.Network.frames_rejected g);
  Alcotest.(check bool) "conservation" true (N.corruption_conserved net)

let test_persistent_corruptor_quarantined () =
  (* A persistent corruptor (every frame damaged) must burn through the
     strike threshold and land in quarantine: 3 rejects (each
     retransmitted), then the 4th attempt is discarded undecoded and the
     redelivery chain stops. *)
  let engine, net = make ~n_sites:2 () in
  let f = Net.Faults.of_seed ~seed:7 Net.Faults.pristine in
  Net.Faults.set_link f ~from:0 ~dst:1 Net.Faults.persistent_corruptor;
  N.install_faults net f;
  let log = ref [] in
  collect_at net 1 log;
  N.send net ~op:Net.Message.Read ~from:0 ~dst:1 (Payload.Ping 1);
  Sim.Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 (List.length !log);
  let g = N.ingress net in
  Alcotest.(check int) "threshold rejects" 3 (Net.Network.frames_rejected g);
  Alcotest.(check int) "then quarantined" 1 g.quarantined;
  Alcotest.(check int) "one quarantine trip" 1 g.quarantine_trips;
  Alcotest.(check int) "retransmissions stopped at the trip" 3 g.retransmitted;
  Alcotest.(check int) "every attempt was damaged" 4 (Net.Faults.counters f).corrupted;
  Alcotest.(check bool) "conservation" true (N.corruption_conserved net);
  (* After the cooldown the link is usable again. *)
  Net.Faults.set_link f ~from:0 ~dst:1 Net.Faults.pristine;
  Sim.Engine.run_until engine 30.0;
  N.send net ~op:Net.Message.Read ~from:0 ~dst:1 (Payload.Ping 2);
  Sim.Engine.run engine;
  Alcotest.(check int) "clean frame flows after cooldown" 1 (List.length !log)

let test_reject_hook_sees_failures () =
  let engine, net = make ~n_sites:2 () in
  let f = Net.Faults.of_seed ~seed:7 Net.Faults.pristine in
  Net.Faults.set_link f ~from:0 ~dst:1 Net.Faults.persistent_corruptor;
  N.install_faults net f;
  N.register net ~id:1 (fun ~from:_ _ -> ());
  let hook_calls = ref [] in
  N.set_reject_hook net (fun ~dst ~from reject -> hook_calls := (dst, from, reject) :: !hook_calls);
  N.send net ~op:Net.Message.Read ~from:0 ~dst:1 (Payload.Ping 1);
  Sim.Engine.run engine;
  Alcotest.(check int) "hook fired per reject" 3 (List.length !hook_calls);
  List.iter
    (fun (dst, from, _) ->
      Alcotest.(check int) "receiver" 1 dst;
      Alcotest.(check int) "sender" 0 from)
    !hook_calls

let () =
  Alcotest.run "net"
    [
      ( "traffic",
        [
          Alcotest.test_case "category names unique" `Quick test_message_strings_unique;
          Alcotest.test_case "record/query" `Quick test_traffic_record;
          Alcotest.test_case "reset" `Quick test_traffic_reset;
          Alcotest.test_case "negative rejected" `Quick test_traffic_rejects_negative;
          Alcotest.test_case "snapshot" `Quick test_traffic_snapshot;
          Alcotest.test_case "reject classes" `Quick test_traffic_rejects;
        ] );
      ( "network",
        [
          Alcotest.test_case "send delivers after latency" `Quick test_send_delivers;
          Alcotest.test_case "send counts one" `Quick test_send_counts_one;
          Alcotest.test_case "self send rejected" `Quick test_send_rejects_self;
          Alcotest.test_case "dead sender rejected" `Quick test_send_from_down_site_rejected;
          Alcotest.test_case "down receiver drops" `Quick test_down_receiver_drops;
          Alcotest.test_case "receiver fails in flight" `Quick test_receiver_fails_in_flight;
          Alcotest.test_case "multicast broadcast costs 1" `Quick test_broadcast_multicast_counts_one;
          Alcotest.test_case "unicast broadcast costs n-1" `Quick test_broadcast_unicast_counts_n_minus_1;
          Alcotest.test_case "partitions block traffic" `Quick test_partition_blocks;
          Alcotest.test_case "partition isolates unlisted" `Quick test_partition_isolates_missing_sites;
          Alcotest.test_case "up_sites" `Quick test_up_sites;
          Alcotest.test_case "latency applied" `Quick test_latency_distribution_applied;
          Alcotest.test_case "delivered counter" `Quick test_delivered_counter;
        ] );
      ( "encoded",
        [
          Alcotest.test_case "twin run identical" `Quick test_encoded_twin_run_identical;
          Alcotest.test_case "ambient corruption recovers" `Quick
            test_encoded_ambient_corruption_recovers;
          Alcotest.test_case "persistent corruptor quarantined" `Quick
            test_persistent_corruptor_quarantined;
          Alcotest.test_case "reject hook" `Quick test_reject_hook_sees_failures;
        ] );
    ]
