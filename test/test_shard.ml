(* Tests for the sharded engine lanes: order-preserving parallel maps,
   and the twin-run guarantee that execution width never changes results
   — an N-shard chaos sweep is bit-identical to [--shards 1], on the
   OCaml 4.14 sequential fallback and on OCaml 5 domains alike. *)

module Shard = Sim.Shard_engine
module Chaos = Check.Chaos
module Types = Blockrep.Types

(* ------------------------------------------------------------------ *)
(* Parallel maps                                                       *)
(* ------------------------------------------------------------------ *)

let test_map_list_preserves_order () =
  let xs = List.init 37 (fun i -> i) in
  let doubled = Shard.map_list ~shards:4 xs (fun x -> 2 * x) in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> 2 * x) xs) doubled

let test_map_list_matches_sequential () =
  let f x = (x * 31) lxor (x lsr 2) in
  let xs = List.init 23 (fun i -> 100 + i) in
  Alcotest.(check (list int)) "same as shards:1" (Shard.map_list ~shards:1 xs f)
    (Shard.map_list ~shards:8 xs f);
  (* More shards than items: the lanes clamp to the item count. *)
  let few = [ 7; 8; 9 ] in
  Alcotest.(check (list int)) "shards above items" (List.map f few) (Shard.map_list ~shards:16 few f)

let test_domains_compat_order () =
  let results = Sim.Domains_compat.parallel_run ~lanes:5 (fun lane -> lane * lane) in
  Alcotest.(check (array int)) "lane results in lane order" [| 0; 1; 4; 9; 16 |] results

(* ------------------------------------------------------------------ *)
(* Twin runs: execution width never changes results                    *)
(* ------------------------------------------------------------------ *)

let summary_list (sw : Chaos.sweep_result) =
  List.map
    (fun (s : Chaos.run_summary) ->
      ( s.Chaos.run_seed,
        s.Chaos.run_passed,
        s.Chaos.run_violations,
        s.Chaos.run_ops_ok,
        s.Chaos.run_ops_failed,
        s.Chaos.run_faults ))
    sw.Chaos.summaries

let test_sweep_bit_identical_across_shards () =
  let env = Chaos.default_env Types.Available_copy in
  let seeds = List.init 12 (fun i -> i + 1) in
  let a = Chaos.sweep ~shrink_failures:false ~shards:1 env ~seeds in
  let b = Chaos.sweep ~shrink_failures:false ~shards:3 env ~seeds in
  Alcotest.(check (list (pair int (pair bool (pair int (pair int (pair int int)))))))
    "per-seed summaries identical"
    (List.map (fun (a, b, c, d, e, f) -> (a, (b, (c, (d, (e, f)))))) (summary_list a))
    (List.map (fun (a, b, c, d, e, f) -> (a, (b, (c, (d, (e, f)))))) (summary_list b));
  Alcotest.(check (list int)) "failing seeds identical" a.Chaos.failing b.Chaos.failing

let () =
  Alcotest.run "shard"
    [
      ( "maps",
        [
          Alcotest.test_case "map_list order" `Quick test_map_list_preserves_order;
          Alcotest.test_case "map_list vs sequential" `Quick test_map_list_matches_sequential;
          Alcotest.test_case "domains_compat order" `Quick test_domains_compat_order;
        ] );
      ( "twin-runs",
        [
          Alcotest.test_case "sweep identical across shards" `Slow
            test_sweep_bit_identical_across_shards;
        ] );
    ]
