(** Sharded execution of independent simulation units.

    Chaos sweeps and bench cells are embarrassingly parallel folds: every
    chaos seed or bench cell is a self-contained simulation whose seed
    derives from the experiment parameters alone.  This module
    distributes those units over OCaml 5 domains (via {!Domains_compat})
    while keeping the result a pure function of the unit list:

    - units are identified and seeded {e before} sharding, so the shard
      count never changes what any unit computes;
    - lanes get contiguous balanced chunks and results are reassembled
      in unit order, so [--shards n] is bit-identical to [--shards 1]
      whether lanes ran on domains (OCaml 5) or sequentially (4.14). *)

val map_tasks : shards:int -> tasks:int -> (int -> 'a) -> 'a array
(** [map_tasks ~shards ~tasks f] computes [[| f 0; ...; f (tasks - 1) |]],
    running chunks of tasks on [min shards tasks] parallel lanes.  [f]
    must be self-contained (no shared mutable state; build per-task
    engines and PRNGs from derived seeds).  The result is independent of
    [shards].  Raises [Invalid_argument] when [shards <= 0] or
    [tasks < 0]. *)

val map_list : shards:int -> 'a list -> ('a -> 'b) -> 'b list
(** List version of {!map_tasks}, preserving order. *)
