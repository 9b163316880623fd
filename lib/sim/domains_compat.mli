(** Portability shim over OCaml 5 domains.

    The sharded engine ({!Shard_engine}) wants to run independent
    simulation lanes on parallel domains when the runtime has them
    (OCaml >= 5.0) and fall back to a plain sequential loop on 4.14.
    Everything version-specific lives behind this one module; dune
    selects the implementation matching the compiler (the same trick the
    linter uses for typedtree drift).

    The contract both implementations satisfy, and the reason the
    fallback is {e bit-identical} to the parallel path: [parallel_run]
    applies [f] to every lane index exactly once, each application sees
    only the state it creates itself, and the result array is indexed by
    lane — so the schedule (parallel, sequential, or anything in
    between) cannot influence the value returned. *)

val recommended_domains : unit -> int
(** The runtime's parallelism hint ([Domain.recommended_domain_count] on
    OCaml 5); [1] on 4.14. *)

val parallel_run : lanes:int -> (int -> 'a) -> 'a array
(** [parallel_run ~lanes f] computes [[| f 0; ...; f (lanes - 1) |]].
    On OCaml 5, lanes [1 .. lanes - 1] run on freshly spawned domains
    while lane [0] runs on the calling one; on 4.14 the lanes run
    sequentially in ascending order.  [f] must be self-contained: it
    must not touch mutable state shared with another lane (each lane
    builds its own engine, cluster and PRNG streams).  Exceptions raised
    by any lane are re-raised after every domain is joined.  Raises
    [Invalid_argument] when [lanes <= 0]. *)
