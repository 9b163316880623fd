(** The message-count model of Section 5.

    Costs are expected numbers of high-level transmissions per operation, as
    functions of the number of sites [n] and the failure-to-repair ratio
    [rho].  The participation averages U (operational sites for voting,
    available sites for the copy schemes) are taken exactly from the Markov
    chains; the paper shows they agree to O(ρ²).

    Summary of the model, [U] being the scheme's participation:

    {v
                     multicast              unique addressing
    voting   write   1 + U                  n + 2U - 3
             read    U   (stale: U + 1)     n + U - 2  (stale: n + U - 1)
             recov   0                      0
    AC       write   U                      n + U - 2
             read    0                      0
             recov   U + 2                  n + U
    NAC      write   1                      n - 1
             read    0                      0
             recov   U + 2                  n + U
    v} *)

type scheme = Voting | Available_copy | Naive_available_copy

val scheme_to_string : scheme -> string
val all_schemes : scheme list

type environment = Multicast | Unique_address

val participation : scheme -> n:int -> rho:float -> float
(** The U entering each scheme's costs. *)

val write_cost : environment -> scheme -> n:int -> rho:float -> float
val read_cost : ?stale:bool -> environment -> scheme -> n:int -> rho:float -> float
(** [stale] (default [false]): the local copy was out of date, adding one
    block transfer under voting.  Irrelevant to the copy schemes (reads are
    local). *)

val recovery_cost : environment -> scheme -> n:int -> rho:float -> float

val workload_cost :
  environment -> scheme -> n:int -> rho:float -> reads_per_write:float -> float
(** Cost of one write plus [reads_per_write] reads — the dependent axis of
    Figures 11 and 12. *)
