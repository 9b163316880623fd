(** Weighted quorums for majority consensus voting (Section 3.1).

    Every site holding a copy carries a vote weight; reads need a set of
    respondents whose weights reach the read threshold, writes the write
    threshold.  The thresholds must guarantee that (i) any read quorum
    intersects any write quorum and (ii) two write quorums intersect, which
    is what makes the highest version in a quorum the current one. *)

type t

val create :
  weights:int array -> ?read_threshold:int -> ?write_threshold:int -> unit -> (t, string) result
(** [create ~weights ()] builds a quorum system.  Default thresholds are the
    strict majority [total/2 + 1] for both reads and writes.  Returns
    [Error] when a weight is non-positive, or the thresholds violate
    [read + write > total] or [2*write > total]. *)

val unsafe : weights:int array -> read_threshold:int -> write_threshold:int -> t
(** Like {!create} but {e without} the intersection constraints: thresholds
    need only be positive and at most the total weight.  This deliberately
    builds broken quorum systems ([read + write <= total], minority
    writes, ...) for the adversarial chaos harness, whose oracle must
    catch the resulting stale reads.  Never use in a configuration whose
    answers you intend to trust.  Raises [Invalid_argument] only on
    non-positive weights/thresholds or thresholds above the total. *)

val majority : n:int -> t
(** The paper's default configuration.  Odd [n]: equal weights 1.  Even [n]:
    the tie-breaking adjustment of Section 4.1 — site 0 gets weight 3 and
    the others weight 2, so draws are impossible and availability equals
    that of [n-1] equally weighted copies. *)

val n_sites : t -> int
val weight : t -> int -> int
val total_weight : t -> int
val read_threshold : t -> int
val write_threshold : t -> int

val weight_of : t -> int list -> int
(** Summed weight of a list of distinct site ids. *)

val read_quorum_met : t -> int -> bool
(** [read_quorum_met q w] — does collected weight [w] reach the read
    threshold? *)

val write_quorum_met : t -> int -> bool
