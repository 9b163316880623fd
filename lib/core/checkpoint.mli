(** Cluster checkpoints: persist the durable state of every site.

    A checkpoint captures what would survive a power cycle of the whole
    installation — each site's blocks, version numbers, was-available set,
    and whether the site was up — so a long simulation can be snapshotted
    and resumed in another process.

    Checkpoints should be taken at {e quiescent} points (no operation or
    recovery in flight): in-flight messages and open rounds are volatile
    and deliberately not captured, exactly as a real crash would lose
    them.  {!restore} targets a {e freshly created} cluster with the same
    scheme, site count and block count; restoring over used state is
    refused (version numbers may never regress). *)

val save : Cluster.t -> string -> (unit, string) result
(** Write the cluster's durable state to a file.  Refuses, naming the
    first quarantined (site, block), while any copy is quarantined:
    {!restore} installs every saved copy as verified data. *)

val restore : Cluster.t -> string -> (unit, string) result
(** Load a checkpoint into a fresh, identically-configured cluster.
    After restore, up sites are in the recorded protocol state and down
    sites are failed; the availability monitor is informed. *)
