(** Sync-write (fsync) cost classes for the intention journal.

    The durable layer's journal commits are the points where a
    real implementation would pay a synchronous write to stable memory.
    This module gives that cost a profile-selectable latency, calibrated
    from the device classes measured by Mingardi & Vieira,
    "Characterizing Synchronous Writes in Stable Memory Devices"
    (PAPERS.md): spinning disks pay ~10 ms per small synchronous
    append+flush, SATA SSDs low single-digit ms, NVMe with protected
    write buffers tens of µs.

    The model reads only the simulation clock, never the host's: the
    cluster charges {!fsync_latency} simulated time units (1 unit =
    1 ms, the latency tables' unit) at each client-visible journal
    commit point.  [Config.sync_profile = None] (the default) charges
    nothing and is bit-identical to the legacy behaviour. *)

type profile = Hdd | Ssd | Nvme

val fsync_latency : profile -> float
(** Simulated milliseconds per journal commit. *)
