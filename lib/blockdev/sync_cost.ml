type profile = Hdd | Ssd | Nvme

(* Class medians from Mingardi & Vieira, "Characterizing Synchronous
   Writes in Stable Memory Devices": a small synchronous append+fsync
   costs on the order of ~10 ms on spinning disks (platter rotation +
   write-cache flush), low single-digit milliseconds on SATA SSDs, and
   tens of microseconds on NVMe devices whose flush path hits on-device
   power-loss-protected buffers.  One simulated time unit is 1 ms
   (matching the latency tables' unit), so the values below are
   milliseconds. *)
let fsync_latency = function Hdd -> 12.0 | Ssd -> 1.8 | Nvme -> 0.08
