(** Recorded operation histories.

    The raw material of consistency checking: a sequence of operation
    records — kind, block, serving site, virtual invocation/response
    times, payload, and outcome — appended either through the device's
    observer hook ({!attach}) or manually ({!record}, for synthetic
    histories in oracle tests).

    The device reports one event per {e logical} request, after failover
    and retry resolution, which is exactly the client-visible history
    one-copy serializability speaks about. *)

type kind = Blockrep.Reliable_device.kind = Read | Write

type entry = {
  id : int;  (** position in the history, 0-based *)
  kind : kind;
  block : int;
  site : int;  (** serving site (success) or last site tried (failure) *)
  invoked : float;
  responded : float;
  payload : Blockdev.Block.t option;
      (** data written (all writes) or returned (successful reads) *)
  version : int option;  (** version assigned/served; [None] on failure *)
  error : string option;  (** failure reason; [None] on success *)
}

val ok : entry -> bool
(** Did the operation succeed ([error = None])? *)

type t

val create : unit -> t

val record :
  t ->
  kind:kind ->
  block:int ->
  site:int ->
  invoked:float ->
  responded:float ->
  ?payload:Blockdev.Block.t ->
  ?version:int ->
  ?error:string ->
  unit ->
  unit
(** Append one entry (ids are assigned in append order). *)

val attach : t -> Blockrep.Reliable_device.t -> unit
(** Record every logical request completed through the device from now on. *)

val length : t -> int

val entries : t -> entry list
(** In append (= response) order. *)

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
