(** Dense linear algebra, just enough to solve steady-state equations.

    The paper derived its availability expressions symbolically with MACSYMA;
    we instead solve the balance equations numerically, which works for any
    number of copies and validates every closed form. *)

type t
(** A dense, mutable, row-major matrix of floats. *)

val create : rows:int -> cols:int -> t
(** Zero-filled matrix. *)

val of_rows : float array array -> t
(** Copies the given rows; all rows must have equal length. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val add : t -> int -> int -> float -> unit
(** In-place [m.(i).(j) <- m.(i).(j) +. v]. *)

val copy : t -> t
val transpose : t -> t

val mul_vec : t -> float array -> float array
(** Matrix–vector product; the vector length must equal [cols]. *)

val solve : t -> float array -> float array
(** [solve a b] returns [x] with [a x = b], by Gaussian elimination with
    partial pivoting.  [a] must be square and is not modified.  Raises
    [Failure "Matrix.solve: singular matrix"] when no pivot exceeds
    [1e-12]. *)
