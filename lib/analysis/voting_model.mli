(** Closed-form model of majority consensus voting (Section 4.1, 5).

    All formulas are in terms of the failure-to-repair ratio ρ = λ/μ; an
    individual site is up with stationary probability 1/(1+ρ). *)

val availability : n:int -> rho:float -> float
(** Equations (1.a) and (1.b): stationary probability that a majority
    quorum of [n] equally weighted copies is up.  For even [n] the paper
    perturbs one copy's weight to break ties, which contributes half of the
    half-up state's probability; consequently
    [availability ~n:(2*k) = availability ~n:(2*k - 1)]. *)

val availability_upper_bound : n:int -> rho:float -> float
(** The bound used in the proof of Theorem 4.1:
    [A_V(2n-1) < 1 - C(2n-1, n) ρⁿ / (1+ρ)^{2n-1}], evaluated for odd
    arguments; raises [Invalid_argument] on even [n]. *)

val participation : n:int -> rho:float -> float
(** [U_V^n = n(1+ρ)^{n-1} / ((1+ρ)ⁿ - ρⁿ)]: expected number of operational
    sites given that at least one (the local site) is operational. *)

val participation_approx : n:int -> rho:float -> float
(** First-order expansion [n(1-ρ)], accurate to O(ρ²); the paper argues all
    three schemes share it. *)

val binomial : int -> int -> float
(** [binomial n k] = C(n,k) as a float (exact for the small arguments used
    here); 0 outside [0 <= k <= n]. *)
