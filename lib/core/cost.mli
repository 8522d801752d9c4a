(** The MITOS cost function (paper §IV-A).

    Total cost (Eq. 2):
    [c(n) = c_under(n) + tau · c_over(n)] with

    - undertainting, α-fair (Eq. 3):
      [c_under(n) = Σ_t u_t Σ_i n_{t,i}^(1-α) / (α-1)]
      (the [log] limit at α = 1);
    - overtainting, β-steep (Eq. 4):
      [c_over(n) = (Σ_t o_t Σ_i n_{t,i} / N_R)^β].

    Normalization: because P/N_R is minuscule, the paper scales τ by
    10⁶ in the evaluation. We fold that into
    [tau_eff = tau · tau_scale] and additionally express the
    overtainting cost as [tau_eff · N_R · (P/N_R)^β] so that its
    derivative with respect to one more copy is exactly the paper's
    Eq. (8) over-submarginal [tau_eff · β · (P/N_R)^(β-1)] (times
    [o_t], which Eq. (8) leaves implicit because the evaluation uses
    o_t = 1). All functions take the relaxed, real-valued [n]. *)

open Mitos_tag

val phi : alpha:float -> float -> float
(** [phi ~alpha n] is the per-tag undertainting kernel
    [n^(1-alpha)/(alpha-1)], or [-log n] at α = 1; [infinity] at
    [n <= 0] for α > 1 (and [neg_infinity]... see below: at n = 0 the
    kernel diverges in the direction that makes propagation free). *)

val under_tag : Params.t -> Tag_type.t -> float -> float
(** [u_t · phi(n)] — one tag's contribution to the undertainting
    cost. *)

val under_total : Params.t -> Tag_stats.t -> float
(** Sum over all live tags (Eq. 3). *)

val weighted_pollution : Params.t -> Tag_stats.t -> float
(** [P = Σ_t o_t Σ_i n_{t,i}]. *)

val over_of_pollution : Params.t -> float -> float
(** [over_of_pollution p P] = [tau_eff · N_R · (P/N_R)^β]. Includes
    the τ weighting. *)

val over_total : Params.t -> Tag_stats.t -> float

val total : Params.t -> Tag_stats.t -> float
(** Eq. (2). *)

val under_submarginal : Params.t -> Tag_type.t -> n:float -> float
(** [-u_t · n^(-α)] — the (negative) undertainting part of Eq. (8).
    At [n = 0] this is [neg_infinity]: the first copy of a tag is
    always worth propagating. *)

val over_factor : Params.t -> pollution:float -> float
(** [tau_eff · β · (P/N_R)^(β-1)] — the overtainting power factor,
    shared by every tag type; negative pollution counts as 0. *)

val over_submarginal : Params.t -> Tag_type.t -> pollution:float -> float
(** [over_factor · o_t] — the (non-negative) overtainting part of
    Eq. (8). *)

val marginal : Params.t -> Tag_type.t -> n:float -> pollution:float -> float
(** Eq. (8): [under_submarginal + over_submarginal] — the marginal
    cost of giving this tag one more copy. *)

(** {1 Decision fast path}

    Eq. (8) costs two float [**] per evaluation on the per-record hot
    path. [Fast] removes both while staying {e bit-identical} to the
    direct formulas above:

    - the undertainting submarginal is tabulated per tag type for
      integer copy counts [n ∈ \[0, table_size)] (the engine only ever
      asks about integer counts), falling back to the exact formula
      beyond the table. The table is filled on demand: a type's row is
      allocated on that type's first lookup, and each entry is computed
      on its first use, from the same expression;
    - the overtainting submarginal's power factor
      [g(P) = tau_eff · β · (P/N_R)^(β-1)] is cached keyed on the
      pollution value — within an Alg. 2 pass pollution only changes
      when a propagation is accepted, so the greedy loop's
      re-evaluations collapse to one multiply.

    A [Fast.t] carries an unsynchronized cache: give each engine (or
    domain) its own instance. *)

module Fast : sig
  type t

  val default_table_size : int
  (** 4096 — covers per-tag copy counts far beyond what the
      benchmarks reach, at ~32 KiB per tag type looked up. *)

  val create : ?table_size:int -> Params.t -> t

  val params : t -> Params.t

  val table_size : t -> int

  val update : t -> Params.t -> t
  (** Rebind to new parameters. If the undertainting side is
      unchanged (same [alpha] and [u]) the table's rows are shared with
      [t] and only the pollution cache is dropped — cheap enough for
      the adaptive controller's periodic τ updates. *)

  val under_row : t -> Mitos_tag.Tag_type.t -> n:int -> float array
  (** The type's row of the table, with entry [n] filled if
      [0 <= n < table_size]. Reading that entry gives
      {!under_submarginal} without boxing the float, for callers that
      must not allocate (the Alg. 1 fast path). *)

  val under_submarginal : t -> Mitos_tag.Tag_type.t -> n:int -> float
  (** Table read for [n] in range; exact formula beyond. Equals
      [Cost.under_submarginal ~n:(float_of_int n)] bit-for-bit. *)

  val over_factor : t -> pollution:float -> float
  (** {!Cost.over_factor} through the pollution cache. *)

  val over_submarginal : t -> Mitos_tag.Tag_type.t -> pollution:float -> float

  val marginal : t -> Mitos_tag.Tag_type.t -> n:int -> pollution:float -> float
  (** Eq. (8), bit-identical to {!Cost.marginal}. *)
end
