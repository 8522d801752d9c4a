open Mitos_tag

let phi ~alpha n =
  if alpha = 1.0 then (if n <= 0.0 then infinity else -.log n)
  else if n <= 0.0 then
    (* n^(1-alpha)/(alpha-1): for alpha > 1 the kernel diverges to
       +infinity as n -> 0+ (huge undertainting cost => propagate);
       for alpha < 1 it is 0 at n = 0. *)
    if alpha > 1.0 then infinity else 0.0
  else (n ** (1.0 -. alpha)) /. (alpha -. 1.0)

let under_tag p ty n = Params.u p ty *. phi ~alpha:p.Params.alpha n

let under_total p stats =
  Tag_stats.fold stats ~init:0.0 ~f:(fun acc tag n ->
      acc +. under_tag p (Tag.ty tag) (float_of_int n))

let weighted_pollution p stats = Tag_stats.weighted_total stats (Params.o p)

let over_of_pollution p pollution =
  let n_r = float_of_int p.Params.total_tag_space in
  Params.tau_effective p *. n_r *. ((pollution /. n_r) ** p.Params.beta)

let over_total p stats = over_of_pollution p (weighted_pollution p stats)

let total p stats = under_total p stats +. over_total p stats

let under_submarginal p ty ~n =
  if n <= 0.0 then neg_infinity
  else -.(Params.u p ty *. (n ** -.p.Params.alpha))

let over_factor p ~pollution =
  let n_r = float_of_int p.Params.total_tag_space in
  Params.tau_effective p *. p.Params.beta
  *. ((Float.max 0.0 pollution /. n_r) ** (p.Params.beta -. 1.0))

let over_submarginal p ty ~pollution =
  over_factor p ~pollution *. Params.o p ty

let marginal p ty ~n ~pollution =
  under_submarginal p ty ~n +. over_submarginal p ty ~pollution

(* -- decision fast path ---------------------------------------------- *)

module Fast = struct
  (* Eq. 8 on the per-record hot path costs two float [**] per
     evaluation. Both are avoidable: [n] is always an integer copy
     count, so the undertainting side tabulates exactly; and within
     an Alg. 2 pass the pollution only moves when a propagation is
     accepted, so the overtainting side's power factor
     g(P) = tau_eff * beta * (P/N_R)^(beta-1) caches on the pollution
     value. Every table and cache entry is produced by the exact same
     float expression as the direct formula, so results are
     bit-identical, not approximate.

     The pollution cache is intentionally unsynchronized: a [t] is
     owned by one policy instance on one domain. Share one [t] across
     domains and the cache can pair a [g] with the wrong pollution —
     create one per engine instead (they are cheap). *)

  type t = {
    params : Params.t;
    size : int;
    under : float array array;
        (* [ty][n] = under_submarginal for n < size; a type's row is
           allocated on its first lookup and an entry is filled on its
           first use, with [nan] marking an empty entry *)
    mutable cached_pollution : float;
    mutable cached_g : float;
  }

  let default_table_size = 4096

  (* The table is filled on demand: it has [Tag_type.count * size]
     entries, each a float power, and one policy instance reads few of
     them. A computed entry is not [nan]: [u > 0] and
     [alpha > 0] make it finite for n >= 1 (for finite [u]), and it is
     [neg_infinity] at n = 0. Were one [nan], it would only be
     recomputed on each read, with the same bits. *)
  let create ?(table_size = default_table_size) (p : Params.t) =
    if table_size < 1 then
      invalid_arg "Cost.Fast.create: table_size must be >= 1";
    (* nan never compares equal to a query, so the first lookup
       populates the cache *)
    {
      params = p;
      size = table_size;
      under = Array.make Tag_type.count [||];
      cached_pollution = nan;
      cached_g = nan;
    }

  let params t = t.params

  let table_size t = t.size

  (* [with_tau]-style refreshes (the adaptive controller every few
     hundred decisions) keep the u/alpha side intact; share the rows
     and only drop the pollution cache. *)
  let update t (p : Params.t) =
    if
      p.Params.alpha = t.params.Params.alpha
      && (p.Params.u == t.params.Params.u || p.Params.u = t.params.Params.u)
    then { t with params = p; cached_pollution = nan; cached_g = nan }
    else create ~table_size:t.size p

  let under_row t ty ~n =
    let ti = Tag_type.to_int ty in
    let row =
      match Array.unsafe_get t.under ti with
      | [||] ->
        let row = Array.make t.size nan in
        Array.unsafe_set t.under ti row;
        row
      | row -> row
    in
    if n >= 0 && n < t.size && Float.is_nan (Array.unsafe_get row n) then
      Array.unsafe_set row n
        (under_submarginal t.params ty ~n:(float_of_int n));
    row

  let under_submarginal t ty ~n =
    if n >= 0 && n < t.size then Array.unsafe_get (under_row t ty ~n) n
    else under_submarginal t.params ty ~n:(float_of_int n)

  let over_factor t ~pollution =
    if pollution <> t.cached_pollution then begin
      t.cached_g <- over_factor t.params ~pollution;
      t.cached_pollution <- pollution
    end;
    t.cached_g

  let over_submarginal t ty ~pollution =
    over_factor t ~pollution *. Params.o t.params ty

  let marginal t ty ~n ~pollution =
    under_submarginal t ty ~n +. over_submarginal t ty ~pollution
end
