open Mitos_tag

type verdict = Propagate | Block

let verdict_to_string = function Propagate -> "propagate" | Block -> "block"

type env = { count : Tag.t -> int; pollution : float }

(* -- observability probe -------------------------------------------- *)

(* Resolved once in [set_obs]; the disabled path is one ref read and a
   pointer compare per decision. *)
type probe = {
  obs : Mitos_obs.Obs.t;
  alg1_latency : Mitos_obs.Histogram.t;
  alg2_latency : Mitos_obs.Histogram.t;
  alg2_candidates : Mitos_obs.Histogram.t;
}

(* An [Atomic] rather than a plain ref: engines running inside a
   domain pool all read this on every decision, and a plain ref has
   no publication guarantee for the probe record installed by
   [set_obs] from another domain. Reads stay one atomic load on the
   disabled path. *)
let probe : probe option Atomic.t = Atomic.make None

let set_obs = function
  | None -> Atomic.set probe None
  | Some obs ->
    if not (Mitos_obs.Obs.enabled obs) then Atomic.set probe None
    else begin
      let module R = Mitos_obs.Registry in
      let registry = Mitos_obs.Obs.registry obs in
      Atomic.set probe
        (Some
          {
            obs;
            alg1_latency =
              R.histogram registry
                ~help:"Alg. 1 single-tag decision latency in clock ticks"
                "mitos_alg1_latency_ticks";
            alg2_latency =
              R.histogram registry
                ~help:"Alg. 2 batch decision latency in clock ticks"
                "mitos_alg2_latency_ticks";
            alg2_candidates =
              R.histogram registry
                ~help:"candidate tags per Alg. 2 invocation"
                "mitos_alg2_candidates";
          })
    end

(* -- audit probe ----------------------------------------------------- *)

(* Same shape as [probe]: a module-global [Atomic] holding the
   installed decision flight recorder. The disabled path is one
   atomic load per decision; record construction (tag rendering,
   submarginal split) happens only when a recorder is installed. *)
let audit_probe : Mitos_obs.Audit.t option Atomic.t = Atomic.make None

let set_audit = function
  | None -> Atomic.set audit_probe None
  | Some recorder ->
    Atomic.set audit_probe
      (if Mitos_obs.Audit.enabled recorder then Some recorder else None)

let audit () = Atomic.get audit_probe

let of_stats p stats =
  { count = Tag_stats.count stats; pollution = Cost.weighted_pollution p stats }

let submarginals p env tag =
  let ty = Tag.ty tag in
  ( Cost.under_submarginal p ty ~n:(float_of_int (env.count tag)),
    Cost.over_submarginal p ty ~pollution:env.pollution )

(* Where a decision reads Eq. (8)'s two halves from: the formula
   itself, or the [Cost.Fast] table and pollution cache. Both give
   the same bits. *)
type oracle = Direct of Params.t | Table of Cost.Fast.t

let params_of = function Direct p -> p | Table f -> Cost.Fast.params f

(* The table entry is read here rather than through
   [Cost.Fast.under_submarginal], whose float result would be boxed;
   inlined, this keeps the fast decisions allocation-free. *)
let[@inline] under_of oracle ty n =
  match oracle with
  | Direct p -> Cost.under_submarginal p ty ~n:(float_of_int n)
  | Table f ->
    if n >= 0 && n < Cost.Fast.table_size f then
      Array.unsafe_get (Cost.Fast.under_row f ty ~n) n
    else Cost.Fast.under_submarginal f ty ~n

let[@inline] factor_of oracle pollution =
  match oracle with
  | Direct p -> Cost.over_factor p ~pollution
  | Table f -> Cost.Fast.over_factor f ~pollution

(* [Params.o] read in place, so the weight is not boxed *)
let[@inline] weight p tag =
  Array.unsafe_get p.Params.o (Tag_type.to_int (Tag.ty tag))

(* The recorded overtainting part is [m - under], not a fresh
   [over_submarginal] read: within Alg. 2's greedy pass the pollution
   (and with it the overtainting term) moves after each acceptance,
   and the audit log must show the split the verdict actually used. *)
let audit_entry ~under tag m v =
  {
    Mitos_obs.Audit.tag = Tag.to_string tag;
    under;
    over = m -. under;
    marginal = m;
    verdict =
      (match v with
      | Propagate -> Mitos_obs.Audit.Propagate
      | Block -> Mitos_obs.Audit.Block);
  }

(* [u +. (g *. o)] is the float expression of [Cost.marginal]. *)
let verdict1 ~algorithm oracle env tag =
  let under = under_of oracle (Tag.ty tag) (env.count tag) in
  let g = factor_of oracle env.pollution in
  let m = under +. (g *. weight (params_of oracle) tag) in
  let v = if m <= 0.0 then Propagate else Block in
  (match Atomic.get audit_probe with
  | None -> ()
  | Some recorder ->
    Mitos_obs.Audit.record_decision recorder ~algorithm ~space:1
      ~pollution:env.pollution
      [ audit_entry ~under tag m v ]);
  v

(* The probe is checked before any closure is built, so with obs off
   a decision allocates nothing. *)
let decide1 ~algorithm oracle env tag =
  match Atomic.get probe with
  | None -> verdict1 ~algorithm oracle env tag
  | Some pr ->
    Mitos_obs.Obs.time pr.obs pr.alg1_latency (fun () ->
        verdict1 ~algorithm oracle env tag)

let alg1 p env tag = decide1 ~algorithm:"alg1" (Direct p) env tag

type ranked = { tag : Tag.t; marginal : float; verdict : verdict }

(* How the greedy pass reads its candidates. At most one candidate
   needs no sort, and is read as the tag itself; more are sorted
   entries that carry the undertainting half and the initial marginal
   the sort computed. *)
type _ order =
  | Given : Tag.t order
  | Sorted : (Tag.t * float * float) order

(* The one Alg. 2 greedy loop (the paper's lines 3-10). Each accepted
   propagation adds o_t to the pollution, shifting subsequent
   overtainting submarginals. Candidates keep their initial order even
   when that shift, scaled by heterogeneous o_t, would reorder the
   remaining marginals. A candidate's undertainting half does not
   depend on the pollution, so it is evaluated once; the overtainting
   power factor [g] moves only when an acceptance moves the pollution,
   so it is evaluated up front and again after an acceptance, if a
   candidate follows. As in [verdict1], the sums are [Cost.marginal]'s,
   so marginals and verdicts are bit-identical to evaluating Eq. (8)
   afresh for every candidate. A [Given] candidate is the first, so
   its recomputed and initial marginals are the same number.
   [recompute] is the paper's line 9; [early_break] is its while loop's
   exit at the first candidate it does not accept. *)
let[@tail_mod_cons] rec pass : type c.
    c order -> oracle -> env -> space:int -> recompute:bool ->
    early_break:bool -> float -> float -> int -> bool -> c list ->
    ranked list =
 fun order oracle env ~space ~recompute ~early_break g pollution props open_
     -> function
  | [] -> []
  | c :: rest ->
    let tag : Tag.t =
      match order with Given -> c | Sorted -> let tag, _, _ = c in tag
    in
    let o = weight (params_of oracle) tag in
    let marginal =
      match order with
      | Given -> under_of oracle (Tag.ty tag) (env.count tag) +. (g *. o)
      | Sorted ->
        let _, under, initial = c in
        if recompute then under +. (g *. o) else initial
    in
    if open_ && props < space && marginal <= 0.0 then
      { tag; marginal; verdict = Propagate }
      ::
      (match rest with
      | [] -> []
      | _ ->
        let pollution = pollution +. o in
        let g = if recompute then factor_of oracle pollution else g in
        pass order oracle env ~space ~recompute ~early_break g pollution
          (props + 1) open_ rest)
    else
      { tag; marginal; verdict = Block }
      :: pass order oracle env ~space ~recompute ~early_break g pollution
           props (open_ && not early_break) rest

(* Alg. 2: lines 1-2 (marginals for all candidates, sorted
   increasingly), then the greedy pass. The empty list and a lone
   candidate skip the sort and allocate nothing beyond the result. *)
let greedy ~name ~recompute ~early_break oracle env ~space tags =
  if space < 0 then invalid_arg ("Decision." ^ name ^ ": negative space");
  match tags with
  | [] -> []
  | [ _ ] ->
    pass Given oracle env ~space ~recompute ~early_break
      (factor_of oracle env.pollution) env.pollution 0 true tags
  | _ ->
    let g0 = factor_of oracle env.pollution in
    let p = params_of oracle in
    let sorted =
      List.map
        (fun tag ->
          let under = under_of oracle (Tag.ty tag) (env.count tag) in
          (tag, under, under +. (g0 *. weight p tag)))
        tags
      |> List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare a b)
    in
    pass Sorted oracle env ~space ~recompute ~early_break g0 env.pollution 0
      true sorted

(* The audit record pairs each verdict with its undertainting half,
   read again from the oracle: the same bits the pass used. *)
let audited ~algorithm oracle env ~space ranked =
  (match Atomic.get audit_probe with
  | None -> ()
  | Some recorder ->
    Mitos_obs.Audit.record_decision recorder ~algorithm ~space
      ~pollution:env.pollution
      (List.map
         (fun r ->
           let under = under_of oracle (Tag.ty r.tag) (env.count r.tag) in
           audit_entry ~under r.tag r.marginal r.verdict)
         ranked));
  ranked

(* Alg. 2 as the library runs it: audited, and timed with its batch
   size observed when the probe is on. The probe is checked before any
   closure is built. *)
let run_alg2 ~algorithm ~recompute oracle env ~space tags =
  let name = match oracle with Direct _ -> "alg2" | Table _ -> "alg2_fast" in
  audited ~algorithm oracle env ~space
    (greedy ~name ~recompute ~early_break:false oracle env ~space tags)

let probed ~algorithm ~recompute oracle env ~space tags =
  match Atomic.get probe with
  | None -> run_alg2 ~algorithm ~recompute oracle env ~space tags
  | Some pr ->
    let ranked =
      Mitos_obs.Obs.time pr.obs pr.alg2_latency (fun () ->
          run_alg2 ~algorithm ~recompute oracle env ~space tags)
    in
    Mitos_obs.Histogram.observe pr.alg2_candidates
      (float_of_int (List.length tags));
    ranked

let[@tail_mod_cons] rec accepted = function
  | [] -> []
  | { verdict = Propagate; tag; _ } :: rest -> tag :: accepted rest
  | { verdict = Block; _ } :: rest -> accepted rest

let alg2 p env ~space tags =
  probed ~algorithm:"alg2" ~recompute:true (Direct p) env ~space tags
let alg2_accepted p env ~space tags = accepted (alg2 p env ~space tags)

let alg2_no_recompute p env ~space tags =
  probed ~algorithm:"alg2-no-recompute" ~recompute:false (Direct p) env ~space
    tags

let alg2_paper p env ~space tags =
  greedy ~name:"alg2_paper" ~recompute:true ~early_break:true (Direct p) env
    ~space tags

(* -- table-backed fast path ------------------------------------------ *)

(* A [fast] value carries its [Table] oracle, built once, so a fast
   decision allocates no oracle box. *)
type fast = { table : Cost.Fast.t; oracle : oracle }

let of_table table = { table; oracle = Table table }
let fast ?table_size p = of_table (Cost.Fast.create ?table_size p)
let fast_params f = Cost.Fast.params f.table
let fast_update f p = of_table (Cost.Fast.update f.table p)

let marginal_fast f env tag =
  Cost.Fast.marginal f.table (Tag.ty tag) ~n:(env.count tag)
    ~pollution:env.pollution

let alg1_fast f env tag = decide1 ~algorithm:"alg1-fast" f.oracle env tag

let alg2_fast f env ~space tags =
  probed ~algorithm:"alg2-fast" ~recompute:true f.oracle env ~space tags

let alg2_fast_no_recompute f env ~space tags =
  probed ~algorithm:"alg2-fast-no-recompute" ~recompute:false f.oracle env
    ~space tags

let alg2_fast_accepted f env ~space tags =
  accepted (alg2_fast f env ~space tags)
