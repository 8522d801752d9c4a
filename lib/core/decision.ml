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

let timed pick_hist f =
  match Atomic.get probe with
  | None -> f ()
  | Some p -> Mitos_obs.Obs.time p.obs (pick_hist p) f

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

let under_of oracle ty n =
  match oracle with
  | Direct p -> Cost.under_submarginal p ty ~n:(float_of_int n)
  | Table f -> Cost.Fast.under_submarginal f ty ~n

let factor_of oracle pollution =
  match oracle with
  | Direct p -> Cost.over_factor p ~pollution
  | Table f -> Cost.Fast.over_factor f ~pollution

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
let decide1 ~algorithm oracle env tag =
  timed
    (fun pr -> pr.alg1_latency)
    (fun () ->
      let ty = Tag.ty tag in
      let under = under_of oracle ty (env.count tag) in
      let o = Params.o (params_of oracle) ty in
      let m = under +. (factor_of oracle env.pollution *. o) in
      let v = if m <= 0.0 then Propagate else Block in
      (match Atomic.get audit_probe with
      | None -> ()
      | Some recorder ->
        Mitos_obs.Audit.record_decision recorder ~algorithm ~space:1
          ~pollution:env.pollution
          [ audit_entry ~under tag m v ]);
      v)

let alg1 p env tag = decide1 ~algorithm:"alg1" (Direct p) env tag

type ranked = { tag : Tag.t; marginal : float; verdict : verdict }

(* The one Alg. 2 greedy loop. A candidate's undertainting half does
   not depend on the pollution, so it is evaluated once; the
   overtainting power factor moves only when an acceptance moves the
   pollution, so it is evaluated up front and again after an
   acceptance, if a candidate follows. As in [decide1], the sums are
   [Cost.marginal]'s, so marginals and verdicts are bit-identical to
   evaluating Eq. (8) afresh for every candidate. [recompute] is the
   paper's line 9; [early_break] is its while loop's exit at the first
   candidate it does not accept. [audit_as] names the run in the
   flight recorder. *)
let greedy ~name ?audit_as ~recompute ~early_break oracle env ~space tags =
  if space < 0 then invalid_arg ("Decision." ^ name ^ ": negative space");
  let p = params_of oracle in
  let g0 = factor_of oracle env.pollution in
  (* Lines 1-2: marginals for all candidates, sorted increasingly. *)
  let initial =
    List.map
      (fun tag ->
        let ty = Tag.ty tag in
        let under = under_of oracle ty (env.count tag) in
        (tag, under, under +. (g0 *. Params.o p ty)))
      tags
    |> List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare a b)
  in
  (* Lines 3-10: greedy pass. Each accepted propagation adds o_t to
     the pollution, shifting subsequent overtainting submarginals.
     Candidates keep their initial order even when that shift, scaled
     by heterogeneous o_t, would reorder the remaining marginals. *)
  let[@tail_mod_cons] rec pass g pollution props open_ = function
    | [] -> []
    | (tag, under, initial) :: rest ->
      let o = Params.o p (Tag.ty tag) in
      let marginal = if recompute then under +. (g *. o) else initial in
      if open_ && props < space && marginal <= 0.0 then
        let pollution = pollution +. o in
        let g =
          match rest with
          | _ :: _ when recompute -> factor_of oracle pollution
          | _ -> g
        in
        { tag; marginal; verdict = Propagate }
        :: pass g pollution (props + 1) open_ rest
      else
        { tag; marginal; verdict = Block }
        :: pass g pollution props (open_ && not early_break) rest
  in
  let ranked = pass g0 env.pollution 0 true initial in
  (match (audit_as, Atomic.get audit_probe) with
  | Some algorithm, Some recorder ->
    Mitos_obs.Audit.record_decision recorder ~algorithm ~space
      ~pollution:env.pollution
      (List.map2
         (fun (_, under, _) r -> audit_entry ~under r.tag r.marginal r.verdict)
         initial ranked)
  | _ -> ());
  ranked

(* Alg. 2 as the library runs it: timed, batch size observed, audited. *)
let probed ~algorithm ~recompute oracle env ~space tags =
  timed
    (fun pr -> pr.alg2_latency)
    (fun () ->
      let name =
        match oracle with Direct _ -> "alg2" | Table _ -> "alg2_fast"
      in
      let ranked =
        greedy ~name ~audit_as:algorithm ~recompute ~early_break:false oracle
          env ~space tags
      in
      (match Atomic.get probe with
      | None -> ()
      | Some pr ->
        Mitos_obs.Histogram.observe pr.alg2_candidates
          (float_of_int (List.length tags)));
      ranked)

let accepted_tags ranked =
  List.filter_map
    (fun r -> match r.verdict with Propagate -> Some r.tag | Block -> None)
    ranked

let alg2 p env ~space tags =
  probed ~algorithm:"alg2" ~recompute:true (Direct p) env ~space tags
let alg2_accepted p env ~space tags = accepted_tags (alg2 p env ~space tags)

let alg2_no_recompute p env ~space tags =
  probed ~algorithm:"alg2-no-recompute" ~recompute:false (Direct p) env ~space
    tags

let alg2_paper p env ~space tags =
  greedy ~name:"alg2_paper" ~recompute:true ~early_break:true (Direct p) env
    ~space tags

(* -- table-backed fast path ------------------------------------------ *)

type fast = Cost.Fast.t

let fast ?table_size p = Cost.Fast.create ?table_size p
let fast_params = Cost.Fast.params
let fast_update = Cost.Fast.update

let marginal_fast f env tag =
  Cost.Fast.marginal f (Tag.ty tag) ~n:(env.count tag)
    ~pollution:env.pollution

let alg1_fast f env tag = decide1 ~algorithm:"alg1-fast" (Table f) env tag

let alg2_fast f env ~space tags =
  probed ~algorithm:"alg2-fast" ~recompute:true (Table f) env ~space tags

let alg2_fast_no_recompute f env ~space tags =
  probed ~algorithm:"alg2-fast-no-recompute" ~recompute:false (Table f) env
    ~space tags

let alg2_fast_accepted f env ~space tags =
  accepted_tags (alg2_fast f env ~space tags)
