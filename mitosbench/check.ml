(* Output checks. Every operation the benchmark times is compared with a
   reference computed apart from the code path under test; a mismatch
   counts as a failed operation, exactly like an error reply. *)

open Mitos_tag
module Wire = Mitos_net.Wire
module Decision = Mitos.Decision
module Engine = Mitos_dift.Engine

(* Attempted and failed operations of one run (or one connection). *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let count t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let merge ts =
  let r = tally () in
  List.iter
    (fun t ->
      r.attempted <- r.attempted + t.attempted;
      r.failed <- r.failed + t.failed)
    ts;
  r

(* -- decide replies ------------------------------------------------------ *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One reply entry against the reference: same tag, same verdict and a
   bit-identical marginal. *)
let decided_matches (got : Wire.decided) (want : Decision.ranked) =
  Tag.equal got.tag want.tag && got.verdict = want.verdict
  && same_float got.marginal want.marginal

let rec all2 f xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys -> f x y && all2 f xs ys
  | _ -> false

(* A whole decide reply: one outcome list per batched request, in
   request order. *)
let decisions_match (got : Wire.decided list list)
    (want : Decision.ranked list list) =
  all2 (all2 decided_matches) got want

(* The decision environment of one request: its own candidate counts,
   and its pollution plus [global], the estimator sum the server adds. *)
let env ~global (req : Wire.decide_request) =
  let count tag =
    match List.find_opt (fun (c, _) -> Tag.equal c tag) req.candidates with
    | Some (_, n) -> n
    | None -> 0
  in
  { Decision.count; pollution = req.pollution +. global }

(* The reference for one request, computed with the table-backed
   implementation the server does not run. *)
let reference fast ~global (req : Wire.decide_request) =
  Decision.alg2_fast fast (env ~global req) ~space:req.space (List.map fst req.candidates)

(* -- replay outcomes ----------------------------------------------------- *)

(* What a finished engine must agree on with the live run of the same
   workload and seed: its counters, detected bytes (netflow and
   export-table tags on one byte, Table II detection) and shadow
   footprint (Table II space). *)
type outcome = {
  counters : Engine.counters;
  detected_bytes : int;
  footprint_bytes : int;
}

let outcome_of_engine engine =
  let shadow = Engine.shadow engine in
  (* copy: the counters record is mutable and owned by the engine *)
  let c = Engine.counters engine in
  {
    counters =
      {
        c with
        per_type_propagated = Array.copy c.per_type_propagated;
        per_type_blocked = Array.copy c.per_type_blocked;
      };
    detected_bytes = Mitos_dift.Metrics.detection_bytes shadow;
    footprint_bytes = Shadow.footprint_bytes shadow;
  }

let outcome_matches ~expected got = expected = got
