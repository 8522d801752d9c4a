(* Workload replay-tableii: the paper's Table II experiment as a replay.

   The six attack shells and netbench are built from the seed, recorded
   once, serialized and re-loaded (the set-up), then replayed again and
   again under the Table II MITOS configuration: Alg. 2 on every flow
   ([Calib.mitos_all_flows Calib.attack_params]) with
   [Calib.attack_engine_config]. Each replayed trace is checked against
   a live run of the same workload and seed. *)

module Attack = Mitos_workload.Attack
module Netbench = Mitos_workload.Netbench
module Workload = Mitos_workload.Workload
module Trace = Mitos_replay.Trace
module Calib = Mitos_experiments.Calib
module Engine = Mitos_dift.Engine
module Policy = Mitos_dift.Policy

let now = Clock.now

(* Records per latency sample: the time the engine takes for this many
   consecutive records of one trace is one sample of [latency_*_us]. *)
let block = 1024

let sources =
  List.map (fun v ~seed -> Attack.build v ~seed ()) Attack.all_variants
  @ [ (fun ~seed -> Netbench.build ~seed ()) ]

type item = { built : Workload.built; trace : Trace.t }

type setup = { items : item array; total_s : float; decode_s : float }

(* Build, record, serialize and re-load every trace. *)
let setup ~seed =
  let t0 = now () in
  let blobs =
    List.map
      (fun build ->
        let built = build ~seed in
        (built, Trace.to_string (Workload.record built)))
      sources
  in
  let t1 = now () in
  let items =
    List.map (fun (built, blob) -> { built; trace = Trace.of_string blob }) blobs
  in
  let t2 = now () in
  { items = Array.of_list items; total_s = t2 -. t0; decode_s = t2 -. t1 }

let records_per_pass items =
  Array.fold_left (fun acc it -> acc + Trace.length it.trace) 0 items

let table2_policy () = Calib.mitos_all_flows Calib.attack_params

(* The reference: each workload run live (not from its trace) on a
   fresh build with the same seed. *)
let expected ~seed =
  Array.of_list
    (List.map
       (fun build ->
         Check.outcome_of_engine
           (Workload.run_live ~config:Calib.attack_engine_config
              ~policy:(table2_policy ()) (build ~seed)))
       sources)

(* Replay one trace on a fresh engine; every full block of [block]
   records adds one latency sample (seconds) to [lat]. *)
let replay_one ~policy ~lat item =
  let engine =
    Workload.replay_engine ~config:Calib.attack_engine_config ~policy
      item.built item.trace
  in
  let records = Trace.records item.trace in
  let n = Array.length records in
  let i = ref 0 in
  while !i < n do
    let stop = min n (!i + block) in
    let t0 = now () in
    for j = !i to stop - 1 do
      Engine.process_record engine (Array.unsafe_get records j)
    done;
    if stop - !i = block then Stats.Buf.add lat (now () -. t0);
    i := stop
  done;
  engine

(* One pass over every trace, returning the wall time of the replay
   alone; outcomes are checked after the clock stops. *)
let pass ~lat ~expected ~tally items =
  let t0 = now () in
  let engines =
    Array.map (fun it -> replay_one ~policy:(table2_policy ()) ~lat it) items
  in
  let dt = now () -. t0 in
  let outcomes = Array.map Check.outcome_of_engine engines in
  Array.iteri
    (fun i o -> Check.count tally (Check.outcome_matches ~expected:expected.(i) o))
    outcomes;
  (dt, outcomes)

(* -- policy timing wrapper (traced run) ---------------------------------- *)

type policy_probe = {
  mutable calls : int;
  mutable seconds : float;
  mutable offered : int;
  mutable selected : int;
}

let timed_policy p (inner : Policy.t) =
  Policy.make ~name:(Policy.name inner) ~select:(fun (req : Policy.request) ->
      let t0 = now () in
      let out = Policy.select inner req in
      p.seconds <- p.seconds +. (now () -. t0);
      p.calls <- p.calls + 1;
      p.offered <- p.offered + List.length req.candidates;
      p.selected <- p.selected + List.length out;
      out)

(* -- the workload -------------------------------------------------------- *)

type result = {
  setup_s : float array;
  windows : Stats.window array;  (** work in records *)
  records : int;  (** per pass *)
  passes : int;  (** measured, untraced *)
  outcomes : Check.outcome array;  (** of the last pass *)
  tally : Check.tally;
  layers : (string * float) list;  (** traced run only *)
}

let sum_outcomes f outcomes = Array.fold_left (fun acc o -> acc + f o) 0 outcomes

(* The traced passes: replay.pass -> engine.trace spans, with policy
   time and counts from a timing wrapper folded into each trace span.
   Returns per-pass wall times and the probe totals. *)
let traced_passes ~spans ~expected ~tally ~until items =
  let total = { calls = 0; seconds = 0.0; offered = 0; selected = 0 } in
  let engine_s = ref 0.0 and npasses = ref 0 in
  let times = Stats.Buf.create () in
  let scratch = Stats.Buf.create () in
  let last = ref [||] in
  (* at least one pass, so every figure has a denominator *)
  while !npasses = 0 || now () < until do
    let req = !npasses in
    let t0 = now () in
    let pass_id = Spans.start spans ~name:"replay.pass" ~req t0 in
    let engines =
      Array.map
        (fun it ->
          let p = { calls = 0; seconds = 0.0; offered = 0; selected = 0 } in
          let ts = now () in
          let e = replay_one ~policy:(timed_policy p (table2_policy ())) ~lat:scratch it in
          let te = now () in
          ignore
            (Spans.add spans ~name:"engine.trace" ~req ~parent:pass_id
               ~args:
                 [
                   ("records", float_of_int (Trace.length it.trace));
                   ("policy_s", p.seconds);
                   ("policy_calls", float_of_int p.calls);
                 ]
               ts te);
          engine_s := !engine_s +. (te -. ts);
          total.calls <- total.calls + p.calls;
          total.seconds <- total.seconds +. p.seconds;
          total.offered <- total.offered + p.offered;
          total.selected <- total.selected + p.selected;
          e)
        items
    in
    let t1 = now () in
    Spans.finish spans pass_id t1;
    Stats.Buf.add times (t1 -. t0);
    incr npasses;
    let outcomes = Array.map Check.outcome_of_engine engines in
    Array.iteri
      (fun i o -> Check.count tally (Check.outcome_matches ~expected:expected.(i) o))
      outcomes;
    last := outcomes
  done;
  (Stats.Buf.to_array times, total, !engine_s, !last)

(* Set-ups per run; setup_s is their median. *)
let setup_repeats = 5

let run ~seed ~seconds ~traced ~spans_out =
  (* each set-up starts from a compacted heap, and only the last one's
     traces stay alive *)
  let setup_s = Array.make setup_repeats 0.0 in
  let decode_s = Array.make setup_repeats 0.0 in
  let items = ref [||] in
  for i = 0 to setup_repeats - 1 do
    items := [||];
    Gc.compact ();
    let s = setup ~seed in
    setup_s.(i) <- s.total_s;
    decode_s.(i) <- s.decode_s;
    items := s.items
  done;
  let items = !items in
  Gc.compact ();
  let expected = expected ~seed in
  let tally = Check.tally () in
  (* warm pass: lazily built tables and the heap settle before timing *)
  ignore (pass ~lat:(Stats.Buf.create ()) ~expected ~tally items);
  Gc.compact ();
  let records = records_per_pass items in
  let last = ref [||] in
  let pass_times = Stats.Buf.create () in
  (* untraced passes, one window each; in a traced run only the first
     half of the time, as the baseline for the tracing overhead and for
     the allocation and GC figures, which the timing wrapper would
     disturb *)
  let start = now () in
  let plain_until = start +. if traced then seconds /. 2.0 else seconds in
  let gc0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let windows = ref [] in
  (* at least one pass *)
  while !windows = [] || now () < plain_until do
    let lat = Stats.Buf.create ~capacity:1024 () in
    let steal0 = Clock.steal_s () in
    let dt, outcomes = pass ~lat ~expected ~tally items in
    let steal = Clock.steal_share ~steal0 ~elapsed:dt in
    Stats.Buf.add pass_times dt;
    last := outcomes;
    windows :=
      { Stats.work = float_of_int records; elapsed = dt; lat = Stats.Buf.to_array lat; steal }
      :: !windows
  done;
  let windows = Array.of_list (List.rev !windows) in
  let words = Gc.minor_words () -. w0 and gc1 = Gc.quick_stat () in
  let passes = Stats.Buf.length pass_times in
  let layers =
    if not traced then []
    else begin
      let spans = Spans.create () in
      let times, probe, engine_s, outcomes =
        traced_passes ~spans ~expected ~tally ~until:(start +. seconds) items
      in
      if Array.length outcomes > 0 then last := outcomes;
      Spans.write_chrome spans_out [ spans ];
      let fr = float_of_int in
      let per_pass = fr passes in
      let traced_records = fr (Array.length times * records) in
      let sum f = fr (sum_outcomes f !last) in
      [
        ("replay.decode_ms", 1e3 *. Stats.median decode_s);
        ("dift.engine_ns_per_record", 1e9 *. (engine_s -. probe.seconds) /. traced_records);
        ("dift.words_per_record", words /. (per_pass *. fr records));
        ("dift.gc_minor_collections", fr (gc1.minor_collections - gc0.minor_collections) /. per_pass);
        ("dift.gc_major_collections", fr (gc1.major_collections - gc0.major_collections) /. per_pass);
        ("core.policy_calls", fr probe.calls /. fr (Array.length times));
        ("core.policy_ns_per_call", 1e9 *. probe.seconds /. fr probe.calls);
        ("core.policy_share", probe.seconds /. engine_s);
        ("core.propagate_ratio", fr probe.selected /. fr probe.offered);
        ("tag.shadow_ops", sum (fun o -> o.counters.shadow_ops));
        ("tag.evictions", sum (fun o -> o.counters.evictions));
        ("tag.detected_bytes", sum (fun o -> o.detected_bytes));
        ("tag.footprint_bytes", sum (fun o -> o.footprint_bytes));
        ( "trace.overhead_pct",
          100.0 *. ((Stats.median times /. Stats.median (Stats.Buf.to_array pass_times)) -. 1.0) );
      ]
      @ [
          ("samples.untraced_passes", per_pass);
          ("samples.traced_passes", fr (Array.length times));
        ]
      @ List.map
          (fun (name, n, _, self) -> ("self_us." ^ name, 1e6 *. self /. fr (max 1 n)))
          (Spans.self_times [ spans ])
    end
  in
  { setup_s; windows; records; passes; outcomes = !last; tally; layers }
