(* The benchmark's own tests: its statistics against hand-checked
   values, its output checks against planted faults, and its metric
   catalogue against BENCHMARK.json. *)

open Mitosbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let close a b = Float.abs (a -. b) < 1e-9

(* -- statistics ---------------------------------------------------------- *)

let () =
  check "median of odd count" (close (Stats.median [| 3.0; 1.0; 2.0 |]) 2.0);
  check "median of even count" (close (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]) 2.5);
  check "median of one" (close (Stats.median [| 7.0 |]) 7.0);
  check "median of none is nan" (Float.is_nan (Stats.median [||]));
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  (* rank 0.99 * 99 = 98.01 between 99 and 100 *)
  check "p99 of 1..100" (close (Stats.percentile hundred 99.0) 99.01);
  check "p0 and p100 are the extremes"
    (close (Stats.percentile hundred 0.0) 1.0 && close (Stats.percentile hundred 100.0) 100.0);
  check "p25 of 1..5" (close (Stats.percentile [| 5.0; 4.0; 3.0; 2.0; 1.0 |] 25.0) 2.0);
  (* Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  check "quartiles of 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, q2, q3 = Stats.quartiles [| 2.0; 1.0 |] in
  check "quartiles of two" (close q1 0.75 && close q2 1.5 && close q3 2.25);
  (* statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0] *)
  check "relative iqr" (close (Stats.relative_iqr [| 50.0; 10.0; 30.0; 20.0; 40.0 |]) 1.0);
  (* pooled windows: all work over all time, percentiles over all samples *)
  let f =
    Stats.pooled
      [|
        { Stats.work = 10.0; elapsed = 1.0; lat = [| 1.0; 2.0 |]; steal = 0.0 };
        { Stats.work = 50.0; elapsed = 4.0; lat = [| 3.0 |]; steal = 0.0 };
      |]
  in
  check "pooled windows" (close f.rate 12.0 && close f.p50 2.0 && f.samples = 3);
  (* quiet windows: every window at or under the steal threshold, and
     at least the calmest quarter *)
  let win steal = { Stats.work = 1.0; elapsed = 1.0; lat = [||]; steal } in
  let steals ws = Array.to_list (Array.map (fun (w : Stats.window) -> w.steal) ws) in
  check "quiet keeps every calm window"
    (steals (Stats.quiet [| win 0.01; win 0.5; win 0.0; win 0.02 |]) = [ 0.0; 0.01; 0.02 ]);
  check "quiet keeps the calmest quarter of a stolen run"
    (steals (Stats.quiet [| win 0.3; win 0.1; win 0.5; win 0.2; win 0.4 |]) = [ 0.1; 0.2 ]);
  check "quiet keeps every window when steal is unknown"
    (Array.length (Stats.quiet [| win nan; win 0.5 |]) = 2);
  let b = Stats.Buf.create ~capacity:1 () in
  for i = 1 to 1000 do
    Stats.Buf.add b (float_of_int i)
  done;
  check "buffer grows and keeps order"
    (Stats.Buf.length b = 1000 && (Stats.Buf.to_array b).(999) = 1000.0)

(* -- spans --------------------------------------------------------------- *)

let () =
  let s = Spans.create () in
  let root = Spans.start s ~name:"frame" ~req:1 0.0 in
  ignore (Spans.add s ~name:"encode" ~req:1 ~parent:root 0.0 1.0);
  ignore (Spans.add s ~name:"roundtrip" ~req:1 ~parent:root 1.0 4.0);
  Spans.finish s root 5.0;
  let self = Spans.self_times [ s ] in
  let get n = List.find (fun (m, _, _, _) -> m = n) self in
  let _, _, total, own = get "frame" in
  check "span self time excludes children" (close total 5.0 && close own 1.0);
  let _, n, _, own = get "roundtrip" in
  check "leaf span self time is its duration" (n = 1 && close own 3.0)

(* -- decide reply checks ------------------------------------------------- *)

let () =
  let fast = Mitos.Decision.fast Decide_wl.server_params in
  let rng = Mitos_util.Rng.create 5 in
  let reqs = List.init 64 (fun _ -> Decide_wl.gen_request rng) in
  let global = 3.75 in
  let want = List.map (Check.reference fast ~global) reqs in
  (* the server's own direct implementation, through its handler *)
  let twin = Mitos_net.Server.create ~params:Decide_wl.server_params () in
  let publish node value =
    ignore
      (Mitos_net.Server.handle_body twin
         (Mitos_net.Wire.encode_request_body ~id:0 (Mitos_net.Wire.Publish { node; value })))
  in
  publish 0 (Decide_wl.slot_value 0);
  publish 1 (Decide_wl.slot_value 1);
  let got =
    match
      Mitos_net.Wire.decode_response
        (Mitos_net.Server.handle_body twin
           (Mitos_net.Wire.encode_request_body ~id:1 (Mitos_net.Wire.Decide reqs)))
    with
    | Ok (_, Mitos_net.Wire.Decisions d) -> d
    | _ -> failwith "twin did not decide"
  in
  check "reference global matches the two slots"
    (Check.same_float (Decide_wl.expected_global Decide_wl.small) global);
  check "server replies match the reference" (Check.decisions_match got want);
  let verdicts = List.concat_map (List.map (fun (d : Mitos_net.Wire.decided) -> d.verdict)) got in
  check "generated requests get both verdicts"
    (List.mem Mitos.Decision.Propagate verdicts && List.mem Mitos.Decision.Block verdicts);
  (* plant one wrong verdict *)
  let flip (d : Mitos_net.Wire.decided) =
    { d with verdict = (if d.verdict = Propagate then Block else Propagate) }
  in
  let planted =
    List.mapi (fun i ds -> if i = 17 then List.mapi (fun j d -> if j = 0 then flip d else d) ds else ds) got
  in
  let t = Check.tally () in
  Check.count t (Check.decisions_match got want);
  Check.count t (Check.decisions_match planted want);
  check "planted wrong verdict is a failure" (t.attempted = 2 && t.failed = 1);
  (* a marginal one ulp off is also caught *)
  let nudge (d : Mitos_net.Wire.decided) = { d with marginal = Float.succ d.marginal } in
  let planted = List.map (List.map nudge) got in
  check "marginal off by one ulp is a failure" (not (Check.decisions_match planted want));
  check "dropped request is a failure" (not (Check.decisions_match (List.tl got) want))

(* -- replay outcome checks ----------------------------------------------- *)

let () =
  let built () = Mitos_workload.Attack.build Mitos_workload.Attack.Reverse_tcp ~seed:3 () in
  let policy () = Replay_wl.table2_policy () in
  let config = Mitos_experiments.Calib.attack_engine_config in
  let live =
    Check.outcome_of_engine (Mitos_workload.Workload.run_live ~config ~policy:(policy ()) (built ()))
  in
  let b = built () in
  let trace =
    Mitos_replay.Trace.of_string (Mitos_replay.Trace.to_string (Mitos_workload.Workload.record b))
  in
  let item = { Replay_wl.built = b; trace } in
  let lat = Stats.Buf.create () in
  let replayed =
    Check.outcome_of_engine (Replay_wl.replay_one ~policy:(policy ()) ~lat item)
  in
  check "replay matches the live run" (Check.outcome_matches ~expected:live replayed);
  check "replay detects the attack" (replayed.detected_bytes > 0);
  let planted =
    { replayed with counters = { replayed.counters with shadow_ops = replayed.counters.shadow_ops + 1 } }
  in
  let t = Check.tally () in
  Check.count t (Check.outcome_matches ~expected:live replayed);
  Check.count t (Check.outcome_matches ~expected:live planted);
  check "planted counter mismatch is a failure" (t.attempted = 2 && t.failed = 1);
  let planted = { replayed with footprint_bytes = replayed.footprint_bytes - 1 } in
  check "planted footprint mismatch is a failure"
    (not (Check.outcome_matches ~expected:live planted))

(* -- catalogue against BENCHMARK.json ------------------------------------ *)

let () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = Mitos_util.Minijson.parse text in
  let listed key =
    match Mitos_util.Minijson.member key j with
    | Some (Mitos_util.Minijson.List items) ->
      List.map
        (fun it ->
          let str k =
            Option.bind (Mitos_util.Minijson.member k it) Mitos_util.Minijson.to_string_opt
          in
          (Option.get (str "name"), str "unit", str "better"))
        items
    | _ -> []
  in
  let ours ms =
    List.map
      (fun (m : Catalog.metric) -> (m.name, Some m.unit_, Some (Catalog.better_to_string m.better)))
      ms
  in
  check "end-to-end metrics match BENCHMARK.json" (listed "end_to_end" = ours Catalog.end_to_end);
  check "per-layer metrics match BENCHMARK.json" (listed "per_layer" = ours Catalog.per_layer);
  check "workloads match BENCHMARK.json"
    (List.map (fun (n, _, _) -> n) (listed "workloads") = Catalog.workloads)

let () =
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
