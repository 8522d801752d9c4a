(* The MITOS benchmark: one workload, or all of them in turn.

     main.exe --workload NAME|all --seed N --seconds S --trace 0|1
              --cli PATH [--commit SHA] [--out DIR]

   For each workload, prints a human-readable report and then one JSON
   line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are the end-to-end ones; with --trace 1 the per-layer
   ones, from a separate traced run whose spans go to DIR. run.sh builds
   the program and calls this with --cli set. *)

open Mitosbench

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let cli = ref ""
let commit = ref "unknown"
let out_dir = ref ".bench_out"

let specs =
  [
    ( "--workload",
      Arg.Set_string workload,
      "NAME one of " ^ String.concat ", " Catalog.workloads ^ ", or all" );
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S measured seconds");
    ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
    ("--cli", Arg.Set_string cli, "PATH the mitos-cli binary (decide-* only)");
    ("--commit", Arg.Set_string commit, "SHA git commit, for the report");
    ("--out", Arg.Set_string out_dir, "DIR where the traced run writes its spans");
  ]

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("mitosbench: " ^ s); exit 2) fmt

(* Run one workload and print its report, ending with the JSON line. *)
let report workload =
  let traced = !trace = 1 in
  let spans_out =
    if traced then begin
      (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Filename.concat !out_dir (Printf.sprintf "spans-%s-seed%d.json" workload !seed)
    end
    else ""
  in
  (* the end-to-end figures every workload reports, pooled over its
     quiet windows *)
  let figures ~setup_s ~peak_rss (ws : Stats.window array) =
    let f = Stats.pooled (Stats.quiet ws) in
    [
      ("setup_s", Stats.median setup_s);
      ("throughput_per_s", f.rate);
      ("latency_p50_us", 1e6 *. f.p50);
      ("latency_p99_us", 1e6 *. f.p99);
      ("peak_rss_mib", peak_rss);
    ]
  in
  let window_notes ~unit_ ~sample (ws : Stats.window array) setup_s =
    let calm = Stats.quiet ws in
    let all = Stats.pooled ws in
    let spread ws =
      if Array.length ws < 2 then "n/a"
      else Printf.sprintf "%.3f" (Stats.relative_iqr (Array.map Stats.rate ws))
    in
    [
      Printf.sprintf "windows: %d, pooled: the %d with the least host steal (at most %.1f%% of CPU time), %d latency samples (%s)"
        (Array.length ws) (Array.length calm)
        (100.0 *. Array.fold_left (fun m (w : Stats.window) -> Float.max m w.steal) 0.0 calm)
        (Stats.pooled calm).samples sample;
      Printf.sprintf "window throughput spread (IQR/median): %s pooled, %s all" (spread calm)
        (spread ws);
      Printf.sprintf "all windows: throughput %.0f %s, p50 %.1f us, p99 %.1f us, median steal %.2f%%"
        all.rate unit_ (1e6 *. all.p50) (1e6 *. all.p99)
        (100.0 *. Stats.median (Array.map (fun (w : Stats.window) -> w.steal) ws));
      Printf.sprintf "setup_s samples: %s"
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_s)));
    ]
  in
  let steal0 = Clock.steal_s () and wall0 = Clock.now () in
  (* (tally, end-to-end values, per-layer values, notes) *)
  let tally, e2e, layers, notes =
    match workload with
    | "replay-tableii" ->
      let r =
        Replay_wl.run ~seed:!seed ~seconds:!seconds
          ~traced ~spans_out
      in
      let sum f = Replay_wl.sum_outcomes f r.outcomes in
      ( r.tally,
        figures ~setup_s:r.setup_s ~peak_rss:(Decide_wl.peak_rss_mib "self") r.windows,
        r.layers,
        Printf.sprintf "traces: 6 attack shells + netbench, %d records per pass, %d untraced passes"
          r.records r.passes
        :: Printf.sprintf "Table II outcome: detected_bytes %d, shadow_footprint_bytes %d"
             (sum (fun o -> o.detected_bytes))
             (sum (fun o -> o.footprint_bytes))
        :: window_notes ~unit_:"records/s"
             ~sample:(Printf.sprintf "blocks of %d records" Replay_wl.block)
             r.windows r.setup_s )
    | name ->
      if !cli = "" then die "--cli is required for %s" name;
      let shape = if name = "decide-small" then Decide_wl.small else Decide_wl.bulk in
      let r =
        Decide_wl.run ~cli:!cli ~seed:!seed ~seconds:!seconds
          ~traced ~spans_out shape
      in
      ( r.tally,
        figures ~setup_s:r.setup_s ~peak_rss:r.peak_rss_mib r.windows,
        r.layers,
        Printf.sprintf
          "shape: %d connection(s), %d request(s) per frame, publish every %s; net retries %d"
          shape.conns shape.batch
          (if shape.publish_every = 0 then "never"
           else Printf.sprintf "%d frames" shape.publish_every)
          r.retries
        :: window_notes ~unit_:"decisions/s" ~sample:"decide frames" r.windows r.setup_s )
  in
  let notes =
    notes
    @ [
        Printf.sprintf "host steal: %.2f s of CPU time over the run's %.1f s (all CPUs)"
          (Clock.steal_s () -. steal0) (Clock.now () -. wall0);
      ]
  in
  let catalog = if traced then Catalog.per_layer else Catalog.end_to_end in
  let values = if traced then layers else e2e in
  let value name = Option.value ~default:0.0 (List.assoc_opt name values) in
  List.iter
    (fun (m : Catalog.metric) ->
      let v = value m.name in
      if not (Float.is_finite v) then die "metric %s is not finite (%g)" m.name v)
    catalog;
  let error_ratio =
    if tally.attempted = 0 then 1.0
    else float_of_int tally.failed /. float_of_int tally.attempted
  in
  Printf.printf "mitosbench %s seed=%d seconds=%g trace=%d\n" workload !seed !seconds !trace;
  Printf.printf "env: nproc=%d ocaml=%s commit=%s\n" (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit;
  List.iter (fun n -> Printf.printf "  %s\n" n) notes;
  Printf.printf "checks: attempted=%d failed=%d error_ratio=%g\n" tally.attempted tally.failed
    error_ratio;
  List.iter
    (fun (m : Catalog.metric) ->
      Printf.printf "  %-30s %14.4f %-6s (%s is better)\n" m.name (value m.name) m.unit_
        (Catalog.better_to_string m.better))
    catalog;
  if traced then begin
    Printf.printf "details (traced run):\n";
    List.iter
      (fun (n, v) ->
        if not (List.exists (fun (m : Catalog.metric) -> m.name = n) catalog) then
          Printf.printf "  %-30s %14.3f\n" n v)
      layers;
    Printf.printf "spans written to %s\n" spans_out
  end;
  let metrics =
    List.map
      (fun (m : Catalog.metric) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name (value m.name) m.unit_)
      catalog
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0 && tally.attempted > 0)
    tally.attempted tally.failed (String.concat ", " metrics)

let () =
  Arg.parse specs (fun a -> die "unexpected argument %S" a) usage;
  let names = if !workload = "all" then Catalog.workloads else [ !workload ] in
  List.iter
    (fun w -> if not (List.mem w Catalog.workloads) then die "unknown workload %S" w)
    names;
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds <= 0.0 then die "--seconds must be positive";
  List.iter report names
