module Plan = Mitos_chaos.Plan
module Gate = Mitos_chaos.Gate
module Tenantgen = Mitos_chaos.Tenantgen
module Fleetsim = Mitos_chaos.Fleetsim
module Judge = Mitos_chaos.Judge
module Transport = Mitos_net.Transport
module Client = Mitos_net.Client
module Server = Mitos_net.Server
module Attack = Mitos_workload.Attack

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let ok_client = function
  | Ok v -> v
  | Error err -> Alcotest.fail (Client.error_to_string err)

let fresh_name =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "chaos-test-%s-%d" prefix !n

(* -- Plan: parse / render / validate ------------------------------------- *)

let sample_plan_text =
  "kill@t=5s node=2\n\
   restart@t=9s node=2\n\
   # a comment line\n\
   slow@t=8s until=12s node=1 delay=50ms\n\
   partition@t=10s until=18s node=2\n\
   corrupt@rate=0.001\n\
   drop@rate=0.01 node=0 t=2s until=20s\n"

let test_plan_roundtrip () =
  let plan = ok (Plan.parse sample_plan_text) in
  Alcotest.(check int) "events parsed" 6 (List.length plan);
  let canonical = Plan.to_string plan in
  let plan2 = ok (Plan.parse canonical) in
  Alcotest.(check string) "to_string is a parse fixpoint" canonical
    (Plan.to_string plan2);
  Alcotest.(check bool) "parse round-trips structurally" true (plan = plan2);
  (* canonical spelling: every field explicit, durations in seconds *)
  Alcotest.(check string) "canonical slow"
    "slow@t=8s until=12s node=1 delay=0.05s"
    (Plan.event_to_string (List.nth plan 2));
  Alcotest.(check string) "canonical corrupt"
    "corrupt@rate=0.001 node=all t=0s until=inf"
    (Plan.event_to_string (List.nth plan 4))

let test_plan_semicolons_and_durations () =
  let plan = ok (Plan.parse "kill@t=500ms node=0; restart@t=200us node=0") in
  match plan with
  | [ Plan.Kill { at; _ }; Plan.Restart { at = at'; _ } ] ->
    Alcotest.(check (float 1e-9)) "ms suffix" 0.5 at;
    Alcotest.(check (float 1e-9)) "us suffix" 0.0002 at'
  | _ -> Alcotest.fail "expected kill + restart"

let expect_parse_error text =
  match Plan.parse text with
  | Ok _ -> Alcotest.fail ("parse should fail: " ^ text)
  | Error msg -> msg

let test_plan_parse_errors () =
  let contains ~sub msg =
    Alcotest.(check bool)
      (Printf.sprintf "%S mentions %S" msg sub)
      true
      (let n = String.length msg and m = String.length sub in
       let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
       go 0)
  in
  contains ~sub:"unknown fault" (expect_parse_error "explode@t=1s node=0");
  contains ~sub:"line 1" (expect_parse_error "kill@node=0");
  contains ~sub:"rate" (expect_parse_error "corrupt@rate=1.5");
  contains ~sub:"until" (expect_parse_error "slow@t=5s until=2s delay=1ms");
  contains ~sub:"unknown key" (expect_parse_error "kill@t=1s node=0 rate=0.5");
  contains ~sub:"duplicate" (expect_parse_error "kill@t=1s t=2s node=0")

let test_plan_validate () =
  let v ~nodes text =
    Plan.validate ~nodes ~duration:20.0 (ok (Plan.parse text))
  in
  (match v ~nodes:2 "kill@t=5s node=2" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "node out of range must fail");
  (match v ~nodes:2 "restart@t=5s node=1" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "restart without kill must fail");
  (match v ~nodes:2 "kill@t=5s node=1\nkill@t=8s node=1" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double kill must fail");
  (match v ~nodes:2 "kill@t=25s node=1" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "event past the scenario must fail");
  ok (v ~nodes:3 sample_plan_text)

let test_plan_queries () =
  let plan = ok (Plan.parse sample_plan_text) in
  Alcotest.(check bool) "killed inside window" true
    (Plan.killed plan ~node:2 ~at:6.0);
  Alcotest.(check bool) "restart closes the window" false
    (Plan.killed plan ~node:2 ~at:9.5);
  Alcotest.(check bool) "partitioned" true
    (Plan.partitioned plan ~node:2 ~at:11.0);
  Alcotest.(check bool) "down covers both" true (Plan.down plan ~node:2 ~at:11.0);
  Alcotest.(check (float 1e-9)) "slow delay inside" 0.05
    (Plan.slow_delay plan ~node:1 ~at:9.0);
  Alcotest.(check (float 1e-9)) "slow delay outside" 0.0
    (Plan.slow_delay plan ~node:1 ~at:13.0);
  Alcotest.(check (float 1e-9)) "corrupt everywhere" 0.001
    (Plan.rate plan ~kind:`Corrupt ~node:1 ~at:1.0);
  Alcotest.(check (float 1e-9)) "drop only node 0 in window" 0.01
    (Plan.rate plan ~kind:`Drop ~node:0 ~at:5.0);
  Alcotest.(check (float 1e-9)) "drop elsewhere" 0.0
    (Plan.rate plan ~kind:`Drop ~node:1 ~at:5.0);
  let stacked = ok (Plan.parse "corrupt@rate=0.8\ncorrupt@rate=0.8") in
  Alcotest.(check (float 1e-9)) "summed rates cap at 1" 1.0
    (Plan.rate stacked ~kind:`Corrupt ~node:0 ~at:1.0);
  Alcotest.(check bool) "kill+restart expects an alert" true
    (Plan.expects_outage_alert
       (ok (Plan.parse "kill@t=6s node=1\nrestart@t=12s node=1"))
       ~duration:20.0);
  Alcotest.(check bool) "no faults, no alert" false
    (Plan.expects_outage_alert Plan.empty ~duration:20.0);
  Alcotest.(check bool) "heal too late to resolve in time" false
    (Plan.expects_outage_alert
       (ok (Plan.parse "kill@t=6s node=1\nrestart@t=19s node=1"))
       ~duration:20.0)

(* -- Tenantgen ------------------------------------------------------------ *)

let gen_config =
  {
    Tenantgen.default_config with
    Tenantgen.tenants = 50;
    duration = 5.0;
    rate_rps = 200.0;
    attack_rate = 0.05;
    seed = 13;
  }

let test_tenantgen_deterministic () =
  let a = Tenantgen.schedule gen_config in
  let b = Tenantgen.schedule gen_config in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  Alcotest.(check bool) "schedule non-trivial" true (Array.length a > 500);
  let sorted = ref true in
  Array.iteri
    (fun i ev ->
      if i > 0 then sorted := !sorted && a.(i - 1).Tenantgen.at <= ev.Tenantgen.at)
    a;
  Alcotest.(check bool) "sorted by time" true !sorted;
  let c = Tenantgen.schedule { gen_config with Tenantgen.seed = 14 } in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c)

let test_tenantgen_covers_variants () =
  let sched = Tenantgen.schedule gen_config in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun ev ->
      match ev.Tenantgen.kind with
      | Tenantgen.Attack (v, _) -> Hashtbl.replace seen v ()
      | _ -> ())
    sched;
  Alcotest.(check int) "all six variants injected"
    (List.length Attack.all_variants)
    (Hashtbl.length seen);
  (* every tenant opens with a publish so its slot is seeded early *)
  let first_kind = Hashtbl.create 64 in
  Array.iter
    (fun ev ->
      if not (Hashtbl.mem first_kind ev.Tenantgen.tenant) then
        Hashtbl.add first_kind ev.Tenantgen.tenant ev.Tenantgen.kind)
    sched;
  Hashtbl.iter
    (fun tenant kind ->
      match kind with
      | Tenantgen.Publish _ -> ()
      | _ -> Alcotest.failf "tenant %d did not open with a publish" tenant)
    first_kind

let test_tenantgen_validate () =
  (match Tenantgen.validate { gen_config with Tenantgen.pareto_alpha = 1.0 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "alpha <= 1 must fail");
  match Tenantgen.validate { gen_config with Tenantgen.attack_rate = 1.5 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "attack rate > 1 must fail"

(* -- Gate: fault windows over a virtual clock ----------------------------- *)

let test_gate_windows () =
  let plan =
    ok
      (Plan.parse
         "corrupt@rate=1 t=1s until=2s\n\
          drop@rate=1 t=3s until=4s\n\
          partition@t=5s until=6s node=0\n\
          slow@t=7s until=8s delay=10ms\n")
  in
  let config =
    { Server.default_config with nodes = 4 }
  in
  let service =
    Server.create ~config ~params:Mitos_experiments.Calib.attack_params ()
  in
  let up = fresh_name "up" in
  let listener = Server.start service (Transport.Memory up) in
  let now = ref 0.0 in
  let gate =
    Gate.create ~node:0 ~name:(fresh_name "gate") ~plan ~seed:1
      ~now:(fun () -> !now)
      ~upstream:(fun () -> Transport.Loopback.handler up)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Gate.close gate;
      Server.stop listener)
    (fun () ->
      let c = ok_client (Client.connect ~retries:0 (Gate.endpoint gate)) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ok_client (Client.ping c);
          now := 1.5;
          (match Client.ping c with
          | Error (Client.Bad_reply _ | Client.Wire _ | Client.Remote _) -> ()
          | Error err ->
            Alcotest.failf "corrupt window: wanted a typed reject, got %s"
              (Client.error_to_string err)
          | Ok () -> Alcotest.fail "corrupt window must reject");
          now := 2.5;
          ok_client (Client.ping c);
          now := 3.5;
          (match Client.ping c with
          | Error (Client.Retries_exhausted _) -> ()
          | Error err -> Alcotest.fail (Client.error_to_string err)
          | Ok () -> Alcotest.fail "drop window must exhaust");
          now := 5.5;
          (match Client.ping c with
          | Error (Client.Retries_exhausted _) -> ()
          | Error err -> Alcotest.fail (Client.error_to_string err)
          | Ok () -> Alcotest.fail "partition window must refuse");
          now := 6.5;
          ok_client (Client.ping c);
          now := 7.5;
          ok_client (Client.ping c);
          Alcotest.(check (float 1e-9)) "slow window accrued virtual delay" 0.01
            (Gate.take_delay gate);
          Alcotest.(check (float 1e-9)) "take_delay drains" 0.0
            (Gate.take_delay gate);
          let counts = Gate.counts gate in
          Alcotest.(check bool) "corrupt counted" true
            (counts.Gate.corrupt_requests >= 1);
          Alcotest.(check bool) "drop counted" true (counts.Gate.drops >= 1);
          Alcotest.(check bool) "refusal counted" true
            (counts.Gate.refusals >= 1)))

(* -- Fleet + Judge -------------------------------------------------------- *)

let small_gen =
  {
    Tenantgen.default_config with
    Tenantgen.tenants = 120;
    duration = 20.0;
    rate_rps = 150.0;
    attack_rate = 0.003;
    seed = 7;
  }

let small_config = { Fleetsim.default_config with Fleetsim.gen = small_gen }

let kill_plan = "kill@t=6s node=1\nrestart@t=12s node=1\ncorrupt@rate=0.01\n"

let scenario ~name ~plan =
  {
    Judge.scenario_name = name;
    config = small_config;
    plan = ok (Plan.parse plan);
    slo = Judge.default_slo;
  }

let run_scenario s = ok (Judge.run s)

let test_same_seed_byte_identical_report () =
  let s = scenario ~name:"determinism" ~plan:kill_plan in
  let r1 = run_scenario s in
  let r2 = run_scenario s in
  Alcotest.(check string) "same seed, byte-identical JSON report"
    (Judge.to_json r1) (Judge.to_json r2);
  Alcotest.(check bool) "verdict pass" true (r1.Judge.verdict = Judge.Pass);
  Alcotest.(check int) "exit code 0" 0 (Judge.exit_code r1)

let finals report =
  List.map
    (fun s -> (s.Fleetsim.sync_node, s.Fleetsim.final))
    report.Judge.outcome.Fleetsim.syncs

let test_kill_restart_estimator_resync () =
  let faulted = run_scenario (scenario ~name:"faulted" ~plan:kill_plan) in
  let calm = run_scenario (scenario ~name:"calm" ~plan:"") in
  Alcotest.(check bool) "faulted run passes" true
    (faulted.Judge.verdict = Judge.Pass);
  Alcotest.(check bool) "calm run passes" true (calm.Judge.verdict = Judge.Pass);
  Alcotest.(check bool) "kill actually happened" true
    (faulted.Judge.outcome.Fleetsim.kills = 1
    && faulted.Judge.outcome.Fleetsim.restarts = 1
    && faulted.Judge.outcome.Fleetsim.resync_publishes > 0);
  (* the acceptance criterion: after kill + restart + re-sync the
     fleet's estimator state equals the run that never lost it *)
  Alcotest.(check bool) "final globals equal the no-fault run" true
    (finals faulted = finals calm);
  List.iter
    (fun (node, final) ->
      match final with
      | Some _ -> ()
      | None -> Alcotest.failf "node %d unreadable at end" node)
    (finals faulted)

let test_partition_exhaustions_expected () =
  let r =
    run_scenario
      (scenario ~name:"partition" ~plan:"partition@t=6s until=12s node=2\n")
  in
  Alcotest.(check bool) "verdict pass" true (r.Judge.verdict = Judge.Pass);
  let exhaustions = r.Judge.outcome.Fleetsim.exhaustions in
  Alcotest.(check bool) "partitioned tenants did exhaust" true
    (List.length exhaustions > 0);
  List.iter
    (fun e ->
      Alcotest.(check bool) "every exhaustion expected" true
        e.Fleetsim.ex_expected;
      Alcotest.(check int) "on the partitioned node" 2 e.Fleetsim.ex_node)
    exhaustions;
  Alcotest.(check bool) "alert fired and resolved" true
    (r.Judge.outcome.Fleetsim.alerts_fired >= 1
    && r.Judge.outcome.Fleetsim.alerts_resolved >= 1)

let test_recall_and_attacks_attributed () =
  let r = run_scenario (scenario ~name:"attacks" ~plan:"") in
  let attacks = r.Judge.outcome.Fleetsim.attacks in
  Alcotest.(check bool) "attacks were injected" true (List.length attacks > 0);
  List.iter
    (fun a ->
      Alcotest.(check bool) "oracle detects" true a.Fleetsim.oracle_detected;
      Alcotest.(check bool) "fleet-fed policy detects" true a.Fleetsim.detected;
      Alcotest.(check bool) "never taints past the oracle" true
        (a.Fleetsim.tainted_bytes <= a.Fleetsim.oracle_tainted_bytes))
    attacks;
  (* tenant labels reach the audit log for blame attribution *)
  let audit = r.Judge.outcome.Fleetsim.audit in
  let notes =
    Array.to_list (Mitos_obs.Audit.records audit)
    |> List.filter_map (fun rec_ ->
           match rec_.Mitos_obs.Audit.body with
           | Mitos_obs.Audit.Note n -> Some n
           | _ -> None)
  in
  List.iter
    (fun a ->
      let label = Printf.sprintf "tenant=%d" a.Fleetsim.attack_tenant in
      Alcotest.(check bool)
        (Printf.sprintf "audit note attributes %s" label)
        true
        (List.exists
           (fun n ->
             let contains sub s =
               let ns = String.length s and m = String.length sub in
               let rec go i =
                 i + m <= ns && (String.sub s i m = sub || go (i + 1))
               in
               go 0
             in
             contains "chaos attack" n && contains label n)
           notes))
    attacks

let test_judge_violation () =
  let s = scenario ~name:"impossible" ~plan:"" in
  let s =
    { s with Judge.slo = { Judge.default_slo with Judge.max_p99_ns = 1.0 } }
  in
  let r = run_scenario s in
  Alcotest.(check bool) "violation" true (r.Judge.verdict = Judge.Violation);
  Alcotest.(check int) "exit code 1" 1 (Judge.exit_code r);
  let bad =
    List.filter (fun c -> not c.Judge.ok) r.Judge.checks
    |> List.map (fun c -> c.Judge.check_name)
  in
  Alcotest.(check (list string)) "only the latency SLO violated"
    [ "p99_latency" ] bad

let test_presets_resolve () =
  List.iter
    (fun (name, _) ->
      match Judge.preset name with
      | Some s ->
        Alcotest.(check string) "preset name matches" name
          s.Judge.scenario_name
      | None -> Alcotest.failf "preset %s does not resolve" name)
    Judge.presets;
  Alcotest.(check bool) "unknown preset is None" true
    (Judge.preset "no-such" = None)

let () =
  Alcotest.run "chaos"
    [
      ( "plan",
        [
          Alcotest.test_case "round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "semicolons and durations" `Quick
            test_plan_semicolons_and_durations;
          Alcotest.test_case "parse errors" `Quick test_plan_parse_errors;
          Alcotest.test_case "validate" `Quick test_plan_validate;
          Alcotest.test_case "queries" `Quick test_plan_queries;
        ] );
      ( "tenantgen",
        [
          Alcotest.test_case "deterministic" `Quick test_tenantgen_deterministic;
          Alcotest.test_case "covers variants" `Quick
            test_tenantgen_covers_variants;
          Alcotest.test_case "validate" `Quick test_tenantgen_validate;
        ] );
      ( "gate",
        [ Alcotest.test_case "fault windows" `Quick test_gate_windows ] );
      ( "fleet",
        [
          Alcotest.test_case "same seed, byte-identical report" `Quick
            test_same_seed_byte_identical_report;
          Alcotest.test_case "kill/restart estimator re-sync" `Quick
            test_kill_restart_estimator_resync;
          Alcotest.test_case "partition exhaustions expected" `Quick
            test_partition_exhaustions_expected;
          Alcotest.test_case "recall and audit attribution" `Quick
            test_recall_and_attacks_attributed;
          Alcotest.test_case "judge violation" `Quick test_judge_violation;
          Alcotest.test_case "presets resolve" `Quick test_presets_resolve;
        ] );
    ]
