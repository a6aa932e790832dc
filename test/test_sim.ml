module Fat_tree = Ppdc_topology.Fat_tree
module Cost_matrix = Ppdc_topology.Cost_matrix
module Workload = Ppdc_traffic.Workload
module Diurnal = Ppdc_traffic.Diurnal
module Rng = Ppdc_prelude.Rng
module Scenario = Ppdc_sim.Scenario
module Engine = Ppdc_sim.Engine
module Solvers = Ppdc_sim.Solvers
open Ppdc_core

let problem ~l ~n ~seed =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let rng = Rng.create seed in
  let flows = Workload.generate_on_fat_tree ~rng ~l ft in
  Problem.make ~cm ~flows ~n ()

let scenario ?initial ?(mu = 1e3) ~seed () =
  Scenario.make ~mu ?initial (problem ~l:20 ~n:4 ~seed)

let test_day_structure () =
  let run = Engine.run_day (scenario ~seed:1 ()) ~policy:Solvers.Migrate.mpareto in
  Alcotest.(check int) "one record per hour" Diurnal.default.hours
    (Array.length run.hours);
  Array.iteri
    (fun i (h : Engine.hour_record) ->
      Alcotest.(check int) "hours numbered from 1" (i + 1) h.hour;
      Alcotest.(check (float 1e-6)) "total = comm + migration"
        (h.comm_cost +. h.migration_cost)
        h.total_cost;
      Alcotest.(check bool) "non-negative costs" true
        (h.comm_cost >= 0.0 && h.migration_cost >= 0.0))
    run.hours;
  let sum =
    Array.fold_left
      (fun acc (h : Engine.hour_record) -> acc +. h.total_cost)
      0.0 run.hours
  in
  Alcotest.(check (float 1e-6)) "day total is the sum" sum run.total_cost

let test_day_deterministic () =
  let go () = Engine.run_day (scenario ~seed:3 ()) ~policy:Solvers.Migrate.mpareto in
  let a = go () and b = go () in
  Alcotest.(check (float 0.0)) "same total" a.total_cost b.total_cost;
  Alcotest.(check int) "same migrations" a.total_migrations b.total_migrations

let test_no_migration_policy_never_migrates () =
  let run = Engine.run_day (scenario ~seed:2 ()) ~policy:Solvers.Migrate.none in
  Alcotest.(check int) "zero moves" 0 run.total_migrations;
  Array.iter
    (fun (h : Engine.hour_record) ->
      Alcotest.(check (float 0.0)) "zero migration cost" 0.0 h.migration_cost)
    run.hours

let test_mpareto_beats_no_migration () =
  for seed = 1 to 4 do
    let mp = Engine.run_day (scenario ~seed ()) ~policy:Solvers.Migrate.mpareto in
    let stay =
      Engine.run_day (scenario ~seed ()) ~policy:Solvers.Migrate.none
    in
    Alcotest.(check bool)
      (Printf.sprintf "mPareto <= NoMigration (seed %d)" seed)
      true
      (mp.total_cost <= stay.total_cost +. 1e-6)
  done

let test_optimal_at_least_matches_mpareto () =
  for seed = 1 to 3 do
    let mp = Engine.run_day (scenario ~seed ()) ~policy:Solvers.Migrate.mpareto in
    let opt = Engine.run_day (scenario ~seed ()) ~policy:Solvers.Migrate.optimal in
    (* Both policies act greedily per hour, so the day totals can diverge
       slightly in either direction; the per-hour Optimal step is never
       worse than mPareto's from the same state, which in practice keeps
       day totals within a whisker. *)
    Alcotest.(check bool)
      (Printf.sprintf "optimal within 2%% of mPareto (seed %d)" seed)
      true
      (opt.total_cost <= (1.02 *. mp.total_cost) +. 1e-6)
  done

let test_hour1_initial_needs_no_correction () =
  let run =
    Engine.run_day (scenario ~initial:Scenario.Hour1 ~seed:5 ())
      ~policy:Solvers.Migrate.mpareto
  in
  (* The placement is already optimal(-ish) for hour 1, so the hour-1
     mPareto target equals the current placement: no migration. *)
  Alcotest.(check int) "no hour-1 migration" 0 run.hours.(0).migrations

let test_uninformed_initial_is_seeded () =
  let placement seed =
    (Engine.run_day
       (scenario ~initial:(Scenario.Uninformed seed) ~seed:1 ())
       ~policy:Solvers.Migrate.none)
      .initial_placement
  in
  Alcotest.(check bool) "same seed, same deployment" true
    (placement 7 = placement 7);
  Alcotest.(check bool) "different seeds differ" true (placement 7 <> placement 8)

let test_vm_policies_keep_vnfs_fixed () =
  List.iter
    (fun policy ->
      let run = Engine.run_day (scenario ~seed:6 ()) ~policy in
      (* VM-migration baselines never move VNFs: the recorded migrations
         are VM moves and the initial placement persists, which we can
         observe via zero VNF-migration charge when mu_vm is huge. *)
      ignore run)
    Solvers.Migrate.[ plan; mcf ];
  let frozen_mu =
    Scenario.make ~mu:1e3 ~mu_vm:1e12 (problem ~l:20 ~n:4 ~seed:6)
  in
  List.iter
    (fun policy ->
      let run = Engine.run_day frozen_mu ~policy in
      Alcotest.(check int)
        (Solvers.label policy ^ " frozen by huge mu_vm")
        0 run.total_migrations)
    Solvers.Migrate.[ plan; mcf ]

let test_lookahead_policy_runs () =
  for seed = 1 to 3 do
    let fc =
      Engine.run_day (scenario ~seed ()) ~policy:Solvers.Migrate.forecast
    in
    let stay =
      Engine.run_day (scenario ~seed ()) ~policy:Solvers.Migrate.none
    in
    Alcotest.(check bool)
      (Printf.sprintf "forecast day is coherent (seed %d)" seed)
      true
      (fc.total_cost > 0.0 && fc.total_cost <= stay.total_cost *. 1.05)
  done

let test_run_trace_equals_run_day () =
  (* The horizon contract (engine.mli): both streams carry the zero
     vector as the forecast one epoch past the end, so the replay is
     bit-identical hour for hour — lookahead included. *)
  let sc = scenario ~seed:4 () in
  let flows = Problem.flows (problem ~l:20 ~n:4 ~seed:4) in
  let trace = Ppdc_traffic.Trace.of_diurnal Ppdc_traffic.Diurnal.default ~flows in
  List.iter
    (fun policy ->
      let day = Engine.run_day sc ~policy in
      let replay = Engine.run_trace sc ~policy ~trace in
      Alcotest.(check (float 1e-6))
        (Solvers.label policy ^ ": replay = diurnal day")
        day.Engine.total_cost replay.Engine.total_cost;
      Array.iteri
        (fun i (h : Engine.hour_record) ->
          let r = replay.Engine.hours.(i) in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s: hour %d comm" (Solvers.label policy)
               h.hour)
            h.comm_cost r.comm_cost;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s: hour %d migration" (Solvers.label policy)
               h.hour)
            h.migration_cost r.migration_cost;
          Alcotest.(check int)
            (Printf.sprintf "%s: hour %d moves" (Solvers.label policy)
               h.hour)
            h.migrations r.migrations)
        day.Engine.hours)
    Solvers.Migrate.[ mpareto; forecast; none; plan ]

let test_lookahead_zero_forecast_past_horizon () =
  (* A one-epoch trace: the only "next hour" lies past the horizon, so
     the lookahead decision must average this epoch's rates with the
     zero vector — reproduced here by hand from the exposed initial
     placement. *)
  let sc = scenario ~seed:7 () in
  let flows = Problem.flows sc.Scenario.problem in
  let rates = Ppdc_traffic.Flow.base_rates flows in
  let trace = Ppdc_traffic.Trace.make ~flows ~rates:[| rates |] in
  let run = Engine.run_trace sc ~policy:Solvers.Migrate.forecast ~trace in
  Alcotest.(check int) "one epoch" 1 (Array.length run.hours);
  let decision = Array.map (fun r -> 0.5 *. r) rates in
  let out =
    Mpareto.migrate sc.Scenario.problem ~rates:decision ~mu:sc.Scenario.mu
      ~current:run.initial_placement ?pair_limit:sc.Scenario.pair_limit ()
  in
  let comm = Cost.comm_cost sc.Scenario.problem ~rates out.migration in
  Alcotest.(check (float 0.0)) "comm charged against reality" comm
    run.hours.(0).comm_cost;
  Alcotest.(check (float 0.0)) "migration cost of the half-rate decision"
    out.migration_cost run.hours.(0).migration_cost

let test_metrics_events_per_epoch () =
  let module Obs = Ppdc_prelude.Obs in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    (fun () ->
      let run = Engine.run_day (scenario ~seed:2 ()) ~policy:Solvers.Migrate.mpareto in
      let snap = Obs.snapshot () in
      let epochs =
        List.filter (fun (e : Obs.event) -> e.Obs.name = "sim.epoch")
          snap.Obs.events
      in
      Alcotest.(check int) "one sim.epoch event per hour"
        (Array.length run.hours) (List.length epochs);
      Alcotest.(check bool) "policy step span recorded" true
        (List.mem_assoc "sim.step.mPareto" snap.Obs.spans);
      Alcotest.(check bool) "solver span recorded" true
        (List.mem_assoc "placement_dp.solve" snap.Obs.spans))

let test_run_trace_rejects_mismatch () =
  let sc = scenario ~seed:5 () in
  let other_flows = Problem.flows (problem ~l:7 ~n:3 ~seed:6) in
  let trace =
    Ppdc_traffic.Trace.of_diurnal Ppdc_traffic.Diurnal.default ~flows:other_flows
  in
  Alcotest.(check bool) "flow-count mismatch raises" true
    (try
       ignore (Engine.run_trace sc ~policy:Solvers.Migrate.mpareto ~trace);
       false
     with Invalid_argument _ -> true)

let test_policy_names () =
  Alcotest.(check string) "mPareto" "mPareto"
    (Solvers.label Solvers.Migrate.mpareto);
  Alcotest.(check string) "NoMigration" "NoMigration"
    (Solvers.label Solvers.Migrate.none);
  Alcotest.(check string) "forecast" "mPareto+forecast"
    (Solvers.label Solvers.Migrate.forecast)

let () =
  Alcotest.run "ppdc_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "day structure and accounting" `Quick
            test_day_structure;
          Alcotest.test_case "deterministic runs" `Quick test_day_deterministic;
          Alcotest.test_case "NoMigration never migrates" `Quick
            test_no_migration_policy_never_migrates;
          Alcotest.test_case "mPareto beats NoMigration" `Quick
            test_mpareto_beats_no_migration;
          Alcotest.test_case "Optimal tracks mPareto" `Quick
            test_optimal_at_least_matches_mpareto;
          Alcotest.test_case "hour-1-aware deployment needs no correction"
            `Quick test_hour1_initial_needs_no_correction;
          Alcotest.test_case "uninformed deployment is seeded" `Quick
            test_uninformed_initial_is_seeded;
          Alcotest.test_case "VM policies freeze under huge mu_vm" `Quick
            test_vm_policies_keep_vnfs_fixed;
          Alcotest.test_case "forecast policy coherent" `Quick
            test_lookahead_policy_runs;
          Alcotest.test_case "trace replay equals diurnal day" `Quick
            test_run_trace_equals_run_day;
          Alcotest.test_case "zero forecast past the horizon" `Quick
            test_lookahead_zero_forecast_past_horizon;
          Alcotest.test_case "metrics events per epoch" `Quick
            test_metrics_events_per_epoch;
          Alcotest.test_case "trace replay validates flows" `Quick
            test_run_trace_rejects_mismatch;
          Alcotest.test_case "policy names" `Quick test_policy_names;
        ] );
    ]
