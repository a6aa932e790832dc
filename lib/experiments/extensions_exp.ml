module Table = Ppdc_prelude.Table
module Stats = Ppdc_prelude.Stats
module Rng = Ppdc_prelude.Rng
module Flow = Ppdc_traffic.Flow
module Workload = Ppdc_traffic.Workload
module Diurnal = Ppdc_traffic.Diurnal
module Scenario = Ppdc_sim.Scenario
module Engine = Ppdc_sim.Engine
module Solvers = Ppdc_sim.Solvers
open Ppdc_core
open Ppdc_extensions

let capacity mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let trials = Mode.trials mode in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Extension: per-switch VNF capacity (k=%d, l=%d; cost of the DP \
            block reduction)"
           k l)
      ~columns:[ "n"; "c=1 (paper)"; "c=2"; "c=4"; "c=n (stacked)"; "c=2 saving" ]
  in
  List.iter
    (fun n ->
      let cost ~capacity ~seed =
        let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
        let rates = Flow.base_rates (Problem.flows problem) in
        (Capacity.solve problem ~rates ~capacity).cost
      in
      let point capacity =
        Runner.average ~trials (fun ~seed -> cost ~capacity ~seed)
      in
      let c1 = point 1 and c2 = point 2 and c4 = point 4 and cn = point n in
      Table.add_row table
        [
          string_of_int n;
          Runner.mean_cell c1;
          Runner.mean_cell c2;
          Runner.mean_cell c4;
          Runner.mean_cell cn;
          Printf.sprintf "%.1f%%"
            (100.0 *. (1.0 -. (c2.Stats.mean /. c1.Stats.mean)));
        ])
    (Mode.n_sweep mode);
  [ table ]

let multi_sfc mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let trials = Mode.trials_dynamic mode in
  let chains = [| Chain.typical 3; Chain.typical 5; Chain.typical 7 |] in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Extension: three concurrent SFCs (n=3/5/7) sharing a k=%d PPDC, \
            l=%d flows"
           k l)
      ~columns:
        [
          "metric";
          "joint placement";
          "after rate redraw (stay)";
          "after per-chain mPareto";
        ]
  in
  let totals =
    Ppdc_prelude.Parallel.init trials (fun i ->
        let seed = i + 1 in
        let ft, cm = Runner.unweighted_fat_tree k in
        let rng = Rng.create seed in
        let flows = Workload.generate_on_fat_tree ~rng ~l ft in
        let spec =
          { Multi_sfc.chains; assignment = Array.init l (fun i -> i mod 3) }
        in
        let t = Multi_sfc.make ~cm ~flows ~spec in
        let rates0 = Flow.base_rates flows in
        let placed = Multi_sfc.place t ~rates:rates0 in
        let rates = Workload.redraw_rates ~rng flows in
        let stay = Multi_sfc.total_cost t ~rates placed.placement in
        let migrated, _, _ =
          Multi_sfc.migrate t ~rates ~mu:(fst (Mode.mu_dynamic mode))
            ~current:placed.placement
        in
        (placed.cost, stay, migrated.cost))
  in
  let summarize f = Stats.summary (Array.map f totals) in
  let initial = summarize (fun (a, _, _) -> a) in
  let stay = summarize (fun (_, b, _) -> b) in
  let migrated = summarize (fun (_, _, c) -> c) in
  Table.add_row table
    [
      "total cost";
      Runner.mean_cell initial;
      Runner.mean_cell stay;
      Runner.mean_cell migrated;
    ];
  Table.add_row table
    [
      "vs staying";
      "";
      "100%";
      Printf.sprintf "%.1f%%" (100.0 *. migrated.Stats.mean /. stay.Stats.mean);
    ];
  [ table ]

let replication mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let n = Mode.n_dynamic mode in
  let trials = Mode.trials_dynamic mode in
  let mu, _ = Mode.mu_dynamic mode in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Extension: static replication vs migration over a diurnal day \
            (k=%d, l=%d, n=%d, mu=%g)"
           k l n mu)
      ~columns:
        [
          "replica budget";
          "replication (static) day cost";
          "mPareto (migration) day cost";
          "static single copy";
        ]
  in
  (* Replication deploys once using hour-1 rates, then rides the day with
     per-flow replica choice but no moves; mPareto migrates hourly; the
     static single copy is the NoMigration reference. All start informed
     (hour-1), isolating "replicas vs movement". *)
  let day ~seed ~budget =
    let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
    let flows = Problem.flows problem in
    let m = Diurnal.default in
    let r1 = Diurnal.rates_at m ~flows ~hour:1 in
    let deployment = (Replication.place problem ~rates:r1 ~budget).deployment in
    let total = ref 0.0 in
    for hour = 1 to m.hours do
      let rates = Diurnal.rates_at m ~flows ~hour in
      total := !total +. Replication.comm_cost problem ~rates deployment
    done;
    !total
  in
  let mpareto_day ~seed =
    let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
    (Engine.run_day
       (Scenario.make ~mu ~initial:Scenario.Hour1 problem)
       ~policy:Solvers.Migrate.mpareto)
      .Engine.total_cost
  in
  let mp = Runner.average ~trials (fun ~seed -> mpareto_day ~seed) in
  let static = Runner.average ~trials (fun ~seed -> day ~seed ~budget:0) in
  List.iter
    (fun budget ->
      let rep = Runner.average ~trials (fun ~seed -> day ~seed ~budget) in
      Table.add_row table
        [
          string_of_int budget;
          Runner.mean_cell rep;
          Runner.mean_cell mp;
          Runner.mean_cell static;
        ])
    [ 1; 2; 4; 8 ];
  [ table ]

let failures mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let n = Mode.n_dynamic mode in
  let trials = Mode.trials_dynamic mode in
  let mu, _ = Mode.mu_dynamic mode in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Extension: link failures and the migration response (k=%d, l=%d, \
            n=%d, mu=%g)"
           k l n mu)
      ~columns:
        [
          "failed fraction";
          "healthy C_a";
          "degraded C_a";
          "after mPareto (C_t)";
          "VNF moves";
        ]
  in
  List.iter
    (fun fraction ->
      let episode ~seed =
        let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
        let rates = Flow.base_rates (Problem.flows problem) in
        let placement = (Placement_dp.solve problem ~rates ()).placement in
        Failures.impact ~rng:(Rng.create (seed * 71)) ~fraction ~mu problem
          ~rates ~placement
      in
      let avg f = Runner.average ~trials (fun ~seed -> f (episode ~seed)) in
      let before = avg (fun e -> e.Failures.cost_before) in
      let after = avg (fun e -> e.Failures.cost_after) in
      let migrated = avg (fun e -> e.Failures.cost_migrated) in
      let moves = avg (fun e -> float_of_int e.Failures.moved) in
      Table.add_row table
        [
          Printf.sprintf "%.0f%%" (100.0 *. fraction);
          Runner.mean_cell before;
          Runner.mean_cell after;
          Runner.mean_cell migrated;
          Printf.sprintf "%.1f" moves.Stats.mean;
        ])
    [ 0.1; 0.25; 0.4 ];
  [ table ]

let utilization mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let trials = Mode.trials mode in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Link utilization under DP placement (k=%d, l=%d) — checking the \
            paper's bandwidth-headroom assumption"
           k l)
      ~columns:[ "n"; "max link load"; "mean link load"; "max/mean" ]
  in
  List.iter
    (fun n ->
      let loads ~seed =
        let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
        let rates = Flow.base_rates (Problem.flows problem) in
        let p = (Placement_dp.solve problem ~rates ()).placement in
        Link_load.compute problem ~rates p
      in
      let avg f = Runner.average ~trials (fun ~seed -> f (loads ~seed)) in
      let max_load = avg Link_load.max_load in
      let mean_load = avg Link_load.mean_load in
      Table.add_row table
        [
          string_of_int n;
          Runner.mean_cell max_load;
          Runner.mean_cell mean_load;
          Printf.sprintf "%.1fx" (max_load.Stats.mean /. mean_load.Stats.mean);
        ])
    (Mode.n_sweep mode);
  [ table ]

let churn mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let n = Mode.n_dynamic mode in
  let trials = Mode.trials_dynamic mode in
  let mu, _ = Mode.mu_dynamic mode in
  let epochs = 24 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Extension: user churn — flows arrive and depart (k=%d, l=%d, \
            n=%d, %d epochs, mu=%g)"
           k l n epochs mu)
      ~columns:
        [ "policy"; "trace total"; "moves"; "vs NoMigration" ]
  in
  let day policy ~seed =
    let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
    let trace =
      Ppdc_traffic.Trace.churn ~rng:(Rng.create (seed * 37)) ~epochs
        (Problem.flows problem)
    in
    Engine.run_trace
      (Scenario.make ~mu ~initial:(Scenario.Uninformed seed) problem)
      ~policy ~trace
  in
  let over stat policy =
    Runner.average ~trials (fun ~seed -> stat (day policy ~seed))
  in
  let total_of (r : Engine.run) = r.total_cost in
  let stay = over total_of Solvers.Migrate.none in
  List.iter
    (fun policy ->
      let total = over total_of policy in
      let moves =
        over (fun r -> float_of_int r.Engine.total_migrations) policy
      in
      Table.add_row table
        [
          Solvers.label policy;
          Runner.mean_cell total;
          Printf.sprintf "%.1f" moves.Stats.mean;
          Printf.sprintf "%.1f%%" (100.0 *. total.Stats.mean /. stay.Stats.mean);
        ])
    Solvers.Migrate.[ mpareto; plan; none ];
  [ table ]
