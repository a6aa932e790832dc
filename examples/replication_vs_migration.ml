(* Replication or migration? (the paper's future-work question)

   Two ways to survive a moving traffic hotspot: keep one copy of each
   VNF and migrate it (mPareto, hourly), or deploy a few extra replicas
   up front and let every flow pick its nearest copy (static). This
   example runs both through the 12-hour diurnal day and prints the
   crossover.

   Run with: dune exec examples/replication_vs_migration.exe *)

module Table = Ppdc_prelude.Table
module Rng = Ppdc_prelude.Rng
module Fat_tree = Ppdc_topology.Fat_tree
module Cost_matrix = Ppdc_topology.Cost_matrix
module Workload = Ppdc_traffic.Workload
module Diurnal = Ppdc_traffic.Diurnal
module Scenario = Ppdc_sim.Scenario
module Engine = Ppdc_sim.Engine
module Solvers = Ppdc_sim.Solvers
open Ppdc_core
open Ppdc_extensions

let () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let flows = Workload.generate_on_fat_tree ~rng:(Rng.create 21) ~l:40 ft in
  let problem = Problem.make ~cm ~flows ~n:4 () in
  let m = Diurnal.default in
  (* Static replicated deployment, sized at hour-1 traffic. *)
  let replicated_day budget =
    let r1 = Diurnal.rates_at m ~flows ~hour:1 in
    let out = Replication.place problem ~rates:r1 ~budget in
    let total = ref 0.0 in
    for hour = 1 to m.hours do
      let rates = Diurnal.rates_at m ~flows ~hour in
      total := !total +. Replication.comm_cost problem ~rates out.deployment
    done;
    (!total, Replication.total_replicas out.deployment)
  in
  (* Migrating single-copy chain. *)
  let migration_day =
    Engine.run_day
      (Scenario.make ~mu:3e3 ~initial:Scenario.Hour1 problem)
      ~policy:Solvers.Migrate.mpareto
  in
  let table =
    Table.create
      ~title:"replication vs migration over one diurnal day (k=4, l=40, n=4)"
      ~columns:[ "strategy"; "replicas"; "VNF moves"; "day cost" ]
  in
  List.iter
    (fun budget ->
      let cost, copies = replicated_day budget in
      Table.add_row table
        [
          Printf.sprintf "static, +%d replica budget" budget;
          string_of_int copies;
          "0";
          Printf.sprintf "%.0f" cost;
        ])
    [ 0; 2; 4 ];
  Table.add_row table
    [
      "mPareto migration (mu=3e3)";
      "4";
      string_of_int migration_day.total_migrations;
      Printf.sprintf "%.0f" migration_day.total_cost;
    ];
  Table.print table
