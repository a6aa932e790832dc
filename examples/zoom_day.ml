(* A day of cloud conferencing.

   The paper's motivating workload: Zoom-style meeting connectors produce
   wildly diverse flows whose intensity follows office hours, with east-
   coast users three hours ahead of west-coast users. This example runs
   the full 12-hour diurnal day on a k=4 PPDC and shows how mPareto VNF
   migration chases the moving hotspot while a static placement pays for
   every stale hour.

   Run with: dune exec examples/zoom_day.exe *)

module Table = Ppdc_prelude.Table
module Scenario = Ppdc_sim.Scenario
module Engine = Ppdc_sim.Engine
module Solvers = Ppdc_sim.Solvers
open Ppdc_core

let () =
  let problem =
    let module R = Ppdc_prelude.Rng in
    let ft = Ppdc_topology.Fat_tree.build 4 in
    let cm = Ppdc_topology.Cost_matrix.compute ft.graph in
    let flows =
      Ppdc_traffic.Workload.generate_on_fat_tree ~rng:(R.create 7) ~l:40 ft
    in
    Problem.make ~cm ~flows ~n:4 ()
  in
  let scenario = Scenario.make ~mu:3e3 problem in
  let mpareto = Engine.run_day scenario ~policy:Solvers.Migrate.mpareto in
  let frozen = Engine.run_day scenario ~policy:Solvers.Migrate.none in
  let table =
    Table.create ~title:"a day of cloud conferencing (k=4, l=40, n=4, mu=3e3)"
      ~columns:
        [ "hour"; "mPareto cost"; "VNF moves"; "NoMigration cost"; "saved" ]
  in
  Array.iteri
    (fun i (h : Engine.hour_record) ->
      let f = frozen.hours.(i) in
      Table.add_row table
        [
          string_of_int h.hour;
          Printf.sprintf "%.0f" h.total_cost;
          string_of_int h.migrations;
          Printf.sprintf "%.0f" f.total_cost;
          Printf.sprintf "%.1f%%"
            (100.0 *. (1.0 -. (h.total_cost /. Float.max f.total_cost 1.0)));
        ])
    mpareto.hours;
  Table.print table;
  Printf.printf
    "day totals: mPareto %.0f (%d VNF migrations) vs NoMigration %.0f — %.1f%% \
     of the day's traffic avoided\n"
    mpareto.total_cost mpareto.total_migrations frozen.total_cost
    (100.0 *. (1.0 -. (mpareto.total_cost /. frozen.total_cost)))
