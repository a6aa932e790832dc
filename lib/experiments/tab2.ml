module Table = Ppdc_prelude.Table
module Rng = Ppdc_prelude.Rng
module Flow = Ppdc_traffic.Flow
module Workload = Ppdc_traffic.Workload
open Ppdc_core
module Solvers = Ppdc_sim.Solvers

let run mode =
  let k = Mode.k_placement mode in
  let n = 4 in
  let problem = Runner.fat_tree_problem ~k ~l:10 ~n ~seed:1 () in
  let rates = Flow.base_rates (Problem.flows problem) in
  let ft, cm = Runner.unweighted_fat_tree k in
  let table =
    Table.create
      ~title:(Printf.sprintf "Table II: algorithm matrix smoke run (k=%d)" k)
      ~columns:[ "problem"; "algorithm"; "cost" ]
  in
  let add problem_name algorithm cost =
    Table.add_row table [ problem_name; algorithm; Printf.sprintf "%.0f" cost ]
  in
  (* TOP-1 (n-stroll) on one host pair. *)
  let src = ft.Ppdc_topology.Fat_tree.hosts.(0) in
  let dst = ft.Ppdc_topology.Fat_tree.hosts.(Array.length ft.hosts - 1) in
  add "TOP-1" "DP-Stroll (Algo 2)" (Stroll_dp.solve ~cm ~src ~dst ~n ()).cost;
  add "TOP-1" "PrimalDual (Algo 1)"
    (Stroll_primal_dual.solve ~cm ~src ~dst ~n ()).cost;
  add "TOP-1" "Optimal (exact stroll)"
    (Stroll_exact.solve ~cm ~src ~dst ~n ~budget:(Mode.opt_budget mode) ())
      .cost;
  (* TOP and TOM rows straight from the solver table ([primal_dual]
     has its TOP-1 row above; [forecast] needs a forecast). *)
  let params =
    { Solvers.default_params with budget = Some (Mode.opt_budget mode) }
  in
  let row problem_name ?current ~rates solver =
    add problem_name (Solvers.title solver)
      (Solvers.run solver problem ~rates ?current params).total_cost
  in
  List.iter (row "TOP" ?current:None ~rates)
    Solvers.Place.[ dp; optimal; steering; greedy ];
  add "TOP" "Annealing (extension)"
    (Ppdc_extensions.Placement_anneal.solve ~rng:(Rng.create 3) problem ~rates)
      .cost;
  (* TOM after a rate redraw. *)
  let current = (Placement_dp.solve problem ~rates ()).placement in
  let rng = Rng.create 2 in
  let rates' = Workload.redraw_rates ~rng (Problem.flows problem) in
  List.iter
    (row "TOM" ~current ~rates:rates')
    Solvers.Migrate.[ mpareto; optimal; plan; mcf; none ];
  [ table ]
