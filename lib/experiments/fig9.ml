module Table = Ppdc_prelude.Table
module Flow = Ppdc_traffic.Flow
module Solvers = Ppdc_sim.Solvers
open Ppdc_core

let algorithms = Solvers.Place.[ optimal; dp; greedy; steering ]

(* One data point: mean cost of each of [algorithms] on fresh seeded
   instances. Shared with Fig. 10, which only flips [weighted]. *)
let compare_algorithms ~weighted ~mode ~k ~l ~n =
  let params =
    { Solvers.default_params with budget = Some (Mode.opt_budget mode) }
  in
  List.map
    (fun solver ->
      ( solver,
        Runner.average ~trials:(Mode.trials mode) (fun ~seed ->
            let problem = Runner.fat_tree_problem ~weighted ~k ~l ~n ~seed () in
            let rates = Flow.base_rates (Problem.flows problem) in
            (Solvers.run solver problem ~rates params).total_cost) ))
    algorithms

let row label points =
  label :: List.map (fun (_, s) -> Runner.mean_cell s) points

let columns = "param" :: List.map Solvers.label algorithms

let run mode =
  let k = Mode.k_placement mode in
  let n_fixed = 5 in
  let table_a =
    Table.create
      ~title:
        (Printf.sprintf "Fig. 9(a): TOP vs number of flows l (k=%d, n=%d)" k
           n_fixed)
      ~columns
  in
  List.iter
    (fun l ->
      Table.add_row table_a
        (row
           (Printf.sprintf "l=%d" l)
           (compare_algorithms ~weighted:false ~mode ~k ~l ~n:n_fixed)))
    (Mode.l_sweep mode);
  let l_fixed = Mode.l_fixed mode in
  let table_b =
    Table.create
      ~title:
        (Printf.sprintf "Fig. 9(b): TOP vs chain length n (k=%d, l=%d)" k
           l_fixed)
      ~columns
  in
  List.iter
    (fun n ->
      Table.add_row table_b
        (row
           (Printf.sprintf "n=%d" n)
           (compare_algorithms ~weighted:false ~mode ~k ~l:l_fixed ~n)))
    (Mode.n_sweep mode);
  [ table_a; table_b ]
