module Table = Ppdc_prelude.Table
module Stats = Ppdc_prelude.Stats
module Solvers = Ppdc_sim.Solvers

let run mode =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Fig. 10: TOP with uniform link delays (k=%d, l=%d, delay mean \
            1.5ms var 0.5)"
           k l)
      ~columns:(("n" :: List.tl Fig9.columns) @ [ "DP/Opt"; "DP/Steering" ])
  in
  List.iter
    (fun n ->
      let points = Fig9.compare_algorithms ~weighted:true ~mode ~k ~l ~n in
      let mean solver = (List.assq solver points).Stats.mean in
      let dp_over solver =
        Printf.sprintf "%.3f" (mean Solvers.Place.dp /. mean solver)
      in
      Table.add_row table
        (Fig9.row (string_of_int n) points
        @ [ dp_over Solvers.Place.optimal; dp_over Solvers.Place.steering ]))
    (Mode.n_sweep mode);
  [ table ]
