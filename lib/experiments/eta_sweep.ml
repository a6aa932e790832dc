module Table = Ppdc_prelude.Table
module Stats = Ppdc_prelude.Stats
module Scenario = Ppdc_sim.Scenario
module Solvers = Ppdc_sim.Solvers
module Event_engine = Ppdc_sim.Event_engine

(* The composite day every row replays: the diurnal rate wave as
   hourly updates, quarter-hour probe ticks so triggers can fire
   between state changes, and one mid-day failure episode (a link goes
   down at hour 5.25 and comes back 1.5 hours later). Deterministic
   given the seed. *)
let stream ~seed scenario =
  Scenario.enrich ~probe_every:0.25 ~failure_at:5.25 ~seed scenario
    (Scenario.events_of_diurnal scenario)

let scenario ~mu ~seed ~k ~l ~n =
  let problem = Runner.fat_tree_problem ~k ~l ~n ~seed () in
  Scenario.make ~mu ~initial:(Scenario.Uninformed seed) problem

let replay ~mu ~trigger ~seed ~k ~l ~n =
  let sc = scenario ~mu ~seed ~k ~l ~n in
  Event_engine.run sc ~policy:Solvers.Migrate.mpareto ~trigger
    ~events:(stream ~seed sc) ()

(* One table row: the trial means of a replayed day's comm cost,
   moves, reconfigurations and total. *)
let columns first =
  [ first; "comm cost"; "VNF moves"; "reconfigs"; "day total" ]

let row ~trials ~mu ~trigger ~k ~l ~n label =
  let stat f =
    Runner.average ~trials (fun ~seed -> f (replay ~mu ~trigger ~seed ~k ~l ~n))
  in
  let count f = Printf.sprintf "%.1f" (stat f).Stats.mean in
  let comm = Runner.mean_cell (stat (fun r -> r.Event_engine.total_comm)) in
  let moves = count (fun r -> float_of_int r.Event_engine.total_moves) in
  let reconfigs =
    count (fun r -> float_of_int r.Event_engine.reconfigurations)
  in
  let total = Runner.mean_cell (stat (fun r -> r.Event_engine.total_cost)) in
  [ label; comm; moves; reconfigs; total ]

(* One table: a row per (label, mu, trigger) point, on the mode's
   fabric. [title] sees [k l n]. *)
let sweep mode ~first ~title points =
  let k = Mode.k_placement mode in
  let l = Mode.l_fixed mode in
  let n = Mode.n_dynamic mode in
  let trials = Mode.trials_dynamic mode in
  let table = Table.create ~title:(title k l n) ~columns:(columns first) in
  List.iter
    (fun (label, mu, trigger) ->
      Table.add_row table (row ~trials ~mu ~trigger ~k ~l ~n label))
    points;
  table

let run mode =
  let mu, _ = Mode.mu_dynamic mode in
  [
    sweep mode ~first:"mu"
      ~title:
        (Printf.sprintf
           "Eta sweep: migration coefficient under a threshold trigger (k=%d, \
            l=%d, n=%d, eta=1.2)")
      (List.map
         (fun mu ->
           ( Printf.sprintf "1e%d" (int_of_float (Float.log10 mu)),
             mu,
             Event_engine.Threshold 1.2 ))
         [ 1e2; 1e3; 1e4; 1e5; 1e6 ]);
    sweep mode ~first:"eta"
      ~title:(fun k l n ->
        Printf.sprintf
          "Eta sweep: threshold drift ratio (k=%d, l=%d, n=%d, mu=%g)" k l n mu)
      (List.map
         (fun eta ->
           (Printf.sprintf "%.2f" eta, mu, Event_engine.Threshold eta))
         [ 1.05; 1.1; 1.2; 1.5; 2.0 ]);
    sweep mode ~first:"trigger"
      ~title:(fun k l n ->
        Printf.sprintf
          "Trigger policies over the composite day (k=%d, l=%d, n=%d, mu=%g)"
          k l n mu)
      (List.map
         (fun (label, trigger) -> (label, mu, trigger))
         [
           ("on-event", Event_engine.On_event);
           ("periodic:1", Event_engine.Periodic 1.0);
           ("periodic:3", Event_engine.Periodic 3.0);
           ("threshold:1.2", Event_engine.Threshold 1.2);
           ( "hysteresis:1.2,1.05",
             Event_engine.Hysteresis { up = 1.2; down = 1.05 } );
         ]);
  ]
