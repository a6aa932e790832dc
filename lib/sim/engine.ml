module Obs = Ppdc_prelude.Obs
module Trace = Ppdc_traffic.Trace
module Events = Ppdc_traffic.Events

type hour_record = {
  hour : int;
  comm_cost : float;
  migration_cost : float;
  migrations : int;
  total_cost : float;
}

type run = {
  initial_placement : Ppdc_core.Placement.t;
  hours : hour_record array;
  total_cost : float;
  total_migrations : int;
}

(* Replay the hourly stream under [Periodic 1.0] and fold the event
   records into hours: the policy acts at the event opening hour [i]
   (record [i]'s migration and moves), and hour [i]'s communication is
   the segment [i, i+1) — charged when the next record (or, for the
   last hour, the horizon) closes it. *)
let hourly scenario ~policy ~events =
  let r =
    Event_engine.run scenario ~policy ~trigger:(Event_engine.Periodic 1.0)
      ~events ()
  in
  let records = r.Event_engine.records in
  let n = Array.length records in
  let hours : hour_record array =
    Array.init n (fun i ->
        let comm_cost =
          if i + 1 < n then records.(i + 1).Event_engine.comm_charge
          else r.Event_engine.final_comm
        in
        let { Event_engine.migration_cost; moved = migrations; _ } =
          records.(i)
        in
        let total_cost = comm_cost +. migration_cost in
        { hour = i + 1; comm_cost; migration_cost; migrations; total_cost })
  in
  if Obs.enabled () then
    Array.iter
      (fun h ->
        Obs.emit "sim.epoch"
          [
            ("policy", Obs.String (Solvers.label policy));
            ("hour", Obs.Int h.hour);
            ("comm_cost", Obs.Float h.comm_cost);
            ("migration_cost", Obs.Float h.migration_cost);
            ("migrations", Obs.Int h.migrations);
          ])
      hours;
  {
    initial_placement = r.Event_engine.initial_placement;
    hours;
    total_cost =
      Array.fold_left (fun acc (h : hour_record) -> acc +. h.total_cost) 0.0
        hours;
    total_migrations =
      Array.fold_left (fun acc (h : hour_record) -> acc + h.migrations) 0 hours;
  }

let run_day scenario ~policy =
  hourly scenario ~policy ~events:(Scenario.events_of_diurnal scenario)

let run_trace scenario ~policy ~trace =
  let l = Ppdc_core.Problem.num_flows scenario.Scenario.problem in
  if Trace.num_flows trace <> l then
    invalid_arg "Engine.run_trace: trace flow count mismatch";
  (* [of_trace] rejects an empty trace. *)
  hourly scenario ~policy ~events:(Events.of_trace trace)
