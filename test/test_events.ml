(* Discrete-event simulator tests: the Event_engine ↔ hour-loop
   bit-identity differential,
   trigger-policy semantics, event-stream constructors, and the
   elapsed-time cost accounting. *)

module Fat_tree = Ppdc_topology.Fat_tree
module Cost_matrix = Ppdc_topology.Cost_matrix
module Workload = Ppdc_traffic.Workload
module Diurnal = Ppdc_traffic.Diurnal
module Trace = Ppdc_traffic.Trace
module Events = Ppdc_traffic.Events
module Rng = Ppdc_prelude.Rng
module Parallel = Ppdc_prelude.Parallel
module Scenario = Ppdc_sim.Scenario
module Engine = Ppdc_sim.Engine
module Solvers = Ppdc_sim.Solvers
module Event_engine = Ppdc_sim.Event_engine
open Ppdc_core

let with_domains d f =
  let prev = Parallel.domain_count () in
  Parallel.set_domains d;
  Fun.protect ~finally:(fun () -> Parallel.set_domains prev) f

let problem ?(l = 20) ?(n = 4) ~seed () =
  let ft = Fat_tree.build 4 in
  let cm = Cost_matrix.compute ft.graph in
  let rng = Rng.create seed in
  let flows = Workload.generate_on_fat_tree ~rng ~l ft in
  Problem.make ~cm ~flows ~n ()

let scenario ?l ?n ?(mu = 1e3) ~seed () =
  Scenario.make ~mu (problem ?l ?n ~seed ())

let all_policies = Solvers.all Solvers.Migration

let bits = Int64.bits_of_float

let check_bits msg a b =
  Alcotest.(check int64) msg (bits a) (bits b)

(* --- the hour-loop reference ----------------------------------------------- *)

(* The reference of the differential: a plain per-epoch loop that
   steps the policy once per rate epoch through the shared
   [Solvers.step], handing the forecast entry the next epoch's vector
   (the zero vector one epoch past the end — the horizon contract of
   engine.mli). *)
type reference_hour = {
  comm : float;
  migration : float;
  moves : int;
}

let reference_day sc ~policy =
  let diurnal = sc.Scenario.diurnal in
  let flows0 = Problem.flows sc.Scenario.problem in
  let rates_of ~flows ~epoch = Diurnal.rates_at diurnal ~flows ~hour:(epoch + 1) in
  let initial =
    Scenario.initial_placement sc ~first_rates:(rates_of ~flows:flows0 ~epoch:0)
  in
  let state =
    { Solvers.placement = Array.copy initial; problem = sc.Scenario.problem }
  in
  let params = Scenario.params sc policy in
  let epochs = diurnal.Diurnal.hours in
  let hours =
    Array.init epochs (fun i ->
        let flows = Problem.flows state.problem in
        let rates = rates_of ~flows ~epoch:i in
        let next_rates =
          if i + 1 >= epochs then Array.make (Array.length flows) 0.0
          else rates_of ~flows ~epoch:(i + 1)
        in
        let o =
          Solvers.step policy { params with forecast = Some next_rates } state
            ~rates
        in
        { comm = o.comm_cost; migration = o.migration_cost; moves = o.moves })
  in
  (initial, hours)

(* --- hour-loop equivalence --------------------------------------------------- *)

(* The mapping between the two records: the reference charges hour
   [i]'s comm *at* epoch [i], the event engine charges the segment
   [i, i+1) when the *next* event (or the horizon) closes it. So hour
   [i] (0-based) pairs record [i]'s migration with record [i+1]'s comm
   charge (the tail segment for the last hour). [Engine.run_day] is
   that fold; it must agree with the reference too. *)
let check_equivalent ~msg sc policy =
  let initial, reference = reference_day sc ~policy in
  let day = Engine.run_day sc ~policy in
  let stream = Scenario.events_of_diurnal sc in
  let replay =
    Event_engine.run sc ~policy ~trigger:(Event_engine.Periodic 1.0)
      ~events:stream ()
  in
  let n = Array.length reference in
  let name fmt = Printf.sprintf "%s %s: %s" msg (Solvers.label policy) fmt in
  Alcotest.(check int) (name "one record per hour") n
    (Array.length replay.Event_engine.records);
  Alcotest.(check int) (name "fires every hour") n
    replay.Event_engine.reconfigurations;
  Alcotest.(check (array int))
    (name "same initial placement")
    initial replay.Event_engine.initial_placement;
  Alcotest.(check (array int))
    (name "run_day keeps the initial placement")
    initial day.Engine.initial_placement;
  let total = ref 0.0 and moves = ref 0 in
  Array.iteri
    (fun i h ->
      let hour = i + 1 in
      let r = replay.Event_engine.records.(i) in
      let comm =
        if i + 1 < n then replay.Event_engine.records.(i + 1).comm_charge
        else replay.Event_engine.final_comm
      in
      check_bits (name (Printf.sprintf "hour %d comm" hour)) h.comm comm;
      check_bits
        (name (Printf.sprintf "hour %d migration" hour))
        h.migration r.migration_cost;
      Alcotest.(check int)
        (name (Printf.sprintf "hour %d moves" hour))
        h.moves r.moved;
      Alcotest.(check bool) (name "every hour fires") true r.fired;
      let d = day.Engine.hours.(i) in
      check_bits (name (Printf.sprintf "run_day hour %d comm" hour)) h.comm
        d.Engine.comm_cost;
      check_bits
        (name (Printf.sprintf "run_day hour %d migration" hour))
        h.migration d.Engine.migration_cost;
      Alcotest.(check int)
        (name (Printf.sprintf "run_day hour %d moves" hour))
        h.moves d.Engine.migrations;
      total := !total +. (h.comm +. h.migration);
      moves := !moves + h.moves)
    reference;
  check_bits (name "day total reassembles") !total day.Engine.total_cost;
  Alcotest.(check int) (name "total moves") !moves
    replay.Event_engine.total_moves;
  Alcotest.(check int) (name "run_day total moves") !moves
    day.Engine.total_migrations

let test_periodic_hourly_equals_run_day () =
  let sc = scenario ~seed:4 () in
  List.iter (check_equivalent ~msg:"hourly" sc) all_policies

(* Beyond the defaults: the hour-1-aware deployment and an Algo. 3
   pair cap, both of which the ablations run. *)
let test_equivalence_qcheck () =
  QCheck.Test.make ~count:6 ~name:"Periodic 1h replay = run_day (all policies)"
    QCheck.(
      pair
        (quad (int_range 1 1000) (int_range 5 14) (int_range 2 4)
           (int_range 0 2))
        (pair bool (int_range 1 3)))
    (fun ((seed, l, n, mu_idx), (hour1, cap)) ->
      let mu = [| 1e2; 1e3; 1e4 |].(mu_idx) in
      let initial =
        if hour1 then Scenario.Hour1 else Scenario.Uninformed seed
      in
      let pair_limit = if cap = 1 then None else Some cap in
      let sc =
        Scenario.make ~mu ~initial ?pair_limit (problem ~l ~n ~seed ())
      in
      List.iter (check_equivalent ~msg:"qcheck" sc) all_policies;
      true)
  |> QCheck_alcotest.to_alcotest

let test_equivalence_across_domains () =
  (* The replay must be bit-identical at any domain count (the policy
     steps are deterministically parallel; everything else is
     sequential). *)
  let sc = scenario ~seed:9 () in
  let stream = Scenario.events_of_diurnal sc in
  let run () =
    Event_engine.run sc ~policy:Solvers.Migrate.mpareto
      ~trigger:(Event_engine.Periodic 1.0) ~events:stream ()
  in
  let a = with_domains 1 run and b = with_domains 4 run in
  check_bits "total comm" a.Event_engine.total_comm b.Event_engine.total_comm;
  check_bits "total migration" a.Event_engine.total_migration
    b.Event_engine.total_migration;
  Alcotest.(check (array int)) "final placement" a.Event_engine.final_placement
    b.Event_engine.final_placement;
  with_domains 4 (fun () ->
      List.iter (check_equivalent ~msg:"4 domains" sc) all_policies)

(* --- trigger semantics ---------------------------------------------------- *)

let constant_stream sc ~epochs ~scale =
  let flows = Problem.flows sc.Scenario.problem in
  let vec =
    Array.map (fun r -> r *. scale) (Ppdc_traffic.Flow.base_rates flows)
  in
  Events.of_trace (Trace.make ~flows ~rates:(Array.make epochs vec))

let test_on_event_fires_everywhere () =
  let sc = scenario ~seed:2 () in
  let stream = constant_stream sc ~epochs:5 ~scale:1.0 in
  let run =
    Event_engine.run sc ~policy:Solvers.Migrate.mpareto ~trigger:Event_engine.On_event
      ~events:stream ()
  in
  Alcotest.(check int) "fires at every processed event" 5
    run.Event_engine.reconfigurations

let test_periodic_span () =
  let sc = scenario ~seed:2 () in
  let stream = constant_stream sc ~epochs:6 ~scale:1.0 in
  let run =
    Event_engine.run sc ~policy:Solvers.Migrate.mpareto
      ~trigger:(Event_engine.Periodic 2.0) ~events:stream ()
  in
  (* Events at t = 0..5; due at 0, then 2, 4, ... → fires at 0, 2, 4. *)
  Alcotest.(check int) "every other event" 3 run.Event_engine.reconfigurations;
  let fired =
    Array.to_list
      (Array.map (fun r -> r.Event_engine.fired) run.Event_engine.records)
  in
  Alcotest.(check (list bool)) "alternating"
    [ true; false; true; false; true; false ]
    fired

let test_threshold_fires_once_on_constant_load () =
  let sc = scenario ~seed:3 () in
  let stream = constant_stream sc ~epochs:6 ~scale:1.0 in
  let run =
    Event_engine.run sc ~policy:Solvers.Migrate.mpareto
      ~trigger:(Event_engine.Threshold 1.2) ~events:stream ()
  in
  (* The pre-traffic baseline is a zero cost rate, so the first traffic
     fires; constant load never drifts 20% past the post-reconfig
     baseline again. *)
  Alcotest.(check int) "exactly one reconfiguration" 1
    run.Event_engine.reconfigurations;
  Alcotest.(check bool) "the first event fired" true
    run.Event_engine.records.(0).Event_engine.fired

let spike_stream sc =
  (* rates ×1 (fire), ×10 (spike while disarmed), ×1 (re-arm), ×10
     (spike while armed → fire). *)
  let flows = Problem.flows sc.Scenario.problem in
  let base = Ppdc_traffic.Flow.base_rates flows in
  let at scale = Array.map (fun r -> r *. scale) base in
  Events.of_trace
    (Trace.make ~flows ~rates:[| at 1.0; at 10.0; at 1.0; at 10.0 |])

let test_hysteresis_disarms_and_rearms () =
  let sc = scenario ~seed:3 () in
  let run =
    Event_engine.run sc ~policy:Solvers.Migrate.mpareto
      ~trigger:(Event_engine.Hysteresis { up = 1.5; down = 1.1 })
      ~events:(spike_stream sc) ()
  in
  let fired =
    Array.to_list
      (Array.map (fun r -> r.Event_engine.fired) run.Event_engine.records)
  in
  (* t0 fires (baseline was zero); t1's spike finds the trigger
     disarmed; t2's return to baseline re-arms it; t3's spike fires. *)
  Alcotest.(check (list bool)) "disarm then re-arm"
    [ true; false; false; true ]
    fired;
  let threshold =
    Event_engine.run sc ~policy:Solvers.Migrate.mpareto
      ~trigger:(Event_engine.Threshold 1.5) ~events:(spike_stream sc) ()
  in
  (* Without the disarm, the same spike at t1 fires too. *)
  Alcotest.(check bool) "threshold fires on the t1 spike" true
    threshold.Event_engine.records.(1).Event_engine.fired

let test_migration_delay_suppresses_triggers () =
  let sc = scenario ~seed:5 () in
  let stream = Scenario.events_of_diurnal sc in
  let run =
    Event_engine.run ~migration_delay:2.5 sc ~policy:Solvers.Migrate.mpareto
      ~trigger:Event_engine.On_event ~events:stream ()
  in
  (* While a migration is in flight no trigger may fire: consecutive
     firings after a real move are at least the delay apart. *)
  let last_move_fire = ref neg_infinity in
  Array.iter
    (fun (r : Event_engine.event_record) ->
      if r.fired then begin
        Alcotest.(check bool)
          (Printf.sprintf "no firing mid-flight (t=%g)" r.time)
          true
          (r.time -. !last_move_fire >= 2.5 -. 1e-9);
        if r.moved > 0 then last_move_fire := r.time
      end)
    run.Event_engine.records;
  Alcotest.(check bool) "completion events were replayed" true
    (Array.exists
       (fun (r : Event_engine.event_record) -> r.kind = "migration_complete")
       run.Event_engine.records)

(* --- cost accounting ------------------------------------------------------ *)

let test_elapsed_time_charging () =
  let sc = scenario ~seed:6 () in
  let l = Problem.num_flows sc.Scenario.problem in
  let stream =
    Events.make ~horizon:1.0
      [
        { Events.time = 0.25; kind = Events.Flow_arrival { flow = 0; rate = 50.0 } };
        { Events.time = 0.75; kind = Events.Flow_departure { flow = 0 } };
      ]
  in
  let run =
    Event_engine.run sc ~policy:Solvers.Migrate.none
      ~trigger:Event_engine.On_event ~events:stream ()
  in
  let rates = Array.make l 0.0 in
  rates.(0) <- 50.0;
  let c =
    Cost.comm_cost sc.Scenario.problem ~rates run.Event_engine.initial_placement
  in
  check_bits "pre-traffic segment is free"
    0.0 run.Event_engine.records.(0).Event_engine.comm_charge;
  check_bits "active segment charges 0.5 × C_a" (0.5 *. c)
    run.Event_engine.records.(1).Event_engine.comm_charge;
  check_bits "post-departure tail is free" 0.0 run.Event_engine.final_comm;
  check_bits "total" (0.5 *. c) run.Event_engine.total_comm

let test_failure_episode_replay () =
  let sc = scenario ~seed:7 () in
  let episode =
    Scenario.failure_episode ~rng:(Rng.create 11) ~at:3.0 ~duration:4.0
      ~fraction:0.15 sc
  in
  Alcotest.(check bool) "episode failed something" true
    (Events.length episode > 0);
  let stream = Events.merge (Scenario.events_of_diurnal sc) episode in
  let go () =
    Event_engine.run sc ~policy:Solvers.Migrate.mpareto
      ~trigger:(Event_engine.Periodic 1.0) ~events:stream ()
  in
  let run = go () and again = go () in
  check_bits "deterministic replay" run.Event_engine.total_cost
    again.Event_engine.total_cost;
  let kinds =
    Array.fold_left
      (fun acc (r : Event_engine.event_record) ->
        if List.mem r.kind acc then acc else r.kind :: acc)
      [] run.Event_engine.records
  in
  Alcotest.(check bool) "failures and repairs were processed" true
    (List.mem "link_failure" kinds && List.mem "link_repair" kinds);
  (* Degraded fabric can only cost more: compare against the
     episode-free day under the same trigger. *)
  let clean =
    Event_engine.run sc ~policy:Solvers.Migrate.none
      ~trigger:(Event_engine.Periodic 1.0)
      ~events:(Scenario.events_of_diurnal sc) ()
  in
  let degraded =
    Event_engine.run sc ~policy:Solvers.Migrate.none
      ~trigger:(Event_engine.Periodic 1.0) ~events:stream ()
  in
  Alcotest.(check bool) "failures never cheapen a frozen placement" true
    (degraded.Event_engine.total_comm >= clean.Event_engine.total_comm -. 1e-9)

(* --- stream constructors -------------------------------------------------- *)

let test_of_trace_structure () =
  let sc = scenario ~seed:1 () in
  let flows = Problem.flows sc.Scenario.problem in
  let trace = Trace.of_diurnal Diurnal.default ~flows in
  let stream = Events.of_trace trace in
  Alcotest.(check int) "one event per epoch plus the horizon vector"
    (Trace.num_epochs trace + 1)
    (Events.length stream);
  check_bits "horizon = epochs"
    (float_of_int (Trace.num_epochs trace))
    (Events.horizon stream);
  match List.rev (Events.events stream) with
  | last :: _ ->
      check_bits "final vector sits at the horizon" (Events.horizon stream)
        last.Events.time;
      (match last.Events.kind with
      | Events.Rate_update updates ->
          Alcotest.(check bool) "and is all-zero" true
            (List.for_all (fun (_, r) -> Float.compare r 0.0 = 0) updates)
      | _ -> Alcotest.fail "expected a Rate_update at the horizon")
  | [] -> Alcotest.fail "empty stream"

let test_poisson_stream () =
  let sc = scenario ~seed:8 () in
  let flows = Problem.flows sc.Scenario.problem in
  let make seed =
    Events.poisson ~rng:(Rng.create seed) ~horizon:12.0 ~mean_active:4.0 flows
  in
  let a = make 5 and b = make 5 and c = make 6 in
  Alcotest.(check int) "seeded determinism" (Events.length a) (Events.length b);
  List.iter2
    (fun (x : Events.event) (y : Events.event) ->
      check_bits "same times" x.time y.time)
    (Events.events a) (Events.events b);
  Alcotest.(check bool) "different seeds differ" true
    (Events.length a <> Events.length c
    || List.exists2
         (fun (x : Events.event) (y : Events.event) ->
           Float.compare x.time y.time <> 0)
         (Events.events a) (Events.events c));
  (* Per-flow ordering: arrival strictly before departure, both inside
     the horizon. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (e : Events.event) ->
      Alcotest.(check bool) "inside horizon" true
        (e.time >= 0.0 && e.time < 12.0);
      match e.kind with
      | Events.Flow_arrival { flow; rate } ->
          Alcotest.(check bool) "positive rate" true (rate > 0.0);
          Hashtbl.replace seen flow e.time
      | Events.Flow_departure { flow } ->
          Alcotest.(check bool) "departure after arrival" true
            (match Hashtbl.find_opt seen flow with
            | Some t -> e.time > t
            | None -> false)
      | _ -> Alcotest.fail "unexpected kind in a poisson stream")
    (Events.events a);
  (* A poisson stream must drive the engine end to end. *)
  let run =
    Event_engine.run sc ~policy:Solvers.Migrate.mpareto
      ~trigger:(Event_engine.Threshold 1.3) ~events:a ()
  in
  Alcotest.(check bool) "engine consumed the stream" true
    (Array.length run.Event_engine.records = Events.length a)

let test_merge_is_stable () =
  let ev t = { Events.time = t; kind = Events.Probe } in
  let a = Events.make ~horizon:2.0 [ ev 0.5; ev 1.0 ] in
  let b =
    Events.make ~horizon:3.0
      [ { Events.time = 1.0; kind = Events.Flow_departure { flow = 0 } } ]
  in
  let m = Events.merge a b in
  check_bits "horizon is the max" 3.0 (Events.horizon m);
  match Events.events m with
  | [ e1; e2; e3 ] ->
      check_bits "sorted" 0.5 e1.Events.time;
      (match (e2.Events.kind, e3.Events.kind) with
      | Events.Probe, Events.Flow_departure _ -> ()
      | _ -> Alcotest.fail "equal-time events must keep a-before-b order")
  | _ -> Alcotest.fail "expected three events"

let test_trigger_parsing () =
  let roundtrip s t =
    Alcotest.(check string) s
      (Event_engine.trigger_name t)
      (Event_engine.trigger_name (Event_engine.trigger_of_string s))
  in
  roundtrip "periodic:1.5" (Event_engine.Periodic 1.5);
  roundtrip "threshold:1.3" (Event_engine.Threshold 1.3);
  roundtrip "hysteresis:1.5,1.1"
    (Event_engine.Hysteresis { up = 1.5; down = 1.1 });
  roundtrip "on-event" Event_engine.On_event;
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (try
           ignore (Event_engine.trigger_of_string s);
           false
         with Invalid_argument _ -> true))
    [ "periodic:-1"; "periodic:nope"; "hysteresis:1.0,2.0"; "sometimes"; "" ]

let test_stream_validation () =
  let reject name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  reject "negative time" (fun () ->
      Events.make ~horizon:1.0 [ { Events.time = -1.0; kind = Events.Probe } ]);
  reject "negative rate" (fun () ->
      Events.make ~horizon:1.0
        [ { Events.time = 0.0;
            kind = Events.Flow_arrival { flow = 0; rate = -1.0 } } ]);
  reject "self-loop link" (fun () ->
      Events.make ~horizon:1.0
        [ { Events.time = 0.0; kind = Events.Link_failure { u = 3; v = 3 } } ]);
  reject "nan horizon" (fun () -> Events.make ~horizon:Float.nan []);
  let sc = scenario ~seed:1 () in
  reject "out-of-range flow id at run time" (fun () ->
      Event_engine.run sc ~policy:Solvers.Migrate.none
        ~trigger:Event_engine.On_event
        ~events:
          (Events.make ~horizon:1.0
             [ { Events.time = 0.0;
                 kind = Events.Flow_arrival { flow = 9999; rate = 1.0 } } ])
        ())

(* --- observability -------------------------------------------------------- *)

let test_metrics_instrumentation () =
  let module Obs = Ppdc_prelude.Obs in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    (fun () ->
      let sc = scenario ~seed:2 () in
      let run =
        Event_engine.run sc ~policy:Solvers.Migrate.mpareto
          ~trigger:(Event_engine.Periodic 2.0)
          ~events:(Scenario.events_of_diurnal sc) ()
      in
      let snap = Obs.snapshot () in
      let events =
        List.filter (fun (e : Obs.event) -> e.Obs.name = "sim.event")
          snap.Obs.events
      in
      Alcotest.(check int) "one sim.event per processed event"
        (Array.length run.Event_engine.records)
        (List.length events);
      Alcotest.(check bool) "trigger counter" true
        (List.exists
           (fun (name, v) ->
             name = "sim.trigger.periodic"
             && v = run.Event_engine.reconfigurations)
           snap.Obs.counters);
      Alcotest.(check bool) "reconfig span recorded" true
        (List.mem_assoc "sim.reconfig" snap.Obs.spans))

let () =
  Alcotest.run "ppdc_events"
    [
      ( "equivalence",
        [
          Alcotest.test_case "Periodic 1h = run_day, all policies" `Quick
            test_periodic_hourly_equals_run_day;
          test_equivalence_qcheck ();
          Alcotest.test_case "bit-identical across domain counts" `Quick
            test_equivalence_across_domains;
        ] );
      ( "triggers",
        [
          Alcotest.test_case "on-event fires everywhere" `Quick
            test_on_event_fires_everywhere;
          Alcotest.test_case "periodic span" `Quick test_periodic_span;
          Alcotest.test_case "threshold fires once on constant load" `Quick
            test_threshold_fires_once_on_constant_load;
          Alcotest.test_case "hysteresis disarms and re-arms" `Quick
            test_hysteresis_disarms_and_rearms;
          Alcotest.test_case "migration delay suppresses triggers" `Quick
            test_migration_delay_suppresses_triggers;
          Alcotest.test_case "trigger spec parsing" `Quick test_trigger_parsing;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "elapsed-time comm charging" `Quick
            test_elapsed_time_charging;
          Alcotest.test_case "failure episode replay" `Quick
            test_failure_episode_replay;
        ] );
      ( "streams",
        [
          Alcotest.test_case "of_trace structure" `Quick test_of_trace_structure;
          Alcotest.test_case "poisson churn" `Quick test_poisson_stream;
          Alcotest.test_case "merge stability" `Quick test_merge_is_stable;
          Alcotest.test_case "stream validation" `Quick test_stream_validation;
        ] );
      ( "observability",
        [
          Alcotest.test_case "sim.event / sim.trigger / sim.reconfig" `Quick
            test_metrics_instrumentation;
        ] );
    ]
