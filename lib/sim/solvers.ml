open Ppdc_core
module Flow = Ppdc_traffic.Flow

type kind = Placement | Migration
type input = Mu | Budget | Pair_limit | Forecast
type relocates = Vnfs | Vms | Nothing

type params = {
  mu : float;
  budget : int option;
  pair_limit : int option;
  forecast : float array option;
}

let default_params =
  { mu = 1e4; budget = None; pair_limit = None; forecast = None }

type detail =
  | Objective of float
  | Search of { proven_optimal : bool; explored : int }
  | Frontiers of int
  | Primal_dual of (float * int) option

type outcome = {
  placement : Placement.t;
  flows : Flow.t array option;
  comm_cost : float;
  migration_cost : float;
  total_cost : float;
  moves : int;
  detail : detail option;
}

exception Invalid_params of string

let invalid fmt = Printf.ksprintf (fun msg -> raise (Invalid_params msg)) fmt

type solve =
  | Place_with of (Problem.t -> rates:float array -> params -> outcome)
  | Migrate_with of
      (Problem.t -> rates:float array -> current:Placement.t -> params ->
       outcome)

type t = {
  name : string;
  title : string;
  inputs : input list;
  relocates : relocates;
  solve : solve;
}

let placed ?detail placement cost =
  { placement; flows = None; comm_cost = cost; migration_cost = 0.0;
    total_cost = cost; moves = 0; detail }

let search proven_optimal explored = Some (Search { proven_optimal; explored })

let of_mpareto (o : Mpareto.outcome) =
  { placement = o.migration; flows = None; comm_cost = o.comm_cost;
    migration_cost = o.migration_cost; total_cost = o.total_cost;
    moves = o.moved; detail = Some (Frontiers (List.length o.points)) }

(* PLAN and MCF share one shape: the VNFs stay, the endpoints move. *)
let of_vm ~current (o : Ppdc_baselines.Vm.outcome) =
  { placement = current; flows = Some o.flows; comm_cost = o.comm_cost;
    migration_cost = o.migration_cost; total_cost = o.total_cost;
    moves = o.migrations; detail = None }

(* Algo. 1 lifted to a whole-chain placement: greedy traffic-weighted
   ingress/egress, primal-dual prize-collecting stroll for the middle
   n-2 switches. Approximate by construction — the point of exposing it
   is comparing it against dp/optimal on live instances. *)
let primal_dual_place problem ~rates =
  let att = Cost.attach problem ~rates in
  let sw = Problem.switches problem in
  let argmin ?(exclude = -1) score =
    fst
      (Array.fold_left
         (fun (best, best_v) s ->
           let v = if s = exclude then infinity else score s in
           if Float.compare v best_v < 0 then (s, v) else (best, best_v))
         (-1, infinity) sw)
  in
  match Problem.n problem with
  | 1 -> ([| argmin (fun s -> att.a_in.(s) +. att.a_out.(s)) |], None)
  | n ->
      let p1 = argmin (fun s -> att.a_in.(s)) in
      let pn = argmin ~exclude:p1 (fun s -> att.a_out.(s)) in
      if n = 2 then ([| p1; pn |], None)
      else
        let candidates =
          Array.of_list
            (List.filter (fun s -> s <> p1 && s <> pn) (Array.to_list sw))
        in
        let o =
          Stroll_primal_dual.solve ~cm:(Problem.cm problem) ~src:p1 ~dst:pn
            ~n:(n - 2) ~candidates ()
        in
        ( Array.concat [ [| p1 |]; o.switches; [| pn |] ],
          Some (o.prize, o.iterations) )

let entry name title inputs relocates solve =
  { name; title; inputs; relocates; solve }

module Place = struct
  let entry name title inputs f = entry name title inputs Nothing (Place_with f)

  let dp =
    entry "dp" "DP (Algo 3)" [ Pair_limit ] (fun problem ~rates p ->
        let o = Placement_dp.solve problem ~rates ?pair_limit:p.pair_limit () in
        placed ~detail:(Objective o.objective) o.placement o.cost)

  let optimal =
    entry "optimal" "Optimal (Algo 4)" [ Budget ] (fun problem ~rates p ->
        let o = Placement_opt.solve problem ~rates ?budget:p.budget () in
        placed ?detail:(search o.proven_optimal o.explored) o.placement o.cost)

  let primal_dual =
    entry "primal_dual" "PrimalDual (Algo 1)" [] (fun problem ~rates _ ->
        let placement, stroll = primal_dual_place problem ~rates in
        placed ~detail:(Primal_dual stroll) placement
          (Cost.comm_cost problem ~rates placement))

  let steering =
    entry "steering" "Steering [55]" [] (fun problem ~rates _ ->
        let o = Ppdc_baselines.Steering.place problem ~rates in
        placed o.placement o.cost)

  let greedy =
    entry "greedy" "Greedy [34]" [] (fun problem ~rates _ ->
        let o = Ppdc_baselines.Greedy_liu.place problem ~rates in
        placed o.placement o.cost)
end

module Migrate = struct
  let entry name title inputs relocates f =
    entry name title inputs relocates (Migrate_with f)

  let mpareto_solve problem ~rates ~current p =
    of_mpareto
      (Mpareto.migrate problem ~rates ~mu:p.mu ~current
         ?pair_limit:p.pair_limit ())

  let mpareto =
    entry "mpareto" "mPareto (Algo 5)" [ Mu; Pair_limit ] Vnfs mpareto_solve

  (* Seeded with the mPareto migration as incumbent, so the bound
     Optimal-TOM <= mPareto survives an exhausted budget. *)
  let optimal =
    entry "optimal" "Optimal (Algo 6)" [ Mu; Budget; Pair_limit ] Vnfs
      (fun problem ~rates ~current p ->
        let mu = p.mu in
        let incumbent = (mpareto_solve problem ~rates ~current p).placement in
        let o =
          Migration_opt.solve problem ~rates ~mu ~current ?budget:p.budget
            ~incumbent ()
        in
        let m = o.migration in
        { placement = m; flows = None;
          comm_cost = Cost.comm_cost problem ~rates m;
          migration_cost = Cost.migration_cost problem ~mu ~src:current ~dst:m;
          total_cost = o.cost; moves = Cost.moved ~src:current ~dst:m;
          detail = search o.proven_optimal o.explored })

  (* Decide against the mean of the current and the forecast rate
     vectors; charge against reality. *)
  let forecast =
    entry "forecast" "mPareto+forecast" [ Mu; Pair_limit; Forecast ] Vnfs
      (fun problem ~rates ~current p ->
        let next =
          match p.forecast with
          | Some next when Array.length next = Array.length rates -> next
          | Some next ->
              invalid "forecast: expected %d rates, got %d"
                (Array.length rates) (Array.length next)
          | None ->
              invalid
                "forecast needs a forecast of the next rate vector; it is \
                 available to simulate and simulate_events"
        in
        let decision = Array.mapi (fun i r -> 0.5 *. (r +. next.(i))) rates in
        let o = mpareto_solve problem ~rates:decision ~current p in
        let comm_cost = Cost.comm_cost problem ~rates o.placement in
        { o with comm_cost; total_cost = comm_cost +. o.migration_cost })

  let plan =
    entry "plan" "PLAN [17]" [ Mu ] Vms (fun problem ~rates ~current p ->
        of_vm ~current
          (Ppdc_baselines.Plan.migrate problem ~rates ~mu_vm:p.mu
             ~placement:current ()))

  let mcf =
    entry "mcf" "MCF [24]" [ Mu ] Vms (fun problem ~rates ~current p ->
        of_vm ~current
          (Ppdc_baselines.Mcf_migration.migrate problem ~rates ~mu_vm:p.mu
             ~placement:current ()))

  let none =
    entry "none" "NoMigration" [] Nothing (fun problem ~rates ~current _ ->
        let o =
          Ppdc_baselines.No_migration.evaluate problem ~rates ~placement:current
        in
        { (placed current o.comm_cost) with total_cost = o.total_cost })
end

let all = function
  | Placement -> Place.[ dp; optimal; primal_dual; steering; greedy ]
  | Migration -> Migrate.[ mpareto; optimal; forecast; plan; mcf; none ]

let kind t =
  match t.solve with Place_with _ -> Placement | Migrate_with _ -> Migration

let name t = t.name
let title t = t.title
let label t = List.hd (String.split_on_char ' ' t.title)
let inputs t = t.inputs
let relocates t = t.relocates
let names k = List.map name (all k)

let find ?(what = "algo") k s =
  match List.find_opt (fun t -> t.name = s) (all k) with
  | Some t -> t
  | None ->
      invalid "unknown %s %S (expected one of %s)" what s
        (String.concat ", " (names k))

let validate t p =
  let at_least param min = function
    | Some v when v < min ->
        invalid "invalid parameter %S: must be >= %d (got %d)" param min v
    | _ -> ()
  in
  List.iter
    (function
      | Mu when not (Float.is_finite p.mu && Float.compare p.mu 0.0 >= 0) ->
          invalid "invalid parameter \"mu\": must be finite and >= 0 (got %g)"
            p.mu
      | Budget -> at_least "budget" 1 p.budget
      (* one ingress and one egress candidate may be the same switch *)
      | Pair_limit -> at_least "pair_limit" 2 p.pair_limit
      | Mu | Forecast -> ())
    t.inputs

let run t problem ~rates ?current p =
  validate t p;
  match (t.solve, current) with
  | Place_with f, _ -> f problem ~rates p
  | Migrate_with f, Some current -> f problem ~rates ~current p
  | Migrate_with _, None ->
      invalid_arg ("Solvers.run: no current placement for " ^ t.name)

type state = { mutable placement : Placement.t; mutable problem : Problem.t }

let step t p state ~rates =
  let o = run t state.problem ~rates ~current:state.placement p in
  state.placement <- o.placement;
  Option.iter
    (fun flows -> state.problem <- Problem.with_flows state.problem flows)
    o.flows;
  o
