type initial = Uninformed of int | Hour1

type t = {
  problem : Ppdc_core.Problem.t;
  diurnal : Ppdc_traffic.Diurnal.t;
  mu : float;
  mu_vm : float;
  pair_limit : int option;
  opt_budget : int;
  initial : initial;
}

let make ?(diurnal = Ppdc_traffic.Diurnal.default) ?(mu = 1e4) ?mu_vm
    ?pair_limit ?(opt_budget = 2_000_000) ?(initial = Uninformed 0) problem =
  {
    problem;
    diurnal;
    mu;
    mu_vm = Option.value mu_vm ~default:mu;
    pair_limit;
    opt_budget;
    initial;
  }

let params t policy =
  let mu = if Solvers.relocates policy = Solvers.Vms then t.mu_vm else t.mu in
  { Solvers.mu; budget = Some t.opt_budget; pair_limit = t.pair_limit;
    forecast = None }

let initial_placement t ~first_rates =
  match t.initial with
  | Uninformed seed ->
      (* Deployment happens before traffic exists (Eq. 9 gives hour 0 a
         zero rate vector): all placements cost the same, so the
         operator's choice is arbitrary. *)
      Ppdc_core.Placement.random
        ~rng:(Ppdc_prelude.Rng.create (seed + 0x5eed))
        t.problem
  | Hour1 ->
      (Solvers.run Solvers.Place.dp t.problem ~rates:first_rates
         { Solvers.default_params with pair_limit = t.pair_limit })
        .placement

module Events = Ppdc_traffic.Events

let events_of_diurnal t =
  Events.of_diurnal t.diurnal ~flows:(Ppdc_core.Problem.flows t.problem)

let failure_episode ~rng ~at ~duration ~fraction t =
  if not (Float.is_finite at) || at < 0.0 then
    invalid_arg "Scenario.failure_episode: at must be finite >= 0";
  if not (Float.is_finite duration) || duration <= 0.0 then
    invalid_arg "Scenario.failure_episode: duration must be finite positive";
  let g = Ppdc_core.Problem.graph t.problem in
  let _, failed = Ppdc_extensions.Failures.fail_links ~rng ~fraction g in
  let weight (u, v) =
    match Ppdc_topology.Graph.edge_weight g u v with
    | Some w -> w
    | None -> assert false (* fail_links only reports existing links *)
  in
  let failures =
    List.map
      (fun (u, v) -> { Events.time = at; kind = Events.Link_failure { u; v } })
      failed
  in
  (* Repairs land in reverse failure order (last failed, first
     repaired) — any order is valid, but this one is the deterministic
     convention the committed benches replay. *)
  let repairs =
    List.rev_map
      (fun (u, v) ->
        {
          Events.time = at +. duration;
          kind = Events.Link_repair { u; v; weight = weight (u, v) };
        })
      failed
  in
  Events.make ~horizon:(at +. duration) (failures @ repairs)

let enrich ?probe_every ?failure_at ~seed t base =
  let probes every = Events.probes ~every ~horizon:(Events.horizon base) in
  let failures at =
    failure_episode
      ~rng:(Ppdc_prelude.Rng.create (seed + 0xfa11))
      ~at ~duration:1.5 ~fraction:0.05 t
  in
  List.fold_left Events.merge base
    (List.filter_map Fun.id
       [ Option.map probes probe_every; Option.map failures failure_at ])
