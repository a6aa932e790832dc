(** Configuration of one simulated PPDC day.

    Bundles the problem instance with the dynamic-traffic model and the
    cost coefficients so every migration policy is charged identically.
    A scenario is immutable; the engine copies what it mutates. *)

type initial =
  | Uninformed of int
      (** the SFC is deployed before any traffic exists (Eq. 9 has
          τ_0 = 0, so at deployment time every placement costs zero and
          TOP has nothing to optimize): a seeded arbitrary placement.
          This matches the paper's lifecycle and is what makes the
          NoMigration baseline progressively expensive. *)
  | Hour1
      (** deploy with knowledge of the first hour's rates (Algo. 3 on the
          hour-1 vector) — an idealized operator; used by the
          [abl_initial] ablation. *)

type t = {
  problem : Ppdc_core.Problem.t;
  diurnal : Ppdc_traffic.Diurnal.t;
  mu : float;  (** VNF migration coefficient (paper: 10^4–10^5) *)
  mu_vm : float;
      (** VM migration coefficient for the PLAN/MCF baselines; defaults
          to [mu] since containerized VNF and VM memory footprints are of
          the same order (DESIGN.md §4) *)
  pair_limit : int option;
      (** ingress/egress candidate cap handed to {!Ppdc_core.Placement_dp}
          inside mPareto — a scalability knob for k=16 runs *)
  opt_budget : int;
      (** branch-and-bound node budget for the Optimal migration policy *)
  initial : initial;  (** how the day-0 placement is chosen *)
}

val make :
  ?diurnal:Ppdc_traffic.Diurnal.t ->
  ?mu:float ->
  ?mu_vm:float ->
  ?pair_limit:int ->
  ?opt_budget:int ->
  ?initial:initial ->
  Ppdc_core.Problem.t ->
  t
(** Defaults: the paper's 12-hour diurnal model, [mu = 1e4],
    [mu_vm = mu], no pair limit, 2-million-node optimal budget,
    [Uninformed 0] deployment. *)

val params : t -> Solvers.t -> Solvers.params
(** The parameters the scenario hands a migration entry: [mu_vm] as
    the coefficient of the [Vms] entries and [mu] otherwise, the
    [opt_budget] and the [pair_limit]; no forecast (the simulator
    supplies it per step). *)

val initial_placement : t -> first_rates:float array -> Ppdc_core.Placement.t
(** The day-0 placement per {!initial}: seeded-arbitrary for
    [Uninformed], Algo. 3 on [first_rates] (under the scenario's
    [pair_limit]) for [Hour1]. *)

(** {1 Event-stream constructors}

    The graph-aware bridges into the discrete-event simulator
    ({!Event_engine}); the pure-data constructors (traces, Poisson
    churn, probes) live in {!Ppdc_traffic.Events}. *)

val events_of_diurnal : t -> Ppdc_traffic.Events.t
(** The scenario's diurnal day as an hourly event stream —
    [Events.of_diurnal] of its own model and flows. Replaying it with
    [Periodic 1.0] is what {!Engine.run_day} does. *)

val failure_episode :
  rng:Ppdc_prelude.Rng.t ->
  at:float ->
  duration:float ->
  fraction:float ->
  t ->
  Ppdc_traffic.Events.t
(** One failure episode on the scenario's fabric: at time [at], a
    seeded connectivity-preserving random subset of switch-switch
    links fails ({!Ppdc_extensions.Failures.fail_links} with
    [fraction]); at [at + duration] every failed link is repaired at
    its original weight, in reverse failure order. The stream's
    horizon is [at + duration] — merge it with a traffic stream
    ({!Ppdc_traffic.Events.merge}) whose horizon extends further,
    otherwise the repairs sit exactly at the horizon and are never
    processed. Raises [Invalid_argument] on a negative/non-finite
    [at], non-positive [duration], or [fraction] outside [0, 1]. *)

val enrich :
  ?probe_every:float -> ?failure_at:float -> seed:int -> t ->
  Ppdc_traffic.Events.t -> Ppdc_traffic.Events.t
(** [enrich t base] merges probe ticks every [probe_every] hours into
    [base], then a {!failure_episode} at [failure_at] failing 5% of the
    switch-switch links for 1.5 hours (seeded by [seed]): the composite
    day of [eta_sweep], the events bench and [ppdc simulate --events]. *)
