(** Per-hour view of a simulated PPDC day.

    Realizes the paper's lifecycle: the SFC is deployed at hour 0 (per
    {!Scenario.initial} — by default before any traffic exists, since
    Eq. 9 has τ_0 = 0), then a migration entry of {!Solvers} acts once
    per hour against the diurnal rate vector (Eq. 9 with the east/west
    offset), and every hour is charged its migration traffic plus one
    hour of communication traffic. This is the harness behind the
    Fig. 11 experiments.

    [run_day]/[run_trace] replay the hourly event stream through
    {!Event_engine} under [Periodic 1.0] and fold its records into
    {!hour_record}s: hour [i] pairs record [i]'s migration with the
    communication segment [i, i+1). The {!Solvers.Migrate.forecast}
    entry sees the next hour's rate vector, all-zero at the last hour.

    Observability: when {!Ppdc_prelude.Obs} is enabled, the day emits
    {!Event_engine}'s events and spans, then one [sim.epoch] event per
    hour (policy, hour, comm/migration cost, moves). *)

type hour_record = {
  hour : int;
  comm_cost : float;  (** one hour of [C_a] after the policy acted *)
  migration_cost : float;  (** [C_b] (VNF) or VM migration traffic *)
  migrations : int;  (** VNF moves or VM moves this hour *)
  total_cost : float;  (** [comm_cost + migration_cost] *)
}

type run = {
  initial_placement : Ppdc_core.Placement.t;
  hours : hour_record array;  (** hour 1 .. N *)
  total_cost : float;
  total_migrations : int;
}

val run_day : Scenario.t -> policy:Solvers.t -> run
(** Simulate one day: choose the day-0 placement per the scenario's
    {!Scenario.initial}, then let the migration entry act at every
    hour 1..N. Deterministic given the scenario. Raises
    {!Solvers.Invalid_params} when the scenario's parameters are out
    of the entry's declared domain. *)

val run_trace :
  Scenario.t -> policy:Solvers.t -> trace:Ppdc_traffic.Trace.t -> run
(** Replay an arbitrary {!Ppdc_traffic.Trace} instead of the diurnal
    model: the policy acts once per trace epoch. The trace's flows must
    match the scenario's problem ([run_day scenario] is equivalent to
    replaying [Trace.of_diurnal] of the scenario's flows). One caveat
    for the VM-migration policies: the trace's *rates* are replayed
    as-is, but the flow endpoints evolve with the policy's VM moves.
    Raises [Invalid_argument] on a flow-count mismatch or empty
    trace. *)
