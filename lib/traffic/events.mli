(** Typed event timelines for the discrete-event simulator.

    An event stream is the dynamic half of a scenario freed from the
    hour grid: flows arrive, depart, and change rate, links fail and
    come back — each at an arbitrary virtual time in [0, horizon).
    The stream itself is pure data (no graph or problem attached);
    {!Ppdc_sim.Event_engine} interprets it against a scenario, and
    {!Ppdc_sim.Scenario} builds the graph-dependent streams (failure
    episodes) that need topology knowledge.

    {b Determinism contract.} [make] stable-sorts events by time, so
    equal-time events keep the order the caller listed them in; the
    engine's queue ({!Ppdc_prelude.Pqueue.Stable}) then preserves that
    order through replay. A stream is therefore replayed identically
    on every machine and at every domain count. *)

type kind =
  | Flow_arrival of { flow : int; rate : float }
      (** flow [flow] starts sending at [rate] *)
  | Flow_departure of { flow : int }  (** flow's rate drops to zero *)
  | Rate_update of (int * float) list
      (** batched rate changes, applied atomically: the engine sees one
          event (and evaluates its trigger once), not one per flow *)
  | Link_failure of { u : int; v : int }
  | Link_repair of { u : int; v : int; weight : float }
  | Migration_complete
      (** end of a migration in flight; normally scheduled by the
          engine itself when a migration delay is configured *)
  | Probe  (** no state change; gives periodic triggers a tick *)

type event = { time : float; kind : kind }

type t
(** An immutable stream: events sorted by time, plus the horizon. *)

val make : horizon:float -> event list -> t
(** Stable-sorts by time. Raises [Invalid_argument] on a non-finite or
    negative time/horizon, negative flow id, non-finite or negative
    rate, self-loop link, or non-positive repair weight. (Flow ids and
    link endpoints are validated against the actual problem by the
    engine, which is where the graph lives.) *)

val kind_name : kind -> string
(** Stable lowercase tag ("flow_arrival", "link_repair", ...) used by
    Obs events and the CLI. *)

val events : t -> event list
(** In time order (stable for equal times). *)

val horizon : t -> float
val length : t -> int
val iter : (event -> unit) -> t -> unit

val of_trace : Trace.t -> t
(** One atomic full-vector [Rate_update] per trace epoch at times
    [0 .. epochs-1], horizon [epochs], plus a final all-zero vector
    {e at} the horizon — never processed, but visible to forecasts
    (the zero-forecast horizon contract of the last epoch). Replaying
    this stream with a [Periodic 1.0] trigger is what
    {!Ppdc_sim.Engine.run_trace} does; it is bit-identical to a
    per-epoch loop of policy steps — see [test/test_events.ml]. Raises
    [Invalid_argument] on an empty trace. *)

val of_diurnal : Diurnal.t -> flows:Flow.t array -> t
(** [of_trace (Trace.of_diurnal diurnal ~flows)]. *)

val poisson :
  rng:Ppdc_prelude.Rng.t ->
  horizon:float ->
  mean_active:float ->
  ?jitter:float ->
  Flow.t array ->
  t
(** Session churn as a Poisson process: flows arrive with exponential
    inter-arrival times (population spread over the first half of the
    horizon), each at its base rate scaled by a uniform factor in
    [1 ± jitter] (default 0.2), and stay active for an
    Exponential([mean_active]) duration before departing. Departures
    past the horizon are dropped (the run ends first). Deterministic
    given the rng seed. Raises [Invalid_argument] on a non-positive
    horizon or [mean_active], [jitter] outside [0, 1], or no flows. *)

val probes : every:float -> horizon:float -> t
(** [Probe] ticks at [every, 2·every, ...) below the horizon — gives a
    [Periodic] trigger a chance to fire between state changes. *)

val merge : t -> t -> t
(** Union of two streams; horizon is the max. Equal-time events order
    first-stream-before-second. *)
