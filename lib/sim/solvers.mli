(** The solver table: the one place that decides what a solver name
    means. The CLI, the RPC methods, the simulator and the experiments
    all dispatch through it. Each entry declares the parameters it
    reads ({!input}); {!run} validates exactly those and answers with
    one uniform {!outcome}. Unknown names are rejected listing the
    table's own names.

    Settled semantics, the same on every surface:
    - migration [optimal] always seeds its branch-and-bound with the
      mPareto migration (same [pair_limit]), so Optimal-TOM ≤ mPareto
      holds even when the node budget runs out;
    - [forecast] reads the next rate vector, which only a simulation
      supplies: a single-shot {!run} without one is rejected;
    - [mu] must be finite and [>= 0], [budget] [>= 1], and
      [pair_limit] [>= 2] (a single ingress and egress candidate may be
      the same switch, leaving no feasible pair). *)

type kind = Placement | Migration

type input =
  | Mu  (** migration coefficient: μ, or μ_vm for the VM baselines *)
  | Budget  (** branch-and-bound node budget *)
  | Pair_limit  (** Algo. 3 ingress/egress candidate cap *)
  | Forecast  (** the next rate vector *)

type relocates =
  | Vnfs  (** the chain's VNFs move *)
  | Vms  (** flow endpoints move; the VNFs stay put *)
  | Nothing  (** placement entries and [none] *)

type t

type params = {
  mu : float;
  budget : int option;  (** [None]: the solver's default *)
  pair_limit : int option;  (** [None]: every pair *)
  forecast : float array option;
}

val default_params : params
(** [mu = 1e4], nothing else. *)

type detail =
  | Objective of float  (** [dp]'s pair-selection objective *)
  | Search of { proven_optimal : bool; explored : int }  (** [optimal] *)
  | Frontiers of int  (** [mpareto]/[forecast]: parallel frontiers *)
  | Primal_dual of (float * int) option
      (** the stroll's prize and iterations; [None] for n ≤ 2 *)

type outcome = {
  placement : Ppdc_core.Placement.t;  (** unchanged by [Vms]/[Nothing] *)
  flows : Ppdc_traffic.Flow.t array option;  (** [Vms]: rehosted flows *)
  comm_cost : float;  (** [C_a] at the given rates after the move *)
  migration_cost : float;  (** 0 for placement *)
  total_cost : float;  (** the solver's own total ([C_a] for placement) *)
  moves : int;  (** VNFs or VMs moved; 0 for placement *)
  detail : detail option;
}

exception Invalid_params of string
(** A parameter out of its domain (the message names it), a missing
    forecast, or an unknown name. *)

(** {1 The table} *)

module Place : sig
  val dp : t
  val optimal : t
  val primal_dual : t
  val steering : t
  val greedy : t
end
(** [dp] (Algo. 3), [optimal] (Algo. 4), [primal_dual] (Algo. 1 lifted
    to a chain), [steering] [55], [greedy] [34]. *)

module Migrate : sig
  val mpareto : t
  val optimal : t
  val forecast : t
  val plan : t
  val mcf : t
  val none : t
end
(** [mpareto] (Algo. 5), [optimal] (Algo. 6), [forecast] (mPareto on
    the mean of the current and next rates), [plan] [17], [mcf] [24],
    [none]. *)

val all : kind -> t list
val names : kind -> string list
(** A kind's entries, and their names, in the order listed above. The
    first ([dp], [mpareto]) is every surface's default. *)

val find : ?what:string -> kind -> string -> t
(** By wire/CLI name. Raises {!Invalid_params}
    ["unknown <what> \"x\" (expected one of a, b, c)"] ([what]
    defaults to ["algo"]). *)

val kind : t -> kind
val name : t -> string
val inputs : t -> input list
val relocates : t -> relocates

val title : t -> string
val label : t -> string
(** [name] is the wire/CLI name (["mpareto"]), [title] the display
    name with its citation (["mPareto (Algo 5)"], ["Steering [55]"]),
    [label] the title without it (["mPareto"]). *)

val run :
  t ->
  Ppdc_core.Problem.t ->
  rates:float array ->
  ?current:Ppdc_core.Placement.t ->
  params ->
  outcome
(** Validate the entry's declared parameters, then run it at [rates];
    migration entries move from [current] ([Invalid_argument] without
    it). Raises {!Invalid_params}. Deterministic. *)

(** A simulation's evolving chain and fabric/workload. *)
type state = {
  mutable placement : Ppdc_core.Placement.t;
  mutable problem : Ppdc_core.Problem.t;
}

val step : t -> params -> state -> rates:float array -> outcome
(** One simulation step: {!run} a migration entry from [state], then
    adopt its placement and, for [Vms] entries, its rehosted flows. *)
