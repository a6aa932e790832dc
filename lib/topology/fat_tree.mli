(** k-ary fat-tree data-center topology (Al-Fares et al., SIGCOMM 2008).

    A fat-tree of parameter [k] (even, ≥ 2) has [k] pods. Each pod contains
    [k/2] edge switches and [k/2] aggregation switches; every edge switch
    connects to [k/2] hosts and to every aggregation switch in its pod;
    [(k/2)²] core switches each connect to one aggregation switch per pod.
    Totals: [5k²/4] switches and [k³/4] hosts — e.g. k=8 → 128 hosts and
    k=16 → 1024 hosts, the two PPDC scales evaluated in the paper.

    All links have unit weight by default ("unweighted" PPDC = hop
    counts); use [weight] or {!Graph.map_weights} for weighted PPDCs. *)

type t = {
  graph : Graph.t;
  k : int;
  core : int array;  (** core switch ids, [(k/2)²] of them *)
  aggregation : int array;  (** aggregation switch ids, pod-major *)
  edge : int array;  (** edge switch ids, pod-major *)
  hosts : int array;  (** host ids, grouped by edge switch *)
}

val build : ?weight:(int -> int -> float) -> int -> t
(** [build k] constructs the fat-tree. [weight u v] gives each link's
    weight (default: constant 1.0). Raises [Invalid_argument] if [k] is
    odd or < 2. *)

val build_with_delays : rng:Ppdc_prelude.Rng.t -> int -> t
(** [build] with Fig. 10's link delays: uniform with mean 1.5 and
    variance 0.5, drawn from [Rng.split rng] (so [rng] itself advances
    by exactly one split). *)

val pod_of_host : t -> int -> int
(** Pod index (0-based) of a host. *)

val edge_switch_of_host : t -> int -> int
(** The edge (top-of-rack) switch a host attaches to. *)

val rack_of_host : t -> int -> int
(** Rack index = global index of the host's edge switch; two hosts are in
    the same rack iff they share an edge switch. *)

val hosts_of_rack : t -> int -> int array
(** Hosts attached to the given edge switch (by rack index as returned by
    {!rack_of_host}). *)

val num_racks : t -> int
