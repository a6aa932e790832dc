(** Fig. 9 — TOP placement comparison on unweighted PPDCs.

    (a) sweeps the number of VM flows [l] at a fixed chain length;
    (b) sweeps the chain length [n] at a fixed [l]. Series: Optimal
    (Algo. 4 branch-and-bound), DP (Algo. 3), Greedy (Liu et al.) and
    Steering (Zhang et al.). Expected shape: DP hugs Optimal while both
    baselines sit far above. *)

val run : Mode.t -> Ppdc_prelude.Table.t list
(** Returns the 9(a) and 9(b) tables. *)

val compare_algorithms :
  weighted:bool ->
  mode:Mode.t ->
  k:int ->
  l:int ->
  n:int ->
  (Ppdc_sim.Solvers.t * Ppdc_prelude.Stats.summary) list
(** One data point: Optimal, DP, Greedy and Steering with their mean
    costs over the mode's trials. Fig. 10 sets [weighted]. *)

val row :
  string -> (Ppdc_sim.Solvers.t * Ppdc_prelude.Stats.summary) list ->
  string list
(** A table row under [columns]: the label, then one mean±CI cell per
    algorithm. *)

val columns : string list
