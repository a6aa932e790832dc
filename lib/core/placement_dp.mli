(** Algo. 3 — DP-based VNF placement for TOP (the paper's "DP").

    For every ordered pair of switches [(p(1), p(n))] — candidate ingress
    and egress — the middle of the chain is filled with an (n−2)-stroll
    from Algo. 2, and the pair with the smallest
    [A_in(p(1)) + Λ · stroll + A_out(p(n))] wins. One DP table per egress
    switch answers *all* ingress queries, and a lower bound skips the
    tables that cannot win.

    Every hop of a stroll (and of the rescored chain) joins two distinct
    switches, so it costs at least the lightest edge weight [w_min]; a
    pair with egress [e] therefore has a key of at least
    [LB(e) = A_out(e) + min_{i≠e} A_in(i) + Λ·(n−1)·w_min]. The solve
    first builds the tables of the [Parallel.domain_count ()] egresses
    with the smallest [(LB, index)]; their best key is the incumbent.
    It then builds only the tables of egresses whose bound does not
    exceed the incumbent, skipping ingresses by the same bound, and
    folds the per-egress winners in egress order. The outcome is the
    full scan's, bit for bit, for any domain count
    ([test/test_placement_dp.ml]); the [Obs] counters
    ([placement_dp.pairs_tried], [placement_dp.egresses_pruned],
    [stroll_dp.*]) may depend on the domain count. The cost is
    O(|E| + |V_s| log |V_s| + S · (table + |V_s| · extraction)) for the
    [S ≤ |V_s|] egresses that survive.

    [n = 1] and [n = 2] have closed-form optimal solutions (scan switches
    / switch pairs), as the paper notes. *)

type outcome = {
  placement : Placement.t;
  cost : float;  (** actual [C_a(placement)] under the given rates *)
  objective : float;
      (** the stroll-based value the pair selection minimized; ≥ [cost]
          can differ from it when the stroll revisits edges *)
}

val solve :
  Problem.t ->
  rates:float array ->
  ?rescore:bool ->
  ?pair_limit:int ->
  ?max_edges:int ->
  unit ->
  outcome
(** [solve problem ~rates ()] computes a placement for the current rate
    vector.

    [rescore] (default [false], the paper's behaviour) selects each
    ingress/egress pair by the *recomputed exact* [C_a] of the extracted
    placement instead of the stroll length — never worse, slightly
    slower; quantified by the [abl-rescore] ablation.

    [pair_limit k] restricts candidate ingresses to the [k] switches with
    the smallest [A_in] and egresses to the [k] smallest [A_out] — a
    scalability knob for very large PPDCs (used by the k=16 simulation);
    omit for the paper-faithful full scan.

    [max_edges] is passed through to {!Stroll_dp.query}. *)
