module Parallel = Ppdc_prelude.Parallel
module Obs = Ppdc_prelude.Obs
module Graph = Ppdc_topology.Graph

let stroll_workspace = Domain.DLS.new_key Stroll_dp.workspace

type outcome = {
  placement : Placement.t;
  cost : float;
  objective : float;
}

(* The k switches with the smallest (float) key. Monomorphic on purpose:
   a polymorphic [compare] here would silently misorder NaN keys — the
   generalized-helper variant of the Stats.percentile bug that ppdc-lint
   R1 cannot see through instantiation. *)
let top_k (keys : float array) switches k =
  let sorted = Array.copy switches in
  Array.sort
    (fun a b ->
      match Float.compare keys.(a) keys.(b) with
      | 0 -> Int.compare a b
      | c -> c)
    sorted;
  if k >= Array.length sorted then sorted else Array.sub sorted 0 k

let solve_n1 (att : Cost.attach) switches =
  let best = ref infinity and best_switch = ref (-1) in
  Array.iter
    (fun s ->
      let value = att.a_in.(s) +. att.a_out.(s) in
      if value < !best then begin
        best := value;
        best_switch := s
      end)
    switches;
  { placement = [| !best_switch |]; cost = !best; objective = !best }

let solve_n2 problem att ingresses egresses =
  let best = ref infinity and best_pair = ref (-1, -1) in
  let tried = ref 0 in
  Array.iter
    (fun s ->
      Array.iter
        (fun t ->
          if s <> t then begin
            incr tried;
            let value =
              att.Cost.a_in.(s)
              +. (att.Cost.total_rate *. Problem.cost problem s t)
              +. att.Cost.a_out.(t)
            in
            if value < !best then begin
              best := value;
              best_pair := (s, t)
            end
          end)
        egresses)
    ingresses;
  Obs.incr ~by:!tried "placement_dp.pairs_tried";
  if Float.equal !best infinity then
    invalid_arg
      "Placement_dp.solve: no feasible ingress/egress pair (widen pair_limit)";
  let s, t = !best_pair in
  { placement = [| s; t |]; cost = !best; objective = !best }

(* A bound beats the incumbent only when it clears it by a relative
   margin, so a key summed in a different float order than its bound
   can never prune a tying winner. A NaN or infinite bound never
   prunes. *)
let prunes bound incumbent =
  Float.is_finite bound && bound *. (1.0 -. 1e-9) > incumbent

(* [Cost.comm_cost_with_attach] of [ingress; middles; egress] — the
   same sums in the same order, hence bit-identical — without building
   the array. *)
let pair_cost problem (att : Cost.attach) ingress middles egress =
  let chain = ref 0.0 and prev = ref ingress in
  Array.iter
    (fun v ->
      chain := !chain +. Problem.cost problem !prev v;
      prev := v)
    middles;
  let chain = !chain +. Problem.cost problem !prev egress in
  att.a_in.(ingress) +. (att.total_rate *. chain) +. att.a_out.(egress)

(* [a] without the element [v], order kept. *)
let without v a =
  match Array.find_index (Int.equal v) a with
  | None -> a
  | Some j ->
      Array.append (Array.sub a 0 j)
        (Array.sub a (j + 1) (Array.length a - j - 1))

(* [LB(e) = A_out(e) + min_{i<>e} A_in(i) + hop_floor] per egress
   position. The smallest [A_in] and the runner-up without its switch
   make the inner minimum O(1) per egress. [Float.min] propagates NaN,
   so a bound whose minimum spans a NaN [A_in] is NaN and never
   prunes. *)
let lower_bounds (att : Cost.attach) ~ingresses ~egresses ~hop_floor =
  let smallest =
    Array.fold_left (fun m i -> Float.min m att.a_in.(i)) infinity ingresses
  in
  let argmin =
    Option.value ~default:(-1)
      (Array.find_opt (fun i -> Float.equal att.a_in.(i) smallest) ingresses)
  in
  let runner_up =
    Array.fold_left
      (fun m i -> if i = argmin then m else Float.min m att.a_in.(i))
      infinity ingresses
  in
  Array.map
    (fun e ->
      let min_in = if e = argmin then runner_up else smallest in
      att.a_out.(e) +. min_in +. hop_floor)
    egresses

(* Reduction of two (key, cost, placement, objective) candidates: the
   earlier one survives unless the later key is not [>=] it — the
   sequential double loop's strict [<], NaN cases included. *)
let better acc candidate =
  match (acc, candidate) with
  | None, c -> c
  | a, None -> a
  | Some (best_key, _, _, _), Some (key, _, _, _) when key >= best_key -> acc
  | _, c -> c

let solve problem ~rates ?(rescore = false) ?pair_limit ?max_edges () =
  Obs.time "placement_dp.solve" @@ fun () ->
  let att = Cost.attach problem ~rates in
  let switches = Problem.switches problem in
  let n = Problem.n problem in
  let ingresses, egresses =
    match pair_limit with
    | None -> (switches, switches)
    | Some k -> (top_k att.a_in switches k, top_k att.a_out switches k)
  in
  if n = 1 then solve_n1 att switches
  else if n = 2 then solve_n2 problem att ingresses egresses
  else begin
    let cm = Problem.cm problem in
    if Array.length switches < n then
      invalid_arg
        (Printf.sprintf
           "Placement_dp.solve: chain of %d VNFs needs %d candidate \
            switches, have %d"
           n n (Array.length switches));
    (* Every hop of a stroll, of the nearest-neighbour filler and of the
       rescored chain joins two distinct switches, so it costs at least
       the lightest edge: both keys of a pair are at least
       [A_in + A_out + hop_floor]. [Λ · stroll] can only be NaN when [Λ]
       is 0 or ∞; there the floor is NaN and nothing prunes. *)
    let hop_floor =
      if att.total_rate > 0.0 && Float.is_finite att.total_rate then begin
        let weights = Graph.csr_weights (Problem.graph problem) in
        let w_min = ref infinity in
        for j = 0 to Array.length weights - 1 do
          if weights.(j) < !w_min then w_min := weights.(j)
        done;
        att.total_rate *. float_of_int (n - 1) *. !w_min
      end
      else Float.nan
    in
    (* One DP table per candidate egress, answering every ingress query.
       Each task scans its ingresses in the original inner-loop order,
       keeping the first strict improvement, and skips an ingress whose
       bound cannot reach the incumbent. *)
    let egress_best ~incumbent egress =
      (* Re-prepare into this domain's workspace: the per-egress fan-out
         rebuilds the DP table in place instead of allocating one per
         egress. Tasks on different domains get distinct workspaces, so
         the parallel map stays race-free. *)
      let table =
        Stroll_dp.prepare_in
          (Domain.DLS.get stroll_workspace)
          ~cm ~dst:egress ~candidates:switches ~extras:[||]
      in
      let others = lazy (without egress switches) in
      let local = ref None and tried = ref 0 in
      let consider ingress (r : Stroll_dp.result) =
        incr tried;
        let objective =
          att.a_in.(ingress)
          +. (att.total_rate *. r.cost)
          +. att.a_out.(egress)
        in
        let key =
          if rescore then pair_cost problem att ingress r.switches egress
          else objective
        in
        match !local with
        | Some (best_key, _, _, _) when key >= best_key -> ()
        | _ ->
            let placement =
              Array.concat [ [| ingress |]; r.switches; [| egress |] ]
            in
            let actual =
              if rescore then key
              else pair_cost problem att ingress r.switches egress
            in
            local := Some (key, actual, placement, objective)
      in
      Array.iter
        (fun ingress ->
          if
            ingress <> egress
            && not
                 (prunes
                    (att.a_in.(ingress) +. att.a_out.(egress) +. hop_floor)
                    incumbent)
          then
            match
              Stroll_dp.query table ~src:ingress ~n:(n - 2) ?max_edges ()
            with
            | Some r -> consider ingress r
            | None ->
                (* Edge budget exhausted for this pair: greedy filler so
                   the pair still competes. *)
                consider ingress
                  (Stroll_dp.nearest_neighbour ~cm ~src:ingress ~dst:egress
                     ~n:(n - 2)
                     ~eligible:(without ingress (Lazy.force others))))
        ingresses;
      Obs.incr ~by:!tried "placement_dp.pairs_tried";
      !local
    in
    (* Two waves. Wave 1 solves one egress per domain, smallest bound
       first; its best key is the incumbent. Wave 2 solves only the
       egresses whose bound can still reach it. A pruned egress's every
       key exceeds the incumbent, hence the final winner, so the
       index-order reduction below picks exactly what the full scan
       would: bit-identical for any PPDC_DOMAINS. *)
    let count = Array.length egresses in
    let bounds = lower_bounds att ~ingresses ~egresses ~hop_floor in
    let order = top_k bounds (Array.init count Fun.id) count in
    let width = min count (Parallel.domain_count ()) in
    let results = Array.make count None in
    let wave ~incumbent positions =
      if Array.length positions > 0 then
        Array.iteri
          (fun w r -> results.(positions.(w)) <- r)
          (Parallel.init (Array.length positions) (fun w ->
               egress_best ~incumbent egresses.(positions.(w))))
    in
    wave ~incumbent:infinity (Array.sub order 0 width);
    let incumbent =
      Array.fold_left
        (fun acc r ->
          match r with Some (key, _, _, _) -> Float.min acc key | None -> acc)
        infinity results
    in
    let rest =
      Array.of_list
        (List.filter
           (fun ei -> not (prunes bounds.(ei) incumbent))
           (Array.to_list (Array.sub order width (count - width))))
    in
    Obs.incr
      ~by:(count - width - Array.length rest)
      "placement_dp.egresses_pruned";
    wave ~incumbent rest;
    match Array.fold_left better None results with
    | Some (_, cost, placement, objective) -> { placement; cost; objective }
    | None -> invalid_arg "Placement_dp.solve: no feasible ingress/egress pair"
  end
