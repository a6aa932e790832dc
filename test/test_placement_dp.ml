(* Algo. 3 differential: the bound-pruned [Placement_dp.solve] against
   the exhaustive egress × ingress scan it replaced, bit for bit —
   placement, and [cost]/[objective] compared by IEEE bit pattern —
   across fat-tree, leaf-spine and random fabrics, weighted and
   unweighted, with and without [rescore], [pair_limit] and the
   nearest-neighbour fallback, under 1 and 4 domains. *)

module Parallel = Ppdc_prelude.Parallel
module Obs = Ppdc_prelude.Obs
module Rng = Ppdc_prelude.Rng
module Graph = Ppdc_topology.Graph
module Fat_tree = Ppdc_topology.Fat_tree
module Leaf_spine = Ppdc_topology.Leaf_spine
module Random_topology = Ppdc_topology.Random_topology
module Cost_matrix = Ppdc_topology.Cost_matrix
module Workload = Ppdc_traffic.Workload
module Flow = Ppdc_traffic.Flow
open Ppdc_core

let with_domains d f =
  let prev = Parallel.domain_count () in
  Parallel.set_domains d;
  Fun.protect ~finally:(fun () -> Parallel.set_domains prev) f

(* --- the exhaustive reference -------------------------------------------- *)

let top_k (keys : float array) switches k =
  let sorted = Array.copy switches in
  Array.sort
    (fun a b ->
      match Float.compare keys.(a) keys.(b) with
      | 0 -> Int.compare a b
      | c -> c)
    sorted;
  if k >= Array.length sorted then sorted else Array.sub sorted 0 k

(* The n >= 3 scan as it stood before pruning: one DP table per
   candidate egress, every ingress queried, the first strict improvement
   kept per egress, and the per-egress winners folded in egress order
   with the same strict comparison. *)
let reference problem ~rates ?(rescore = false) ?pair_limit ?max_edges () :
    Placement_dp.outcome =
  let att = Cost.attach problem ~rates in
  let switches = Problem.switches problem in
  let n = Problem.n problem in
  let cm = Problem.cm problem in
  let ingresses, egresses =
    match pair_limit with
    | None -> (switches, switches)
    | Some k -> (top_k att.a_in switches k, top_k att.a_out switches k)
  in
  let egress_best egress =
    let table =
      Stroll_dp.prepare ~cm ~dst:egress ~candidates:switches ~extras:[||]
    in
    let local = ref None in
    let consider ~ingress ~middles ~stroll_cost =
      let placement = Array.concat [ [| ingress |]; middles; [| egress |] ] in
      let objective =
        att.a_in.(ingress)
        +. (att.total_rate *. stroll_cost)
        +. att.a_out.(egress)
      in
      let actual = Cost.comm_cost_with_attach problem att placement in
      let key = if rescore then actual else objective in
      match !local with
      | Some (best_key, _, _, _) when key >= best_key -> ()
      | _ -> local := Some (key, actual, placement, objective)
    in
    Array.iter
      (fun ingress ->
        if ingress <> egress then begin
          match Stroll_dp.query table ~src:ingress ~n:(n - 2) ?max_edges () with
          | Some r -> consider ~ingress ~middles:r.switches ~stroll_cost:r.cost
          | None ->
              let eligible =
                Array.of_list
                  (List.filter
                     (fun v -> v <> ingress && v <> egress)
                     (Array.to_list switches))
              in
              let r =
                Stroll_dp.nearest_neighbour ~cm ~src:ingress ~dst:egress
                  ~n:(n - 2) ~eligible
              in
              consider ~ingress ~middles:r.switches ~stroll_cost:r.cost
        end)
      ingresses;
    !local
  in
  let best =
    Array.fold_left
      (fun acc candidate ->
        match (acc, candidate) with
        | None, c -> c
        | a, None -> a
        | Some (best_key, _, _, _), Some (key, _, _, _) when key >= best_key
          ->
            acc
        | _, c -> c)
      None
      (Array.map egress_best egresses)
  in
  match best with
  | Some (_, cost, placement, objective) -> { placement; cost; objective }
  | None -> invalid_arg "reference: no feasible ingress/egress pair"

(* --- instances ------------------------------------------------------------ *)

type instance = {
  label : string;
  problem : Problem.t;
  rates : float array;
  rescore : bool;
  pair_limit : int option;
  max_edges : int option;
}

let weight_fn rng weighted () =
  if weighted then Rng.uniform rng ~lo:0.5 ~hi:3.0 else 1.0

(* A seeded fabric: unweighted fat-trees (whose symmetric cores tie
   exactly), weighted fat-trees, leaf-spine and random fabrics. *)
let fabric rng =
  let weighted = Rng.bool rng in
  let w = weight_fn rng weighted in
  match Rng.int rng 3 with
  | 0 ->
      let k = if Rng.bool rng then 4 else 6 in
      let ft = Fat_tree.build ~weight:(fun _ _ -> w ()) k in
      (Printf.sprintf "fat-tree k=%d" k, weighted, ft.graph, ft.hosts)
  | 1 ->
      let spines = 2 + Rng.int rng 3 and leaves = 3 + Rng.int rng 4 in
      let ls =
        Leaf_spine.build ~weight:(fun _ _ -> w ()) ~spines ~leaves
          ~hosts_per_leaf:2 ()
      in
      ( Printf.sprintf "leaf-spine %dx%d" spines leaves,
        weighted,
        ls.graph,
        ls.hosts )
  | _ ->
      let num_switches = 8 + Rng.int rng 12 in
      let rt =
        Random_topology.build ~weight:w ~rng ~num_switches
          ~extra_edges:(Rng.int rng 15) ~hosts_per_switch:1 ()
      in
      (Printf.sprintf "random s=%d" num_switches, weighted, rt.graph, rt.hosts)

let instance seed =
  let rng = Rng.create seed in
  let name, weighted, graph, hosts = fabric rng in
  let cm = Cost_matrix.compute graph in
  let flows =
    Workload.generate_on_hosts ~rng ~l:(3 + Rng.int rng 14) ~hosts ()
  in
  let switches = Graph.num_switches graph in
  let n = min switches (3 + Rng.int rng 5) in
  let problem = Problem.make ~cm ~flows ~n () in
  let rates =
    if Rng.bool rng then Flow.base_rates flows
    else Workload.redraw_rates ~rng flows
  in
  let rescore = Rng.bool rng in
  let pair_limit =
    if Rng.int rng 3 = 0 then Some (2 + Rng.int rng 5) else None
  in
  (* n - 2 edges cannot carry n - 2 middles to the egress: every pair
     falls back to the nearest-neighbour filler. *)
  let max_edges =
    match Rng.int rng 6 with
    | 0 -> Some (n - 2 + Rng.int rng 3)
    | _ -> None
  in
  let label =
    Printf.sprintf "%s %s n=%d rescore=%b pair_limit=%s max_edges=%s" name
      (if weighted then "weighted" else "unweighted")
      n rescore
      (match pair_limit with Some k -> string_of_int k | None -> "-")
      (match max_edges with Some e -> string_of_int e | None -> "-")
  in
  { label; problem; rates; rescore; pair_limit; max_edges }

let solve_under domains i =
  with_domains domains (fun () ->
      Placement_dp.solve i.problem ~rates:i.rates ~rescore:i.rescore
        ?pair_limit:i.pair_limit ?max_edges:i.max_edges ())

let same (a : Placement_dp.outcome) (b : Placement_dp.outcome) =
  a.placement = b.placement
  && Int64.equal (Int64.bits_of_float a.cost) (Int64.bits_of_float b.cost)
  && Int64.equal
       (Int64.bits_of_float a.objective)
       (Int64.bits_of_float b.objective)

let check_same msg (expected : Placement_dp.outcome)
    (got : Placement_dp.outcome) =
  Alcotest.(check (array int)) (msg ^ " placement") expected.placement
    got.placement;
  Alcotest.(check int64) (msg ^ " cost bits")
    (Int64.bits_of_float expected.cost)
    (Int64.bits_of_float got.cost);
  Alcotest.(check int64) (msg ^ " objective bits")
    (Int64.bits_of_float expected.objective)
    (Int64.bits_of_float got.objective)

(* --- properties ------------------------------------------------------------ *)

let prop_pruned_equals_exhaustive =
  QCheck.Test.make ~name:"pruned Algo 3 = exhaustive scan, bit for bit"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let i = instance seed in
      let expected =
        reference i.problem ~rates:i.rates ~rescore:i.rescore
          ?pair_limit:i.pair_limit ?max_edges:i.max_edges ()
      in
      List.for_all
        (fun domains ->
          same expected (solve_under domains i)
          || QCheck.Test.fail_reportf "%s differs under %d domain(s)" i.label
               domains)
        [ 1; 4 ])

(* --- targeted cases ---------------------------------------------------------- *)

let fat_tree_problem ?(weighted = false) ~k ~l ~n seed =
  let rng = Rng.create seed in
  let ft =
    if weighted then
      Fat_tree.build ~weight:(fun _ _ -> Rng.uniform rng ~lo:0.5 ~hi:3.0) k
    else Fat_tree.build k
  in
  let cm = Cost_matrix.compute ft.graph in
  let flows = Workload.generate_on_fat_tree ~rng ~l ft in
  (Problem.make ~cm ~flows ~n (), Flow.base_rates flows)

let counters f =
  Obs.reset ();
  Obs.set_enabled true;
  let r =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () -> f ())
  in
  let snap = Obs.snapshot () in
  Obs.reset ();
  let get name =
    Option.value ~default:0 (List.assoc_opt name snap.Obs.counters)
  in
  (r, get)

let test_symmetric_core_ties () =
  (* Unweighted k=8: the 16 core switches are interchangeable, so many
     pairs tie exactly and only the index-order reduction picks the
     winner. Pruning must fire here and still pick the same one. *)
  let problem, rates = fat_tree_problem ~k:8 ~l:64 ~n:5 11 in
  List.iter
    (fun rescore ->
      let expected = reference problem ~rates ~rescore () in
      List.iter
        (fun domains ->
          let got, counter =
            counters (fun () ->
                with_domains domains (fun () ->
                    Placement_dp.solve problem ~rates ~rescore ()))
          in
          let msg = Printf.sprintf "rescore=%b domains=%d" rescore domains in
          check_same msg expected got;
          Alcotest.(check bool)
            (msg ^ ": egresses pruned") true
            (counter "placement_dp.egresses_pruned" > 0);
          Alcotest.(check int)
            (msg ^ ": one table per solved egress")
            (80 - counter "placement_dp.egresses_pruned")
            (counter "stroll_dp.tables"))
        [ 1; 4 ])
    [ false; true ]

let test_nearest_neighbour_fallback () =
  (* max_edges = n - 2 leaves no DP stroll for any pair, so every pair
     that is not pruned runs the greedy filler. *)
  let problem, rates = fat_tree_problem ~weighted:true ~k:4 ~l:12 ~n:5 5 in
  let max_edges = 3 in
  List.iter
    (fun rescore ->
      let expected = reference problem ~rates ~rescore ~max_edges () in
      List.iter
        (fun domains ->
          let got, counter =
            counters (fun () ->
                with_domains domains (fun () ->
                    Placement_dp.solve problem ~rates ~rescore ~max_edges ()))
          in
          let msg = Printf.sprintf "rescore=%b domains=%d" rescore domains in
          check_same msg expected got;
          Alcotest.(check bool)
            (msg ^ ": fallback used") true
            (counter "stroll_dp.nn_fallbacks" > 0))
        [ 1; 4 ])
    [ false; true ]

let test_overflowing_total_rate () =
  (* Four rates of 1e308 are each finite, but Λ and every attachment
     sum overflow to infinity: every key is infinite, so nothing may be
     pruned, and the solve must return the full scan's first pair
     rather than "no feasible ingress/egress pair". *)
  let problem, _ = fat_tree_problem ~k:4 ~l:4 ~n:4 3 in
  let rates = Array.make 4 1e308 in
  List.iter
    (fun rescore ->
      let expected = reference problem ~rates ~rescore () in
      List.iter
        (fun domains ->
          let got, counter =
            counters (fun () ->
                with_domains domains (fun () ->
                    Placement_dp.solve problem ~rates ~rescore ()))
          in
          let msg = Printf.sprintf "rescore=%b domains=%d" rescore domains in
          check_same msg expected got;
          Alcotest.(check bool)
            (msg ^ ": cost is not finite") false (Float.is_finite got.cost);
          Alcotest.(check int)
            (msg ^ ": nothing pruned") 0
            (counter "placement_dp.egresses_pruned"))
        [ 1; 4 ])
    [ false; true ]

let () =
  Alcotest.run "ppdc_placement_dp"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_pruned_equals_exhaustive;
          Alcotest.test_case "symmetric core ties" `Quick
            test_symmetric_core_ties;
          Alcotest.test_case "nearest-neighbour fallback" `Quick
            test_nearest_neighbour_fallback;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "overflowing total rate" `Quick
            test_overflowing_total_rate;
        ] );
    ]
