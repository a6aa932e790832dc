(* Flat-graph bench: the committed performance trajectory of the CSR +
   Bigarray cost-matrix stack (BENCH_flatgraph.json).

   Measures all-pairs shortest paths on k=16/k=32 fat-trees (dial and
   forced-heap engines) and two Algo. 3 placement solves: k=8 n=4 and
   the serving benchmark's solve-k12 shape (unweighted k=12, l=200,
   n=5), where the egress-bound pruning does most of its work. Timing,
   artifact format and the normalized `--check` regression gate live
   in {!Bench_common}. *)

module Bench = Bench_common
module Rng = Ppdc_prelude.Rng
module Fat_tree = Ppdc_topology.Fat_tree
module Cost_matrix = Ppdc_topology.Cost_matrix
module Shortest_paths = Ppdc_topology.Shortest_paths
module Workload = Ppdc_traffic.Workload
module Flow = Ppdc_traffic.Flow

let reference_entry = "all_pairs_k16_auto"

let run ~quick t =
  let ft16 = Fat_tree.build 16 in
  Bench.record t reference_entry ~reps:5 (fun () ->
      Cost_matrix.compute ft16.graph);
  Bench.record t "all_pairs_k16_heap" ~reps:5 (fun () ->
      Cost_matrix.compute ~algo:Shortest_paths.Heap ft16.graph);
  if not quick then begin
    let ft32 = Fat_tree.build 32 in
    Bench.record t "all_pairs_k32_dial" ~reps:3 (fun () ->
        Cost_matrix.compute ft32.graph);
    Bench.record t "all_pairs_k32_heap" ~reps:3 (fun () ->
        Cost_matrix.compute ~algo:Shortest_paths.Heap ft32.graph)
  end;
  let ft8 = Fat_tree.build 8 in
  let cm8 = Cost_matrix.compute ft8.graph in
  let rng = Rng.create 42 in
  let flows = Workload.generate_on_fat_tree ~rng ~l:64 ft8 in
  let problem = Ppdc_core.Problem.make ~cm:cm8 ~flows ~n:4 () in
  let rates = Flow.base_rates flows in
  Bench.record t "placement_dp_k8_n4" ~reps:5 (fun () ->
      Ppdc_core.Placement_dp.solve problem ~rates ());
  let ft12 = Fat_tree.build 12 in
  let cm12 = Cost_matrix.compute ft12.graph in
  let flows = Workload.generate_on_fat_tree ~rng ~l:200 ft12 in
  let problem = Ppdc_core.Problem.make ~cm:cm12 ~flows ~n:5 () in
  let rates = Flow.base_rates flows in
  (* 15 reps: on a 2-core VM the min of 5 ranged over 18-31 ms between
     runs, the min of 15 over 17-21 ms. *)
  Bench.record t "placement_dp_k12_n5" ~reps:15 (fun () ->
      Ppdc_core.Placement_dp.solve problem ~rates ())

let () = Bench.main ~bench:"flatgraph" ~reference:reference_entry run
