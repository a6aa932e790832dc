module Fat_tree = Ppdc_topology.Fat_tree
module Cost_matrix = Ppdc_topology.Cost_matrix
module Workload = Ppdc_traffic.Workload
module Rng = Ppdc_prelude.Rng
module Stats = Ppdc_prelude.Stats
open Ppdc_core

(* The unweighted fat-tree and its all-pairs matrix depend only on k;
   cache them across trials (the k=16 matrix costs ~45M operations and
   30 MB, and Fig. 11 uses it hundreds of times). The cache is an LRU
   bounded at [cost_matrix_cache_capacity] entries — an experiment
   sweeping many fabric sizes no longer accumulates one 30 MB matrix
   per k forever; any single experiment touches at most two or three
   ks, so trials still hit. Trials may run on several domains, so the
   cache is mutex-protected; the build happens under the lock on
   purpose — concurrent misses for the same k should wait for one
   build rather than redo it. *)
let cost_matrix_cache_capacity = 4

let unweighted_cache : (int, Fat_tree.t * Cost_matrix.t) Ppdc_prelude.Lru.t =
  Ppdc_prelude.Lru.create ~capacity:cost_matrix_cache_capacity
[@@ppdc.domain_safe
  "every lookup and insert happens inside unweighted_fat_tree under \
   unweighted_cache_mutex; the cached values are immutable after build"]

let unweighted_cache_mutex = Mutex.create () [@@ppdc.guards "runner.cache"]

let unweighted_fat_tree k =
  Ppdc_prelude.Mutexes.with_lock unweighted_cache_mutex (fun () ->
      let hit, pair =
        Ppdc_prelude.Lru.find_or_add unweighted_cache k (fun () ->
            let ft = Fat_tree.build k in
            (ft, Cost_matrix.compute ft.graph))
      in
      Ppdc_prelude.Obs.incr
        (if hit then "runner.cost_matrix_cache_hits"
         else "runner.cost_matrix_cache_misses");
      pair)
[@@ppdc.domain_safe
  "taking the cache mutex inside parallel trials is the documented \
   discipline (concurrent misses for the same k wait for one build); \
   the lock nests nothing and is never held across a trial body"]

let cost_matrix_cache_stats () =
  Ppdc_prelude.Mutexes.with_lock unweighted_cache_mutex (fun () ->
      Ppdc_prelude.Lru.
        ( length unweighted_cache,
          hits unweighted_cache,
          misses unweighted_cache ))

let fat_tree_problem ?(weighted = false) ?(rack_locality = 0.8) ~k ~l ~n ~seed
    () =
  let rng = Rng.create seed in
  let ft, cm =
    if weighted then
      let ft = Fat_tree.build_with_delays ~rng k in
      (ft, Cost_matrix.compute ft.graph)
    else unweighted_fat_tree k
  in
  let flows = Workload.generate_on_fat_tree ~rack_locality ~rng ~l ft in
  Problem.make ~cm ~flows ~n ()

(* Seeded trials are independent; spread them over the domain pool.
   Results land in seed order, so the summary is bit-identical to the
   sequential protocol for any PPDC_DOMAINS. *)
let average ~trials f =
  Stats.summary
    (Ppdc_prelude.Parallel.init trials (fun i ->
         Ppdc_prelude.Obs.time "runner.trial" (fun () -> f ~seed:(i + 1))))

let mean_cell (s : Stats.summary) = Printf.sprintf "%.1f±%.1f" s.mean s.ci95
