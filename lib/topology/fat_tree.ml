type t = {
  graph : Graph.t;
  k : int;
  core : int array;
  aggregation : int array;
  edge : int array;
  hosts : int array;
}

let build ?(weight = fun _ _ -> 1.0) k =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Fat_tree.build: k must be even and >= 2";
  let half = k / 2 in
  let num_core = half * half in
  let num_agg = k * half in
  let num_edge = k * half in
  let num_hosts = k * half * half in
  let num_switches = num_core + num_agg + num_edge in
  (* Node layout: switches first (core, then aggregation pod-major, then
     edge pod-major), hosts last, grouped by edge switch. *)
  let core = Array.init num_core (fun i -> i) in
  let aggregation = Array.init num_agg (fun i -> num_core + i) in
  let edge = Array.init num_edge (fun i -> num_core + num_agg + i) in
  let hosts = Array.init num_hosts (fun i -> num_switches + i) in
  let kinds =
    Array.init (num_switches + num_hosts) (fun i ->
        if i < num_switches then Graph.Switch else Graph.Host)
  in
  let edges = ref [] in
  let connect u v = edges := (u, v, weight u v) :: !edges in
  (* Core <-> aggregation: aggregation switch j of a pod connects to core
     switches [j*half .. (j+1)*half - 1]. *)
  for pod = 0 to k - 1 do
    for j = 0 to half - 1 do
      let agg = aggregation.((pod * half) + j) in
      for c = 0 to half - 1 do
        connect core.((j * half) + c) agg
      done
    done
  done;
  (* Aggregation <-> edge: complete bipartite within each pod. *)
  for pod = 0 to k - 1 do
    for j = 0 to half - 1 do
      for e = 0 to half - 1 do
        connect aggregation.((pod * half) + j) edge.((pod * half) + e)
      done
    done
  done;
  (* Edge <-> hosts: half hosts per edge switch. *)
  for e = 0 to num_edge - 1 do
    for h = 0 to half - 1 do
      connect edge.(e) hosts.((e * half) + h)
    done
  done;
  let graph = Graph.make ~kinds ~edges:!edges in
  { graph; k; core; aggregation; edge; hosts }

let host_index t host =
  let first_host = t.hosts.(0) in
  let idx = host - first_host in
  if idx < 0 || idx >= Array.length t.hosts then
    invalid_arg (Printf.sprintf "Fat_tree: node %d is not a host" host);
  idx

(* Fig. 10's fabric: link delays uniform with mean 1.5 and variance 0.5
   (half-width sqrt(3 * 0.5)), drawn from a split of [rng]. *)
let build_with_delays ~rng k =
  let half_width = sqrt 1.5 in
  let weight_rng = Ppdc_prelude.Rng.split rng in
  build
    ~weight:(fun _ _ ->
      Ppdc_prelude.Rng.uniform weight_rng ~lo:(1.5 -. half_width)
        ~hi:(1.5 +. half_width))
    k

let rack_of_host t host = host_index t host / (t.k / 2)

let edge_switch_of_host t host = t.edge.(rack_of_host t host)

let pod_of_host t host = rack_of_host t host / (t.k / 2)

let num_racks t = Array.length t.edge

let hosts_of_rack t rack =
  let half = t.k / 2 in
  if rack < 0 || rack >= num_racks t then
    invalid_arg (Printf.sprintf "Fat_tree.hosts_of_rack: rack %d out of range" rack);
  Array.sub t.hosts (rack * half) half
