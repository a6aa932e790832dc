module Json = Ppdc_prelude.Json
module Clock = Ppdc_prelude.Clock
module Mutexes = Ppdc_prelude.Mutexes
module Lru = Ppdc_prelude.Lru
module Obs = Ppdc_prelude.Obs
module Rng = Ppdc_prelude.Rng
module Graph = Ppdc_topology.Graph
module Fat_tree = Ppdc_topology.Fat_tree
module Cost_matrix = Ppdc_topology.Cost_matrix
module Flow = Ppdc_traffic.Flow
module Workload = Ppdc_traffic.Workload
module Failures = Ppdc_extensions.Failures
module Solvers = Ppdc_sim.Solvers
open Ppdc_core

(* Concurrency model (see DESIGN.md §4e/§4j). Four lock classes,
   always taken in this order and never the reverse:

     shard (Registry)  >  session.lock  >  cache_mutex  >  stats_mutex

   ["shard"] is the per-shard mutex of the sharded session registry
   ({!Registry}): a lookup or insert locks only the shard its session
   name hashes to, so distinct sessions contend only on hash
   collisions instead of one global lock. [session.lock] serializes
   the requests of one session (two clients of the same session see a
   consistent placement/rates/graph) while distinct sessions run in
   parallel on the transport's worker pool. [cache_mutex] guards the
   shared cost-matrix LRU, including building a missing matrix, so
   concurrent misses for the same digest wait for one build instead of
   computing it twice. [stats_mutex] is a leaf guarding the per-method
   latency table and the load probe; the plain request counters are
   atomics and need no lock at all. *)
[@@@ppdc.lock_order "shard session cache stats"]

type session = {
  k : int;
  lock : Mutex.t; [@ppdc.guards "session"]
      (* serializes requests against this session *)
  mutable graph : Graph.t;
  mutable digest : string;
  mutable flows : Flow.t array;
  mutable rates : float array;
  n : int;
  mutable placement : Placement.t option;
  (* Episode log of every link failed so far, kept newest-first so each
     episode is a constant-time [List.rev_append] instead of the former
     [old @ new] — which re-copied the whole log every episode and made
     a long failure stream quadratic. Readers use [failed_links]. *)
  mutable failed_rev : (int * int) list;
  mutable failed_count : int;
}

let failed_links (s : session) = List.rev s.failed_rev

type method_stats = {
  mutable calls : int;
  mutable total_s : float;
  mutable max_s : float;
}

type load = {
  workers : int;
  active_connections : int;
  queue_depth : int;
  rejected_connections : int;
}

type t = {
  cache : (string, Cost_matrix.t) Lru.t;
  cache_mutex : Mutex.t; [@ppdc.guards "cache"]
  registry : session Registry.t;
  started : float;
  by_method : (string, method_stats) Hashtbl.t;
  stats_mutex : Mutex.t; [@ppdc.guards "stats"]
  total_requests : int Atomic.t;
  errors : int Atomic.t;
  deadline_errors : int Atomic.t;
  (* Requests answered [session_evicted]: the client-visible cost of
     the budgets, distinct from the eviction counts themselves (one
     eviction can cause any number of evicted answers). *)
  evicted_answers : int Atomic.t;
  mutable load_probe : (unit -> load) option;  (* under [stats_mutex] *)
  (* Cost-matrix provenance counters, guarded by [cache_mutex] (both
     are only touched while the cache is): [cm_rebuilds] counts cold
     all-pairs computes, [cm_repairs] counts matrices derived
     incrementally from a cached parent. A healthy dynamic fabric
     shows repairs ≫ rebuilds; the ratio regressing towards rebuilds
     means the fast path stopped firing. *)
  mutable cm_rebuilds : int;
  mutable cm_repairs : int;
  stop : bool Atomic.t;
}

let create ?(cache_capacity = 8) ?shards ?session_budget ?tenant_sessions
    ?tenant_bytes ?tenant_inflight () =
  {
    cache = Lru.create ~capacity:cache_capacity;
    cache_mutex = Mutex.create ();
    registry =
      Registry.create ?shards ?session_budget ?tenant_sessions ?tenant_bytes
        ?tenant_inflight ();
    started = Clock.now ();
    by_method = Hashtbl.create 16;
    stats_mutex = Mutex.create ();
    total_requests = Atomic.make 0;
    errors = Atomic.make 0;
    deadline_errors = Atomic.make 0;
    evicted_answers = Atomic.make 0;
    load_probe = None;
    cm_rebuilds = 0;
    cm_repairs = 0;
    stop = Atomic.make false;
  }

let set_registry_test_hook t hook = Registry.set_test_hook t.registry hook
let stopped t = Atomic.get t.stop

let set_load_probe t probe =
  Mutexes.with_lock t.stats_mutex (fun () -> t.load_probe <- Some probe)

(* Handler-side failure: mapped to an error response by [handle_line]. *)
exception Reject of Protocol.error_code * string

let reject code fmt =
  Printf.ksprintf (fun msg -> raise (Reject (code, msg))) fmt

(* --- small JSON builders ------------------------------------------------ *)

let num i = Json.Num (float_of_int i)
let fnum x = Json.Num x
let placement_json (p : Placement.t) = Json.List (Array.to_list (Array.map num p))

(* --- session helpers ---------------------------------------------------- *)

(* Look the session up in the sharded registry (which locks only the
   name's shard and refreshes its LRU recency), then run [f] holding
   only the session's own lock, so requests against distinct sessions
   proceed in parallel while two against the same session serialize.
   [load_topology] may replace the registry entry meanwhile; the
   in-flight request keeps operating on the record it resolved — the
   same outcome as finishing just before the replacement. A session
   reclaimed by a budget answers [session_evicted] (with the id
   echoed by [handle_line]) so the client knows to re-create it,
   rather than the "typo" semantics of [unknown_session]. *)
let with_session t params f =
  let name = Protocol.req_str_param params "session" in
  match Registry.find t.registry name with
  | Registry.Found s -> Mutexes.with_lock s.lock (fun () -> f s)
  | Registry.Was_evicted ->
      Atomic.incr t.evicted_answers;
      Obs.incr "rpc.session_evicted";
      reject Session_evicted
        "session %S was evicted by a session budget; load_topology again" name
  | Registry.Unknown ->
      reject Unknown_session "no session named %S; load_topology first" name
[@@ppdc.calls_under "session"]

(* Resolve the session's all-pairs matrix through the LRU: the single
   expensive step of every query, skipped whenever this fabric (by
   structural digest) has been seen before. The build runs under
   [cache_mutex], so a concurrent miss for the same fabric waits for
   the first build instead of duplicating it. *)
let resolve_cm t (s : session) =
  let hit, cm =
    Mutexes.with_lock t.cache_mutex (fun () ->
        Lru.find_or_add t.cache s.digest (fun () ->
            t.cm_rebuilds <- t.cm_rebuilds + 1;
            Obs.time "server.cost_matrix.compute" (fun () ->
                Cost_matrix.compute s.graph)))
  in
  Obs.incr (if hit then "server.cache.hits" else "server.cache.misses");
  (hit, cm)

let problem_of t s =
  let hit, cm = resolve_cm t s in
  (hit, Problem.make ~cm ~flows:s.flows ~n:s.n ())

(* --- handlers ----------------------------------------------------------- *)

let health t _params =
  Json.Obj
    [
      ("status", Str "ok");
      ("schema", Str "ppdc.rpc/1");
      ("version", Str "1.0.0");
      ("uptime_s", fnum (Clock.elapsed_s ~since:t.started));
      ("sessions", num (Registry.length t.registry));
    ]

(* Resident-size estimate charged against the owning tenant's byte
   budget: the CSR graph (two int arrays over edges plus node offsets),
   the flow records and the rates vector. Deliberately coarse — the
   budgets exist to bound a tenant's footprint, not to audit the
   allocator — but deterministic, so byte-budget eviction choreography
   is reproducible in tests. The shared cost-matrix cache is bounded
   separately and charged to nobody. *)
let session_bytes ~graph ~flows =
  64
  + (16 * Graph.num_nodes graph)
  + (32 * Graph.num_edges graph)
  + (48 * Array.length flows)

let load_topology t params =
  let name = Protocol.req_str_param params "session" in
  let k = Option.value ~default:8 (Protocol.int_param params "k") in
  let l = Option.value ~default:100 (Protocol.int_param params "l") in
  let n = Option.value ~default:5 (Protocol.int_param params "n") in
  let seed = Option.value ~default:1 (Protocol.int_param params "seed") in
  let weighted =
    Option.value ~default:false (Protocol.bool_param params "weighted")
  in
  if l < 1 then reject Invalid_params "l must be >= 1";
  if n < 1 then reject Invalid_params "n must be >= 1";
  let rng = Rng.create seed in
  let ft =
    if weighted then Fat_tree.build_with_delays ~rng k else Fat_tree.build k
  in
  let flows = Workload.generate_on_fat_tree ~rng ~l ft in
  let graph = ft.Fat_tree.graph in
  let digest = Graph.digest graph in
  let session =
    {
      k;
      lock = Mutex.create ();
      graph;
      digest;
      flows;
      rates = Flow.base_rates flows;
      n;
      placement = None;
      failed_rev = [];
      failed_count = 0;
    }
  in
  (* The session was fully constructed above, outside every lock: the
     fat-tree build and workload draw are the expensive part of a
     create, and holding the (per-shard) registry lock across them
     would serialize creates that land on the same shard — the
     regression the concurrent-create test in test_server_shard.ml
     pins. [put] holds only the name's shard lock for the table
     insert, then enforces the budgets. *)
  let outcome =
    Registry.put t.registry ~name ~bytes:(session_bytes ~graph ~flows) session
  in
  List.iter
    (fun (e : Registry.eviction) ->
      Obs.incr "server.session.evicted";
      Obs.incr ("server.session.evicted." ^ Registry.reason_slug e.reason))
    outcome.evicted;
  let cached = Mutexes.with_lock t.cache_mutex (fun () -> Lru.mem t.cache digest) in
  Json.Obj
    [
      ("session", Str name);
      ("tenant", Str (Registry.tenant_of name));
      ("replaced", Bool outcome.replaced);
      ( "evicted",
        Json.List
          (List.map
             (fun (e : Registry.eviction) ->
               Json.Obj
                 [
                   ("session", Json.Str e.victim);
                   ("tenant", Json.Str e.victim_tenant);
                   ("reason", Json.Str (Registry.reason_slug e.reason));
                 ])
             outcome.evicted) );
      ("k", num k);
      ("hosts", num (Graph.num_hosts graph));
      ("switches", num (Graph.num_switches graph));
      ("links", num (Graph.num_edges graph));
      ("flows", num (Array.length flows));
      ("n", num n);
      ("digest", Str digest);
      ("cached_cost_matrix", Bool cached);
    ]

(* Solver dispatch goes through the one table ({!Ppdc_sim.Solvers}):
   the request names an entry, the entry declares (and validates) the
   parameters it reads, and the answer renders its uniform outcome. *)
let solver params kind ~key =
  Option.fold ~none:(List.hd (Solvers.all kind))
    ~some:(Solvers.find ~what:key kind)
    (Protocol.str_param params key)

(* [migrate] takes no [pair_limit]: only [place] reads one. *)
let solver_params kind params =
  let mu = Protocol.float_param params "mu" in
  { Solvers.default_params with
    mu = Option.value ~default:Solvers.default_params.mu mu;
    budget = Protocol.int_param params "budget";
    pair_limit =
      (if kind = Solvers.Placement then Protocol.int_param params "pair_limit"
       else None) }

let detail_fields : Solvers.detail option -> (string * Json.t) list = function
  | None -> []
  | Some (Objective x) -> [ ("objective", fnum x) ]
  | Some (Search { proven_optimal; explored }) ->
      [ ("proven_optimal", Json.Bool proven_optimal);
        ("explored", num explored) ]
  | Some (Frontiers f) -> [ ("frontiers", num f) ]
  | Some (Primal_dual stroll) ->
      let fields (prize, iterations) =
        [ ("prize", fnum prize); ("iterations", num iterations) ]
      in
      [ ( Solvers.name Solvers.Place.primal_dual,
          Json.Obj (Option.fold ~none:[] ~some:fields stroll) ) ]

(* [place] and [migrate]: run the named entry against the session.
   Placements and VNF migrations move the chain, VM migrations move
   endpoints; both persist for later requests. *)
let solve kind t params =
  with_session t params @@ fun s ->
  let entry = solver params kind ~key:"algo" in
  let current =
    match (kind, s.placement) with
    | Solvers.Placement, _ -> None
    | Migration, (Some _ as current) -> current
    | Migration, None ->
        reject Invalid_params
          "session has no current placement; call place first"
  in
  let t0 = Clock.now () in
  let hit, problem = problem_of t s in
  let p = solver_params kind params in
  let o = Solvers.run entry problem ~rates:s.rates ?current p in
  s.placement <- Some o.placement;
  Option.iter (fun flows -> s.flows <- flows) o.flows;
  let timing =
    [ ("cache_hit", Json.Bool hit);
      ("elapsed_ms", fnum (1000.0 *. Clock.elapsed_s ~since:t0)) ]
  in
  let placement = ("placement", placement_json o.placement) in
  let answer =
    match (kind, Solvers.relocates entry) with
    | Placement, _ -> (placement :: ("cost", fnum o.total_cost) :: timing)
    | Migration, relocates ->
        timing
        @ (match relocates with
          | Vnfs -> [ placement; ("moved", num o.moves) ]
          | Vms -> [ ("moved_vms", num o.moves) ]
          | Nothing -> [ ("moved", num o.moves) ])
        @ [ ("migration_cost", fnum o.migration_cost);
            ("comm_cost", fnum o.comm_cost);
            ("total_cost", fnum o.total_cost) ]
  in
  Json.Obj
    ((("algo", Json.Str (Solvers.name entry)) :: answer)
    @ detail_fields o.detail)

let rates_update t params =
  with_session t params @@ fun s ->
  let explicit = Protocol.float_list_param params "rates" in
  let seed = Protocol.int_param params "seed" in
  let scale = Protocol.float_param params "scale" in
  let chosen =
    List.filter_map Fun.id
      [
        Option.map (fun _ -> `Rates) explicit;
        Option.map (fun _ -> `Seed) seed;
        Option.map (fun _ -> `Scale) scale;
      ]
  in
  (match chosen with
  | [ _ ] -> ()
  | _ ->
      reject Invalid_params
        "exactly one of \"rates\", \"seed\" or \"scale\" is required");
  let rates =
    match (explicit, seed, scale) with
    | Some r, _, _ ->
        if Array.length r <> Array.length s.flows then
          reject Invalid_params "expected %d rates, got %d"
            (Array.length s.flows) (Array.length r);
        Array.iter
          (fun x ->
            if (not (Float.is_finite x)) || Float.compare x 0.0 < 0 then
              reject Invalid_params "rates must be finite and non-negative")
          r;
        r
    | None, Some seed, _ ->
        Workload.redraw_rates ~rng:(Rng.create seed) s.flows
    | None, None, Some c ->
        if (not (Float.is_finite c)) || Float.compare c 0.0 < 0 then
          reject Invalid_params "scale must be finite and non-negative";
        Array.map (fun x -> c *. x) s.rates
    | None, None, None -> assert false
  in
  s.rates <- rates;
  Json.Obj
    [
      ("flows", num (Array.length rates));
      ("total_rate", fnum (Flow.total_rate rates));
    ]

let fail_links t params =
  with_session t params @@ fun s ->
  let fraction =
    match Protocol.float_param params "fraction" with
    | Some f -> f
    | None -> reject Invalid_params "missing required parameter \"fraction\""
  in
  let seed = Option.value ~default:0 (Protocol.int_param params "seed") in
  let parent_digest = s.digest in
  let degraded, failed =
    Failures.fail_links ~rng:(Rng.create seed) ~fraction s.graph
  in
  s.graph <- degraded;
  s.digest <- Graph.digest degraded;
  s.failed_rev <- List.rev_append failed s.failed_rev;
  s.failed_count <- s.failed_count + List.length failed;
  (* Incremental repair: the degraded fabric is the parent minus the
     failed links, so when the parent's matrix is cached we derive the
     degraded matrix from it (only rows whose shortest-path trees used
     a failed link re-run) and install it under the new digest — the
     next [place] is a warm hit instead of a cold all-pairs sweep.
     [Lru.peek] reads the parent without disturbing recency or the
     hit/miss counters. *)
  let repaired, cached =
    Mutexes.with_lock t.cache_mutex (fun () ->
        if Lru.mem t.cache s.digest then (false, true)
        else
          match Lru.peek t.cache parent_digest with
          | None -> (false, false)
          | Some parent -> (
              match
                Obs.time "server.cost_matrix.repair" (fun () ->
                    Cost_matrix.repair_to parent degraded)
              with
              | Some (cm, _rows) ->
                  Lru.put t.cache s.digest cm;
                  t.cm_repairs <- t.cm_repairs + 1;
                  (true, true)
              | None -> (false, false)))
  in
  if repaired then Obs.incr "server.cache.repairs";
  Json.Obj
    [
      ("failed_count", num (List.length failed));
      ( "failed",
        Json.List
          (List.map (fun (u, v) -> Json.List [ num u; num v ]) failed) );
      ("links", num (Graph.num_edges degraded));
      ("digest", Str s.digest);
      ("cached_cost_matrix", Bool cached);
      ("repaired_cost_matrix", Bool repaired);
    ]

(* Replay a discrete-event day against the session's fabric and
   workload. Everything runs on copies — the event engine owns its
   placement/problem state and the session's graph, flows, rates and
   placement are left untouched — so a monitoring client can explore
   "what would a threshold trigger have done" without perturbing the
   live session. *)
let simulate_events t params =
  with_session t params @@ fun s ->
  let mu = Option.value ~default:1e4 (Protocol.float_param params "mu") in
  (* Bad trigger specs and streams raise [Invalid_argument], answered
     [invalid_params] by [run_handler]. *)
  let trigger =
    Ppdc_sim.Event_engine.trigger_of_string
      (Option.value ~default:"periodic:1" (Protocol.str_param params "trigger"))
  in
  let policy = solver params Solvers.Migration ~key:"policy" in
  let t0 = Clock.now () in
  let hit, problem = problem_of t s in
  let scenario = Ppdc_sim.Scenario.make ~mu problem in
  let probe_every = Protocol.float_param params "probe_every" in
  (match probe_every with
  | Some e when not (Float.is_finite e && Float.compare e 0.0 > 0) ->
      reject Invalid_params "probe_every must be finite positive"
  | _ -> ());
  let events =
    Ppdc_sim.Scenario.enrich ?probe_every ~seed:0 scenario
      (Ppdc_sim.Scenario.events_of_diurnal scenario)
  in
  let r = Ppdc_sim.Event_engine.run scenario ~policy ~trigger ~events () in
  Ppdc_sim.Event_engine.(
    Json.Obj
      [
        ("policy", Json.Str (Solvers.label policy));
        ("trigger", Json.Str (trigger_name trigger));
        ("mu", fnum mu);
        ("events", num (Array.length r.records));
        ("reconfigurations", num r.reconfigurations);
        ("moves", num r.total_moves);
        ("comm_cost", fnum r.total_comm);
        ("migration_cost", fnum r.total_migration);
        ("total_cost", fnum r.total_cost);
        ("final_placement", placement_json r.final_placement);
        ("cache_hit", Json.Bool hit);
        ("elapsed_ms", fnum (1000.0 *. Clock.elapsed_s ~since:t0));
      ])

let num_opt = function None -> Json.Null | Some v -> num v

let stats t _params =
  (* Snapshot the registry one shard lock at a time, then render
     session fields without taking the per-session locks: single
     mutable-field reads are atomic in OCaml, and stats is a
     monitoring view — a request racing it simply shows its
     before-or-after state. Sessions are sorted by name so the
     rendering never depends on shard count or hash order. *)
  let session_list =
    Registry.fold t.registry ~init:[] ~f:(fun acc ~name ~tenant s ->
        (name, tenant, s) :: acc)
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  let by_method, probe =
    Mutexes.with_lock t.stats_mutex (fun () ->
        let by_method =
          Hashtbl.fold
            (fun m st acc -> (m, (st.calls, st.total_s, st.max_s)) :: acc)
            t.by_method []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        (by_method, t.load_probe))
  in
  let totals =
    (Atomic.get t.total_requests, Atomic.get t.errors, Atomic.get t.deadline_errors)
  in
  let sessions =
    List.map
      (fun (name, tenant, (s : session)) ->
        Json.Obj
          [
            ("name", Str name);
            ("tenant", Str tenant);
            ("k", num s.k);
            ("nodes", num (Graph.num_nodes s.graph));
            ("links", num (Graph.num_edges s.graph));
            ("flows", num (Array.length s.flows));
            ("n", num s.n);
            ("placed", Bool (Option.is_some s.placement));
            ("failed_links", num s.failed_count);
            (* Episode order, oldest first — the log the operator
               replays to reconstruct the fabric's lineage. *)
            ( "failed",
              Json.List
                (List.map
                   (fun (u, v) -> Json.List [ num u; num v ])
                   (failed_links s)) );
            ("digest", Str s.digest);
          ])
      session_list
  in
  let total_requests, errors, deadline_errors = totals in
  let counts =
    List.map (fun (m, (calls, _, _)) -> (m, num calls)) by_method
  in
  let latency =
    List.map
      (fun (m, (calls, total_s, max_s)) ->
        ( m,
          Json.Obj
            [
              ("count", num calls);
              ("total_ms", fnum (1000.0 *. total_s));
              ( "mean_ms",
                fnum
                  (if calls = 0 then 0.0
                   else 1000.0 *. total_s /. float_of_int calls) );
              ("max_ms", fnum (1000.0 *. max_s));
            ] ))
      by_method
  in
  let cache =
    Mutexes.with_lock t.cache_mutex (fun () ->
        Json.Obj
          [
            ("capacity", num (Lru.capacity t.cache));
            ("entries", num (Lru.length t.cache));
            ("hits", num (Lru.hits t.cache));
            ("misses", num (Lru.misses t.cache));
            ("repairs", num t.cm_repairs);
            ("rebuilds", num t.cm_rebuilds);
          ])
  in
  let registry_section =
    let c = Registry.counters t.registry in
    let l = Registry.limits t.registry in
    Json.Obj
      [
        ("shards", num (Registry.shard_count t.registry));
        ("sessions", num (Registry.length t.registry));
        ( "shard_sessions",
          Json.List
            (Array.to_list (Array.map num (Registry.shard_sizes t.registry)))
        );
        ("session_budget", num_opt l.session_budget);
        ("tenant_sessions", num_opt l.tenant_sessions);
        ("tenant_bytes", num_opt l.tenant_bytes);
        ( "evictions",
          Json.Obj
            [
              ( "total",
                num
                  (c.evicted_budget + c.evicted_tenant_sessions
                 + c.evicted_tenant_bytes) );
              ("budget", num c.evicted_budget);
              ("tenant_sessions", num c.evicted_tenant_sessions);
              ("tenant_bytes", num c.evicted_tenant_bytes);
            ] );
        ("evicted_answers", num (Atomic.get t.evicted_answers));
      ]
  in
  let fairness_section =
    let c = Registry.counters t.registry in
    let l = Registry.limits t.registry in
    Json.Obj
      [
        ("tenant_inflight", num_opt l.tenant_inflight);
        ("rejections", num c.fairness_rejections);
      ]
  in
  let server =
    match probe with
    | None -> []
    | Some probe ->
        let l = probe () in
        [
          ( "server",
            Json.Obj
              [
                ("workers", num l.workers);
                ("connections", Json.Obj [ ("active", num l.active_connections) ]);
                ("queue", Json.Obj [ ("depth", num l.queue_depth) ]);
                ("rejected", num l.rejected_connections);
              ] );
        ]
  in
  Json.Obj
    ([
       ("schema", Json.Str "ppdc.rpc/1");
       ("uptime_s", fnum (Clock.elapsed_s ~since:t.started));
       ( "requests",
         Json.Obj
           [
             ("total", num total_requests);
             ("errors", num errors);
             ("deadline_exceeded", num deadline_errors);
             ("by_method", Json.Obj counts);
             ("latency_ms", Json.Obj latency);
           ] );
       ("cache", cache);
       ("registry", registry_section);
       ("fairness", fairness_section);
     ]
    @ server
    @ [ ("sessions", Json.List sessions) ])

let shutdown t _params =
  Atomic.set t.stop true;
  Json.Obj [ ("stopping", Bool true) ]

(* --- dispatch ----------------------------------------------------------- *)

let dispatch t (req : Protocol.request) =
  let handler =
    match req.meth with
    | "health" -> health
    | "load_topology" -> load_topology
    | "place" -> solve Solvers.Placement
    | "migrate" -> solve Solvers.Migration
    | "rates_update" -> rates_update
    | "fail_links" -> fail_links
    | "simulate_events" -> simulate_events
    | "stats" -> stats
    | "shutdown" -> shutdown
    | other -> reject Unknown_method "unknown method %S" other
  in
  Obs.time ("rpc." ^ req.meth) (fun () -> handler t req.params)

let note_error t =
  Atomic.incr t.errors;
  Obs.incr "rpc.errors"

let record_latency t meth elapsed =
  Mutexes.with_lock t.stats_mutex (fun () ->
      let st =
        match Hashtbl.find_opt t.by_method meth with
        | Some st -> st
        | None ->
            let st = { calls = 0; total_s = 0.0; max_s = 0.0 } in
            Hashtbl.add t.by_method meth st;
            st
      in
      st.calls <- st.calls + 1;
      st.total_s <- st.total_s +. elapsed;
      if Float.compare elapsed st.max_s > 0 then st.max_s <- elapsed)

(* Tenant of a tenant-scoped request (one that names a session). Total:
   an ill-typed "session" field is left for the handler's own parameter
   checking — admission must never turn a type error into overloaded. *)
let request_tenant (req : Protocol.request) =
  match Json.member "session" req.params with
  | Some (Json.Str name) -> Some (Registry.tenant_of name)
  | _ -> None

let run_handler t (req : Protocol.request) =
  let t0 = Clock.now () in
  let finish response =
    record_latency t req.meth (Clock.elapsed_s ~since:t0);
    response
  in
  match dispatch t req with
  | result -> finish (Protocol.ok_response ~id:req.id result)
  | exception Reject (code, msg) ->
      note_error t;
      finish (Protocol.error_response ~id:req.id code msg)
  | exception Protocol.Bad_params msg ->
      note_error t;
      finish (Protocol.error_response ~id:req.id Invalid_params msg)
  | exception (Invalid_argument msg | Solvers.Invalid_params msg) ->
      note_error t;
      finish (Protocol.error_response ~id:req.id Invalid_params msg)
  | exception exn ->
      note_error t;
      finish
        (Protocol.error_response ~id:req.id Internal_error
           (Printexc.to_string exn))

let handle_line ?deadline t line =
  Atomic.incr t.total_requests;
  Obs.incr "rpc.requests";
  match Protocol.request_of_line line with
  | Error (id, code, msg) ->
      note_error t;
      Protocol.error_response ~id code msg
  | Ok req -> (
      match deadline with
      | Some d when Float.compare (Clock.now ()) d > 0 ->
          (* The request spent its whole time budget queued; answer
             without starting the handler so the worker moves on. *)
          Atomic.incr t.errors;
          Atomic.incr t.deadline_errors;
          Obs.incr "rpc.errors";
          Obs.incr "rpc.deadline_exceeded";
          Protocol.error_response ~id:req.id Deadline_exceeded
            "request deadline expired before the handler could start"
      | _ -> (
          (* Per-tenant admission: a tenant already running its
             configured share of concurrent handlers is answered
             overloaded before the handler starts, so one tenant's
             burst cannot occupy every worker. Requests that name no
             session (health, stats, shutdown) are never gated. *)
          match request_tenant req with
          | Some tenant when not (Registry.enter_tenant t.registry tenant) ->
              note_error t;
              Obs.incr "server.fairness.rejected";
              Protocol.error_response ~id:req.id Overloaded
                (Printf.sprintf
                   "tenant %S is at its in-flight request cap; retry later"
                   tenant)
          | Some tenant ->
              Fun.protect
                ~finally:(fun () -> Registry.exit_tenant t.registry tenant)
                (fun () -> run_handler t req)
          | None -> run_handler t req))

let overlong_response =
  Protocol.error_response ~id:Json.Null Line_too_long
    "request line exceeds the transport's maximum length"

let overloaded_response =
  Protocol.error_response ~id:Json.Null Overloaded
    "server is overloaded (worker pool and pending queue are full); retry \
     later"
