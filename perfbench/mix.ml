(* The benchmark's three workloads and their request streams.

   Every connection of the driver is one tenant ("c<j>") that owns a
   fixed set of sessions ("c<j>-s<i>"). A connection's request stream
   is drawn up front by a generator that the replay re-creates to get
   the very same lines back, so nothing in a stream depends on timing
   and every answer is checkable. The daemon answers one connection's
   lines in order, so pinning sessions to connections keeps each
   session's requests ordered.

   Two random streams feed a generator. The traffic shape (which
   session and which method each request has) is drawn from a stream
   keyed by the workload and connection only, so every seed replays
   the same shape. The data (each session's fabric weights and flows,
   the rates of an update, the links a failure takes down) is drawn
   from the seed. Parent and change then meet the same sequence of
   cache hits and misses and the same queueing on every seed, which
   keeps the percentiles of the few-sample solver workload comparable
   between runs. *)

module Rng = Ppdc_prelude.Rng

(* Latency classes of the end-to-end metrics. [Setup] covers the
   create/place requests that precede the measured phases. *)
type cls = Place | Migrate | Update | Setup

type t = {
  name : string;
  k : int;
  l : int;
  n : int;
  weighted : bool;
      (* weighted fabrics are drawn from the session's seed, so every
         session has its own fabric and cost matrix; unweighted
         sessions all share one fabric *)
  sessions_per_conn : int;
  rate : float;  (* offered open-loop arrivals per second, whole fleet *)
  pair_limit : int option;  (* of a place: Algo 3's candidate cap *)
  why : string;
}

let solve_k12 =
  {
    name = "solve-k12";
    k = 12;
    l = 200;
    n = 5;
    weighted = false;
    sessions_per_conn = 4;
    rate = 5.0;
    pair_limit = None;
    why =
      "Algo 3 (dp) and Algo 5 (mpareto) on one shared k=12 fabric: \
       solver-bound, the matrix is always a cache hit";
  }

let telemetry_k8 =
  {
    name = "telemetry-k8";
    k = 8;
    l = 200;
    n = 3;
    weighted = false;
    sessions_per_conn = 4;
    rate = 400.0;
    pair_limit = Some 2;
    why =
      "explicit 200-rate updates beside cost reads on k=8: NDJSON, \
       transport and registry bound, the solver does almost nothing";
  }

let churn_k12w =
  {
    name = "churn-k12w";
    k = 12;
    l = 200;
    n = 5;
    weighted = true;
    sessions_per_conn = 10;
    rate = 5.0;
    pair_limit = Some 4;
    why =
      "link failures, reloads and small places on 10 distinct weighted \
       k=12 fabrics, more than the 8-entry cache: matrix bound";
  }

let all = [ solve_k12; telemetry_k8; churn_k12w ]
let find name = List.find_opt (fun w -> w.name = name) all

let session_name ~conn i = Printf.sprintf "c%d-s%d" conn i

(* Topology seed of a session: distinct per session and per run seed. *)
let session_seed ~seed ~conn i = (seed * 1000) + (conn * 100) + i + 1

type session = {
  sname : string;
  sseed : int;
  mutable fails : int;  (* fail_links episodes since the last (re)load *)
}

(* A request not yet numbered: its id is assigned when it is emitted. *)
type draft = { dcls : cls; dsession : string; render : int -> string }

type request = { id : int; cls : cls; session : string; line : string }

type gen = {
  wl : t;
  shape : Rng.t;
  data : Rng.t;
  sessions : session array;
  forced : draft Queue.t;
      (* requests that must come next, e.g. the place after a reload *)
  mutable next_id : int;
  mutable last : session;  (* the session of the last drawn request *)
}

let generator wl ~seed ~conn =
  let sessions =
    Array.init wl.sessions_per_conn (fun i ->
        { sname = session_name ~conn i; sseed = session_seed ~seed ~conn i; fails = 0 })
  in
  {
    wl;
    shape = Rng.create (Hashtbl.hash (wl.name, conn));
    data = Rng.create (Hashtbl.hash (wl.name, seed, conn));
    sessions;
    forced = Queue.create ();
    next_id = 0;
    last = sessions.(0);
  }

let line ~id meth session params =
  Printf.sprintf {|{"id":%d,"method":"%s","params":{"session":"%s"%s}}|} id
    meth session
    (if params = "" then "" else "," ^ params)

let place_params wl =
  match wl.pair_limit with
  | None -> {|"algo":"dp"|}
  | Some p -> Printf.sprintf {|"algo":"dp","pair_limit":%d|} p

let load_params wl (s : session) =
  Printf.sprintf {|"k":%d,"l":%d,"n":%d,"seed":%d,"weighted":%b|} wl.k wl.l
    wl.n s.sseed wl.weighted

let draft cls (s : session) meth params =
  { dcls = cls; dsession = s.sname; render = (fun id -> line ~id meth s.sname params) }

(* A (re)load is followed by a place, because migrate needs a current
   placement. *)
let load_sequence g (s : session) =
  s.fails <- 0;
  [ draft Update s "load_topology" (load_params g.wl s); draft Place s "place" (place_params g.wl) ]

let emit g d =
  let id = g.next_id in
  g.next_id <- id + 1;
  { id; cls = d.dcls; session = d.dsession; line = d.render id }

(* Requests that bring every session of the connection to a placed
   state; the setup phase sends exactly these. *)
let setup g =
  Array.to_list g.sessions
  |> List.concat_map (fun s ->
         List.map (fun d -> emit g { d with dcls = Setup }) (load_sequence g s))

let explicit_rates rng l =
  let b = Buffer.create (l * 11) in
  for i = 0 to l - 1 do
    if i > 0 then Buffer.add_char b ',';
    Buffer.add_string b (Printf.sprintf "%.6f" (Rng.uniform rng ~lo:1.0 ~hi:1000.0))
  done;
  Printf.sprintf {|"rates":[%s]|} (Buffer.contents b)

let draw g =
  let wl = g.wl in
  let s = g.sessions.(Rng.int g.shape (Array.length g.sessions)) in
  let u = Rng.float g.shape 1.0 in
  let again = Rng.float g.shape 1.0 < 0.4 in
  let s =
    (* On churn, 40% of cost reads go to the session of the request
       before, whose matrix is cached: uniform reads over ten fabrics
       and an 8-entry cache missed 36% of the time, which put more
       rebuilds in the 200 ms slots and more hits in the queue behind
       them; now about a fifth miss, as a fifth of the places and
       updates do. *)
    if wl.name = "churn-k12w" && u >= 0.5 && u < 0.7 && again then g.last else s
  in
  g.last <- s;
  let req cls meth params = draft cls s meth params in
  let seeded meth extra =
    Printf.sprintf {|%s"seed":%d|} extra (Rng.int g.data 1_000_000)
    |> req Update meth
  in
  match wl.name with
  | "solve-k12" ->
      if u < 0.25 then req Place "place" (place_params wl)
      else if u < 0.5 then req Migrate "migrate" {|"algo":"mpareto"|}
      else seeded "rates_update" ""
  | "telemetry-k8" ->
      if u < 0.48 then req Update "rates_update" (explicit_rates g.data wl.l)
      else if u < 0.96 then req Migrate "migrate" {|"algo":"none"|}
      else req Place "place" (place_params wl)
  | _ ->
      (* churn: at most two failure episodes between reloads keep the
         degraded fabrics bounded (and connected). *)
      if u < 0.15 then
        if s.fails >= 2 then begin
          match load_sequence g s with
          | reload :: rest ->
              List.iter (fun r -> Queue.push r g.forced) rest;
              reload
          | [] -> assert false
        end
        else begin
          s.fails <- s.fails + 1;
          seeded "fail_links" {|"fraction":0.01,|}
        end
      else if u < 0.5 then req Place "place" (place_params wl)
      else if u < 0.7 then req Migrate "migrate" {|"algo":"none"|}
      else seeded "rates_update" ""

let next g =
  emit g (if Queue.is_empty g.forced then draw g else Queue.pop g.forced)
