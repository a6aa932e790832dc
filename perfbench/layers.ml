(* Per-layer measurements for the traced run, all taken from outside
   the library: the daemon's GC through a runtime-events cursor, spans
   around the protocol and engine calls of the in-process replay, and
   direct calls into the solver, matrix and registry layers on an
   instance of the workload's size and seed. Nothing here is
   instrumentation inside lib/; [Obs] is switched on only to read the
   counters the solvers already keep. *)

module Json = Ppdc_prelude.Json
module Clock = Ppdc_prelude.Clock
module Obs = Ppdc_prelude.Obs
module Rng = Ppdc_prelude.Rng
module Stats = Ppdc_prelude.Stats
module Fat_tree = Ppdc_topology.Fat_tree
module Graph = Ppdc_topology.Graph
module Cost_matrix = Ppdc_topology.Cost_matrix
open Ppdc_core

let median xs = if xs = [||] then nan else Stats.percentile xs 0.5

let timed f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

(* --- the daemon's GC, through its runtime-events ring ------------------- *)

type gc_watch = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  counting : bool ref;
  minor_n : int array;  (* per ring, i.e. per domain *)
  minor_ns : float array;
  major_n : int array;
  major_ns : float array;
  lost : int ref;
}

let max_rings = 128

let watch_gc ~dir ~pid =
  let counting = ref false and lost = ref 0 in
  let minor_n = Array.make max_rings 0 and minor_ns = Array.make max_rings 0.0 in
  let major_n = Array.make max_rings 0 and major_ns = Array.make max_rings 0.0 in
  let minor_t0 = Array.make max_rings 0L and major_t0 = Array.make max_rings 0L in
  let ns ts = Runtime_events.Timestamp.to_int64 ts in
  let since t0 ts = Int64.to_float (Int64.sub (ns ts) t0) in
  let runtime_begin ring ts (phase : Runtime_events.runtime_phase) =
    match phase with
    | EV_MINOR -> minor_t0.(ring) <- ns ts
    | EV_MAJOR_SLICE -> major_t0.(ring) <- ns ts
    | _ -> ()
  in
  let runtime_end ring ts (phase : Runtime_events.runtime_phase) =
    if !counting then
      match phase with
      | EV_MINOR ->
          minor_n.(ring) <- minor_n.(ring) + 1;
          minor_ns.(ring) <- minor_ns.(ring) +. since minor_t0.(ring) ts
      | EV_MAJOR_SLICE ->
          major_n.(ring) <- major_n.(ring) + 1;
          major_ns.(ring) <- major_ns.(ring) +. since major_t0.(ring) ts
      | _ -> ()
  in
  let lost_events _ n = if !counting then lost := !lost + n in
  {
    cursor = Runtime_events.create_cursor (Some (dir, pid));
    callbacks =
      Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
    counting;
    minor_n;
    minor_ns;
    major_n;
    major_ns;
    lost;
  }

let poll_gc w = ignore (Runtime_events.read_poll w.cursor w.callbacks None)

let count_gc w on =
  poll_gc w;
  w.counting := on

(* Every domain takes part in each stop-the-world minor collection, so
   the busiest ring counts the collections; major slices are per
   domain and summed. *)
let gc_metrics w =
  let busiest = ref 0 in
  Array.iteri (fun i n -> if n > w.minor_n.(!busiest) then busiest := i) w.minor_n;
  [
    ("gc.minor_collections", float_of_int w.minor_n.(!busiest), "count");
    ("gc.minor_pause_ms", w.minor_ns.(!busiest) /. 1e6, "ms");
    ("gc.major_slices", float_of_int (Array.fold_left ( + ) 0 w.major_n), "count");
    ("gc.major_pause_ms", Array.fold_left ( +. ) 0.0 w.major_ns /. 1e6, "ms");
  ]

let close_gc w = Runtime_events.free_cursor w.cursor

(* --- spans around the replay's calls into the protocol layers ----------- *)

type span = {
  sname : string;
  rid : string;  (* "<connection>.<request id>" *)
  parent : string option;
  start : float;
  dur : float;
}

type tracer = { mutable spans : span list; mutable words : float; mutable requests : int }

let tracer () = { spans = []; words = 0.0; requests = 0 }

let span tr ~rid ?parent sname f =
  let start = Clock.now () in
  let r = f () in
  tr.spans <- { sname; rid; parent; start; dur = Clock.now () -. start } :: tr.spans;
  r

(* One request through the replay engine, with a span per protocol
   step: request parse, the engine call (which parses again and
   handles), and the answer's parse and re-encode. *)
let traced_handle tr engine ~rid line =
  let w0 = Gc.minor_words () in
  let reply =
    span tr ~rid "replay.request" (fun () ->
        let parent = "replay.request" in
        ignore (span tr ~rid ~parent "protocol.request_of_line" (fun () ->
                    Ppdc_server.Protocol.request_of_line line));
        let reply =
          span tr ~rid ~parent "engine.handle_line" (fun () ->
              Ppdc_server.Engine.handle_line engine line)
        in
        let tree = span tr ~rid ~parent "json.parse" (fun () -> Json.parse reply) in
        ignore (span tr ~rid ~parent "json.to_string" (fun () -> Json.to_string tree));
        reply)
  in
  tr.words <- tr.words +. (Gc.minor_words () -. w0);
  tr.requests <- tr.requests + 1;
  reply

let span_durations tr name =
  List.filter_map (fun s -> if s.sname = name then Some s.dur else None) tr.spans
  |> Array.of_list

let write_spans tr path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Json.to_string
               (Obj
                  [
                    ("span", Str s.sname);
                    ("id", Str s.rid);
                    ("parent", match s.parent with Some p -> Str p | None -> Null);
                    ("start_s", Num s.start);
                    ("dur_us", Num (1e6 *. s.dur));
                  ]));
          output_char oc '\n')
        (List.rev tr.spans))

let replay_metrics tr =
  [
    ("protocol.parse_us", 1e6 *. median (span_durations tr "protocol.request_of_line"), "us");
    ("protocol.encode_us", 1e6 *. median (span_durations tr "json.to_string"), "us");
    ( "gc.alloc_words_per_req",
      tr.words /. float_of_int (max 1 tr.requests),
      "words/req" );
  ]

(* --- direct calls on an instance of the workload ------------------------ *)

(* The fabric and flows of session 0 of connection 0, with the same
   public constructors and draws as the daemon's load_topology. *)
let instance (wl : Mix.t) ~seed =
  let rng = Rng.create (Mix.session_seed ~seed ~conn:0 0) in
  let ft =
    if wl.weighted then begin
      let half_width = sqrt 1.5 in
      let weight_rng = Rng.split rng in
      Fat_tree.build
        ~weight:(fun _ _ ->
          Rng.uniform weight_rng ~lo:(1.5 -. half_width) ~hi:(1.5 +. half_width))
        wl.k
    end
    else Fat_tree.build wl.k
  in
  let flows = Ppdc_traffic.Workload.generate_on_fat_tree ~rng ~l:wl.l ft in
  (ft.Fat_tree.graph, flows)

let counter snap name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name snap.Obs.counters))

(* [f] once with Obs on to read its counters, then [reps] times with
   Obs off for the median time. *)
let measure ~reps f =
  Obs.reset ();
  Obs.set_enabled true;
  let r = f () in
  let snap = Obs.snapshot () in
  Obs.set_enabled false;
  let times = Array.init reps (fun _ -> snd (timed f)) in
  (r, snap, median times)

let direct (wl : Mix.t) ~seed ~conns =
  let graph, flows = instance wl ~seed in
  let cm, _, compute_s = measure ~reps:3 (fun () -> Cost_matrix.compute graph) in
  let repairs =
    Array.init 3 (fun i ->
        let degraded, _ =
          Ppdc_extensions.Failures.fail_links
            ~rng:(Rng.create ((seed * 31) + i))
            ~fraction:0.01 graph
        in
        match timed (fun () -> Cost_matrix.repair_to cm degraded) with
        | Some (_, rows), dt ->
            (dt, float_of_int rows /. float_of_int (Graph.num_nodes graph))
        | None, dt -> (dt, 1.0))
  in
  let problem = Problem.make ~cm ~flows ~n:wl.n () in
  let rates = Ppdc_traffic.Flow.base_rates flows in
  let pair_limit = wl.pair_limit in
  let dp, dp_snap, dp_s =
    measure ~reps:3 (fun () -> Placement_dp.solve problem ~rates ?pair_limit ())
  in
  let switches = Problem.switches problem in
  let ws = Stroll_dp.workspace () in
  let prepare =
    Array.init (min 16 (Array.length switches)) (fun i ->
        snd
          (timed (fun () ->
               Stroll_dp.prepare_in ws ~cm ~dst:switches.(i) ~candidates:switches
                 ~extras:[||])))
  in
  let rates' =
    Ppdc_traffic.Workload.redraw_rates ~rng:(Rng.create (seed + 7)) flows
  in
  let _, mp_snap, mp_s =
    measure ~reps:3 (fun () ->
        Mpareto.migrate problem ~rates:rates' ~mu:1e4 ~current:dp.placement ())
  in
  let names =
    List.init conns (fun conn ->
        List.init wl.sessions_per_conn (fun i -> Mix.session_name ~conn i))
    |> List.concat
  in
  let reg = Ppdc_server.Registry.create ~shards:conns () in
  List.iter (fun name -> ignore (Ppdc_server.Registry.put reg ~name ~bytes:1 ())) names;
  let finds = 200_000 in
  let names_a = Array.of_list names in
  let (), find_s =
    timed (fun () ->
        for i = 0 to finds - 1 do
          ignore (Ppdc_server.Registry.find reg names_a.(i mod Array.length names_a))
        done)
  in
  [
    ("placement_dp.solve_ms", 1e3 *. dp_s, "ms");
    ("placement_dp.pairs_tried", counter dp_snap "placement_dp.pairs_tried", "count");
    ("stroll_dp.tables", counter dp_snap "stroll_dp.tables", "count");
    ("stroll_dp.edge_escalations", counter dp_snap "stroll_dp.edge_escalations", "count");
    ("stroll_dp.levels_extended", counter dp_snap "stroll_dp.levels_extended", "count");
    ("stroll_dp.prepare_us", 1e6 *. median prepare, "us");
    ("mpareto.migrate_ms", 1e3 *. mp_s, "ms");
    ("mpareto.rows_evaluated", counter mp_snap "mpareto.rows_evaluated", "count");
    ("mpareto.rows_skipped", counter mp_snap "mpareto.rows_skipped", "count");
    ("cost_matrix.compute_ms", 1e3 *. compute_s, "ms");
    ("cost_matrix.repair_ms", 1e3 *. median (Array.map fst repairs), "ms");
    ("cost_matrix.repair_rows_share", Stats.mean (Array.map snd repairs), "share");
    ("registry.find_ns", 1e9 *. find_s /. float_of_int finds, "ns");
  ]
