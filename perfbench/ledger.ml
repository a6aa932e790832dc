(* The serving benchmark: drives separate `ppdc serve` processes from
   outside, checks every answer against an in-process replay, and
   prints the end-to-end metrics (or, with --trace 1, the per-layer
   ones). See perfbench/NOTES.md for the workloads and metric
   definitions; perfbench/run.py builds the programs and runs this.

   Exit codes: 0 a valid, correct run; 1 a correctness mismatch, an
   error answer, a missing metric or a driver timeout (the result line
   is still printed, with its counts); 2 bad arguments; 3 a run the
   generator invalidated by running late (no result line). *)

module Json = Ppdc_prelude.Json
module Clock = Ppdc_prelude.Clock
module Parallel = Ppdc_prelude.Parallel
module Engine = Ppdc_server.Engine

type opts = {
  wl : Mix.t;
  seed : int;
  seconds : float;
  trace : bool;
  exe : string;
  jobs : int;  (* the daemon's -j *)
  scale : float;  (* multiplier on the workload's offered rate *)
  dir : string;  (* scratch directory for the socket, logs and spans *)
}

(* A run is [segments] segments, each on a fresh daemon with its own
   tenant and sessions: set-up, then an open loop and a closed loop of
   1/[segments] of the measured time. Latencies are pooled over the
   segments. One daemon instance can be slow or fast for its whole
   life (where its domains land among the cores); pooling five of them
   keeps one instance from moving a run's percentiles. *)
let segments = 5

let open_share = 0.8

(* A run is invalid when the generator's own lateness (p90) exceeds
   this share of the open-loop place p50 latency: its latencies would
   then measure the driver rather than the daemon. *)
let max_lag_share = 1.0

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and exe = ref "" and jobs = ref 0 in
  let scale = ref 1.0 and dir = ref ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--exe", Arg.Set_string exe, "PATH ppdc executable");
      ("--jobs", Arg.Set_int jobs, "J daemon -j (default: cores)");
      ("--offered-scale", Arg.Set_float scale, "X multiply the offered rate");
      ("--dir", Arg.Set_string dir, "DIR scratch directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger.exe --workload NAME --seed N --seconds S --trace 0|1 --exe PATH";
  let fail msg =
    prerr_endline ("ledger: " ^ msg);
    exit 2
  in
  let wl =
    match Mix.find !workload with
    | Some wl -> wl
    | None -> fail ("unknown workload " ^ !workload)
  in
  if !exe = "" || not (Sys.file_exists !exe) then fail "--exe must name the ppdc executable";
  if !seconds <= 0.0 || !scale <= 0.0 then fail "--seconds and --offered-scale must be positive";
  {
    wl;
    seed = !seed;
    seconds = !seconds;
    trace = !trace <> 0;
    exe = !exe;
    jobs = (if !jobs > 0 then !jobs else Domain.recommended_domain_count ());
    scale = !scale;
    dir = !dir;
  }

(* --- one daemon lifetime ------------------------------------------------ *)

(* One segment: a daemon and the single driver connection to it. The
   connection is one tenant; with two, the two daemon workers, the
   solver's domain pool and the driver shared the two cores of the
   reference host, and the latency percentiles spread by 20-50% between
   runs (NOTES.md). *)
type pass = {
  gen : Mix.gen;
  conn : Wire.conn;
  daemon : Wire.daemon;
  setup_s : float;
  mutable complete : bool;  (* every phase finished before its deadline *)
  mutable open_start : float;
  mutable closed_start : float;
  mutable stats : Json.t option;  (* the daemon's [stats] result *)
  mutable rss : float;
  mutable gc : (string * float * string) list;
}

(* Spawn a daemon and bring the segment's sessions to a placed state;
   the generator's connection index is the segment, so every segment
   has its own tenant and data. *)
let start_pass o ~seg ~deadline ~events_dir =
  let log = Filename.concat o.dir "daemon.log" in
  let path = Filename.concat o.dir "daemon.sock" in
  let daemon = Wire.spawn ~exe:o.exe ~jobs:o.jobs ~path ~log ?events_dir () in
  let gen = Mix.generator o.wl ~seed:o.seed ~conn:seg in
  let conn = Wire.open_conn daemon gen ~deadline in
  let complete = Wire.run_script [ conn ] [ Mix.setup gen ] ~deadline ~on_idle:ignore in
  {
    gen;
    conn;
    daemon;
    setup_s = Clock.now () -. daemon.spawned;
    complete;
    open_start = nan;
    closed_start = nan;
    stats = None;
    rss = nan;
    gc = [];
  }

(* Close the load connection (the daemon serves one connection per
   worker, so it must go before [stats] can be answered), read the
   daemon's counters and peak RSS, and stop it. *)
let finish_pass ?(before_stop = ignore) p =
  Wire.close_conn p.conn;
  p.stats <-
    Option.bind (Wire.rpc p.daemon {|{"id":0,"method":"stats"}|}) (fun l ->
        match Json.parse l with j -> Json.member "result" j | exception Failure _ -> None);
  p.rss <- Wire.peak_rss_mb p.daemon;
  before_stop ();
  Wire.stop p.daemon

let run_closed p ~length ~deadline ~on_idle =
  p.closed_start <- Clock.now ();
  let stop_at = p.closed_start +. length in
  p.complete <- Wire.run_closed [ p.conn ] ~stop_at ~deadline:(deadline stop_at) ~on_idle

(* Set-up, open loop and closed loop on a fresh daemon. A traced
   segment's daemon runs under OCAML_RUNTIME_EVENTS_START, and its GC
   events are counted over the two loops. *)
let run_segment o ~seg ~setup_deadline ~deadline ~open_s ~closed_s =
  let events_dir = if o.trace then Some o.dir else None in
  let p = start_pass o ~seg ~deadline:(setup_deadline ()) ~events_dir in
  let gc = Option.map (fun dir -> Layers.watch_gc ~dir ~pid:p.daemon.pid) events_dir in
  let on_idle () = Option.iter Layers.poll_gc gc in
  Option.iter (fun w -> Layers.count_gc w true) gc;
  let schedule =
    Array.map
      (fun due -> (due, Mix.next p.gen))
      (Wire.paced ~rate:(o.wl.rate *. o.scale) ~duration:open_s)
  in
  let start = Clock.now () +. 0.01 in
  p.open_start <- start;
  if p.complete then
    p.complete <-
      Wire.run_open p.conn ~schedule ~start ~deadline:(deadline (start +. open_s)) ~on_idle;
  if p.complete then run_closed p ~length:closed_s ~deadline ~on_idle;
  finish_pass p ~before_stop:(fun () -> Option.iter (fun w -> Layers.count_gc w false) gc);
  Option.iter
    (fun w ->
      p.gc <- Layers.gc_metrics w;
      Layers.close_gc w)
    gc;
  p

(* --- checking answers ---------------------------------------------------- *)

(* Result fields that depend on timing (the shared cache's state, the
   clock) rather than on the session's state; everything else must be
   bit-identical to the replay. *)
let volatile = [ "elapsed_ms"; "cache_hit"; "cached_cost_matrix"; "repaired_cost_matrix" ]

let stable json =
  match json with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "result", Json.Obj r ->
                 (k, Json.Obj (List.filter (fun (f, _) -> not (List.mem f volatile)) r))
             | _ -> (k, v))
           fields)
  | j -> j

let rec has_null = function
  | Json.Null -> true
  | List l -> List.exists has_null l
  | Obj fs -> List.exists (fun (_, v) -> has_null v) fs
  | Bool _ | Num _ | Str _ -> false

let is_ok j = Json.member "ok" j = Some (Json.Bool true)
let result j = Option.value ~default:Json.Null (Json.member "result" j)
let num_field j name = match Json.member name (result j) with Some (Num x) -> Some x | _ -> None

(* The promises of a place/migrate answer: ok, finite numbers
   everywhere (the encoder writes a non-finite float as null), and a
   placement of n distinct switches when it carries one. *)
let shape_problem ~n (req : Mix.request) j =
  let placement_ok =
    match Json.member "placement" (result j) with
    | None -> true
    | Some (List ps) ->
        List.length ps = n
        && List.length (List.sort_uniq compare ps) = n
        && List.for_all (function Json.Num x -> Float.is_integer x | _ -> false) ps
    | Some _ -> false
  in
  match req.cls with
  | (Place | Migrate) when not (is_ok j) -> Some "error answer"
  | (Place | Migrate) when has_null (result j) -> Some "non-finite number"
  | (Place | Migrate) when not placement_ok -> Some "placement is not n distinct switches"
  | _ -> None

(* Replay, in order on a fresh in-process engine, every request of the
   segment up to the last one answered (later ones change no checked
   answer); [replies.(id)] is the replay's answer. *)
let replay o ~seg (p : pass) ~tracer =
  let engine = Engine.create () in
  let g = Mix.generator o.wl ~seed:o.seed ~conn:seg in
  let setup = Array.of_list (Mix.setup g) in
  let answered = List.fold_left (fun n (a : Wire.answer) -> max n (a.req.id + 1)) 0 p.conn.answers in
  Array.init answered (fun id ->
      let r = if id < Array.length setup then setup.(id) else Mix.next g in
      match tracer with
      | Some tr -> Layers.traced_handle tr engine ~rid:(Printf.sprintf "%d.%d" seg id) r.line
      | None -> Engine.handle_line engine r.line)

type checked = { ans : Wire.answer; json : Json.t }

(* Parse and check every answer of a segment; returns the parsed
   answers and the list of correctness problems. *)
let check o (p : pass) replies =
  let problems = ref [] in
  let note (a : Wire.answer) what =
    problems := Printf.sprintf "%s id %d: %s" a.req.session a.req.id what :: !problems
  in
  let checked =
    List.filter_map
      (fun (a : Wire.answer) ->
        match Json.parse a.reply with
        | exception Failure _ ->
            note a "unparseable answer";
            None
        | json ->
            if Json.member "id" json <> Some (Num (float_of_int a.req.id)) then
              note a "answer out of order";
            Option.iter (note a) (shape_problem ~n:o.wl.n a.req json);
            if not (Json.equal (stable json) (stable (Json.parse replies.(a.req.id)))) then
              note a ("differs from the replay: " ^ a.reply);
            Some { ans = a; json })
      (List.rev p.conn.answers)
  in
  (checked, List.rev !problems)

(* --- metrics ------------------------------------------------------------- *)

let percentile xs q =
  if xs = [||] then nan else Ppdc_prelude.Stats.percentile xs q

let ms_of (c : checked) = 1e3 *. (c.ans.recv -. c.ans.due)

(* Mean cost of the open-loop answers of one class: C_a of a place,
   C_t of a migrate. The open loop's requests are fixed by the seed,
   so this is exactly repeatable. *)
let mean_cost checked ~cls ~field =
  List.filter_map
    (fun c ->
      if c.ans.req.cls = cls && c.ans.phase = Wire.Open_loop then num_field c.json field
      else None)
    checked
  |> Array.of_list |> Ppdc_prelude.Stats.mean

let latencies checked ~cls =
  List.filter_map
    (fun c ->
      if c.ans.phase = Wire.Open_loop && c.ans.req.cls = cls then Some (ms_of c) else None)
    checked
  |> Array.of_list

(* Windows of a phase. Each segment's open loop, and its closed loop,
   is cut into windows of about [window_s]; a request belongs to the
   window of its due instant, and a window lasts until the last of its
   answers is in. The host's steal over a window (CPU time the
   hypervisor gave to other machines while this one wanted to run)
   decides whether its samples count: the metrics are taken over the
   calm windows, those without steal, or over the half of the windows
   with the least steal per busy tick when fewer than half are calm.
   Steal comes in bursts and moves a sub-millisecond p90 by a factor
   of five. *)
let window_s = 0.25

type 'a window = { steal : int; busy : int; items : 'a }

let windows segs ~phase ~start ~length ~cpu =
  let n = max 1 (int_of_float (Float.round (length /. window_s))) in
  let width = length /. float_of_int n in
  List.concat_map
    (fun ((p : pass), checked) ->
      let groups = Array.make n [] in
      List.iter
        (fun c ->
          if c.ans.phase = phase then begin
            let w = int_of_float ((c.ans.due -. start p) /. width) in
            let w = max 0 (min (n - 1) w) in
            groups.(w) <- c :: groups.(w)
          end)
        checked;
      Array.to_list
        (Array.mapi
           (fun w cs ->
             let t0 = start p +. (float_of_int w *. width) in
             let t1 = List.fold_left (fun t c -> Float.max t c.ans.recv) (t0 +. width) cs in
             let steal, busy = cpu t0 t1 in
             { steal; busy; items = cs })
           groups))
    segs

let steal_per_busy w = float_of_int w.steal /. float_of_int (max 1 w.busy)

let calmest windows =
  let n = List.length windows in
  let quiet = List.filter (fun w -> w.steal = 0) windows in
  if 2 * List.length quiet >= n then quiet
  else
    List.stable_sort (fun a b -> compare (steal_per_busy a) (steal_per_busy b)) windows
    |> List.filteri (fun i _ -> i < (n + 1) / 2)

let open_windows segs ~open_s =
  windows segs ~phase:Wire.Open_loop ~start:(fun p -> p.open_start) ~length:open_s

(* The cache outcome an answer reports (hit, repaired or rebuilt
   matrix); all false for answers that report none. *)
let outcome c =
  List.map
    (fun f -> match Json.member f (result c.json) with Some (Json.Bool b) -> b | _ -> false)
    [ "cache_hit"; "cached_cost_matrix"; "repaired_cost_matrix" ]

(* Linear interpolation between the order statistics of [sorted], as
   Stats.percentile. *)
let quantile_sorted sorted q =
  let pos = q *. float_of_int (Array.length sorted - 1) in
  let lo = int_of_float pos in
  let hi = min (lo + 1) (Array.length sorted - 1) in
  let frac = pos -. float_of_int lo in
  (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

(* A latency percentile of one class, over its open-loop samples in
   [calm] windows, stratified by cache outcome: each outcome keeps the
   count it has over all [windows], and its values follow the
   distribution of its calm samples, or of all its samples when fewer
   than [min_stratum] are calm. On churn-k12w a class mixes cache hits
   of a few milliseconds with four to nine rebuilds or repairs of tens,
   in counts the traffic shape fixes; dropping stolen windows without
   strata would move a percentile between the two, and halving the
   slow stratum would leave its quantiles to two or three values, where
   steal only stretches them by its share. With every window calm this
   is the plain percentile of the class. *)
let min_stratum = 10

let latency windows calm ~cls q =
  let samples ws =
    List.concat_map (fun w -> List.filter (fun c -> c.ans.req.cls = cls) w.items) ws
  in
  let all = samples windows and kept = samples calm in
  List.sort_uniq compare (List.map outcome all)
  |> List.concat_map (fun o ->
         let full = List.filter (fun c -> outcome c = o) all in
         let some =
           match List.filter (fun c -> outcome c = o) kept with
           | l when List.length l >= min_stratum -> l
           | _ -> full
         in
         let sorted = Array.of_list (List.map ms_of some) in
         Array.sort Float.compare sorted;
         let n = List.length full in
         List.init n (fun j ->
             quantile_sorted sorted (if n = 1 then 0.5 else float_of_int j /. float_of_int (n - 1))))
  |> Array.of_list
  |> fun xs -> percentile xs q

(* Closed-loop capacity: with one request in flight, the ok answers of
   the calm closed-loop windows over the time they were in flight. *)
let saturated_rps segs ~closed_s ~cpu =
  let calm =
    calmest
      (windows segs ~phase:Wire.Closed_loop ~start:(fun p -> p.closed_start) ~length:closed_s
         ~cpu)
  in
  let n, t =
    List.fold_left
      (fun acc w ->
        List.fold_left
          (fun (n, t) c ->
            if is_ok c.json then (n + 1, t +. (c.ans.recv -. c.ans.due)) else (n, t))
          acc w.items)
      (0, 0.0) calm
  in
  float_of_int n /. t

(* Handler time (the answer's own elapsed_ms) against end-to-end time,
   over the closed-loop answers of one class: no queueing on the
   connection, so the rest is wire, framing and parse/encode. *)
let handler_split checked ~cls =
  List.filter_map
    (fun c ->
      match num_field c.json "elapsed_ms" with
      | Some h when c.ans.phase = Wire.Closed_loop && c.ans.req.cls = cls -> Some (h, ms_of c)
      | _ -> None)
    checked

let handler_share split =
  List.fold_left (fun a (h, _) -> a +. h) 0.0 split
  /. List.fold_left (fun a (_, e) -> a +. e) 0.0 split

(* A counter of the daemons' [stats] answers, summed over segments. *)
let cache_count passes key =
  List.fold_left
    (fun acc (p : pass) ->
      match Option.bind (Option.bind p.stats (Json.member "cache")) (Json.member key) with
      | Some (Json.Num x) -> acc +. x
      | _ -> nan)
    0.0 passes

(* Per-segment GC metrics, summed by name. *)
let sum_gc passes =
  match passes with
  | [] -> []
  | (first : pass) :: _ ->
      List.map
        (fun (name, _, unit) ->
          ( name,
            List.fold_left
              (fun acc (p : pass) ->
                acc +. Option.fold ~none:nan ~some:(fun (_, v, _) -> v)
                         (List.find_opt (fun (n, _, _) -> n = name) p.gc))
              0.0 passes,
            unit ))
        first.gc

(* --- output -------------------------------------------------------------- *)

let print_metrics title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-30s %14.6g %s\n" name v unit) metrics

let json_metrics metrics =
  Json.Obj
    (List.map
       (fun (name, v, unit) -> (name, Json.Obj [ ("value", Num v); ("unit", Str unit) ]))
       metrics)

let main () =
  let o = parse_args () in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if not (Sys.file_exists o.dir) then Sys.mkdir o.dir 0o755;
  let t_begin = Clock.now () in
  (* Driving ends by this instant, leaving time to replay and check
     within the 170 s budget of run.py. *)
  let hard_deadline = t_begin +. 60.0 +. (2.0 *. o.seconds) in
  let per_seg = o.seconds /. float_of_int segments in
  let open_s = open_share *. per_seg and closed_s = (1.0 -. open_share) *. per_seg in
  (* A phase may overrun its end by this much while answers drain. *)
  let drain_s = Float.max 3.0 per_seg in
  let deadline t = Float.min hard_deadline (t +. drain_s) in
  let setup_deadline () = Float.min hard_deadline (Clock.now () +. 60.0) in
  let passes =
    List.init segments (fun seg ->
        run_segment o ~seg ~setup_deadline ~deadline ~open_s ~closed_s)
  in
  (* The traced run's reference for the tracing overhead: an untraced
     daemon's closed loop, as long as all the segments' together. *)
  let reference =
    if not o.trace then None
    else begin
      let p =
        start_pass o ~seg:segments ~deadline:(setup_deadline ()) ~events_dir:None
      in
      if p.complete then
        run_closed p ~length:(closed_s *. float_of_int segments) ~deadline ~on_idle:ignore;
      finish_pass p;
      Some p
    end
  in
  let t_driven = Clock.now () in
  (* Correctness. The solvers' pool gets every core, as in the daemon;
     the traced replay keeps all work in this domain, where its
     allocation is counted. *)
  Parallel.set_domains (if o.trace then 1 else o.jobs);
  let tracer = if o.trace then Some (Layers.tracer ()) else None in
  let segs =
    List.mapi (fun seg p -> (p, check o p (replay o ~seg p ~tracer))) passes
  in
  let reference =
    Option.map
      (fun p -> (p, check o p (replay o ~seg:segments p ~tracer:None)))
      reference
  in
  let t_replayed = Clock.now () in
  let all = segs @ Option.to_list reference in
  let problems = List.concat_map (fun (_, (_, ps)) -> ps) all in
  let checked = List.concat_map (fun (_, (c, _)) -> c) segs in
  let errors =
    List.length
      (List.concat_map
         (fun (_, (c, _)) -> List.filter (fun c -> not (is_ok c.json)) c)
         all)
  in
  let attempted = List.fold_left (fun acc ((p : pass), _) -> acc + p.gen.next_id) 0 all in
  let unanswered =
    List.fold_left
      (fun acc ((p : pass), _) -> acc + p.gen.next_id - List.length p.conn.answers)
      0 all
  in
  let complete = List.for_all (fun ((p : pass), _) -> p.complete) all in
  let failed = errors + unanswered in
  let seg_checked = List.map (fun (p, (c, _)) -> (p, c)) segs in
  (* End-to-end metrics. *)
  let median_of f = Layers.median (Array.of_list (List.map f passes)) in
  let place = latencies checked ~cls:Place in
  let migrate = latencies checked ~cls:Migrate in
  let update = latencies checked ~cls:Update in
  let cpu = Wire.cpu_between () in
  let rps = saturated_rps seg_checked ~closed_s ~cpu in
  let windows = open_windows seg_checked ~open_s ~cpu in
  let calm = calmest windows in
  let latency = latency windows calm in
  let place_p50 = latency ~cls:Place 0.5 in
  let steal_share =
    let sum f = float_of_int (List.fold_left (fun a w -> a + f w) 0 windows) in
    sum (fun w -> w.steal) /. Float.max 1.0 (sum (fun w -> w.busy))
  in
  let setup_s =
    List.map
      (fun (p : pass) ->
        let steal, busy = cpu p.daemon.spawned (p.daemon.spawned +. p.setup_s) in
        { steal; busy; items = p.setup_s })
      passes
    |> calmest
    |> List.map (fun w -> w.items)
    |> Array.of_list |> Layers.median
  in
  let end_to_end =
    [
      ("setup_s", setup_s, "s");
      ("place_p50_ms", place_p50, "ms");
      ("place_p90_ms", latency ~cls:Place 0.9, "ms");
      ("migrate_p50_ms", latency ~cls:Migrate 0.5, "ms");
      ("migrate_p90_ms", latency ~cls:Migrate 0.9, "ms");
      ("update_p50_ms", latency ~cls:Update 0.5, "ms");
      ("update_p90_ms", latency ~cls:Update 0.9, "ms");
      ("saturated_rps", rps, "req/s");
      ("peak_rss_mb", median_of (fun p -> p.rss), "MB");
      ("place_cost", mean_cost checked ~cls:Place ~field:"cost", "cost");
      ("migrate_cost", mean_cost checked ~cls:Migrate ~field:"total_cost", "cost");
    ]
  in
  (* Generator health. *)
  let lags =
    Array.of_list
      (List.filter_map
         (fun c -> if c.ans.phase = Wire.Open_loop then Some (1e3 *. c.ans.lag) else None)
         checked)
  in
  let lag_p90 = percentile lags 0.9 in
  let lag_limit = max_lag_share *. place_p50 in
  let late = not (lag_p90 <= lag_limit) in
  let place_split = handler_split checked ~cls:Place in
  let migrate_split = handler_split checked ~cls:Migrate in
  let wire =
    Array.of_list (List.map (fun (h, e) -> e -. h) (place_split @ migrate_split))
  in
  let measured = List.filter (fun c -> c.ans.phase <> Wire.Setup_phase) checked in
  let mean_bytes f =
    Ppdc_prelude.Stats.mean (Array.of_list (List.map (fun c -> float_of_int (f c)) measured))
  in
  let cache = cache_count passes in
  let hits = cache "hits" and misses = cache "misses" in
  let per_layer tr reference =
    Layers.direct o.wl ~seed:o.seed ~conns:segments
    @ [
        ("cache.hits", hits, "count");
        ("cache.misses", misses, "count");
        ("cache.repairs", cache "repairs", "count");
        ("cache.rebuilds", cache "rebuilds", "count");
        ("cache.hit_ratio", hits /. (hits +. misses), "share");
      ]
    @ Layers.replay_metrics tr
    @ [
        ("transport.request_bytes", mean_bytes (fun c -> String.length c.ans.req.line + 1), "B");
        ("transport.response_bytes", mean_bytes (fun c -> String.length c.ans.reply + 1), "B");
        ("transport.wire_p50_ms", percentile wire 0.5, "ms");
        ("transport.wire_p90_ms", percentile wire 0.9, "ms");
        ("engine.handler_share", handler_share migrate_split, "share");
      ]
    @ sum_gc passes
    @ [
        ("driver.lag_p90_ms", lag_p90, "ms");
        ("host.steal_share", steal_share, "share");
        ("trace.overhead_share", 1.0 -. (rps /. saturated_rps [ reference ] ~closed_s:(closed_s *. float_of_int segments) ~cpu), "share");
      ]
  in
  let metrics =
    match (tracer, reference) with
    | Some tr, Some (p, (c, _)) -> per_layer tr (p, c)
    | _ -> end_to_end
  in
  Option.iter
    (fun tr ->
      Layers.write_spans tr
        (Filename.concat o.dir (Printf.sprintf "spans-%s-%d.ndjson" o.wl.name o.seed)))
    tracer;
  (* Report. *)
  Printf.printf "workload %s seed %d: %s\n" o.wl.name o.seed o.wl.why;
  Printf.printf
    "generator: nproc %d, daemon -j %d, 1 connection, %d segments of open loop %.3g \
     req/s paced for %.3g s and closed loop for %.3g s\n"
    (Domain.recommended_domain_count ()) o.jobs segments (o.wl.rate *. o.scale) open_s closed_s;
  Printf.printf
    "samples (open loop): place %d, migrate %d, update %d; closed loop %d answers\n"
    (Array.length place) (Array.length migrate) (Array.length update)
    (List.length (List.filter (fun c -> c.ans.phase = Wire.Closed_loop) checked));
  Printf.printf "error_share %.6g (%d errors + %d unanswered of %d sent)\n"
    (float_of_int failed /. float_of_int (max 1 attempted)) errors unanswered attempted;
  Printf.printf
    "handler elapsed / end-to-end (closed loop): place %.4f, migrate %.4f; \
     cache hits %g, misses %g, repairs %g, rebuilds %g\n"
    (handler_share place_split) (handler_share migrate_split) hits misses
    (cache "repairs") (cache "rebuilds");
  Printf.printf "timings: driving %.3g s, replay and checks %.3g s\n"
    (t_driven -. t_begin) (t_replayed -. t_driven);
  Printf.printf "driver lag p90 %.4g ms (limit %.4g ms)\n" lag_p90 lag_limit;
  Printf.printf "host steal %.4f of the busy CPU time in the open loops; %d of %d windows calm\n"
    steal_share (List.length calm) (List.length windows);
  List.iter (fun s -> Printf.printf "MISMATCH %s\n" s) (List.filteri (fun i _ -> i < 20) problems);
  if not complete then Printf.printf "TIMEOUT: the run did not finish before its deadline\n";
  if late then begin
    Printf.printf "INVALID: the generator ran late; latencies are not reported\n";
    exit 3
  end;
  print_metrics (if o.trace then "per-layer metrics" else "end-to-end metrics") metrics;
  (* JSON has no NaN: a metric without samples is printed as null, and
     the run fails. *)
  let missing = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  List.iter (fun (name, _, _) -> Printf.printf "MISSING %s: no samples\n" name) missing;
  let correct = problems = [] in
  print_endline
    (Json.to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Num (float_of_int attempted));
            ("failed", Num (float_of_int failed));
            ("metrics", json_metrics metrics);
          ]));
  exit (if correct && complete && failed = 0 && missing = [] then 0 else 1)

let () = main ()
