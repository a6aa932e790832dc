(* Tests for the ppdc.rpc/1 daemon: engine-level unit tests that drive
   [Engine.handle_line] directly, and a [--stdio] integration test that
   spawns the real binary and walks every method plus the malformed
   cases, checking the server answers each with a structured error and
   keeps serving. *)

module Json = Ppdc_prelude.Json
module Clock = Ppdc_prelude.Clock
module Engine = Ppdc_server.Engine

(* --- response helpers ------------------------------------------------- *)

let response_id line =
  match Json.member "id" (Json.parse line) with
  | Some v -> v
  | None -> Alcotest.failf "response without id: %s" line

let expect_ok line =
  let j = Json.parse line in
  match (Json.member "ok" j, Json.member "result" j) with
  | Some (Json.Bool true), Some r -> r
  | _ -> Alcotest.failf "expected ok response, got: %s" line

let expect_error line =
  let j = Json.parse line in
  match (Json.member "ok" j, Json.member "error" j) with
  | Some (Json.Bool false), Some err -> (
      match Json.member "code" err with
      | Some (Json.Str code) -> code
      | _ -> Alcotest.failf "error without code: %s" line)
  | _ -> Alcotest.failf "expected error response, got: %s" line

let bool_field result key =
  match Json.member key result with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "expected bool field %s" key

let str_field result key =
  match Json.member key result with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "expected string field %s" key

(* --- engine unit tests ------------------------------------------------ *)

let eng () = Engine.create ~cache_capacity:4 ()

let load e ?(session = "s") ?(k = 4) ?(l = 6) ?(n = 3) () =
  expect_ok
    (Engine.handle_line e
       (Printf.sprintf
          {|{"id":0,"method":"load_topology","params":{"session":%S,"k":%d,"l":%d,"n":%d}}|}
          session k l n))

let test_engine_health () =
  let e = eng () in
  let r = expect_ok (Engine.handle_line e {|{"id":1,"method":"health"}|}) in
  Alcotest.(check string) "schema" "ppdc.rpc/1" (str_field r "schema");
  Alcotest.(check bool) "not stopped" false (Engine.stopped e)

let test_engine_errors_echo_id () =
  let e = eng () in
  (* Unparseable line: error with id null. *)
  let bad = Engine.handle_line e "{nope" in
  Alcotest.(check string) "parse error" "parse_error" (expect_error bad);
  Alcotest.(check bool) "id null" true (Json.equal Json.Null (response_id bad));
  (* Valid JSON that is not a request object. *)
  Alcotest.(check string) "invalid request" "invalid_request"
    (expect_error (Engine.handle_line e "[1,2]"));
  (* Unknown method echoes the (string) id. *)
  let unk = Engine.handle_line e {|{"id":"x7","method":"frobnicate"}|} in
  Alcotest.(check string) "unknown method" "unknown_method" (expect_error unk);
  Alcotest.(check bool) "id echoed" true
    (Json.equal (Json.Str "x7") (response_id unk));
  (* Missing session. *)
  let ghost =
    Engine.handle_line e {|{"id":9,"method":"place","params":{"session":"g"}}|}
  in
  Alcotest.(check string) "unknown session" "unknown_session"
    (expect_error ghost);
  Alcotest.(check bool) "numeric id echoed" true
    (Json.equal (Json.Num 9.0) (response_id ghost));
  (* The engine survives all of the above. *)
  ignore (expect_ok (Engine.handle_line e {|{"id":10,"method":"health"}|}));
  (* The canned overlong response is a well-formed line_too_long error. *)
  Alcotest.(check string) "overlong canned" "line_too_long"
    (expect_error Engine.overlong_response);
  Alcotest.(check bool) "overlong id null" true
    (Json.equal Json.Null (response_id Engine.overlong_response))

let test_engine_place_uses_cache () =
  let e = eng () in
  ignore (load e ());
  let place () =
    expect_ok
      (Engine.handle_line e
         {|{"id":1,"method":"place","params":{"session":"s","algo":"dp"}}|})
  in
  let first = place () in
  let second = place () in
  Alcotest.(check bool) "first place misses" false (bool_field first "cache_hit");
  Alcotest.(check bool) "second place hits" true (bool_field second "cache_hit");
  (* Same fabric, same workload: the answer must not depend on the cache. *)
  let render r key = Json.to_string (Option.get (Json.member key r)) in
  Alcotest.(check string) "same placement" (render first "placement")
    (render second "placement");
  Alcotest.(check string) "same cost" (render first "cost") (render second "cost");
  let stats = expect_ok (Engine.handle_line e {|{"id":2,"method":"stats"}|}) in
  match Json.member "cache" stats with
  | Some cache -> (
      match (Json.member "hits" cache, Json.member "entries" cache) with
      | Some (Json.Num h), Some (Json.Num n) ->
          Alcotest.(check bool) "stats report a hit" true (h >= 1.0);
          Alcotest.(check bool) "one fabric cached" true
            (Float.compare n 1.0 = 0)
      | _ -> Alcotest.fail "stats.cache missing hits/entries")
  | None -> Alcotest.fail "stats without cache section"

let test_engine_migrate_flow () =
  let e = eng () in
  ignore (load e ());
  (* Migration without a placement is a structured refusal. *)
  Alcotest.(check string) "migrate before place" "invalid_params"
    (expect_error
       (Engine.handle_line e
          {|{"id":1,"method":"migrate","params":{"session":"s"}}|}));
  ignore
    (expect_ok
       (Engine.handle_line e
          {|{"id":2,"method":"place","params":{"session":"s"}}|}));
  ignore
    (expect_ok
       (Engine.handle_line e
          {|{"id":3,"method":"rates_update","params":{"session":"s","seed":2}}|}));
  let m =
    expect_ok
      (Engine.handle_line e
         {|{"id":4,"method":"migrate","params":{"session":"s","algo":"mpareto","mu":100}}|})
  in
  Alcotest.(check string) "algo echoed" "mpareto" (str_field m "algo");
  Alcotest.(check bool) "migrate reuses cached matrix" true
    (bool_field m "cache_hit")

let test_engine_simulate_events () =
  let e = eng () in
  ignore (load e ());
  let r =
    expect_ok
      (Engine.handle_line e
         {|{"id":1,"method":"simulate_events","params":{"session":"s","mu":1e4,"trigger":"threshold:1.2","probe_every":0.5}}|})
  in
  Alcotest.(check string) "trigger echoed" "threshold" (str_field r "trigger");
  Alcotest.(check string) "default policy" "mPareto" (str_field r "policy");
  let numf key =
    match Json.member key r with
    | Some (Json.Num x) -> x
    | _ -> Alcotest.failf "expected numeric field %s" key
  in
  Alcotest.(check bool) "events processed" true (numf "events" > 0.0);
  Alcotest.(check bool) "total = comm + migration" true
    (Float.compare (numf "total_cost")
       (numf "comm_cost" +. numf "migration_cost")
    = 0);
  (* The replay runs on copies: the session still has no placement, so
     a migrate must still be refused. *)
  Alcotest.(check string) "session placement untouched" "invalid_params"
    (expect_error
       (Engine.handle_line e
          {|{"id":2,"method":"migrate","params":{"session":"s"}}|}));
  (* Bad trigger grammar is a structured refusal. *)
  Alcotest.(check string) "bad trigger" "invalid_params"
    (expect_error
       (Engine.handle_line e
          {|{"id":3,"method":"simulate_events","params":{"session":"s","trigger":"sometimes"}}|}))

let test_engine_fail_links_changes_digest () =
  let e = eng () in
  let loaded = load e ~k:4 () in
  let before = str_field loaded "digest" in
  let degraded =
    expect_ok
      (Engine.handle_line e
         {|{"id":1,"method":"fail_links","params":{"session":"s","fraction":0.05,"seed":3}}|})
  in
  let after = str_field degraded "digest" in
  Alcotest.(check bool) "digest changed" false (String.equal before after);
  (* The degraded fabric is new to the cache: its first place misses. *)
  let p =
    expect_ok
      (Engine.handle_line e
         {|{"id":2,"method":"place","params":{"session":"s"}}|})
  in
  Alcotest.(check bool) "degraded fabric misses" false (bool_field p "cache_hit")

let num_field j key =
  match Json.member key j with
  | Some (Json.Num n) -> n
  | _ -> Alcotest.failf "expected numeric field %s" key

let test_engine_fail_links_repairs_warm_cache () =
  (* When the healthy fabric's matrix is already cached, fail_links
     derives the degraded matrix incrementally and installs it under
     the new digest — so the first place after the failure is a warm
     hit, not a cold all-pairs rebuild. *)
  let e = eng () in
  ignore (load e ~k:4 ());
  let place id =
    expect_ok
      (Engine.handle_line e
         (Printf.sprintf
            {|{"id":%d,"method":"place","params":{"session":"s","algo":"dp"}}|}
            id))
  in
  ignore (place 1);
  let degraded =
    expect_ok
      (Engine.handle_line e
         {|{"id":2,"method":"fail_links","params":{"session":"s","fraction":0.05,"seed":3}}|})
  in
  Alcotest.(check bool) "links failed" true
    (num_field degraded "failed_count" >= 1.0);
  Alcotest.(check bool) "matrix repaired" true
    (bool_field degraded "repaired_cost_matrix");
  Alcotest.(check bool) "matrix cached after repair" true
    (bool_field degraded "cached_cost_matrix");
  let p = place 3 in
  Alcotest.(check bool) "first place after failure is warm" true
    (bool_field p "cache_hit");
  let stats = expect_ok (Engine.handle_line e {|{"id":4,"method":"stats"}|}) in
  match Json.member "cache" stats with
  | Some cache ->
      Alcotest.(check bool) "one repair counted" true
        (Float.compare (num_field cache "repairs") 1.0 = 0);
      Alcotest.(check bool) "one cold rebuild counted" true
        (Float.compare (num_field cache "rebuilds") 1.0 = 0)
  | None -> Alcotest.fail "stats without cache section"

let test_engine_failure_log_ordering () =
  (* Two failure episodes: the session's stats log must be their
     concatenation in episode order, oldest first. *)
  let e = eng () in
  ignore (load e ~k:4 ());
  let episode id seed =
    let r =
      expect_ok
        (Engine.handle_line e
           (Printf.sprintf
              {|{"id":%d,"method":"fail_links","params":{"session":"s","fraction":0.05,"seed":%d}}|}
              id seed))
    in
    match Json.member "failed" r with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "fail_links without failed list"
  in
  let first = episode 1 3 in
  let second = episode 2 11 in
  let stats = expect_ok (Engine.handle_line e {|{"id":3,"method":"stats"}|}) in
  match Json.member "sessions" stats with
  | Some (Json.List [ session ]) -> (
      Alcotest.(check bool) "failed_links counts both episodes" true
        (Float.compare
           (num_field session "failed_links")
           (float_of_int (List.length first + List.length second))
        = 0);
      match Json.member "failed" session with
      | Some (Json.List logged) ->
          Alcotest.(check string) "log is episode-ordered"
            (Json.to_string (Json.List (first @ second)))
            (Json.to_string (Json.List logged))
      | _ -> Alcotest.fail "session stats without failed log")
  | _ -> Alcotest.fail "stats without a single session"

let test_engine_invalid_params () =
  let e = eng () in
  ignore (load e ());
  Alcotest.(check string) "bogus algo" "invalid_params"
    (expect_error
       (Engine.handle_line e
          {|{"id":1,"method":"place","params":{"session":"s","algo":"bogus"}}|}));
  Alcotest.(check string) "seed+scale both given" "invalid_params"
    (expect_error
       (Engine.handle_line e
          {|{"id":2,"method":"rates_update","params":{"session":"s","seed":1,"scale":2.0}}|}));
  (* Odd fat-tree arity is rejected by the builder; the engine turns
     the exception into a structured error and keeps serving. *)
  Alcotest.(check string) "odd k" "invalid_params"
    (expect_error
       (Engine.handle_line e
          {|{"id":3,"method":"load_topology","params":{"session":"t","k":3}}|}));
  ignore (expect_ok (Engine.handle_line e {|{"id":4,"method":"health"}|}))

let error_message line =
  match Json.member "error" (Json.parse line) with
  | Some err -> (
      match Json.member "message" err with
      | Some (Json.Str m) -> m
      | _ -> Alcotest.failf "error without message: %s" line)
  | None -> Alcotest.failf "expected error response, got: %s" line

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Regression: a request object with a malformed "params" or "method"
   used to be answered with "id":null although its id had parsed. *)
let test_engine_echoes_parsed_id () =
  let e = eng () in
  let check_id msg line id =
    let r = Engine.handle_line e line in
    Alcotest.(check string) (msg ^ ": code") "invalid_request" (expect_error r);
    Alcotest.(check string) (msg ^ ": id echoed") (Json.to_string id)
      (Json.to_string (response_id r))
  in
  check_id "params not an object" {|{"id":7,"method":"place","params":[]}|}
    (Json.Num 7.0);
  check_id "method not a string" {|{"id":"m","method":5}|} (Json.Str "m");
  check_id "method missing" {|{"id":[1,2]}|}
    (Json.List [ Json.Num 1.0; Json.Num 2.0 ]);
  Alcotest.(check bool) "no id, null" true
    (Json.equal Json.Null (response_id (Engine.handle_line e {|{"method":5}|})))

(* Regression: solver parameters are validated where the solver table
   declares them, with a message naming the parameter — no more
   ok:true answers carrying null costs (mu = 1e400 parses as
   infinity), internal solver texts, or silently accepted budgets. *)
let test_engine_solver_params_validated () =
  let e = eng () in
  ignore (load e ());
  let rejects ~param request =
    let r = Engine.handle_line e request in
    Alcotest.(check string) (request ^ ": code") "invalid_params"
      (expect_error r);
    Alcotest.(check bool)
      (Printf.sprintf "%s: message names %S (%s)" request param
         (error_message r))
      true
      (contains (error_message r) (Printf.sprintf "%S" param))
  in
  rejects ~param:"pair_limit"
    {|{"id":1,"method":"place","params":{"session":"s","algo":"dp","pair_limit":0}}|};
  rejects ~param:"pair_limit"
    {|{"id":2,"method":"place","params":{"session":"s","algo":"dp","pair_limit":1}}|};
  rejects ~param:"budget"
    {|{"id":3,"method":"place","params":{"session":"s","algo":"optimal","budget":-1}}|};
  ignore
    (expect_ok
       (Engine.handle_line e
          {|{"id":4,"method":"place","params":{"session":"s","algo":"dp"}}|}));
  rejects ~param:"mu"
    {|{"id":5,"method":"migrate","params":{"session":"s","algo":"mpareto","mu":1e400}}|};
  rejects ~param:"mu"
    {|{"id":6,"method":"migrate","params":{"session":"s","algo":"mpareto","mu":-5}}|};
  rejects ~param:"mu"
    {|{"id":7,"method":"migrate","params":{"session":"s","algo":"plan","mu":-5}}|};
  rejects ~param:"budget"
    {|{"id":8,"method":"migrate","params":{"session":"s","algo":"optimal","budget":0}}|};
  rejects ~param:"mu"
    {|{"id":9,"method":"simulate_events","params":{"session":"s","mu":-1}}|};
  (* In-domain values still solve. *)
  ignore
    (expect_ok
       (Engine.handle_line e
          {|{"id":10,"method":"migrate","params":{"session":"s","algo":"optimal","mu":0,"budget":1}}|}))

(* [pair_limit] is a [place] parameter only: [migrate] ignores it,
   whatever its value, and answers exactly as without it. *)
let test_engine_migrate_ignores_pair_limit () =
  let migrate extra =
    let e = eng () in
    ignore (load e ());
    List.iter
      (fun line -> ignore (expect_ok (Engine.handle_line e line)))
      [ {|{"id":1,"method":"place","params":{"session":"s"}}|};
        {|{"id":2,"method":"rates_update","params":{"session":"s","seed":7}}|} ];
    let r =
      expect_ok
        (Engine.handle_line e
           (Printf.sprintf
              {|{"id":3,"method":"migrate","params":{"session":"s","algo":"optimal","mu":100%s}}|}
              extra))
    in
    List.map
      (fun key -> Option.map Json.to_string (Json.member key r))
      [ "placement"; "moved"; "total_cost"; "explored" ]
  in
  let plain = migrate "" in
  List.iter
    (fun limit ->
      Alcotest.(check (list (option string)))
        ("pair_limit " ^ limit) plain
        (migrate (Printf.sprintf {|,"pair_limit":%s|} limit)))
    [ "0"; "2" ]

let test_engine_shutdown () =
  let e = eng () in
  ignore (expect_ok (Engine.handle_line e {|{"id":1,"method":"shutdown"}|}));
  Alcotest.(check bool) "stopped" true (Engine.stopped e)

let test_engine_deadline () =
  let e = eng () in
  (* Deadlines live on the monotonic Clock timebase, not the wall
     clock: an already-expired deadline means the handler never
     starts, the error echoes the id, and the engine keeps serving. *)
  let late =
    Engine.handle_line ~deadline:(Clock.now () -. 1.0) e
      {|{"id":"d1","method":"health"}|}
  in
  Alcotest.(check string) "deadline code" "deadline_exceeded"
    (expect_error late);
  Alcotest.(check bool) "deadline id echoed" true
    (Json.equal (Json.Str "d1") (response_id late));
  (* A generous deadline changes nothing. *)
  ignore
    (expect_ok
       (Engine.handle_line ~deadline:(Clock.now () +. 60.0) e
          {|{"id":"d2","method":"health"}|}));
  let stats = expect_ok (Engine.handle_line e {|{"id":"d3","method":"stats"}|}) in
  match Json.member "requests" stats with
  | Some req -> (
      match Json.member "deadline_exceeded" req with
      | Some (Json.Num n) ->
          Alcotest.(check bool) "one deadline miss counted" true
            (Float.compare n 1.0 = 0)
      | _ -> Alcotest.fail "stats without deadline_exceeded counter")
  | None -> Alcotest.fail "stats without requests section"

let test_engine_overloaded_response () =
  (* The canned rejection the socket transport writes before it ever
     reads a request: well-formed, code overloaded, id null. *)
  Alcotest.(check string) "overloaded canned" "overloaded"
    (expect_error Engine.overloaded_response);
  Alcotest.(check bool) "overloaded id null" true
    (Json.equal Json.Null (response_id Engine.overloaded_response))

(* --- protocol fuzzing -------------------------------------------------- *)

(* Random request lines: valid templates, truncated JSON, arbitrary
   bytes (NULs included), and lines far beyond the transport's bound.
   Newlines are scrubbed (the protocol frames by line; we fuzz line
   contents) and anything containing "shutdown" is skipped so [stopped]
   may only flip when a test means it to. *)
let fuzz_line_gen =
  let open QCheck.Gen in
  let scrub s =
    String.map (fun c -> if Char.equal c '\n' then ' ' else c) s
  in
  let template =
    oneofl
      [
        {|{"id":1,"method":"health"}|};
        {|{"id":"z","method":"stats"}|};
        {|{"id":2,"method":"place","params":{"session":"fz"}}|};
        {|{"id":3,"method":"load_topology","params":{"session":"fz","k":4,"l":3,"n":2}}|};
        {|{"id":4,"method":"rates_update","params":{"session":"fz","scale":2}}|};
        {|{"method":"health"}|};
        {|{"id":null,"method":"migrate","params":{"session":"fz"}}|};
        {|{"id":[1,2],"method":true}|};
        "[]";
        "null";
      ]
  in
  let truncated =
    map2
      (fun t k -> String.sub t 0 (min k (String.length t)))
      template (int_bound 40)
  in
  let junk =
    map scrub (string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 64))
  in
  let huge =
    map (fun c -> String.make 2000 (Char.chr (32 + (c mod 90)))) (int_bound 255)
  in
  frequency [ (3, template); (2, truncated); (3, junk); (1, huge) ]

let fuzz_lines =
  QCheck.make
    ~print:(fun ls -> String.concat " | " (List.map (Printf.sprintf "%S") ls))
    QCheck.Gen.(list_size (int_range 1 20) fuzz_line_gen)

let skip_line l =
  let needle = "shutdown" in
  let nl = String.length needle and n = String.length l in
  let rec find i =
    i + nl <= n && (String.equal (String.sub l i nl) needle || find (i + 1))
  in
  find 0

let is_response line =
  match Json.parse line with
  | exception Failure _ -> false
  | j -> ( match Json.member "ok" j with Some (Json.Bool _) -> true | _ -> false)

let prop_engine_fuzz =
  QCheck.Test.make ~count:300
    ~name:"handle_line is total: one well-formed line, never raises or stops"
    fuzz_lines
    (fun lines ->
      let e = eng () in
      List.iter
        (fun line ->
          if not (skip_line line) then begin
            let resp =
              try Engine.handle_line e line
              with exn ->
                QCheck.Test.fail_reportf "handle_line raised %s on %S"
                  (Printexc.to_string exn) line
            in
            if String.contains resp '\n' then
              QCheck.Test.fail_reportf "embedded newline in response to %S" line;
            if not (is_response resp) then
              QCheck.Test.fail_reportf "malformed response %S to %S" resp line;
            if Engine.stopped e then
              QCheck.Test.fail_reportf "%S stopped the engine" line
          end)
        lines;
      (* Still serving after the whole barrage. *)
      ignore (expect_ok (Engine.handle_line e {|{"id":"after","method":"health"}|}));
      true)

(* The same barrage through the transport's line loop: every non-blank
   input line gets exactly one response line, oversized ones included
   (answered [line_too_long] after resync). *)
let run_serve_channel lines =
  let in_path = Filename.temp_file "ppdc-fuzz" ".in" in
  let out_path = Filename.temp_file "ppdc-fuzz" ".out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ in_path; out_path ])
    (fun () ->
      let oc0 = open_out_bin in_path in
      List.iter
        (fun l ->
          output_string oc0 l;
          output_char oc0 '\n')
        lines;
      close_out oc0;
      let e = eng () in
      let ic = open_in_bin in_path and oc = open_out_bin out_path in
      Ppdc_server.Transport.serve_channel ~max_line:256 e ic oc;
      close_in ic;
      close_out oc;
      let ic2 = open_in_bin out_path in
      let responses = ref [] in
      (try
         while true do
           responses := input_line ic2 :: !responses
         done
       with End_of_file -> ());
      close_in ic2;
      (e, List.rev !responses))

let prop_serve_channel_fuzz =
  QCheck.Test.make ~count:150
    ~name:"serve_channel: one response line per non-blank request line"
    fuzz_lines
    (fun lines ->
      let lines = List.filter (fun l -> not (skip_line l)) lines in
      let e, responses = run_serve_channel lines in
      (* A line past the 256-byte bound is always answered (line_too_long),
         even when it would otherwise trim to blank; within the bound,
         blank lines are skipped. *)
      let answered l = String.length l > 256 || String.trim l <> "" in
      let expected = List.length (List.filter answered lines) in
      if List.length responses <> expected then
        QCheck.Test.fail_reportf "%d responses to %d non-blank lines"
          (List.length responses) expected;
      List.iter
        (fun r ->
          if not (is_response r) then
            QCheck.Test.fail_reportf "malformed response line %S" r)
        responses;
      if Engine.stopped e then
        QCheck.Test.fail_reportf "fuzz input stopped the engine";
      true)

let test_serve_channel_shutdown_stops () =
  (* [stopped] flips exactly on a real shutdown: the loop answers it,
     stops reading, and later lines are never served. *)
  let e, responses =
    run_serve_channel
      [
        {|{"id":1,"method":"health"}|};
        {|{"id":2,"method":"shutdown"}|};
        {|{"id":3,"method":"health"}|};
      ]
  in
  Alcotest.(check int) "served up to shutdown only" 2 (List.length responses);
  List.iter (fun r -> ignore (expect_ok r)) responses;
  Alcotest.(check bool) "stopped" true (Engine.stopped e)

(* --- stdio integration ------------------------------------------------ *)

let find_binary () =
  match Sys.getenv_opt "PPDC_BIN" with
  | Some p -> p
  | None ->
      Filename.concat
        (Filename.dirname Sys.executable_name)
        "../bin/ppdc.exe"

let test_stdio_protocol () =
  let bin = find_binary () in
  if not (Sys.file_exists bin) then
    Alcotest.failf "ppdc binary not found at %s (set PPDC_BIN)" bin;
  let from_server, to_server =
    Unix.open_process_args bin
      [| bin; "serve"; "--stdio"; "--max-line"; "4096" |]
  in
  let rpc line =
    output_string to_server line;
    output_char to_server '\n';
    flush to_server;
    input_line from_server
  in
  (* Every method answers over the wire. *)
  ignore (expect_ok (rpc {|{"id":1,"method":"health"}|}));
  ignore
    (expect_ok
       (rpc
          {|{"id":2,"method":"load_topology","params":{"session":"s","k":4,"l":6,"n":3}}|}));
  let p1 = expect_ok (rpc {|{"id":3,"method":"place","params":{"session":"s"}}|}) in
  let p2 = expect_ok (rpc {|{"id":4,"method":"place","params":{"session":"s"}}|}) in
  Alcotest.(check bool) "cold place misses" false (bool_field p1 "cache_hit");
  Alcotest.(check bool) "warm place hits" true (bool_field p2 "cache_hit");
  ignore
    (expect_ok
       (rpc
          {|{"id":5,"method":"migrate","params":{"session":"s","algo":"mpareto","mu":100}}|}));
  ignore
    (expect_ok
       (rpc
          {|{"id":6,"method":"rates_update","params":{"session":"s","scale":1.5}}|}));
  ignore
    (expect_ok
       (rpc
          {|{"id":7,"method":"fail_links","params":{"session":"s","fraction":0.05}}|}));
  ignore (expect_ok (rpc {|{"id":8,"method":"stats"}|}));
  (* Malformed JSON: structured error, id null, server keeps serving. *)
  let bad = rpc "{this is not json" in
  Alcotest.(check string) "malformed line" "parse_error" (expect_error bad);
  Alcotest.(check bool) "malformed id null" true
    (Json.equal Json.Null (response_id bad));
  (* Unknown method and missing session echo their ids. *)
  let unk = rpc {|{"id":41,"method":"nope"}|} in
  Alcotest.(check string) "unknown method" "unknown_method" (expect_error unk);
  Alcotest.(check bool) "unknown method id" true
    (Json.equal (Json.Num 41.0) (response_id unk));
  let missing = rpc {|{"id":43,"method":"place","params":{"session":"nope"}}|} in
  Alcotest.(check string) "missing session" "unknown_session"
    (expect_error missing);
  Alcotest.(check bool) "missing session id" true
    (Json.equal (Json.Num 43.0) (response_id missing));
  (* Oversized line: drained up to its newline, answered line_too_long
     (the parser never saw the id, so it is null), stream resyncs. *)
  let oversized =
    Printf.sprintf {|{"id":44,"method":"health","params":{"pad":%S}}|}
      (String.make 5000 'x')
  in
  let too_long = rpc oversized in
  Alcotest.(check string) "oversized line" "line_too_long"
    (expect_error too_long);
  Alcotest.(check bool) "oversized id null" true
    (Json.equal Json.Null (response_id too_long));
  (* Still serving after every error above. *)
  ignore (expect_ok (rpc {|{"id":45,"method":"health"}|}));
  ignore (expect_ok (rpc {|{"id":46,"method":"shutdown"}|}));
  match Unix.close_process (from_server, to_server) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.failf "server exited with %d" c
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Alcotest.failf "server killed by signal %d" s

(* --- every solver-table entry through both surfaces ------------------------ *)

module Solvers = Ppdc_sim.Solvers

(* The names an unknown-name error lists, in order: the RPC form
   "(expected one of a, b, c)" and cmdliner's "expected one of 'a', 'b'
   or 'c'". *)
let listed_names msg =
  let from = String.index msg '(' + String.length "(expected one of " in
  String.sub msg from (String.rindex msg ')' - from)
  |> String.split_on_char ','
  |> List.map String.trim

let quoted_names msg =
  let rec find word i =
    if String.sub msg i (String.length word) = word then i else find word (i + 1)
  in
  let from = find "expected" 0 in
  String.sub msg from (find "Usage:" from - from)
  |> String.split_on_char '\''
  |> List.filteri (fun i _ -> i mod 2 = 1)

let finite_num msg result key =
  match Json.member key result with
  | Some (Json.Num x) when Float.is_finite x -> x
  | _ -> Alcotest.failf "%s: %s is not a finite number" msg key

let check_distinct msg ~n switches =
  Alcotest.(check int) (msg ^ ": n switches") n (List.length switches);
  Alcotest.(check int)
    (msg ^ ": distinct")
    n
    (List.length (List.sort_uniq compare switches))

let rpc_placement ?(key = "placement") msg result =
  match Json.member key result with
  | Some (Json.List xs) ->
      List.map
        (function
          | Json.Num x -> int_of_float x | _ -> Alcotest.failf "%s: placement" msg)
        xs
  | _ -> Alcotest.failf "%s: no placement" msg

let test_table_over_rpc () =
  let e = eng () in
  let n = 3 in
  ignore (load e ~n ());
  let call meth params =
    Engine.handle_line e
      (Printf.sprintf {|{"id":1,"method":%S,"params":{"session":"s",%s}}|} meth
         params)
  in
  List.iter
    (fun entry ->
      let name = Solvers.name entry in
      let r = expect_ok (call "place" (Printf.sprintf {|"algo":%S|} name)) in
      ignore (finite_num name r "cost");
      check_distinct name ~n (rpc_placement name r))
    (Solvers.all Solvers.Placement);
  List.iter
    (fun entry ->
      let name = Solvers.name entry in
      let line = call "migrate" (Printf.sprintf {|"algo":%S,"mu":100|} name) in
      if List.mem Solvers.Forecast (Solvers.inputs entry) then begin
        Alcotest.(check string) (name ^ " needs a forecast") "invalid_params"
          (expect_error line);
        Alcotest.(check bool) (name ^ ": points to simulate_events") true
          (contains (error_message line) "simulate_events")
      end
      else begin
        let r = expect_ok line in
        List.iter
          (fun key -> ignore (finite_num name r key))
          [ "comm_cost"; "migration_cost"; "total_cost" ];
        if Solvers.relocates entry = Solvers.Vnfs then
          check_distinct name ~n (rpc_placement name r)
      end;
      let sim =
        expect_ok
          (call "simulate_events" (Printf.sprintf {|"policy":%S,"mu":100|} name))
      in
      ignore (finite_num name sim "total_cost");
      check_distinct (name ^ " day") ~n
        (rpc_placement ~key:"final_placement" name sim))
    (Solvers.all Solvers.Migration);
  let unknown meth key kind =
    let msg = error_message (call meth (Printf.sprintf {|%S:"bogus"|} key)) in
    Alcotest.(check (list string))
      (Printf.sprintf "%s %s lists the table" meth key)
      (Solvers.names kind) (listed_names msg)
  in
  unknown "place" "algo" Solvers.Placement;
  unknown "migrate" "algo" Solvers.Migration;
  unknown "simulate_events" "policy" Solvers.Migration

(* Run the CLI; return its exit code, stdout and stderr. *)
let run_cli args =
  let bin = find_binary () in
  let out, inp, err =
    Unix.open_process_args_full bin (Array.of_list (bin :: args))
      (Unix.environment ())
  in
  close_out inp;
  let stdout = In_channel.input_all out in
  let stderr = In_channel.input_all err in
  match Unix.close_process_full (out, inp, err) with
  | Unix.WEXITED code -> (code, stdout, stderr)
  | _ -> Alcotest.failf "ppdc %s was killed" (String.concat " " args)

(* Every "= <number>" in a CLI answer must be finite. *)
let check_cli_numbers msg out =
  String.split_on_char '=' out
  |> List.tl
  |> List.iter (fun part ->
         let token = List.hd (String.split_on_char ',' (String.trim part)) in
         let token = List.hd (String.split_on_char '\n' token) in
         match float_of_string_opt (String.trim token) with
         | Some x when Float.is_finite x -> ()
         | _ -> Alcotest.failf "%s: %S is not a finite number" msg token)

(* "[f1@s1 f2@s4 f3@s0]" -> [1; 4; 0] *)
let cli_placement msg out =
  let at = String.index out '@' in
  let open_ = String.rindex_from out at '[' in
  let close = String.index_from out at ']' in
  String.sub out (open_ + 1) (close - open_ - 1)
  |> String.split_on_char ' '
  |> List.map (fun slot ->
         match String.split_on_char '@' slot with
         | [ _; sw ] -> int_of_string (String.sub sw 1 (String.length sw - 1))
         | _ -> Alcotest.failf "%s: bad placement slot %S" msg slot)

let test_table_over_cli () =
  let n = 3 in
  let inst = [ "-j"; "1"; "-k"; "4"; "-l"; "8"; "-n"; string_of_int n ] in
  List.iter
    (fun entry ->
      let name = Solvers.name entry in
      let code, out, err = run_cli (("place" :: inst) @ [ "--algo"; name ]) in
      Alcotest.(check int) (name ^ ": exit 0 " ^ err) 0 code;
      check_cli_numbers name out;
      check_distinct name ~n (cli_placement name out))
    (Solvers.all Solvers.Placement);
  List.iter
    (fun entry ->
      let name = Solvers.name entry in
      let code, out, err =
        run_cli (("migrate" :: inst) @ [ "--mu"; "100"; "--algo"; name ])
      in
      if List.mem Solvers.Forecast (Solvers.inputs entry) then begin
        Alcotest.(check int) (name ^ ": rejected") 2 code;
        Alcotest.(check bool) (name ^ ": points to simulate") true
          (contains err "simulate")
      end
      else begin
        Alcotest.(check int) (name ^ ": exit 0 " ^ err) 0 code;
        check_cli_numbers name out;
        check_distinct name ~n (cli_placement name out)
      end;
      let code, out, err =
        run_cli (("simulate" :: inst) @ [ "--mu"; "100"; "--policy"; name ])
      in
      Alcotest.(check int) (name ^ " day: exit 0 " ^ err) 0 code;
      Alcotest.(check bool) (name ^ " day total") true (contains out "day total"))
    (Solvers.all Solvers.Migration);
  List.iter
    (fun (cmd, flag, kind) ->
      let code, _, err = run_cli ((cmd :: inst) @ [ flag; "bogus" ]) in
      Alcotest.(check bool) (cmd ^ ": bogus rejected") true (code <> 0);
      Alcotest.(check (list string))
        (Printf.sprintf "%s %s lists the table" cmd flag)
        (Solvers.names kind) (quoted_names err))
    [
      ("place", "--algo", Solvers.Placement);
      ("migrate", "--algo", Solvers.Migration);
      ("simulate", "--policy", Solvers.Migration);
    ]

let () =
  Alcotest.run "ppdc_server"
    [
      ( "engine",
        [
          Alcotest.test_case "health" `Quick test_engine_health;
          Alcotest.test_case "errors echo the request id" `Quick
            test_engine_errors_echo_id;
          Alcotest.test_case "repeated place hits the matrix cache" `Quick
            test_engine_place_uses_cache;
          Alcotest.test_case "migrate lifecycle" `Quick test_engine_migrate_flow;
          Alcotest.test_case "simulate_events runs on copies" `Quick
            test_engine_simulate_events;
          Alcotest.test_case "fail_links rekeys the cache" `Quick
            test_engine_fail_links_changes_digest;
          Alcotest.test_case "fail_links repairs a warm cache" `Quick
            test_engine_fail_links_repairs_warm_cache;
          Alcotest.test_case "failure log is episode-ordered" `Quick
            test_engine_failure_log_ordering;
          Alcotest.test_case "invalid params are contained" `Quick
            test_engine_invalid_params;
          Alcotest.test_case "malformed requests echo the parsed id" `Quick
            test_engine_echoes_parsed_id;
          Alcotest.test_case "solver parameters validated where declared"
            `Quick test_engine_solver_params_validated;
          Alcotest.test_case "migrate ignores pair_limit" `Quick
            test_engine_migrate_ignores_pair_limit;
          Alcotest.test_case "shutdown" `Quick test_engine_shutdown;
          Alcotest.test_case "expired deadline is admission control" `Quick
            test_engine_deadline;
          Alcotest.test_case "canned overloaded response" `Quick
            test_engine_overloaded_response;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_engine_fuzz;
          QCheck_alcotest.to_alcotest prop_serve_channel_fuzz;
          Alcotest.test_case "stopped flips only on real shutdown" `Quick
            test_serve_channel_shutdown_stops;
        ] );
      ( "stdio",
        [
          Alcotest.test_case "full protocol over --stdio" `Quick
            test_stdio_protocol;
        ] );
      ( "solver",
        [
          Alcotest.test_case "every table entry over RPC" `Quick
            test_table_over_rpc;
          Alcotest.test_case "every table entry over the CLI" `Quick
            test_table_over_cli;
        ] );
    ]
