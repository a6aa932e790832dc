(* Stress and regression tests for the concurrent ppdc.rpc/1 daemon:
   parallel clients against one server (id echo, no interleaving
   corruption, results identical to sequential execution, counters),
   explicit overload rejection, queue-wait deadlines, socket-file
   cleanup on an accept-loop exception, and the client-side response
   timeout against a deliberately stalled server. *)

module Json = Ppdc_prelude.Json
module Obs = Ppdc_prelude.Obs
module Engine = Ppdc_server.Engine
module Registry = Ppdc_server.Registry
module Transport = Ppdc_server.Transport

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

let num_field j key =
  match Json.member key j with
  | Some (Json.Num n) -> n
  | _ -> Alcotest.failf "expected numeric field %s in %s" key (Json.to_string j)

let member_exn j key =
  match Json.member key j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s in %s" key (Json.to_string j)

(* --- server / raw-socket harness -------------------------------------- *)

let sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ppdc-%d-%s.sock" (Unix.getpid ()) name)

(* Boot a daemon in its own domain, wait for the listener (on_ready),
   and guarantee shutdown + join however the test body exits. The
   engine options feed the registry budgets/fairness caps for the
   eviction and fairness choreographies. *)
let with_server ?workers ?max_pending ?request_timeout ?engine ?shards
    ?session_budget ?tenant_sessions ?tenant_bytes ?tenant_inflight name f =
  let path = sock_path name in
  (try Sys.remove path with Sys_error _ -> ());
  let engine =
    match engine with
    | Some e -> e
    | None ->
        Engine.create ~cache_capacity:4 ?shards ?session_budget
          ?tenant_sessions ?tenant_bytes ?tenant_inflight ()
  in
  let ready = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Transport.serve_unix ?workers ?max_pending ?request_timeout
          ~on_ready:(fun () -> Atomic.set ready true)
          ~path engine)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (not (Atomic.get ready))
    && Float.compare (Unix.gettimeofday ()) deadline < 0
  do
    Unix.sleepf 0.005
  done;
  if not (Atomic.get ready) then Alcotest.fail "server never became ready";
  (* Teardown: ask until the server has really stopped. With one worker
     and no pending slots, the shutdown connection can arrive while the
     worker is still closing the test's last connection; it is then
     answered [overloaded], and joining at that point would wait
     forever on a server that never heard the shutdown. *)
  let stop () =
    let deadline = Unix.gettimeofday () +. 10.0 in
    while
      (not (Engine.stopped engine))
      && Float.compare (Unix.gettimeofday ()) deadline < 0
    do
      (try
         ignore
           (Transport.call ~timeout:5.0 ~path
              [ {|{"id":"bye","method":"shutdown"}|} ])
       with _ -> ());
      if not (Engine.stopped engine) then Unix.sleepf 0.01
    done;
    Domain.join srv
  in
  Fun.protect ~finally:stop (fun () -> f path)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_line fd line =
  let data = line ^ "\n" in
  ignore (Unix.write_substring fd data 0 (String.length data))

let recv_line ?(timeout = 10.0) fd =
  let buf = Buffer.create 128 in
  let b = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if Float.compare remaining 0.0 <= 0 then
      Alcotest.failf "recv_line: no line within %gs (got %S)" timeout
        (Buffer.contents buf);
    match Unix.select [ fd ] [] [] remaining with
    | [], _, _ ->
        Alcotest.failf "recv_line: no line within %gs (got %S)" timeout
          (Buffer.contents buf)
    | _ -> (
        match Unix.read fd b 0 1 with
        | 0 ->
            Alcotest.failf "recv_line: connection closed (got %S)"
              (Buffer.contents buf)
        | _ ->
            if Char.equal (Bytes.get b 0) '\n' then Buffer.contents buf
            else begin
              Buffer.add_char buf (Bytes.get b 0);
              go ()
            end)
  in
  go ()

(* --- concurrent clients ----------------------------------------------- *)

let num_clients = 4

(* One client's conversation: its own session, interleaved methods,
   every request carrying a unique string id. *)
let client_requests i =
  let s = Printf.sprintf "c%d" i in
  [
    ( Printf.sprintf "%s-load" s,
      Printf.sprintf
        {|{"id":"%s-load","method":"load_topology","params":{"session":"%s","k":4,"l":6,"n":3,"seed":%d}}|}
        s s (i + 1) );
    ( Printf.sprintf "%s-p1" s,
      Printf.sprintf
        {|{"id":"%s-p1","method":"place","params":{"session":"%s","algo":"dp"}}|}
        s s );
    ( Printf.sprintf "%s-r" s,
      Printf.sprintf
        {|{"id":"%s-r","method":"rates_update","params":{"session":"%s","seed":%d}}|}
        s s (100 + i) );
    ( Printf.sprintf "%s-m" s,
      Printf.sprintf
        {|{"id":"%s-m","method":"migrate","params":{"session":"%s","algo":"mpareto","mu":100}}|}
        s s );
    ( Printf.sprintf "%s-p2" s,
      Printf.sprintf
        {|{"id":"%s-p2","method":"place","params":{"session":"%s","algo":"dp"}}|}
        s s );
  ]

(* The solver-output fields that must be schedule-independent. Fields
   like cache_hit and elapsed_ms legitimately depend on timing and are
   excluded. *)
let deterministic_fields = function
  | "place" -> [ "algo"; "placement"; "cost" ]
  | "migrate" ->
      [ "algo"; "placement"; "moved"; "migration_cost"; "comm_cost"; "total_cost" ]
  | _ -> []

let meth_of_request req =
  match Json.member "method" (Json.parse req) with
  | Some (Json.Str m) -> m
  | _ -> Alcotest.failf "request without method: %s" req

let test_concurrent_clients () =
  with_server ~workers:2 "stress" @@ fun path ->
  let conversations = Array.init num_clients client_requests in
  let clients =
    Array.map
      (fun conv ->
        Domain.spawn (fun () ->
            Transport.call ~timeout:60.0 ~path (List.map snd conv)))
      conversations
  in
  let responses = Array.map Domain.join clients in
  (* Every request got exactly its own id back, in order, ok:true. *)
  Array.iteri
    (fun i conv ->
      let resp = responses.(i) in
      Alcotest.(check int)
        "one response per request" (List.length conv) (List.length resp);
      List.iter2
        (fun (id, _) line ->
          ignore (expect_ok line);
          Alcotest.(check bool)
            (Printf.sprintf "id %s echoed" id)
            true
            (Json.equal (Json.Str id) (response_id line)))
        conv resp)
    conversations;
  (* The same conversations replayed sequentially on a fresh engine
     produce identical solver outputs (placement, costs) — concurrency
     must not change a single bit of the paper-visible results. *)
  let sequential = Engine.create ~cache_capacity:4 () in
  Array.iteri
    (fun i conv ->
      List.iter2
        (fun (id, req) line ->
          let seq_line = Engine.handle_line sequential req in
          let fields = deterministic_fields (meth_of_request req) in
          let concurrent_result = expect_ok line in
          let sequential_result = expect_ok seq_line in
          List.iter
            (fun key ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s identical to sequential" id key)
                true
                (Json.equal
                   (member_exn concurrent_result key)
                   (member_exn sequential_result key)))
            fields)
        conv responses.(i))
    conversations;
  (* Final stats account for exactly the requests sent. *)
  let stats =
    expect_ok
      (List.hd
         (Transport.call ~timeout:30.0 ~path [ {|{"id":"st","method":"stats"}|} ]))
  in
  let requests = member_exn stats "requests" in
  let sent = (num_clients * 5) + 1 (* the stats request itself *) in
  Alcotest.(check int)
    "requests.total equals requests sent" sent
    (int_of_float (num_field requests "total"));
  Alcotest.(check int)
    "no errors" 0
    (int_of_float (num_field requests "errors"));
  let by_method = member_exn requests "by_method" in
  Alcotest.(check int)
    "place count" (2 * num_clients)
    (int_of_float (num_field by_method "place"));
  let server = member_exn stats "server" in
  Alcotest.(check int)
    "stats reports the worker pool" 2
    (int_of_float (num_field server "workers"))

(* --- overload ----------------------------------------------------------- *)

let test_overload_rejection () =
  with_server ~workers:1 ~max_pending:0 "overload" @@ fun path ->
  (* A occupies the only worker (a connection holds its worker until it
     closes)... *)
  let a = connect path in
  Unix.sleepf 0.3;
  (* ...so B must be rejected — with a structured response, not a
     dropped connection. *)
  let b = connect path in
  let line = recv_line b in
  Alcotest.(check string) "overloaded code" "overloaded" (expect_error line);
  Alcotest.(check bool)
    "overloaded id null" true
    (Json.equal Json.Null (response_id line));
  (* The rejected connection is then closed by the server. *)
  (match Unix.select [ b ] [] [] 5.0 with
  | [], _, _ -> Alcotest.fail "rejected connection not closed"
  | _ ->
      Alcotest.(check int)
        "EOF after rejection" 0
        (Unix.read b (Bytes.create 1) 0 1));
  Unix.close b;
  (* A was never disturbed and sees the rejection in the gauges. *)
  send_line a {|{"id":"a1","method":"stats"}|};
  let stats = expect_ok (recv_line a) in
  let server = member_exn stats "server" in
  Alcotest.(check int)
    "one rejected connection" 1
    (int_of_float (num_field server "rejected"));
  Unix.close a

(* --- deadlines ---------------------------------------------------------- *)

let test_queue_wait_deadline () =
  with_server ~workers:1 ~request_timeout:0.05 "deadline" @@ fun path ->
  let a = connect path in
  (* B's first request goes out immediately, but B has to wait for the
     only worker far beyond the 50 ms budget. *)
  let b = connect path in
  send_line b {|{"id":"b1","method":"health"}|};
  Unix.sleepf 0.3;
  (* A itself idled 0.3 s before its first request — that must NOT
     count against A's deadline (the budget covers queueing, not
     client think time). *)
  send_line a {|{"id":"a1","method":"health"}|};
  ignore (expect_ok (recv_line a));
  Unix.close a;
  (* The worker moves on to B: the first request spent its whole budget
     queued and is answered deadline_exceeded with its id echoed — and
     the worker survives to serve the next request normally. *)
  let r1 = recv_line b in
  Alcotest.(check string)
    "deadline_exceeded code" "deadline_exceeded" (expect_error r1);
  Alcotest.(check bool)
    "deadline id echoed" true
    (Json.equal (Json.Str "b1") (response_id r1));
  send_line b {|{"id":"b2","method":"stats"}|};
  let r2 = recv_line b in
  let stats = expect_ok r2 in
  Alcotest.(check bool)
    "next request served normally" true
    (Json.equal (Json.Str "b2") (response_id r2));
  Alcotest.(check int)
    "stats counts the deadline miss" 1
    (int_of_float
       (num_field (member_exn stats "requests") "deadline_exceeded"));
  Unix.close b

(* --- eviction choreography ---------------------------------------------- *)

(* Deterministic LRU eviction under a per-tenant session cap: filling
   tenant "t" past tenant_sessions=2 must evict exactly its
   least-recently-used session, announce the victim in the create's
   response, answer later requests for the victim with session_evicted
   (id echoed), and keep serving the survivors. *)
let test_tenant_session_eviction () =
  with_server ~workers:1 ~tenant_sessions:2 "evict" @@ fun path ->
  let load s =
    Printf.sprintf
      {|{"id":"load-%s","method":"load_topology","params":{"session":"%s","k":4,"l":4,"n":2,"seed":1}}|}
      s s
  in
  let place ~id s =
    Printf.sprintf {|{"id":"%s","method":"place","params":{"session":"%s"}}|}
      id s
  in
  let responses =
    Transport.call ~timeout:60.0 ~path
      [
        load "t-a"; load "t-b"; load "t-c";
        place ~id:"victim" "t-a";
        place ~id:"b-ok" "t-b"; place ~id:"c-ok" "t-c";
        {|{"id":"st","method":"stats"}|};
      ]
  in
  match responses with
  | [ ra; rb; rc; victim; b_ok; c_ok; st ] ->
      ignore (expect_ok ra);
      ignore (expect_ok rb);
      (* The third create pushes tenant "t" to 3 > 2: its LRU session
         (t-a, the oldest stamp) is announced as the victim. *)
      let rc = expect_ok rc in
      (match member_exn rc "evicted" with
      | Json.List [ ev ] ->
          Alcotest.(check bool)
            "t-a is the announced victim" true
            (Json.equal (Json.Str "t-a") (member_exn ev "session"));
          Alcotest.(check bool)
            "eviction reason is the tenant session cap" true
            (Json.equal (Json.Str "tenant_sessions") (member_exn ev "reason"))
      | other ->
          Alcotest.failf "expected exactly one eviction, got %s"
            (Json.to_string other));
      (* The evicted session answers with the structured code and the
         request's own id — a client can tell eviction from typo. *)
      Alcotest.(check string)
        "session_evicted code" "session_evicted" (expect_error victim);
      Alcotest.(check bool)
        "evicted answer echoes the request id" true
        (Json.equal (Json.Str "victim") (response_id victim));
      (* Service continues for the survivors. *)
      ignore (expect_ok b_ok);
      ignore (expect_ok c_ok);
      let stats = expect_ok st in
      let registry = member_exn stats "registry" in
      Alcotest.(check int)
        "registry.sessions" 2
        (int_of_float (num_field registry "sessions"));
      Alcotest.(check int)
        "one tenant_sessions eviction counted" 1
        (int_of_float
           (num_field (member_exn registry "evictions") "tenant_sessions"));
      Alcotest.(check int)
        "one evicted answer counted" 1
        (int_of_float (num_field registry "evicted_answers"))
  | rs -> Alcotest.failf "expected 7 responses, got %d" (List.length rs)

(* --- two-tenant fairness choreography ------------------------------------ *)

(* Deterministic fairness: while one noisy request is provably inside
   its handler (the registry put hook parks it, holding the tenant's
   single in-flight slot), a second noisy request must be rejected with
   a structured overloaded answer, and a quiet tenant sharing the pool
   must keep being served ok with a bounded wait. No race: the second
   request is only sent after the hook reports the first one in. *)
let test_noisy_tenant_fairness () =
  (* The parked put holds its session's shard lock. Everything that
     must proceed (or fail fast) while it is parked takes other shard
     locks: enter_tenant locks the *tenant's home shard* (both for the
     rejected noisy request and for the quiet tenant), and the quiet
     create locks the quiet session's shard. Probe the stable hash for
     names that keep all of those off the parked shard. *)
  let probe : unit Registry.t = Registry.create ~shards:8 () in
  let noisy_name =
    let rec pick i =
      if i > 25 then Alcotest.fail "no noisy session off its home shard"
      else
        let name = Printf.sprintf "noisy-%c" (Char.chr (Char.code 'a' + i)) in
        if Registry.shard_id probe name <> Registry.shard_id probe "noisy" then
          name
        else pick (i + 1)
    in
    pick 0
  in
  let parked_shard = Registry.shard_id probe noisy_name in
  let quiet_name =
    let tenants = [ "quiet"; "calm"; "idle"; "tame" ] in
    let rec pick = function
      | [] -> Alcotest.fail "no quiet session off the parked shard"
      | (tenant, i) :: rest ->
          let name = Printf.sprintf "%s-%c" tenant (Char.chr (Char.code 'a' + i)) in
          if
            Registry.shard_id probe tenant <> parked_shard
            && Registry.shard_id probe name <> parked_shard
          then name
          else pick rest
    in
    pick
      (List.concat_map
         (fun tenant -> List.init 26 (fun i -> (tenant, i)))
         tenants)
  in
  let engine =
    Engine.create ~cache_capacity:4 ~shards:8 ~tenant_inflight:1 ()
  in
  let inside = Atomic.make false and release = Atomic.make false in
  Engine.set_registry_test_hook engine
    (Some
       (fun name ->
         if String.equal (Registry.tenant_of name) "noisy" then begin
           Atomic.set inside true;
           let deadline = Unix.gettimeofday () +. 10.0 in
           while
             (not (Atomic.get release))
             && Float.compare (Unix.gettimeofday ()) deadline < 0
           do
             Unix.sleepf 0.002
           done
         end));
  with_server ~engine ~workers:3 "fairness" @@ fun path ->
  let load ~id s =
    Printf.sprintf
      {|{"id":"%s","method":"load_topology","params":{"session":"%s","k":4,"l":4,"n":2,"seed":1}}|}
      id s
  in
  let a = connect path in
  let b = connect path in
  let q = connect path in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b; q ])
  @@ fun () ->
  (* Park the noisy tenant's first request inside its handler. *)
  send_line a (load ~id:"n1" noisy_name);
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (not (Atomic.get inside))
    && Float.compare (Unix.gettimeofday ()) deadline < 0
  do
    Unix.sleepf 0.002
  done;
  if not (Atomic.get inside) then
    Alcotest.fail "noisy request never reached its handler";
  (* The tenant is now pinned at its in-flight cap of 1: a second noisy
     request must bounce with the structured overloaded answer. *)
  (* Rejected at the admission gate, before any registry lock: only the
     tenant prefix matters, the session never gets created. *)
  send_line b (load ~id:"n2" "noisy-second");
  let rejected_line = recv_line b in
  Alcotest.(check string)
    "second noisy request rejected" "overloaded" (expect_error rejected_line);
  Alcotest.(check bool)
    "rejection echoes the request id" true
    (Json.equal (Json.Str "n2") (response_id rejected_line));
  (* Meanwhile the quiet tenant keeps being served: the fairness cap —
     not a saturated pool — absorbed the noisy burst. Waits measured
     while the noisy handler is still parked. *)
  let quiet_waits =
    List.map
      (fun req ->
        let t0 = Unix.gettimeofday () in
        send_line q req;
        ignore (expect_ok (recv_line q));
        Unix.gettimeofday () -. t0)
      [
        load ~id:"q0" quiet_name;
        Printf.sprintf
          {|{"id":"q1","method":"place","params":{"session":"%s"}}|}
          quiet_name;
        Printf.sprintf
          {|{"id":"q2","method":"place","params":{"session":"%s"}}|}
          quiet_name;
      ]
  in
  let worst = List.fold_left Float.max 0.0 quiet_waits in
  Alcotest.(check bool)
    (Printf.sprintf "quiet tenant waits bounded (worst %.3fs)" worst)
    true (Float.compare worst 5.0 < 0);
  (* Release the parked handler: the noisy tenant recovers and is
     served normally once its slot frees up. *)
  Atomic.set release true;
  ignore (expect_ok (recv_line a));
  send_line a
    (Printf.sprintf {|{"id":"n3","method":"place","params":{"session":"%s"}}|}
       noisy_name);
  ignore (expect_ok (recv_line a));
  send_line q {|{"id":"st","method":"stats"}|};
  let stats = expect_ok (recv_line q) in
  let fairness = member_exn stats "fairness" in
  Alcotest.(check bool)
    "fairness.rejections counted" true
    (int_of_float (num_field fairness "rejections") >= 1)

(* --- socket-file cleanup on accept-loop exception ----------------------- *)

let test_socket_cleanup_on_exception () =
  let path = sock_path "leak" in
  (try Sys.remove path with Sys_error _ -> ());
  let engine = Engine.create () in
  (* on_ready runs inside the accept-loop's protected region; raising
     from it stands in for any accept-loop failure. Before the fix the
     socket file survived an exceptional exit. *)
  (match
     Transport.serve_unix ~workers:1
       ~on_ready:(fun () -> failwith "boom")
       ~path engine
   with
  | () -> Alcotest.fail "serve_unix returned despite the exception"
  | exception Failure msg -> Alcotest.(check string) "exception" "boom" msg);
  Alcotest.(check bool)
    "socket file removed on exceptional exit" false (Sys.file_exists path)

(* --- client-side response timeout --------------------------------------- *)

let test_call_timeout_on_stalled_server () =
  let path = sock_path "stall" in
  (try Sys.remove path with Sys_error _ -> ());
  let ready = Atomic.make false in
  (* A daemon that accepts and reads but never answers. *)
  let srv =
    Domain.spawn (fun () ->
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind sock (Unix.ADDR_UNIX path);
        Unix.listen sock 1;
        Atomic.set ready true;
        let fd, _ = Unix.accept sock in
        let b = Bytes.create 1024 in
        let rec drain () = if Unix.read fd b 0 1024 > 0 then drain () in
        (try drain () with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (try Unix.close sock with Unix.Unix_error _ -> ());
        try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.005
  done;
  (match
     Transport.call ~timeout:0.25 ~path [ {|{"id":1,"method":"health"}|} ]
   with
  | _ -> Alcotest.fail "expected Transport.call to time out"
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "distinguishable timeout failure: %s" msg)
        true
        (let re = "timed out" in
         let len = String.length re in
         let n = String.length msg in
         let rec find i = i + len <= n && (String.equal (String.sub msg i len) re || find (i + 1)) in
         find 0));
  Domain.join srv

let () =
  (* The CI stress step runs this binary directly with PPDC_METRICS set
     and uploads the NDJSON it writes. *)
  (match Obs.env_path () with
  | Some path ->
      Obs.set_enabled true;
      at_exit (fun () -> Obs.export ~path)
  | None -> ());
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Alcotest.run "ppdc_server_stress"
    [
      ( "concurrency",
        [
          Alcotest.test_case
            "parallel clients: id echo, sequential equivalence, counters"
            `Quick test_concurrent_clients;
        ] );
      ( "overload",
        [
          Alcotest.test_case "full pool answers a structured overloaded error"
            `Quick test_overload_rejection;
          Alcotest.test_case "queue wait past --request-timeout answers \
                              deadline_exceeded" `Quick test_queue_wait_deadline;
        ] );
      ( "tenancy",
        [
          Alcotest.test_case
            "tenant session cap evicts LRU and answers session_evicted"
            `Quick test_tenant_session_eviction;
          Alcotest.test_case
            "noisy tenant is rejected, quiet tenant keeps being served"
            `Quick test_noisy_tenant_fairness;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "socket file removed when the accept loop dies"
            `Quick test_socket_cleanup_on_exception;
          Alcotest.test_case "call ~timeout raises on a stalled daemon" `Quick
            test_call_timeout_on_stalled_server;
        ] );
    ]
