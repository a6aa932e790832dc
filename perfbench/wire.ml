(* The load driver: one process, one thread, non-blocking sockets.

   Each connection keeps an outgoing queue and an in-flight FIFO. The
   event loop always selects for reading on every connection that has
   requests in flight, also while a write is blocked by a full socket
   buffer, and never blocks on a write: a daemon that stops reading
   cannot stall the driver, and a run ends at its deadline whatever
   the daemon does. Requests still in flight at the deadline are
   counted as unanswered. *)

module Clock = Ppdc_prelude.Clock

type phase = Setup_phase | Open_loop | Closed_loop

type answer = {
  req : Mix.request;
  phase : phase;
  due : float;  (* when the request was due to be sent *)
  lag : float;  (* how late the driver queued it, seconds *)
  recv : float;  (* when its answer line was complete *)
  reply : string;
}

type conn = {
  fd : Unix.file_descr;
  gen : Mix.gen;
  outq : string Queue.t;
  mutable out_off : int;  (* bytes of the head of [outq] already written *)
  inbuf : Buffer.t;  (* the partial answer line read so far *)
  inflight : (Mix.request * phase * float * float) Queue.t;
  mutable answers : answer list;  (* newest first *)
  mutable closed : bool;
}

(* --- the daemon process ------------------------------------------------- *)

type daemon = { pid : int; path : string; spawned : float }

let connect_retry path ~deadline =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED | EAGAIN), _, _)
      when Clock.now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* Environment of the daemon: the caller's, minus anything that would
   turn on the daemon's own metrics or runtime tracing, plus the
   runtime-events switch for a traced run. *)
let daemon_env ~events_dir =
  let keep v =
    not
      (String.starts_with ~prefix:"OCAML_RUNTIME_EVENTS" v
      || String.starts_with ~prefix:"PPDC_" v)
  in
  let base = List.filter keep (Array.to_list (Unix.environment ())) in
  let extra =
    match events_dir with
    | None -> []
    | Some dir ->
        [ "OCAML_RUNTIME_EVENTS_START=1"; "OCAML_RUNTIME_EVENTS_DIR=" ^ dir ]
  in
  Array.of_list (base @ extra)

let spawn ~exe ~jobs ~path ~log ?events_dir () =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let err = Unix.openfile log [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let spawned = Clock.now () in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "-j"; string_of_int jobs; "--socket"; path |]
      (daemon_env ~events_dir) null err err
  in
  Unix.close null;
  Unix.close err;
  { pid; path; spawned }

let rec waitpid_until pid deadline =
  match Unix.waitpid [ WNOHANG ] pid with
  | 0, _ when Clock.now () < deadline ->
      Unix.sleepf 0.005;
      waitpid_until pid deadline
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (EINTR, _, _) -> waitpid_until pid deadline
  | exception Unix.Unix_error (ECHILD, _, _) -> true

(* One request on a fresh connection; [None] when the daemon did not
   answer in time. *)
let rpc ?(timeout = 10.0) d line =
  match Ppdc_server.Transport.call ~timeout ~path:d.path [ line ] with
  | [ reply ] -> Some reply
  | _ -> None
  | exception (Failure _ | Unix.Unix_error _ | Sys_error _) -> None

(* Graceful shutdown, then SIGKILL if the daemon is still there after
   [grace] seconds; returns once the process has been reaped. *)
let stop ?(grace = 5.0) d =
  ignore (rpc ~timeout:grace d {|{"id":0,"method":"shutdown"}|});
  if not (waitpid_until d.pid (Clock.now () +. grace)) then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (waitpid_until d.pid (Clock.now () +. 30.0))
  end;
  try Unix.unlink d.path with Unix.Unix_error _ -> ()

(* Peak resident set of the daemon in MB ([VmHWM], kB in procfs). *)
let peak_rss_mb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* --- connections -------------------------------------------------------- *)

let open_conn d gen ~deadline =
  let fd = connect_retry d.path ~deadline in
  Unix.set_nonblock fd;
  {
    fd;
    gen;
    outq = Queue.create ();
    out_off = 0;
    inbuf = Buffer.create 4096;
    inflight = Queue.create ();
    answers = [];
    closed = false;
  }

let close_conn c =
  c.closed <- true;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c (req : Mix.request) ~phase ~due ~now =
  Queue.push (req.line ^ "\n") c.outq;
  Queue.push (req, phase, due, now -. due) c.inflight

let rec flush c =
  match Queue.peek_opt c.outq with
  | None -> ()
  | Some s when not c.closed -> (
      let len = String.length s - c.out_off in
      match Unix.write_substring c.fd s c.out_off len with
      | n when n = len ->
          ignore (Queue.pop c.outq);
          c.out_off <- 0;
          flush c
      | n -> c.out_off <- c.out_off + n
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> c.closed <- true)
  | Some _ -> ()

let chunk = Bytes.create 65536

let receive c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.closed <- true
  | n ->
      let now = Clock.now () in
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get chunk i = '\n' then begin
          Buffer.add_subbytes c.inbuf chunk !start (i - !start);
          start := i + 1;
          let reply = Buffer.contents c.inbuf in
          Buffer.clear c.inbuf;
          match Queue.take_opt c.inflight with
          | Some (req, phase, due, lag) ->
              c.answers <- { req; phase; due; lag; recv = now; reply } :: c.answers
          | None -> ()  (* an answer nobody asked for: ignored, unmatched *)
        end
      done;
      Buffer.add_subbytes c.inbuf chunk !start (n - !start)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.closed <- true

(* CPU time of this machine from the first line of /proc/stat, in
   clock ticks summed over CPUs: [(steal, busy)], where steal is the
   time the hypervisor gave to other machines while this one wanted to
   run, and busy is all time not idle, steal included. [(0, 0)] where
   it cannot be read. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match
            String.split_on_char ' ' (input_line ic)
            |> List.filter (( <> ) "")
            |> List.tl |> List.map int_of_string
          with
          | user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _ ->
              (steal, user + nice + system + irq + softirq + steal)
          | _ -> (0, 0)
          | exception (End_of_file | Failure _) -> (0, 0))

(* [(instant, cpu_ticks ())], newest first, sampled by [pump] at most
   every 20 ms. *)
let cpu_log : (float * (int * int)) list ref = ref []

(* [cpu_between () a b]: the steal and busy ticks logged between the
   first samples at or after [a] and [b]. *)
let cpu_between () =
  let log = Array.of_list (List.rev !cpu_log) in
  let at t =
    let n = Array.length log in
    if n = 0 then (0, 0)
    else begin
      (* the first sample at or after [t], else the last *)
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if fst log.(mid) < t then lo := mid + 1 else hi := mid
      done;
      snd log.(!lo)
    end
  in
  fun a b ->
    let (s0, b0), (s1, b1) = (at a, at b) in
    (s1 - s0, b1 - b0)

(* Run the event loop until [finished ()] holds (true) or [deadline]
   passes (false). [tick now] queues whatever is due and returns the
   next instant it wants to run at; [on_idle] runs at least every
   50 ms (the traced run polls the daemon's GC events there). *)
let pump conns ~tick ~finished ~deadline ~on_idle =
  let rec loop last_idle =
    let now = Clock.now () in
    let wake = tick now in
    List.iter flush conns;
    (match !cpu_log with
    | (t, _) :: _ when now -. t < 0.02 -> ()
    | _ -> cpu_log := (now, cpu_ticks ()) :: !cpu_log);
    let last_idle =
      if now -. last_idle >= 0.05 then begin
        on_idle ();
        now
      end
      else last_idle
    in
    if finished () then true
    else if now >= deadline then false
    else begin
      let live = List.filter (fun c -> not c.closed) conns in
      let rd =
        List.filter_map
          (fun c -> if Queue.is_empty c.inflight then None else Some c.fd)
          live
      in
      let wr =
        List.filter_map
          (fun c -> if Queue.is_empty c.outq then None else Some c.fd)
          live
      in
      let timeout =
        Float.max 0.0 (Float.min 0.05 (Float.min (wake -. now) (deadline -. now)))
      in
      (match Unix.select rd wr [] timeout with
      | r, _, _ -> List.iter (fun c -> if List.memq c.fd r then receive c) live
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      loop last_idle
    end
  in
  loop (Clock.now ())

let quiet conns =
  List.for_all (fun c -> c.closed || Queue.is_empty c.inflight) conns

(* Closed loop over fixed request lists (the setup phase): each
   connection sends its next request as soon as the previous answer is
   in. *)
let run_script conns scripts ~deadline ~on_idle =
  let todo = Array.of_list scripts in
  let arr = Array.of_list conns in
  let tick now =
    Array.iteri
      (fun i c ->
        if (not c.closed) && Queue.is_empty c.inflight then
          match todo.(i) with
          | r :: rest ->
              todo.(i) <- rest;
              send c r ~phase:Setup_phase ~due:now ~now
          | [] -> ())
      arr;
    infinity
  in
  pump conns ~tick
    ~finished:(fun () -> Array.for_all (( = ) []) todo && quiet conns)
    ~deadline ~on_idle

(* Paced open-loop arrival instants: [rate] per second, evenly spaced
   over [duration] seconds. *)
let paced ~rate ~duration =
  Array.init (int_of_float (duration *. rate)) (fun i -> (float_of_int i +. 0.5) /. rate)

(* Open loop on one connection: request [i] of [schedule] is due at
   [start + fst schedule.(i)] and is queued then, whatever the daemon
   is doing. The requests are drawn before the loop starts, so the
   driver's own work does not delay them. Returns whether every answer
   came back before [deadline]. *)
let run_open c ~schedule ~start ~deadline ~on_idle =
  let next = ref 0 in
  let total = Array.length schedule in
  let tick now =
    while !next < total && start +. fst schedule.(!next) <= now do
      let due, req = schedule.(!next) in
      send c req ~phase:Open_loop ~due:(start +. due) ~now;
      incr next
    done;
    if !next < total then start +. fst schedule.(!next) else infinity
  in
  pump [ c ] ~tick ~finished:(fun () -> !next = total && quiet [ c ]) ~deadline ~on_idle

(* Closed loop: one request in flight per connection until [stop_at],
   then wait for the last answers. *)
let run_closed conns ~stop_at ~deadline ~on_idle =
  let tick now =
    if now < stop_at then
      List.iter
        (fun c ->
          if (not c.closed) && Queue.is_empty c.inflight then
            send c (Mix.next c.gen) ~phase:Closed_loop ~due:now ~now)
        conns;
    if now < stop_at then stop_at else infinity
  in
  pump conns ~tick
    ~finished:(fun () -> Clock.now () >= stop_at && quiet conns)
    ~deadline ~on_idle
