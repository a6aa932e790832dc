(** Request engine of the placement/migration daemon.

    Holds the server's mutable state — named sessions (topology +
    workload + current placement) and an LRU cache of all-pairs cost
    matrices keyed by {!Ppdc_topology.Graph.digest} — and turns one
    request line into one response line. Transports (stdio, Unix
    socket) own the framing; the engine never reads or writes a file
    descriptor, which is what makes the full protocol drivable from a
    unit test.

    {b Thread safety.} {!handle_line} may be called concurrently from
    any number of domains — the socket transport runs one call per
    worker. Internally (DESIGN.md §4e/§4j): sessions live in a
    {!Registry} sharded by a stable hash of the session name, one
    mutex per shard (lock class ["shard"]), so two creates or lookups
    contend only when their names share a shard; each session carries
    its own lock, so two requests against the same session serialize
    while distinct sessions run in parallel; the shared cost-matrix
    LRU has a dedicated mutex under which missing matrices are also
    built, so concurrent misses for one fabric wait for a single
    build; and a leaf stats mutex guards the per-method latency table
    (plain request counters are atomics). Lock order is always
    shard > session > cache > stats. Solver outputs are bit-identical
    to a sequential run — and independent of the shard count: handlers
    are deterministic given the session state they serialized on, and
    the {!Ppdc_prelude.Parallel} sections they use are
    schedule-independent by contract.

    {b Budgets, eviction and fairness.} [create] optionally bounds the
    registry: a global session budget, per-tenant session and byte
    budgets (tenant = session-name prefix before the first ['-']),
    enforced by LRU eviction whose victims are deterministic for a
    sequential workload at any shard count. A request naming an
    evicted session is answered with the structured [session_evicted]
    error; a tenant exceeding its in-flight request cap is answered
    [overloaded] before its handler starts. The [stats] result's
    [registry] and [fairness] sections expose the shard sizes and the
    eviction/rejection counters.

    The cost-matrix cache is the server's point: [load_topology] and
    [fail_links] are cheap (no all-pairs recompute), and each
    [place]/[migrate] resolves its matrix through the cache, so a warm
    query against a fabric the server has seen — including a
    previously seen degraded fabric, whose digest is remembered —
    skips the Θ(|V|²·log|V|) Dijkstra sweep entirely. [fail_links]
    additionally derives the degraded fabric's matrix {e incrementally}
    from the cached parent matrix
    ({!Ppdc_topology.Cost_matrix.repair_to}: copy the flat matrices,
    re-run Dijkstra only for sources whose shortest-path trees used a
    failed link) and installs it under the new digest, so the first
    [place] after a failure is already a warm hit. The [stats] result
    reports [cache.repairs] vs [cache.rebuilds] so a regression in the
    fast path is observable in production.

    Every request is counted and timed under an [Obs] span
    ([rpc.<method>]); cache traffic shows up as
    [server.cache.hits]/[server.cache.misses], and per-method latency
    is also aggregated into the [stats] result ([requests.latency_ms]).
    A malformed or failing request produces a structured error
    response and leaves the engine serving — no handler exception
    escapes {!handle_line}.

    Methods: [health], [load_topology], [place] and [migrate] (any
    {!Ppdc_sim.Solvers} entry of the kind, its declared parameters
    validated by the table), [rates_update], [fail_links],
    [simulate_events] (replay a discrete-event day under a trigger
    policy, on copies — the session state is untouched), [stats],
    [shutdown]. See DESIGN.md for the full parameter/result schema. *)

type t

val create :
  ?cache_capacity:int ->
  ?shards:int ->
  ?session_budget:int ->
  ?tenant_sessions:int ->
  ?tenant_bytes:int ->
  ?tenant_inflight:int ->
  unit ->
  t
(** Fresh engine with no sessions. [cache_capacity] (default 8) bounds
    the cost-matrix LRU; raises [Invalid_argument] if it is < 1.
    [shards] (default {!Ppdc_prelude.Parallel.domain_count}[ ()], i.e.
    [-j]/[PPDC_DOMAINS]) is rounded up to a power of two.
    [session_budget] bounds live sessions globally; [tenant_sessions]
    and [tenant_bytes] bound each tenant's session count and estimated
    resident bytes — all enforced by LRU eviction with structured
    [session_evicted] answers. [tenant_inflight] caps one tenant's
    concurrently executing handlers (excess answered [overloaded]).
    Omitted budgets are unlimited, which preserves the PR-4/5
    behavior exactly. *)

val handle_line : ?deadline:float -> t -> string -> string
(** Answer one request line with one response line (no trailing
    newline). Total: parse errors, unknown methods, bad parameters and
    handler exceptions all come back as [ok: false] responses.

    [deadline] is an absolute instant on the monotonic clock
    ({!Ppdc_prelude.Clock.now} timebase — immune to NTP steps, never
    mix with [Unix.gettimeofday]): if it has
    already passed when the request is about to dispatch, the handler
    is never started and the response is a [deadline_exceeded] error
    (id echoed). A request whose handler has begun always runs to
    completion — solvers are not preemptible — so the deadline is
    admission control against queueing delay, not an execution
    timeout. *)

type load = {
  workers : int;
  active_connections : int;
  queue_depth : int;
  rejected_connections : int;
}
(** Transport-side load gauges surfaced through the [stats] method. *)

val set_load_probe : t -> (unit -> load) -> unit
(** Install the transport's gauge snapshot; [stats] then includes a
    [server] section. Without a probe (e.g. [--stdio]) the section is
    omitted. *)

val overlong_response : string
(** The [line_too_long] error line a transport answers with when a
    request line exceeded its bound (the engine never sees the line,
    so the id is [null]). *)

val overloaded_response : string
(** The [overloaded] error line the socket transport writes to a
    connection it rejects because the worker pool and its pending
    queue are full (no request was read, so the id is [null]). *)

val stopped : t -> bool
(** True once a [shutdown] request has been answered; transports
    drain their current connection and stop accepting. *)

val set_registry_test_hook : t -> (string -> unit) option -> unit
(** Test-only ({!Registry.set_test_hook} on the engine's registry):
    runs inside the shard critical section of every session create, so
    a test can prove creates on distinct shards hold their shard locks
    concurrently. Never set this in production. *)
