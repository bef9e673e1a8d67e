//! The routing engine: placement, per-shard connections with
//! reconnect-and-replay, replica-set failover, the router-level response
//! cache, and per-session ordered response streams.
//!
//! ## Execution model
//!
//! A session (one per stdio pipe or TCP connection) decodes request
//! lines, answers what it can locally (parse errors, `ping`, `stats`,
//! router-cache hits), and forwards the rest to the shard that
//! [`crate::placement`] picks for the request's placement key. A request
//! that arrived as JSON is forwarded as its *original raw line*, so
//! shards decode exactly what the client sent; a binary partition
//! payload is rendered into its canonical JSON line only then, when it
//! is forwarded, never for a request the router answers itself. Each
//! session holds at most one connection per shard; responses come back in
//! FIFO order per connection and are re-sequenced into client submission
//! order by the session engine of [`mg_server::session`] — the same one a
//! shard runs, with [`RouteHandler`] as its request handler.
//!
//! ## Replication and failure handling
//!
//! With `--replicas R` (R > 1), placement returns the top-R rendezvous
//! ranks of a key instead of just the winner; a request goes to its
//! top-ranked replica that is currently believed alive. Liveness is
//! tracked per shard by a background prober (the protocol's `ping` op
//! under a read deadline) and by connection outcomes.
//!
//! Every forwarded-but-unanswered request stays in the connection's
//! pending queue. When a connection dies (EOF, read or write error, or —
//! when configured — an expired per-connection read deadline), the
//! reader thread redials and replays the queue in order; if the shard
//! stays unreachable through the configured attempts, the shard is
//! marked dead and each pending request **fails over**: it is replayed,
//! still in order, against its next-ranked live replica. Only when a
//! request exhausts its replica set does it fail with a typed
//! `shard_unavailable` error. The pending queue is also the backpressure
//! bound: submissions block while `window` requests are in flight to one
//! shard.
//!
//! ## Determinism
//!
//! Placement is a pure function of the request, shards are configured
//! identically, and the router cache only ever serves a byte-rewrite
//! (fresh id, `cached: true`) of a line some shard produced — so a
//! session's response stream is the same for 1 shard and K shards at any
//! thread count, **and failover is invisible**: any replica computes
//! byte-identical response bytes for a request, so a replayed request
//! returns exactly the line the dead replica would have produced (see
//! `PROTOCOL.md` § Routing for the exact contract).

use crate::cache::{cached_true_of, with_id, RouterKey};
use crate::config::Topology;
use crate::metrics::{
    dispatch_counter, health_transition, router_metrics, router_request_seconds, set_replicas,
    set_shard_alive,
};
use crate::placement::place_replicas;
use mg_core::service::{placement_key, ErrorCode, RequestOp};
use mg_core::{parse_backend, DEFAULT_BACKEND};
use mg_obs::trace::{self, RequestTrace};
use mg_server::codec;
use mg_server::json::obj;
use mg_server::session::{Handler, Host, Reply, SessionShared, Stats, Tally, TcpFront, Unit};
use mg_server::{protocol, Json, LruCache, Request};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the data from a poisoned lock: a panicking
/// worker must degrade to a typed `internal` error for its own request,
/// never abort every other session sharing the router state.
fn lock_ok<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_ok`].
fn wait_ok<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Largest number of forwarded-but-unanswered requests per shard
    /// connection; full ⇒ the session's reader blocks (backpressure).
    pub window: usize,
    /// Router-level LRU response cache capacity in entries; 0 disables.
    pub cache_capacity: usize,
    /// Backend assumed for cost estimation when a request carries no
    /// `backend` field. Must match the shards' default backend for the
    /// cost model to reflect what actually runs.
    pub default_backend: &'static str,
    /// Estimated-cost threshold ([`mg_core::PartitionBackend::estimated_cost`])
    /// above which a request counts shard capacity *squared* in placement,
    /// biasing heavy jobs toward larger shards.
    pub heavy_cost: u64,
    /// Dial attempts per connect/reconnect before a shard counts as down.
    pub connect_attempts: u32,
    /// Delay between dial attempts.
    pub retry_delay: Duration,
    /// Replication factor R: each key's top-R rendezvous ranks form its
    /// replica set. 1 (the default) preserves single-owner placement
    /// bit-for-bit and disables the health prober.
    pub replicas: usize,
    /// Period of the background health prober (`ping` per shard). Only
    /// runs when `replicas > 1`; `Duration::ZERO` disables it outright.
    pub probe_interval: Duration,
    /// Per-connection read deadline: a forwarded request unanswered this
    /// long marks the replica dead and triggers failover (or typed
    /// errors at `replicas == 1`). `None` (the default) waits forever,
    /// preserving historical behaviour. Set it above the worst-case job
    /// latency of the workload. Also bounds each probe's response wait.
    pub read_deadline: Option<Duration>,
    /// Slow-request trace sampler: an untraced partition request gets a
    /// speculative trace, kept only when its end-to-end latency reaches
    /// this threshold (`Duration::ZERO` keeps every request). `None`
    /// (the default) disables the sampler; explicitly traced requests
    /// are always recorded regardless.
    pub trace_slow: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            window: 64,
            cache_capacity: 128,
            default_backend: DEFAULT_BACKEND,
            heavy_cost: 10_000_000,
            connect_attempts: 5,
            retry_delay: Duration::from_millis(200),
            replicas: 1,
            probe_interval: Duration::from_millis(500),
            read_deadline: None,
            trace_slow: None,
        }
    }
}

impl RouterConfig {
    /// How long a probe waits for its `ping` reply.
    fn probe_deadline(&self) -> Duration {
        self.read_deadline.unwrap_or(Duration::from_secs(2))
    }
}

/// Per-session counters (the router-side analogue of
/// [`mg_server::SessionSummary`]). `received` and `forwarded` are counted
/// as requests decode and forward; `responses`, `cache_hits` and `errors`
/// come from the writer's tally over the response stream — the same
/// tally the session's router-local `stats` lines read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterSummary {
    /// Request lines decoded (including failed ones).
    pub received: u64,
    /// Responses written.
    pub responses: u64,
    /// Requests forwarded to a shard.
    pub forwarded: u64,
    /// `cached: true` responses, whether the router cache or a shard
    /// served them.
    pub cache_hits: u64,
    /// Error responses, whoever produced them: the router's decoder, a
    /// lost shard (`shard_unavailable`), a failed reader (`internal`) or
    /// a shard's own error line.
    pub errors: u64,
}

/// The router's threaded TCP front end: one routed session per
/// connection over the shared cache and pools. [`TcpFront::join`]
/// returns once an in-band `shutdown` (or [`Router::initiate_shutdown`])
/// stopped the router and every session drained.
pub type RouterTcpServer = TcpFront<Router>;

pub(crate) struct RouterCore {
    pub(crate) topology: Topology,
    pub(crate) config: RouterConfig,
    cache: Mutex<LruCache<RouterKey, String>>,
    /// Idle, reader-less connections per shard, reusable across sessions.
    pools: Vec<Mutex<Vec<TcpStream>>>,
    /// Believed liveness per shard: written by the prober and by
    /// connection outcomes, read by placement and failover.
    health: Vec<AtomicBool>,
    /// Total requests replayed onto a lower-ranked replica.
    failovers: AtomicU64,
    /// Open sessions on this router. The `stats` op samples it at decode
    /// time, so its value is deterministic per session script: a session
    /// always counts at least itself.
    sessions: AtomicU64,
    shutdown: AtomicBool,
    /// Guards the one-shot forwarding of `shutdown` to every shard.
    teardown_done: Mutex<bool>,
}

/// The background health prober's lifecycle handle.
struct Prober {
    /// `true` under the mutex once the router wants the prober gone; the
    /// condvar wakes it out of its between-rounds sleep immediately.
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Prober {
    fn stop(&mut self) {
        let (flag, wake) = &*self.stop;
        *lock_ok(flag) = true;
        wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A running router: validated topology + shared cache + connection
/// pools + (with `replicas > 1`) a background health prober. Sessions
/// attach via [`Router::run_session`] (pipe transports) or a
/// [`RouterTcpServer`].
pub struct Router {
    pub(crate) core: Arc<RouterCore>,
    prober: Option<Prober>,
}

impl Router {
    /// Builds a router over a validated topology. Fails (with a message)
    /// when `config.default_backend` is not a registered backend or
    /// `config.replicas` is 0.
    pub fn new(topology: Topology, mut config: RouterConfig) -> Result<Router, String> {
        config.default_backend = parse_backend(config.default_backend)?.name();
        if config.replicas == 0 {
            return Err("replicas must be at least 1".into());
        }
        let pools = (0..topology.len())
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let health = (0..topology.len()).map(|_| AtomicBool::new(true)).collect();
        let spawn_prober = config.replicas > 1 && !config.probe_interval.is_zero();
        let core = Arc::new(RouterCore {
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            pools,
            health,
            failovers: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            teardown_done: Mutex::new(false),
            topology,
            config,
        });
        // Register the router's metric families eagerly: the exposition
        // endpoint reports failover/replica/liveness diagnostics from
        // startup, unconditionally — unlike the deterministic `stats`
        // line, which only mentions replicas once something is dead.
        let _ = router_metrics();
        set_replicas(core.config.replicas);
        for shard in core.topology.shards() {
            set_shard_alive(&shard.id, true);
        }
        let prober = if spawn_prober {
            let stop = Arc::new((Mutex::new(false), Condvar::new()));
            let handle = std::thread::Builder::new()
                .name("mg-router-prober".into())
                .spawn({
                    let core = core.clone();
                    let stop = stop.clone();
                    move || probe_loop(&core, &stop)
                })
                .map_err(|e| format!("spawning health prober: {e}"))?;
            Some(Prober {
                stop,
                handle: Some(handle),
            })
        } else {
            None
        };
        Ok(Router { core, prober })
    }

    /// The validated topology.
    pub fn topology(&self) -> &Topology {
        &self.core.topology
    }

    /// The believed liveness of the shard named `id` (`None` when the id
    /// is not in the topology). Always `true` at `replicas == 1` startup;
    /// flips with prober results and connection outcomes.
    pub fn shard_alive(&self, id: &str) -> Option<bool> {
        let index = self.core.topology.index_of(id)?;
        Some(self.core.health[index].load(Ordering::SeqCst))
    }

    /// Total requests replayed onto a lower-ranked replica so far
    /// (router-wide, monotone).
    pub fn failovers(&self) -> u64 {
        self.core.failovers.load(Ordering::SeqCst)
    }

    /// Dials every shard once (with the configured retries), parking the
    /// connections in the pools — the startup barrier of `mgpart route`,
    /// so a mistyped address fails before the first request.
    pub fn connect_all(&self) -> Result<(), String> {
        for (index, shard) in self.core.topology.shards().iter().enumerate() {
            let stream = self.core.dial(index).map_err(|e| {
                format!("connecting to shard {:?} at {}: {e}", shard.id, shard.addr)
            })?;
            lock_ok(&self.core.pools[index]).push(stream);
        }
        Ok(())
    }

    /// `true` once an in-band `shutdown` has been observed.
    pub fn is_shutting_down(&self) -> bool {
        self.core.shutdown.load(Ordering::SeqCst)
    }

    /// Stops accepting forwarded work (the out-of-band analogue of the
    /// `shutdown` op; does not contact the shards).
    pub fn initiate_shutdown(&self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
    }

    /// Runs one full session over a generic byte transport (pipe mode):
    /// requests are read from `input` on the calling thread, responses
    /// stream to `output` from a writer thread in submission order.
    /// Returns when the input is exhausted (EOF or in-band `shutdown`)
    /// and every response has been written.
    pub fn run_session<R: Read, W: Write + Send>(&self, input: R, output: W) -> RouterSummary {
        let done = self.serve(input, output);
        RouterSummary {
            received: done.received,
            responses: done.tally.responses,
            forwarded: done.handler.forwarded,
            cache_hits: done.tally.cache_hits,
            errors: done.tally.errors,
        }
    }
}

impl Host for Router {
    type Handler = RouteHandler;
    const NAME: &'static str = "router";

    fn open(&self) -> RouteHandler {
        let core = self.core.clone();
        let shards = core.topology.len();
        core.sessions.fetch_add(1, Ordering::SeqCst);
        router_metrics().sessions_live.inc();
        RouteHandler {
            session: Arc::new(SessionState {
                core,
                slots: SessionShared::new(),
                conns: Mutex::new((0..shards).map(|_| None).collect()),
            }),
            forwarded: 0,
        }
    }

    fn is_shutting_down(&self) -> bool {
        Router::is_shutting_down(self)
    }

    fn initiate_shutdown(&self) {
        Router::initiate_shutdown(self);
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if let Some(prober) = &mut self.prober {
            prober.stop();
        }
    }
}

impl RouterCore {
    fn dial(&self, shard: usize) -> std::io::Result<TcpStream> {
        let addr = &self.topology.shards()[shard].addr;
        let mut last = None;
        for attempt in 0..self.config.connect_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.config.retry_delay);
            }
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| std::io::Error::other("no attempts made")))
    }

    /// A connection for `shard`: pooled if available, freshly dialed
    /// otherwise.
    fn take_connection(&self, shard: usize) -> std::io::Result<TcpStream> {
        if let Some(stream) = lock_ok(&self.pools[shard]).pop() {
            return Ok(stream);
        }
        self.dial(shard)
    }

    fn return_connection(&self, shard: usize, stream: TcpStream) {
        lock_ok(&self.pools[shard]).push(stream);
    }

    fn alive(&self, shard: usize) -> bool {
        self.health[shard].load(Ordering::SeqCst)
    }

    fn mark_alive(&self, shard: usize, alive: bool) {
        let was = self.health[shard].swap(alive, Ordering::SeqCst);
        if was != alive {
            let id = &self.topology.shards()[shard].id;
            health_transition(id, alive);
            let level = if alive {
                mg_obs::Level::Info
            } else {
                mg_obs::Level::Warn
            };
            mg_obs::log::event(
                level,
                "shard_health",
                &[("shard", id.as_str().into()), ("alive", alive.into())],
            );
        }
    }

    /// Ids of the shards currently believed dead, in topology order.
    fn dead_ids(&self) -> Vec<String> {
        self.topology
            .shards()
            .iter()
            .enumerate()
            .filter(|(index, _)| !self.alive(*index))
            .map(|(_, spec)| spec.id.clone())
            .collect()
    }

    /// Forwards `shutdown` to every shard exactly once (whichever session
    /// gets there first wins), draining each: the shard answers all
    /// earlier requests on the connection, acks the shutdown, and exits.
    /// `session_conns` donates the calling session's live (drained)
    /// connections so shards are not redialed needlessly. Shards believed
    /// dead are skipped rather than redialed — a torn-down topology must
    /// not stall on its casualties.
    fn teardown_shards(&self, mut session_conns: Vec<Option<TcpStream>>) {
        let mut done = lock_ok(&self.teardown_done);
        if *done {
            return;
        }
        *done = true;
        session_conns.resize_with(self.topology.len(), || None);
        for (index, slot) in session_conns.iter_mut().enumerate() {
            let stream = slot
                .take()
                .or_else(|| lock_ok(&self.pools[index]).pop())
                .or_else(|| {
                    if self.alive(index) {
                        self.dial(index).ok()
                    } else {
                        None
                    }
                });
            let Some(mut stream) = stream else { continue };
            if stream.write_all(b"{\"op\":\"shutdown\"}\n").is_err() || stream.flush().is_err() {
                continue;
            }
            let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
            // Await the ack so the shard has fully drained before we
            // report our own shutdown; the content is irrelevant.
            let mut ack = String::new();
            let _ = BufReader::new(stream).read_line(&mut ack);
        }
    }
}

/// The background health prober: one `ping` per shard per round over the
/// prober's own connections (never the session pools), each answered
/// within [`RouterConfig::probe_deadline`] or the shard is marked dead.
/// A later successful probe re-admits a flapped replica.
fn probe_loop(core: &Arc<RouterCore>, stop: &Arc<(Mutex<bool>, Condvar)>) {
    let mut conns: Vec<Option<BufReader<TcpStream>>> = Vec::new();
    conns.resize_with(core.topology.len(), || None);
    loop {
        for (shard, slot) in conns.iter_mut().enumerate() {
            if *lock_ok(&stop.0) {
                return;
            }
            let alive = probe_once(core, shard, slot);
            core.mark_alive(shard, alive);
        }
        let (flag, wake) = &**stop;
        let guard = lock_ok(flag);
        let (guard, _) = wake
            .wait_timeout(guard, core.config.probe_interval)
            .unwrap_or_else(PoisonError::into_inner);
        if *guard {
            return;
        }
    }
}

/// One probe: dial (if needed), send `ping`, await any response line
/// under the probe deadline. Any failure drops the probe connection so
/// the next round starts from a clean dial.
fn probe_once(core: &RouterCore, shard: usize, slot: &mut Option<BufReader<TcpStream>>) -> bool {
    if slot.is_none() {
        let Ok(stream) = TcpStream::connect(&core.topology.shards()[shard].addr) else {
            return false;
        };
        let _ = stream.set_nodelay(true);
        *slot = Some(BufReader::new(stream));
    }
    let reader = slot.as_mut().expect("just installed");
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(core.config.probe_deadline()));
    let mut w = reader.get_ref();
    let written = w.write_all(b"{\"op\":\"ping\"}\n").is_ok() && w.flush().is_ok();
    let mut line = String::new();
    let alive = written && matches!(reader.read_line(&mut line), Ok(n) if n > 0);
    if !alive {
        *slot = None;
    }
    alive
}

/// One dispatch leg of a traced entry: the span covering
/// enqueue-on-a-connection through delivery. Failover opens a fresh leg
/// parented under its `failover_replay` span.
#[derive(Clone, Copy)]
struct EntryTrace {
    req: RequestTrace,
    /// Pre-allocated `dispatch` span id — stamped into the forwarded
    /// line so shard-side spans parent under this leg.
    dispatch_span: u64,
    dispatch_parent: u64,
    dispatch_us: u64,
    dispatch_at: Instant,
}

impl EntryTrace {
    /// Opens a dispatch leg under span `parent` and returns it with `raw`
    /// stamped with the leg's propagation context, so the shard's spans
    /// parent under this leg.
    fn open(req: RequestTrace, parent: u64, raw: &str) -> (EntryTrace, Arc<str>) {
        let leg = EntryTrace {
            req,
            dispatch_span: trace::next_span_id(),
            dispatch_parent: parent,
            dispatch_us: trace::now_us(),
            dispatch_at: Instant::now(),
        };
        let stamped = stamp_trace(raw, req.ctx.trace_id, leg.dispatch_span);
        (leg, stamped.into())
    }
}

/// One forwarded-but-unanswered request.
struct PendingEntry {
    /// Session submission index (the response slot to fill).
    index: u64,
    /// The request line a replay resends: the original bytes, except
    /// that traced entries carry the router's propagated `trace` field.
    raw: Arc<str>,
    /// Router-cache key for cacheable (partition) requests.
    key: Option<RouterKey>,
    /// The request id, kept so a failure response can echo it without
    /// re-parsing the raw line.
    id: Json,
    /// Lower-ranked replicas still untried, best first — where this
    /// request fails over if the current shard dies. Empty at
    /// `replicas == 1`.
    fallbacks: Vec<usize>,
    /// When the entry was (re)written to the current connection; the
    /// read-deadline clock.
    enqueued: Instant,
    /// When the session admitted the entry; the latency-histogram clock.
    started: Instant,
    /// Trace state, present when the request is explicitly traced or
    /// the slow-request sampler is on.
    trace: Option<EntryTrace>,
}

/// Returns `raw` with its top-level `"trace"` field inserted or
/// replaced by the router's propagation context, so shard-side spans
/// parent under the router's `dispatch` leg. Falls back to the
/// unstamped line if `raw` fails to re-parse (the shard then records a
/// trace rooted at the client's context, or none at all).
fn stamp_trace(raw: &str, trace_id: u128, parent: u64) -> String {
    let Ok(mut doc) = Json::parse(raw) else {
        return raw.to_string();
    };
    let Json::Obj(fields) = &mut doc else {
        return raw.to_string();
    };
    let stamped = obj(vec![
        ("id", Json::Str(trace::trace_id_hex(trace_id))),
        ("parent", Json::Str(trace::span_id_hex(parent))),
    ]);
    match fields.iter_mut().find(|(k, _)| k == "trace") {
        Some((_, v)) => *v = stamped,
        None => fields.push(("trace".into(), stamped)),
    }
    doc.to_string()
}

/// Records the current `dispatch` leg of a traced entry — called
/// exactly once per leg, where the leg ends (delivery, connection
/// death, or reader failure).
fn record_entry_dispatch(entry: &PendingEntry) {
    if let Some(t) = &entry.trace {
        trace::record_span(
            t.req.ctx.trace_id,
            t.dispatch_span,
            Some(t.dispatch_parent),
            "dispatch",
            t.dispatch_us,
            t.dispatch_at.elapsed(),
        );
    }
}

/// State shared between a session and one shard-connection reader thread.
struct ConnShared {
    /// The live stream; the reader swaps it on reconnect, the session
    /// writes requests through it. Lock order: `stream` before `pending`.
    stream: Mutex<TcpStream>,
    pending: Mutex<VecDeque<PendingEntry>>,
    /// Signalled whenever `pending` shrinks (window space / drain).
    space: Condvar,
    /// Session is over; exit once `pending` is empty.
    stop: AtomicBool,
    /// The connection failed for good (reconnects exhausted); pending
    /// requests were failed over or failed with `shard_unavailable`.
    dead: AtomicBool,
}

impl ConnShared {
    /// Marks the connection dead and takes its pending entries. `dead` is
    /// set under the pending lock so a racing `forward` either sees the
    /// flag before enqueueing or its entry is taken here — never an
    /// orphaned request.
    fn kill(&self) -> Vec<PendingEntry> {
        let drained = {
            let mut pending = lock_ok(&self.pending);
            self.dead.store(true, Ordering::SeqCst);
            pending.drain(..).collect()
        };
        self.space.notify_all();
        drained
    }
}

struct ShardConn {
    shared: Arc<ConnShared>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl ShardConn {
    /// Stops the reader (it notices within its read timeout) and joins
    /// it, returning the stream if the connection is still clean enough
    /// to pool (no pending, not dead).
    fn retire(mut self) -> Option<TcpStream> {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let clean =
            !self.shared.dead.load(Ordering::SeqCst) && lock_ok(&self.shared.pending).is_empty();
        if !clean {
            return None;
        }
        let stream = lock_ok(&self.shared.stream);
        stream.try_clone().ok()
    }
}

/// A router-local `stats` request, rendered by the writer: the
/// decode-time counters plus the tally of every preceding response.
pub struct RouterStats {
    id: Json,
    received: u64,
    /// Open sessions on the router, sampled at decode time (≥ 1: the
    /// asking session counts itself).
    sessions: u64,
    /// Present when the router runs replicated (`replicas > 1`): lets the
    /// writer sample replica health at delivery time, after every earlier
    /// response (and thus every failover that produced one) has resolved.
    core: Option<Arc<RouterCore>>,
}

impl Stats for RouterStats {
    fn render(self, tally: &Tally, outstanding: u64) -> String {
        let mut fields = vec![
            ("id", self.id),
            ("status", Json::Str("ok".into())),
            ("op", Json::Str("stats".into())),
            ("received", Json::UInt(self.received)),
            ("cache_hits", Json::UInt(tally.cache_hits)),
            ("errors", Json::UInt(tally.errors)),
            ("sessions", Json::UInt(self.sessions)),
            ("queue_depth", Json::UInt(outstanding)),
        ];
        // Replica diagnostics, only when something is actually dead: a
        // healthy replicated topology reports byte-identically to an
        // unreplicated one.
        if let Some(core) = self.core {
            let dead = core.dead_ids();
            if !dead.is_empty() {
                fields.push(("replicas", Json::UInt(core.config.replicas as u64)));
                fields.push(("dead", Json::Arr(dead.into_iter().map(Json::Str).collect())));
                fields.push((
                    "failovers",
                    Json::UInt(core.failovers.load(Ordering::SeqCst)),
                ));
            }
        }
        obj(fields).to_string()
    }
}

/// The connection table of one session, shared with its reader threads
/// so a dying connection can fail its pending requests over to other
/// replicas (which may need fresh connections) from the reader itself.
struct SessionState {
    core: Arc<RouterCore>,
    slots: Arc<SessionShared<RouterStats>>,
    conns: Mutex<Vec<Option<ShardConn>>>,
}

impl SessionState {
    /// The session's connection to `shard`, creating or reviving it as
    /// needed (pool first, fresh dial second). Callable from the session
    /// thread and from failing-over reader threads alike.
    fn connection(self: &Arc<Self>, shard: usize) -> std::io::Result<Arc<ConnShared>> {
        loop {
            let stale = {
                let mut conns = lock_ok(&self.conns);
                match &conns[shard] {
                    Some(conn) if !conn.shared.dead.load(Ordering::SeqCst) => {
                        return Ok(conn.shared.clone());
                    }
                    // Revive: retire the dead reader outside the table
                    // lock (retire joins the reader, which may itself be
                    // waiting on the table while failing over).
                    Some(_) => conns[shard].take(),
                    None => None,
                }
            };
            if let Some(stale) = stale {
                stale.retire();
                continue;
            }
            let stream = self.core.take_connection(shard)?;
            let shared = Arc::new(ConnShared {
                stream: Mutex::new(stream),
                pending: Mutex::new(VecDeque::new()),
                space: Condvar::new(),
                stop: AtomicBool::new(false),
                dead: AtomicBool::new(false),
            });
            let reader = std::thread::Builder::new()
                .name(format!("mg-router-shard-{shard}"))
                .spawn({
                    let session = self.clone();
                    let conn = shared.clone();
                    move || reader_thread(&session, shard, &conn)
                })?;
            let ours = ShardConn {
                shared: shared.clone(),
                reader: Some(reader),
            };
            let stale = {
                let mut conns = lock_ok(&self.conns);
                match &conns[shard] {
                    // Lost an install race against another thread whose
                    // connection is live: keep theirs, retire ours.
                    Some(existing) if !existing.shared.dead.load(Ordering::SeqCst) => {
                        let winner = existing.shared.clone();
                        drop(conns);
                        if let Some(stream) = ours.retire() {
                            self.core.return_connection(shard, stream);
                        }
                        return Ok(winner);
                    }
                    _ => {
                        let stale = conns[shard].take();
                        conns[shard] = Some(ours);
                        stale
                    }
                }
            };
            if let Some(stale) = stale {
                stale.retire();
            }
            return Ok(shared);
        }
    }

    /// Fails a lost connection: marks the shard dead (for placement and
    /// the prober to re-admit later), drains the pending queue, and
    /// replays each entry against its next-ranked live replica — typed
    /// `shard_unavailable` errors only for entries whose replica set is
    /// exhausted.
    fn fail_over(self: &Arc<Self>, shard: usize, conn: &ConnShared) {
        self.core.mark_alive(shard, false);
        for entry in conn.kill() {
            self.dispatch_failover(entry, shard);
        }
    }

    /// Replays one orphaned entry on the best remaining replica, walking
    /// down the ranking as candidates fail.
    fn dispatch_failover(self: &Arc<Self>, mut entry: PendingEntry, mut last_shard: usize) {
        // The leg on the dead connection ends here, whatever happens to
        // the entry next.
        record_entry_dispatch(&entry);
        loop {
            let Some(next) = next_candidate(&self.core, &mut entry.fallbacks) else {
                self.fail_entry(entry, last_shard);
                return;
            };
            let from = last_shard;
            last_shard = next;
            // A traced replay rides under a `failover_replay` span: a
            // fresh dispatch leg parented to it, restamped into the
            // resent line so the surviving shard's spans link back
            // through the replay.
            let replay = entry.trace.map(|t| {
                let span = t.req.ctx.child();
                let (leg, raw) = EntryTrace::open(t.req, span.span_id, &entry.raw);
                entry.raw = raw;
                entry.trace = Some(leg);
                (span, leg.dispatch_us, leg.dispatch_at)
            });
            match self.replay_entry(next, entry) {
                Ok(()) => {
                    if let Some((span, start_us, at)) = replay {
                        trace::record_span(
                            span.trace_id,
                            span.span_id,
                            span.parent_id,
                            "failover_replay",
                            start_us,
                            at.elapsed(),
                        );
                    }
                    self.core.failovers.fetch_add(1, Ordering::SeqCst);
                    router_metrics().failovers.inc();
                    mg_obs::log::warn(
                        "router_failover",
                        &[
                            (
                                "from_shard",
                                self.core.topology.shards()[from].id.as_str().into(),
                            ),
                            (
                                "to_shard",
                                self.core.topology.shards()[next].id.as_str().into(),
                            ),
                        ],
                    );
                    return;
                }
                Err(returned) => {
                    self.core.mark_alive(next, false);
                    entry = *returned;
                }
            }
        }
    }

    /// Enqueues and writes an already-admitted entry on `shard`'s
    /// connection. No window wait: the entry consumed its backpressure
    /// budget when the session first admitted it, and failover must not
    /// park one reader thread on another connection's window.
    fn replay_entry(
        self: &Arc<Self>,
        shard: usize,
        entry: PendingEntry,
    ) -> Result<(), Box<PendingEntry>> {
        match self.connection(shard) {
            Ok(conn) => send(&conn, entry),
            Err(_) => Err(Box::new(entry)),
        }
    }

    /// Resolves a forwarded entry's slot: closes its trace, observes the
    /// per-shard latency, and takes it off the outstanding counts
    /// *before* the slot resolves — the writer samples `outstanding` when
    /// it renders a `stats` slot, which it reaches only after every
    /// preceding slot resolved, so decrementing first keeps the sampled
    /// value deterministic.
    fn settle(&self, entry: &PendingEntry, shard: usize, reply: Reply) {
        if let Some(t) = &entry.trace {
            t.req.close();
        }
        router_request_seconds(&self.core.topology.shards()[shard].id)
            .observe(entry.started.elapsed().as_secs_f64());
        self.slots.outstanding.fetch_sub(1, Ordering::SeqCst);
        router_metrics().pending.dec();
        self.slots.resolve(entry.index, reply);
    }

    /// Resolves an entry whose replica set is exhausted with the typed
    /// `shard_unavailable` error naming the last shard that owned it.
    fn fail_entry(&self, entry: PendingEntry, shard: usize) {
        let spec = &self.core.topology.shards()[shard];
        let line = protocol::error_response(
            &entry.id,
            ErrorCode::ShardUnavailable,
            &format!(
                "shard {:?} at {} became unreachable; request lost after replay attempts",
                spec.id, spec.addr
            ),
            Some(&spec.id),
        );
        // The current leg was already recorded by `dispatch_failover`.
        self.settle(&entry, shard, Reply::error(line));
    }

    /// Resolves every pending entry of a conn with a typed `internal`
    /// error — the degraded (but draining) outcome of a panicked reader.
    fn fail_internal(&self, shard: usize, conn: &ConnShared) {
        let spec = &self.core.topology.shards()[shard];
        for entry in conn.kill() {
            let line = protocol::error_response(
                &entry.id,
                ErrorCode::Internal,
                &format!("router worker for shard {:?} failed; request lost", spec.id),
                Some(&spec.id),
            );
            record_entry_dispatch(&entry);
            self.settle(&entry, shard, Reply::error(line));
        }
    }

    /// Matches one shard response line with the oldest pending request:
    /// stores cacheable successes in the router cache (as their
    /// `cached: true` variant), records the entry's dispatch leg, and
    /// settles its slot.
    fn deliver_response(&self, shard: usize, conn: &ConnShared, line: String) {
        let entry = {
            let mut pending = lock_ok(&conn.pending);
            let entry = pending.pop_front();
            conn.space.notify_all();
            entry
        };
        let Some(entry) = entry else {
            // A response with no matching request: protocol violation;
            // drop the line rather than corrupting slot order.
            return;
        };
        // One parse per response line: metadata and the cache-stored
        // rewrite both come from this document.
        let doc = Json::parse(&line).ok();
        let field = |name: &str| doc.as_ref().and_then(|d| d.get(name));
        let status = field("status").and_then(Json::as_str).unwrap_or("");
        let cached = field("cached").and_then(Json::as_bool).unwrap_or(false);
        let error = status == "error";
        if status == "ok" {
            if let (Some(key), Some(doc)) = (entry.key, &doc) {
                if let Some(stored) = cached_true_of(doc) {
                    lock_ok(&self.core.cache).insert(key, stored);
                }
            }
        }
        record_entry_dispatch(&entry);
        let reply = Reply {
            line,
            cached,
            error,
            ..Reply::default()
        };
        self.settle(&entry, shard, reply);
    }
}

/// Enqueues `entry` on `conn` and writes its line, both under the stream
/// lock, so the wire order always equals the pending order (what a replay
/// resends). The dead-check happens under the pending lock, mirroring the
/// reader's idle-EOF retirement, so no entry lands on a retired
/// connection unseen; the entry comes back if the connection is dead. A
/// failed write pokes the reader — shuts the read half down — so
/// reconnect-and-replay (or failover) picks up the now-pending entry.
fn send(conn: &ConnShared, mut entry: PendingEntry) -> Result<(), Box<PendingEntry>> {
    let raw = entry.raw.clone();
    let stream = lock_ok(&conn.stream);
    {
        let mut pending = lock_ok(&conn.pending);
        if conn.dead.load(Ordering::SeqCst) {
            return Err(Box::new(entry));
        }
        entry.enqueued = Instant::now();
        pending.push_back(entry);
    }
    if !write_line(&stream, &raw) {
        let _ = stream.shutdown(std::net::Shutdown::Read);
    }
    Ok(())
}

/// Writes one request line; `false` when the connection failed.
fn write_line(mut stream: &TcpStream, line: &str) -> bool {
    stream.write_all(line.as_bytes()).is_ok()
        && stream.write_all(b"\n").is_ok()
        && stream.flush().is_ok()
}

/// Removes and returns the best remaining candidate: the first replica
/// currently believed alive, or — when everything looks dead — the first
/// remaining one (the dial will be the judge). `None` when exhausted.
fn next_candidate(core: &RouterCore, fallbacks: &mut Vec<usize>) -> Option<usize> {
    if fallbacks.is_empty() {
        return None;
    }
    let position = fallbacks
        .iter()
        .position(|&shard| core.alive(shard))
        .unwrap_or(0);
    Some(fallbacks.remove(position))
}

/// Reader half of one shard connection, with a panic firewall: a
/// panicking reader resolves its pending requests with typed `internal`
/// errors instead of hanging the session (the writer would otherwise
/// wait forever on the orphaned slots).
fn reader_thread(session: &Arc<SessionState>, shard: usize, conn: &Arc<ConnShared>) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        reader_loop(session, shard, conn);
    }));
    if outcome.is_err() {
        session.fail_internal(shard, conn);
    }
}

/// Reader loop body: pairs response lines with the FIFO pending queue,
/// fills session slots, feeds the router cache, and owns
/// reconnect-and-replay plus the failover hand-off.
fn reader_loop(session: &Arc<SessionState>, shard: usize, conn: &Arc<ConnShared>) {
    let core = &session.core;
    'connection: loop {
        let handle = {
            let stream = lock_ok(&conn.stream);
            match stream.try_clone() {
                Ok(h) => h,
                Err(_) => {
                    session.fail_over(shard, conn);
                    return;
                }
            }
        };
        let _ = handle.set_read_timeout(Some(Duration::from_millis(50)));
        let mut reader = BufReader::new(handle);
        let mut buf: Vec<u8> = Vec::new();
        loop {
            let idle = lock_ok(&conn.pending).is_empty();
            if conn.stop.load(Ordering::SeqCst) && idle {
                return;
            }
            // Read-deadline: a connection that owes its oldest response
            // for longer than the deadline is hung — mark the replica
            // dead and fail over (a hung shard accepts connections, so
            // reconnect-and-replay would just hang again).
            if let Some(deadline) = core.config.read_deadline {
                let expired = lock_ok(&conn.pending)
                    .front()
                    .is_some_and(|entry| entry.enqueued.elapsed() > deadline);
                if expired {
                    session.fail_over(shard, conn);
                    return;
                }
            }
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) => {
                    // Shard closed the connection. Idle close (e.g. a
                    // shard restarting) just retires this reader; a close
                    // with pending work triggers reconnect-and-replay.
                    // `dead` is set under the pending lock so a racing
                    // `forward` either sees the flag before enqueueing or
                    // its entry is seen here — never an orphaned request.
                    let retired = {
                        let pending = lock_ok(&conn.pending);
                        if pending.is_empty() {
                            conn.dead.store(true, Ordering::SeqCst);
                            true
                        } else {
                            false
                        }
                    };
                    if retired {
                        return;
                    }
                    if !reconnect_and_replay(core, shard, conn) {
                        session.fail_over(shard, conn);
                        return;
                    }
                    buf.clear();
                    continue 'connection;
                }
                Ok(_) => {
                    if buf.last() != Some(&b'\n') {
                        // Timeout mid-line: keep the prefix and retry.
                        continue;
                    }
                    let line = String::from_utf8_lossy(&buf)
                        .trim_end_matches(['\r', '\n'])
                        .to_string();
                    buf.clear();
                    session.deliver_response(shard, conn, line);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    if !reconnect_and_replay(core, shard, conn) {
                        session.fail_over(shard, conn);
                        return;
                    }
                    buf.clear();
                    continue 'connection;
                }
            }
        }
    }
}

/// Redials the shard and replays the pending queue in order. Returns
/// `false` when the shard stayed unreachable through the configured
/// attempts.
fn reconnect_and_replay(core: &RouterCore, shard: usize, conn: &ConnShared) -> bool {
    let Ok(fresh) = core.dial(shard) else {
        return false;
    };
    let mut stream = lock_ok(&conn.stream);
    let mut pending = lock_ok(&conn.pending);
    let now = Instant::now();
    for entry in pending.iter_mut() {
        if fresh.peer_addr().is_err() || !write_line(&fresh, &entry.raw) {
            return false;
        }
        // The deadline clock restarts with the rewrite.
        entry.enqueued = now;
    }
    *stream = fresh;
    true
}

/// A routed session's request handler: answers `ping`, router-local
/// `stats`, decode errors and router-cache hits itself and forwards the
/// rest to shards, whose reader threads resolve the session's slots.
pub struct RouteHandler {
    session: Arc<SessionState>,
    /// Requests forwarded to a shard.
    forwarded: u64,
}

impl Handler for RouteHandler {
    type Stats = RouterStats;

    fn shared(&self) -> &Arc<SessionShared<RouterStats>> {
        &self.session.slots
    }

    fn handle(&mut self, unit: Unit, request: Request, line: Option<&str>) -> bool {
        match request.op {
            RequestOp::Ping => {
                let line = protocol::op_response(&request.id, "ping");
                self.session.slots.resolve(unit.index, Reply::ok(line));
            }
            RequestOp::Stats => self.handle_stats(unit, request, line),
            RequestOp::Shutdown => {
                self.handle_shutdown(unit.index, &request.id);
                return false;
            }
            RequestOp::Hello => unreachable!("the session engine answers hello"),
            RequestOp::Partition => self.route_partition(unit.index, &request, line),
        }
        true
    }

    fn admitted(&mut self) {
        router_metrics().requests.inc();
    }

    /// Ends the session: waits out in-flight forwards (including requests
    /// in failover limbo between two pending queues), then retires the
    /// connections, pooling the clean ones.
    fn finish(&mut self) {
        self.session.slots.drain_resolved(None);
        for (shard, stream) in self.retire_connections().into_iter().enumerate() {
            if let Some(stream) = stream {
                if !self.core().shutdown.load(Ordering::SeqCst) {
                    self.core().return_connection(shard, stream);
                }
            }
        }
    }
}

impl RouteHandler {
    fn core(&self) -> &Arc<RouterCore> {
        &self.session.core
    }

    fn local_error(
        &self,
        index: u64,
        id: &Json,
        code: ErrorCode,
        message: &str,
        shard: Option<&str>,
    ) {
        let line = protocol::error_response(id, code, message, shard);
        self.session.slots.resolve(index, Reply::error(line));
    }

    /// `stats` without a `shard` field is answered by the router itself
    /// (topology-independent, deferred to the writer); with one — decoded
    /// and validated by the protocol codec — the request is forwarded to
    /// the named shard, whose response carries its own counters and
    /// `shard` tag.
    fn handle_stats(&mut self, unit: Unit, request: Request, line: Option<&str>) {
        let Some(name) = &request.shard else {
            let stats = RouterStats {
                id: request.id,
                received: unit.received,
                sessions: self.core().sessions.load(Ordering::SeqCst),
                core: (self.core().config.replicas > 1).then(|| self.core().clone()),
            };
            self.session.slots.defer(unit.index, stats);
            return;
        };
        match self.core().topology.index_of(name) {
            Some(shard) => self.forward(
                &ForwardReq {
                    index: unit.index,
                    raw: &forward_line(&request, line),
                    key: None,
                    id: &request.id,
                    rt: None,
                },
                vec![shard],
            ),
            None => {
                let message = format!(
                    "no shard named {name:?} in the topology ({})",
                    self.core()
                        .topology
                        .shards()
                        .iter()
                        .map(|s| s.id.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                self.local_error(
                    unit.index,
                    &request.id,
                    ErrorCode::UnknownShard,
                    &message,
                    None,
                );
            }
        }
    }

    /// Routes a partition request: answers it from the router cache when
    /// it can, forwards it to its replica set otherwise. `line` is the
    /// request's text when it arrived as JSON.
    fn route_partition(&mut self, index: u64, request: &Request, line: Option<&str>) {
        let id = &request.id;
        let spec = request
            .spec
            .as_ref()
            .expect("partition requests carry a spec");
        let started = Instant::now();
        // The router's root `request` span, parented under the client's
        // context when the request arrived traced, or a speculative
        // sampler trace when `trace_slow` is set.
        let rt = RequestTrace::open(
            request.trace,
            self.core().config.trace_slow,
            trace::now_us(),
            started,
        );
        let rejected = if self.core().shutdown.load(Ordering::SeqCst) {
            Err((
                ErrorCode::ShuttingDown,
                "router is draining; request rejected".to_string(),
            ))
        } else {
            placement_key(&spec.matrix)
        };
        let placement = match rejected {
            Ok(placement) => placement,
            Err((code, message)) => {
                self.local_error(index, id, code, &message, None);
                if let Some(rt) = &rt {
                    rt.close();
                }
                return;
            }
        };
        // The `route` span covers the synchronous routing decision:
        // placement, cache lookup, replica ranking.
        let route_span = rt.map(|rt| (rt, rt.ctx.child()));
        let close_route = || {
            if let Some((rt, rs)) = &route_span {
                let elapsed = rt.started.elapsed();
                trace::record_span(
                    rs.trace_id,
                    rs.span_id,
                    rs.parent_id,
                    "route",
                    rt.start_us,
                    elapsed,
                );
            }
        };
        let key: RouterKey = (
            placement.key,
            spec.method,
            spec.backend,
            spec.epsilon.to_bits(),
            spec.seed,
            spec.include_partition,
        );
        let lookup_us = trace::now_us();
        let lookup_at = Instant::now();
        let stored = lock_ok(&self.core().cache).get(&key).cloned();
        if let Some((_, rs)) = &route_span {
            trace::record_child(rs, "cache_lookup", lookup_us, lookup_at.elapsed());
        }
        if let Some(line) = stored.and_then(|stored| with_id(&stored, id)) {
            router_metrics().cache_hits.inc();
            let reply = Reply {
                cached: true,
                ..Reply::ok(line)
            };
            self.session.slots.resolve(index, reply);
            close_route();
            if let Some(rt) = &rt {
                rt.close();
            }
            router_request_seconds("router").observe(started.elapsed().as_secs_f64());
            return;
        }
        // Pre-validated: the request field by the protocol decoder, the
        // default by Router::new.
        let backend = parse_backend(spec.backend.unwrap_or(self.core().config.default_backend))
            .expect("backend names are validated at decode/config time");
        let heavy = placement
            .matrix
            .as_ref()
            .is_some_and(|m| backend.estimated_cost(m) >= self.core().config.heavy_cost);
        let replicas = self.core().config.replicas;
        let ranked = place_replicas(
            placement.key,
            self.core().topology.shards(),
            heavy,
            replicas,
        );
        // Close `route` before the forward: the dispatch leg owns the
        // enqueue-through-delivery window, and a speculative trace may
        // be settled by the reader the moment the write lands.
        close_route();
        self.forward(
            &ForwardReq {
                index,
                raw: &forward_line(request, line),
                key: Some(key),
                id,
                rt,
            },
            ranked,
        );
    }

    /// Forwards the raw request line to the best live candidate shard,
    /// blocking while the in-flight window is full. Walks down the
    /// ranking as candidates fail to connect; a typed `shard_unavailable`
    /// error only once the whole replica set is exhausted.
    fn forward(&mut self, req: &ForwardReq, candidates: Vec<usize>) {
        let primary = candidates[0];
        let mut remaining = candidates;
        loop {
            let Some(shard) = next_candidate(self.core(), &mut remaining) else {
                unreachable!("forward always receives at least one candidate");
            };
            match self.try_forward(req, shard, &remaining) {
                Ok(()) => {
                    if shard != primary {
                        // Dispatched away from its top rank — whether the
                        // primary is believed dead or just failed to
                        // connect, this request failed over.
                        self.core().failovers.fetch_add(1, Ordering::SeqCst);
                        router_metrics().failovers.inc();
                    }
                    self.forwarded += 1;
                    return;
                }
                Err(message) => {
                    self.core().mark_alive(shard, false);
                    if remaining.is_empty() {
                        let shard_id = self.core().topology.shards()[shard].id.clone();
                        self.local_error(
                            req.index,
                            req.id,
                            ErrorCode::ShardUnavailable,
                            &message,
                            Some(&shard_id),
                        );
                        if let Some(rt) = &req.rt {
                            rt.close();
                        }
                        return;
                    }
                }
            }
        }
    }

    /// One forwarding attempt against one shard: `Ok` once the request
    /// is enqueued and written (or poked for replay) — the reader answers
    /// it or fails it over — or the would-be `shard_unavailable`
    /// diagnostic when the shard could not take it at all.
    fn try_forward(
        &mut self,
        req: &ForwardReq,
        shard: usize,
        fallbacks: &[usize],
    ) -> Result<(), String> {
        let conn = match self.session.connection(shard) {
            Ok(conn) => conn,
            Err(e) => {
                let spec = &self.core().topology.shards()[shard];
                return Err(format!(
                    "shard {:?} at {} is unreachable: {e}",
                    spec.id, spec.addr
                ));
            }
        };
        // Window backpressure: wait for room (the reader signals `space`
        // as responses land or the connection fails).
        let window = self.core().config.window.max(1);
        {
            let mut pending = lock_ok(&conn.pending);
            if pending.len() >= window {
                router_metrics().window_stalls.inc();
            }
            while pending.len() >= window && !conn.dead.load(Ordering::SeqCst) {
                pending = wait_ok(&conn.space, pending);
            }
        }
        // A traced forward opens its `dispatch` leg here; untraced lines
        // are forwarded byte-for-byte.
        let (trace, raw) = match req.rt {
            Some(rt) => {
                let (leg, raw) = EntryTrace::open(rt, rt.ctx.span_id, req.raw);
                (Some(leg), raw)
            }
            None => (None, Arc::from(req.raw)),
        };
        let entry = PendingEntry {
            index: req.index,
            raw,
            key: req.key,
            id: req.id.clone(),
            fallbacks: fallbacks.to_vec(),
            enqueued: Instant::now(),
            started: req.rt.map_or_else(Instant::now, |rt| rt.started),
            trace,
        };
        // Outstanding from before the entry is visible to its reader,
        // which settles it.
        self.session
            .slots
            .outstanding
            .fetch_add(1, Ordering::SeqCst);
        router_metrics().pending.inc();
        let spec = &self.core().topology.shards()[shard];
        if send(&conn, entry).is_err() {
            self.session
                .slots
                .outstanding
                .fetch_sub(1, Ordering::SeqCst);
            router_metrics().pending.dec();
            return Err(format!(
                "shard {:?} at {} became unreachable; request not forwarded",
                spec.id, spec.addr
            ));
        }
        dispatch_counter(&spec.id).inc();
        Ok(())
    }

    /// Takes this session's connections out of its table and retires
    /// them; returns each clean one's stream, by shard.
    fn retire_connections(&self) -> Vec<Option<TcpStream>> {
        let taken: Vec<Option<ShardConn>> = {
            let mut conns = lock_ok(&self.session.conns);
            conns.iter_mut().map(Option::take).collect()
        };
        taken
            .into_iter()
            .map(|slot| slot.and_then(ShardConn::retire))
            .collect()
    }

    /// The in-band `shutdown`: reject new work router-wide, drain this
    /// session's forwards, forward the shutdown to every shard (drain
    /// semantics, once per router), then ack.
    fn handle_shutdown(&mut self, index: u64, id: &Json) {
        self.core().shutdown.store(true, Ordering::SeqCst);
        self.session.slots.drain_resolved(Some(index));
        let streams = self.retire_connections();
        self.core().teardown_shards(streams);
        let line = protocol::op_response(id, "shutdown");
        self.session.slots.resolve(index, Reply::ok(line));
    }
}

impl Drop for RouteHandler {
    fn drop(&mut self) {
        self.session.core.sessions.fetch_sub(1, Ordering::SeqCst);
        router_metrics().sessions_live.dec();
    }
}

/// The line a shard receives for a request: the client's own text when the
/// request arrived as JSON, or, for a binary payload, its canonical JSON
/// rendering, made only now that the request is forwarded.
fn forward_line<'a>(request: &Request, line: Option<&'a str>) -> Cow<'a, str> {
    line.map_or_else(|| Cow::Owned(codec::request_json_line(request)), Cow::from)
}

/// One client request on its way to a shard: the session index, the
/// line to forward, the router-cache key, the echoed id, and the
/// optional trace handle.
struct ForwardReq<'a> {
    index: u64,
    raw: &'a str,
    key: Option<RouterKey>,
    id: &'a Json,
    rt: Option<RequestTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_locks_recover_instead_of_cascading() {
        let shared = Arc::new(Mutex::new(41u64));
        let poisoner = shared.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(shared.is_poisoned(), "the panic must have poisoned it");
        // lock_ok recovers the inner data where .lock().expect() would
        // abort the caller.
        let mut guard = lock_ok(&shared);
        assert_eq!(*guard, 41);
        *guard += 1;
        drop(guard);
        assert_eq!(*lock_ok(&shared), 42);
    }

    #[test]
    fn poisoned_condvar_waits_recover_too() {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let poisoner = state.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.0.lock().unwrap();
            panic!("poison the condvar mutex");
        })
        .join();
        let flipper = state.clone();
        std::thread::spawn(move || {
            *lock_ok(&flipper.0) = true;
            flipper.1.notify_all();
        });
        let mut guard = lock_ok(&state.0);
        while !*guard {
            guard = wait_ok(&state.1, guard);
        }
    }

    #[test]
    fn next_candidate_prefers_live_replicas_in_rank_order() {
        let topology = Topology::parse("a=h:1,b=h:2,c=h:3").unwrap();
        let router = Router::new(topology, RouterConfig::default()).unwrap();
        let core = &router.core;
        let mut fallbacks = vec![1, 2, 0];
        core.mark_alive(1, false);
        assert_eq!(next_candidate(core, &mut fallbacks), Some(2));
        assert_eq!(fallbacks, vec![1, 0]);
        core.mark_alive(0, false);
        // Only dead ones left alive-wise? 1 and 0 are dead: take the
        // best-ranked anyway and let the dial decide.
        assert_eq!(next_candidate(core, &mut fallbacks), Some(1));
        assert_eq!(next_candidate(core, &mut fallbacks), Some(0));
        assert_eq!(next_candidate(core, &mut fallbacks), None);
    }

    #[test]
    fn stamp_trace_inserts_or_replaces_the_trace_field() {
        let raw = r#"{"op":"partition","id":7,"matrix":{"rows":1,"cols":1,"entries":[[0,0]]}}"#;
        let stamped = stamp_trace(raw, 0xabc, 0x123);
        let doc = Json::parse(&stamped).expect("stamped line parses");
        let t = doc.get("trace").expect("trace field present");
        assert_eq!(
            t.get("id").and_then(Json::as_str),
            Some("00000000000000000000000000000abc")
        );
        assert_eq!(
            t.get("parent").and_then(Json::as_str),
            Some("0000000000000123")
        );
        // Everything else survives the re-render.
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(7));
        // Restamping (the failover path) replaces, never duplicates.
        let restamped = stamp_trace(&stamped, 0xabc, 0x456);
        let doc = Json::parse(&restamped).expect("restamped line parses");
        let Json::Obj(fields) = &doc else {
            panic!("object")
        };
        assert_eq!(fields.iter().filter(|(k, _)| k == "trace").count(), 1);
        assert_eq!(
            doc.get("trace")
                .and_then(|t| t.get("parent"))
                .and_then(Json::as_str),
            Some("0000000000000456")
        );
    }

    #[test]
    fn zero_replicas_is_a_config_error() {
        let topology = Topology::parse("127.0.0.1:1").unwrap();
        let config = RouterConfig {
            replicas: 0,
            ..RouterConfig::default()
        };
        assert!(Router::new(topology, config).is_err());
    }
}
