//! The serving engine: a bounded submission queue feeding the
//! work-stealing batch pool, per-session ordered response streams, and a
//! shared LRU response cache.
//!
//! ## Execution model
//!
//! Sessions (one per stdio pipe or TCP connection) decode request lines
//! and submit jobs to the engine their [`Service`] shares between them.
//! A dispatcher thread drains the queue in *micro-batches* and runs each
//! batch on the existing
//! [`mg_collection::run_batch_ordered`] work-stealing pool — jobs execute
//! out of order across workers, but results are delivered in order and
//! each session's writer emits responses in its own submission order.
//!
//! ## Determinism
//!
//! Every job's RNG stream is seeded with [`mg_collection::job_seed`] over
//! the (backend, matrix fingerprint, method, ε) key folded with the
//! request seed — never from scheduling state — so a response's payload
//! is a pure function of the request. The `cached` flag is decided at *submission
//! time* in stream order (completed key → cache hit; in-flight key →
//! follower of the running job; fresh key → new job), which makes a
//! single session's response bytes identical at any `--threads` count,
//! provided the session's distinct-job working set fits the cache
//! capacity (see `PROTOCOL.md` for the exact contract).
//!
//! ## Backpressure and shutdown
//!
//! The submission queue is bounded: submitters block when it is full,
//! which in turn blocks the session's reader — TCP clients experience
//! socket backpressure instead of unbounded server memory. Shutdown (the
//! `shutdown` op or [`Service::initiate_shutdown`]) stops new
//! submissions, drains every queued and in-flight job, flushes every
//! pending response, then lets the dispatcher exit.

use crate::cache::LruCache;
use crate::codec::{UnitKind, WireCodec};
use crate::json::Json;
use crate::metrics::{bytes_in, bytes_out, op_counter, request_seconds, server_metrics};
use crate::protocol;
use crate::session::{Handler, Host, Reply, SessionShared, Stats, Tally, TcpFront, Unit};
use mg_collection::{generate, job_seed, run_batch_ordered, worker_count, CollectionSpec};
use mg_core::service::{matrix_fingerprint, ErrorCode, MatrixPayload, PartitionOutcome, RequestOp};
use mg_core::{parse_backend, Method, PartitionBackend, DEFAULT_BACKEND};
use mg_obs::trace::{self, RequestTrace, TraceContext};
use mg_sparse::{load_imbalance, Coo};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads of the batch pool; 0 = one per available core.
    pub threads: usize,
    /// Largest micro-batch the dispatcher hands to the pool at once.
    pub max_batch: usize,
    /// Bounded submission-queue capacity; full ⇒ submitters block
    /// (backpressure all the way to the client socket).
    pub queue_capacity: usize,
    /// LRU response-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Master seed folded into every job-key hash when a request carries
    /// no seed of its own.
    pub master_seed: u64,
    /// Canonical name of the backend used for requests without a
    /// `backend` field (must be registered in [`mg_core::backend`]).
    pub default_backend: &'static str,
    /// The deterministic collection served for `{"collection": name}`
    /// payloads (generated lazily on first use).
    pub collection: CollectionSpec,
    /// Append a non-deterministic `time_ms` field to computed responses.
    pub timing: bool,
    /// Diagnostic shard tag (`mgpart serve --shard-id`): when set, stats
    /// and error responses carry a `"shard"` field so clients behind a
    /// router can attribute them. `None` (the default) leaves every
    /// response byte-identical to an untagged server.
    pub shard_id: Option<String>,
    /// Slow-request trace sampler (`--trace-slow-ms N`): partition
    /// requests without a client-stamped trace get a speculative trace
    /// that is kept only when end-to-end latency reaches the threshold.
    /// `None` disables sampling; explicit `trace` fields always record.
    pub trace_slow: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 0,
            max_batch: 32,
            queue_capacity: 256,
            cache_capacity: 128,
            master_seed: 2014,
            default_backend: DEFAULT_BACKEND,
            collection: CollectionSpec::default(),
            timing: false,
            shard_id: None,
            trace_slow: None,
        }
    }
}

/// (matrix fingerprint, backend, method, ε bits, request seed base,
/// include_partition) — the identity of a job for caching and in-flight
/// coalescing.
///
/// The backend is the *effective* canonical name (request field or server
/// default), so the same matrix partitioned on two engines occupies two
/// cache entries, and the key stays fingerprint-compatible: requests
/// agree on a key iff they agree on every result-determining input.
///
/// `include_partition` is part of the key so that plain requests and
/// full-assignment requests never coalesce: cache entries for plain keys
/// are stored *stripped* of the O(nnz) partition vector (it would pin
/// large matrices in memory for clients that never asked for it), and
/// keeping the two shapes apart keeps the `cached` flag a pure function
/// of the submission stream. The RNG seed ignores the flag
/// ([`seed_of`]), so both shapes report identical volumes and seeds.
type CacheKey = (u64, &'static str, Method, u64, u64, bool);

/// Completion callback: `(outcome, cached, compute_seconds)`.
type Deliver = Box<dyn FnOnce(Arc<PartitionOutcome>, bool, f64) + Send>;

/// One queued job as handed to the ordered batch pool: cache key,
/// resolved backend, matrix, and the optional trace handle.
type JobSpec = (
    CacheKey,
    &'static dyn PartitionBackend,
    Arc<Coo>,
    Option<JobTrace>,
);

/// Trace identity of a queued job's primary: the request's root span
/// (`queue_wait` and `execute` record under it) plus when it queued.
#[derive(Clone, Copy)]
struct JobTrace {
    ctx: TraceContext,
    queued_us: u64,
    queued_at: Instant,
}

struct EngineJob {
    key: CacheKey,
    /// Resolved once at submission; workers never re-parse the name.
    backend: &'static dyn PartitionBackend,
    matrix: Arc<Coo>,
    deliver: Deliver,
    /// Present when the primary request is traced: workers record
    /// `queue_wait`/`execute` spans and install the context so phase
    /// timers nest under `execute`.
    trace: Option<JobTrace>,
}

/// Name → matrix map of the lazily generated collection.
type CollectionMap = HashMap<String, Arc<Coo>>;

struct EngineInner {
    queue: VecDeque<EngineJob>,
    /// Keys currently queued or executing, with follower callbacks to run
    /// (as cache hits) when the primary completes.
    inflight: HashMap<CacheKey, Vec<Deliver>>,
    cache: LruCache<CacheKey, Arc<PartitionOutcome>>,
    shutdown: bool,
}

struct Engine {
    inner: Mutex<EngineInner>,
    /// Signals the dispatcher that work (or shutdown) is available.
    work: Condvar,
    /// Signals blocked submitters that queue space freed up.
    space: Condvar,
    /// Lazily generated collection, name → matrix.
    collection: Mutex<Option<Arc<CollectionMap>>>,
    /// Open session drivers on this service. Sampled at decode time by
    /// the `stats` op (deterministic for a given request prefix: a
    /// session always sees at least itself).
    sessions: AtomicU64,
    config: ServiceConfig,
}

impl Engine {
    fn lock(&self) -> std::sync::MutexGuard<'_, EngineInner> {
        self.inner.lock().expect("engine mutex poisoned")
    }

    /// Submits a job: answered at once from the cache, coalesced onto an
    /// in-flight twin, or queued (blocking while the queue is full).
    /// Returns `false` — without ever running `deliver` — once shutdown
    /// has begun.
    fn submit(
        &self,
        key: CacheKey,
        backend: &'static dyn PartitionBackend,
        matrix: Arc<Coo>,
        deliver: Deliver,
        trace: Option<JobTrace>,
    ) -> bool {
        let mut inner = self.lock();
        loop {
            if inner.shutdown {
                return false;
            }
            if let Some(hit) = inner.cache.get(&key) {
                let outcome = hit.clone();
                drop(inner);
                deliver(outcome, true, 0.0);
                return true;
            }
            if let Some(followers) = inner.inflight.get_mut(&key) {
                followers.push(deliver);
                return true;
            }
            if inner.queue.len() >= self.config.queue_capacity.max(1) {
                inner = self.space.wait(inner).expect("engine mutex poisoned");
                continue;
            }
            inner.inflight.insert(key, Vec::new());
            inner.queue.push_back(EngineJob {
                key,
                backend,
                matrix,
                deliver,
                trace,
            });
            server_metrics().queue_depth.set(inner.queue.len() as u64);
            self.work.notify_all();
            return true;
        }
    }

    fn initiate_shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
        self.space.notify_all();
    }

    fn is_shutting_down(&self) -> bool {
        self.lock().shutdown
    }

    fn collection_matrix(&self, name: &str) -> Option<Arc<Coo>> {
        let mut slot = self.collection.lock().expect("collection mutex poisoned");
        if slot.is_none() {
            let map: HashMap<String, Arc<Coo>> = generate(&self.config.collection)
                .into_iter()
                .map(|entry| (entry.name, Arc::new(entry.matrix)))
                .collect();
            *slot = Some(Arc::new(map));
        }
        slot.as_ref().expect("just filled").get(name).cloned()
    }

    fn resolve_matrix(&self, payload: &MatrixPayload) -> Result<Arc<Coo>, (ErrorCode, String)> {
        // The decode path is shared with the router's placement-key
        // extraction (mg_core::service), so both reject a malformed
        // payload with byte-identical (code, message) pairs.
        match mg_core::service::payload_matrix(payload)? {
            Some(matrix) => Ok(Arc::new(matrix)),
            None => match payload {
                MatrixPayload::Collection(name) => self.collection_matrix(name).ok_or_else(|| {
                    (
                        ErrorCode::UnknownCollection,
                        format!("no collection matrix named {name:?}"),
                    )
                }),
                _ => unreachable!("payload_matrix returns None only for collections"),
            },
        }
    }
}

/// Executes one job. Pure: the result depends only on the arguments.
fn execute(
    matrix: &Coo,
    backend: &'static dyn PartitionBackend,
    method: Method,
    epsilon: f64,
    seed: u64,
    fingerprint: u64,
) -> PartitionOutcome {
    let result = backend.bipartition(matrix, method, epsilon, seed);
    let mut part_nnz = [0u64; 2];
    for (p, &size) in result.partition.part_sizes().iter().take(2).enumerate() {
        part_nnz[p] = size;
    }
    let imbalance = if matrix.nnz() == 0 {
        0.0
    } else {
        load_imbalance(&result.partition)
    };
    PartitionOutcome {
        rows: matrix.rows(),
        cols: matrix.cols(),
        nnz: matrix.nnz(),
        fingerprint,
        backend: backend.name(),
        method: method.name(),
        epsilon,
        seed,
        volume: result.volume,
        imbalance,
        ir_iterations: result.ir_iterations,
        part_nnz,
        partition: result.partition.parts().to_vec(),
    }
}

/// The dispatcher: drains the queue in micro-batches and runs each batch
/// on the ordered work-stealing pool, resolving primaries and followers
/// as results stream back. Exits once shutdown is requested *and* the
/// queue is fully drained — never dropping an accepted job.
fn dispatcher_loop(engine: &Engine) {
    loop {
        let batch: Vec<EngineJob> = {
            let mut inner = engine.lock();
            loop {
                if !inner.queue.is_empty() {
                    break;
                }
                if inner.shutdown {
                    return;
                }
                inner = engine.work.wait(inner).expect("engine mutex poisoned");
            }
            let n = inner.queue.len().min(engine.config.max_batch.max(1));
            let drained: Vec<EngineJob> = inner.queue.drain(..n).collect();
            server_metrics().queue_depth.set(inner.queue.len() as u64);
            drained
        };
        engine.space.notify_all();

        let mut delivers: Vec<Option<Deliver>> = Vec::with_capacity(batch.len());
        let mut specs: Vec<JobSpec> = Vec::with_capacity(batch.len());
        for job in batch {
            specs.push((job.key, job.backend, job.matrix, job.trace));
            delivers.push(Some(job.deliver));
        }
        let threads = worker_count(engine.config.threads).min(specs.len()).max(1);
        let specs = &specs;
        server_metrics().inflight.set(specs.len() as u64);
        run_batch_ordered(
            specs.len(),
            threads,
            |i| {
                let ((fingerprint, _, method, eps_bits, _, _), backend, matrix, job_trace) =
                    &specs[i];
                let seed = seed_of(&specs[i].0);
                // Traced jobs: queue_wait ran from submission to now, and
                // execute gets its own span installed thread-locally so
                // the partitioner's phase timers record as its children.
                let exec_span = job_trace.map(|jt| {
                    trace::record_child(
                        &jt.ctx,
                        "queue_wait",
                        jt.queued_us,
                        jt.queued_at.elapsed(),
                    );
                    (jt.ctx.child(), trace::now_us())
                });
                let _scope = exec_span.map(|(ctx, _)| trace::enter(ctx));
                let start = Instant::now();
                let outcome = execute(
                    matrix,
                    *backend,
                    *method,
                    f64::from_bits(*eps_bits),
                    seed,
                    *fingerprint,
                );
                let elapsed = start.elapsed();
                drop(_scope);
                if let Some((ctx, start_us)) = exec_span {
                    trace::record_span(
                        ctx.trace_id,
                        ctx.span_id,
                        ctx.parent_id,
                        "execute",
                        start_us,
                        elapsed,
                    );
                }
                (outcome, elapsed.as_secs_f64())
            },
            |i, (outcome, secs)| {
                let outcome = Arc::new(outcome);
                let followers = {
                    let mut inner = engine.lock();
                    // Keys that never asked for the assignment cache a
                    // *stripped* copy: the partition vector is O(nnz) and
                    // would otherwise pin every large matrix in memory.
                    let wants_partition = specs[i].0 .5;
                    let cached_copy = if wants_partition || outcome.partition.is_empty() {
                        outcome.clone()
                    } else {
                        let mut stripped = (*outcome).clone();
                        stripped.partition = Vec::new();
                        Arc::new(stripped)
                    };
                    inner.cache.insert(specs[i].0, cached_copy);
                    inner.inflight.remove(&specs[i].0).unwrap_or_default()
                };
                if let Some(primary) = delivers[i].take() {
                    primary(outcome.clone(), false, secs);
                }
                for follower in followers {
                    follower(outcome.clone(), true, 0.0);
                }
            },
        );
        server_metrics().inflight.set(0);
    }
}

/// The effective RNG seed of a job: [`job_seed`] over the backend name,
/// the fingerprint (as a hex key string), the canonical method name and
/// ε, folded with the request's seed base. Identical requests therefore
/// share one RNG stream at any thread count — §V's determinism contract,
/// extended from sweeps to the service — and requests differing only in
/// backend draw independent streams, exactly like sweep cells.
fn seed_of(key: &CacheKey) -> u64 {
    // include_partition deliberately excluded: asking for the assignment
    // must not change the result.
    let (fingerprint, backend, method, eps_bits, seed_base, _include_partition) = *key;
    job_seed(
        seed_base,
        backend,
        &format!("{fingerprint:016x}"),
        method.name(),
        f64::from_bits(eps_bits),
    )
}

/// A running partition service: the shared engine plus its dispatcher
/// thread. Create with [`Service::start`], attach any number of sessions
/// ([`Service::run_session`] or a [`TcpServer`]), and stop with
/// [`Service::initiate_shutdown`] (or the in-band `shutdown` op).
pub struct Service {
    engine: Arc<Engine>,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// The service's threaded TCP front end: one session per connection over
/// the shared engine and response cache. Socket-level backpressure comes
/// for free — a full submission queue blocks the session's reader, which
/// stops draining the socket. [`TcpFront::join`] also drains the engine.
pub type TcpServer = TcpFront<Service>;

/// Per-session counters. `received` is counted as requests decode;
/// the rest come from the writer's [`Tally`] over the response stream —
/// the same tally the session's `stats` lines read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionSummary {
    /// Request lines decoded (including failed ones).
    pub received: u64,
    /// Responses written.
    pub responses: u64,
    /// `cached: true` responses: requests served from the cache or
    /// coalesced onto an in-flight twin.
    pub cache_hits: u64,
    /// Freshly computed partition responses (cache misses).
    pub cache_misses: u64,
    /// Error responses.
    pub errors: u64,
}

impl Service {
    /// Starts the engine and its dispatcher thread.
    ///
    /// Panics if `config.default_backend` is not a registered backend —
    /// a config error surfaces here, not on the first request. The name
    /// is also canonicalized, so a non-canonical spelling (`"PATOH"`)
    /// seeds and caches identically to an explicit `backend: "patoh"`
    /// request field.
    pub fn start(mut config: ServiceConfig) -> Arc<Service> {
        config.default_backend = parse_backend(config.default_backend)
            .unwrap_or_else(|e| panic!("invalid default backend: {e}"))
            .name();
        let engine = Arc::new(Engine {
            inner: Mutex::new(EngineInner {
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                cache: LruCache::new(config.cache_capacity),
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            collection: Mutex::new(None),
            sessions: AtomicU64::new(0),
            config,
        });
        let dispatcher_engine = engine.clone();
        let dispatcher = std::thread::Builder::new()
            .name("mg-server-dispatcher".into())
            .spawn(move || dispatcher_loop(&dispatcher_engine))
            .expect("spawning dispatcher");
        Arc::new(Service {
            engine,
            dispatcher: Mutex::new(Some(dispatcher)),
        })
    }

    /// Stops accepting new jobs. Queued and executing jobs still finish
    /// and their responses are still delivered (drain semantics).
    pub fn initiate_shutdown(&self) {
        self.engine.initiate_shutdown();
    }

    /// `true` once shutdown has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.engine.is_shutting_down()
    }

    /// Waits for the dispatcher to drain and exit. Implies
    /// [`Service::initiate_shutdown`].
    pub fn shutdown_and_join(&self) {
        self.engine.initiate_shutdown();
        if let Some(handle) = self
            .dispatcher
            .lock()
            .expect("dispatcher mutex poisoned")
            .take()
        {
            handle.join().expect("dispatcher panicked");
        }
    }

    /// Runs a full session over a generic byte transport (pipe mode):
    /// requests are read from `input` on the calling thread while a
    /// writer thread streams responses to `output` in submission order.
    /// A final request without its line terminator is still processed
    /// at EOF. Returns when the input is exhausted (EOF or an in-band
    /// `shutdown`) and every response has been written.
    pub fn run_session<R: Read, W: Write + Send>(&self, input: R, output: W) -> SessionSummary {
        let done = self.serve(input, output);
        SessionSummary {
            received: done.received,
            responses: done.tally.responses,
            cache_hits: done.tally.cache_hits,
            cache_misses: done.tally.computed(),
            errors: done.tally.errors,
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

impl Host for Service {
    type Handler = LocalHandler;
    const NAME: &'static str = "server";

    fn open(&self) -> LocalHandler {
        self.engine.sessions.fetch_add(1, Ordering::SeqCst);
        server_metrics().sessions_live.inc();
        LocalHandler {
            engine: self.engine.clone(),
            shared: SessionShared::new(),
        }
    }

    fn is_shutting_down(&self) -> bool {
        self.engine.is_shutting_down()
    }

    fn initiate_shutdown(&self) {
        self.engine.initiate_shutdown();
    }

    fn drain(&self) {
        self.shutdown_and_join();
    }
}

/// A `stats` request of a local session, rendered by the writer: the
/// decode-time counters plus the tally of every preceding response.
pub struct LocalStats {
    id: Json,
    received: u64,
    /// Open sessions on the engine when the request was decoded (a
    /// session always counts at least itself).
    sessions: u64,
    shard: Option<String>,
}

impl Stats for LocalStats {
    fn render(self, tally: &Tally, outstanding: u64) -> String {
        let snapshot = protocol::StatsSnapshot {
            received: self.received,
            cache_hits: tally.cache_hits,
            cache_misses: tally.computed(),
            errors: tally.errors,
            sessions: self.sessions,
        };
        protocol::stats_response(
            &self.id,
            snapshot,
            &tally.completed,
            outstanding,
            self.shard.as_deref(),
        )
    }

    fn counted(reply: &Reply) {
        let metrics = server_metrics();
        if reply.error {
            metrics.errors.inc();
        }
        if reply.cached {
            metrics.cache_hits.inc();
        }
        if reply.computed.is_some() {
            metrics.cache_misses.inc();
        }
    }

    fn written(wire: WireCodec, bytes: usize) {
        bytes_out(wire.name(), bytes as u64);
    }
}

/// A session on the local engine: each partition request is resolved
/// against the response cache or executed on the batch pool.
pub struct LocalHandler {
    engine: Arc<Engine>,
    shared: Arc<SessionShared<LocalStats>>,
}

impl Handler for LocalHandler {
    type Stats = LocalStats;

    fn shared(&self) -> &Arc<SessionShared<LocalStats>> {
        &self.shared
    }

    fn handle(&mut self, unit: Unit, request: protocol::Request, _line: Option<&str>) -> bool {
        let op = request.op;
        match op {
            RequestOp::Ping => {
                let line = protocol::op_response(&request.id, "ping");
                self.shared.resolve(unit.index, Reply::ok(line));
            }
            RequestOp::Stats => self.shared.defer(
                unit.index,
                LocalStats {
                    id: request.id,
                    received: unit.received,
                    sessions: self.engine.sessions.load(Ordering::SeqCst),
                    shard: self.engine.config.shard_id.clone(),
                },
            ),
            RequestOp::Shutdown => {
                self.engine.initiate_shutdown();
                let line = protocol::op_response(&request.id, "shutdown");
                self.shared.resolve(unit.index, Reply::ok(line));
                return false;
            }
            RequestOp::Hello => unreachable!("the session engine answers hello"),
            RequestOp::Partition => {
                let spec = request.spec.expect("partition requests carry a spec");
                // Observes its latency at delivery.
                self.submit_partition(unit, request.id, spec, request.trace);
                return true;
            }
        }
        request_seconds(op.name()).observe(unit.start.at.elapsed().as_secs_f64());
        true
    }

    fn error_shard(&self) -> Option<&str> {
        self.engine.config.shard_id.as_deref()
    }

    fn scanned(&mut self, kind: UnitKind, bytes: usize) {
        let codec = match kind {
            UnitKind::Line => WireCodec::JsonLines,
            UnitKind::Frame => WireCodec::Binary,
        };
        bytes_in(codec.name(), bytes as u64);
    }

    fn admitted(&mut self) {
        server_metrics().requests.inc();
    }

    fn decoded(&mut self, op: RequestOp) {
        op_counter(op.name()).inc();
    }
}

impl LocalHandler {
    fn submit_partition(
        &mut self,
        unit: Unit,
        id: Json,
        spec: mg_core::service::PartitionSpec,
        wire_trace: Option<mg_obs::WireTrace>,
    ) {
        let engine = &self.engine;
        let t0 = unit.start;
        let matrix = match engine.resolve_matrix(&spec.matrix) {
            Ok(matrix) => matrix,
            Err((code, message)) => {
                let line = protocol::error_response(&id, code, &message, self.error_shard());
                self.shared.resolve(unit.index, Reply::error(line));
                request_seconds("partition").observe(t0.at.elapsed().as_secs_f64());
                return;
            }
        };
        let fingerprint = matrix_fingerprint(&matrix);
        let seed_base = spec.seed.unwrap_or(engine.config.master_seed);
        // Both sources are pre-validated canonical names: the request
        // field by the protocol decoder, the default by Service::start.
        let backend = parse_backend(spec.backend.unwrap_or(engine.config.default_backend))
            .expect("backend names are validated at decode/config time");
        let key: CacheKey = (
            fingerprint,
            backend.name(),
            spec.method,
            spec.epsilon.to_bits(),
            seed_base,
            spec.include_partition,
        );

        // Trace identity of this request, if any: a client-stamped trace
        // records directly; the slow sampler opens a speculative one that
        // only survives if the request proves slow. Either way the root
        // `request` span covers decode through encode, and the `trace`
        // field has already been stripped from everything that shapes
        // response bytes (the key, the spec, the encoders).
        let req_trace = RequestTrace::open(wire_trace, engine.config.trace_slow, t0.sys_us, t0.at);
        if let Some(rt) = &req_trace {
            trace::record_child(&rt.ctx, "decode", t0.sys_us, t0.at.elapsed());
        }
        let job_trace = req_trace.map(|rt| JobTrace {
            ctx: rt.ctx,
            queued_us: trace::now_us(),
            queued_at: Instant::now(),
        });

        let shared = self.shared.clone();
        let index = unit.index;
        let include_partition = spec.include_partition;
        let timing = engine.config.timing;
        let deliver_id = id.clone();
        // Count the job as outstanding from submission until delivery;
        // synchronous cache hits cancel out before anyone can observe
        // the increment through a stats slot.
        self.shared.outstanding.fetch_add(1, Ordering::SeqCst);
        let deliver: Deliver = Box::new(move |outcome, cached, secs| {
            shared.outstanding.fetch_sub(1, Ordering::SeqCst);
            let time_ms = timing.then_some(secs * 1000.0);
            let encode_start = req_trace.map(|rt| (rt, trace::now_us(), Instant::now()));
            let line =
                protocol::ok_response(&deliver_id, &outcome, cached, include_partition, time_ms);
            if let Some((rt, start_us, start)) = encode_start {
                trace::record_child(&rt.ctx, "encode", start_us, start.elapsed());
                rt.close();
            }
            request_seconds("partition").observe(t0.at.elapsed().as_secs_f64());
            // Freshly computed lines carry their backend so the writer
            // can tally per-backend completions for deferred stats slots.
            let reply = Reply {
                line,
                cached,
                computed: (!cached).then_some(outcome.backend),
                ..Reply::default()
            };
            shared.resolve(index, reply);
        });

        if !engine.submit(key, backend, matrix, deliver, job_trace) {
            // The deliver callback never runs for rejected jobs.
            if let Some(rt) = &req_trace {
                rt.abandon();
            }
            self.shared.outstanding.fetch_sub(1, Ordering::SeqCst);
            let line = protocol::error_response(
                &id,
                ErrorCode::ShuttingDown,
                "server is draining; request rejected",
                self.error_shard(),
            );
            self.shared.resolve(index, Reply::error(line));
        }
    }
}

impl Drop for LocalHandler {
    fn drop(&mut self) {
        self.engine.sessions.fetch_sub(1, Ordering::SeqCst);
        server_metrics().sessions_live.dec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_canonicalizes_the_default_backend_name() {
        let service = Service::start(ServiceConfig {
            default_backend: "PATOH",
            ..ServiceConfig::default()
        });
        assert_eq!(service.engine.config.default_backend, "patoh");
        service.shutdown_and_join();
    }

    #[test]
    #[should_panic(expected = "invalid default backend")]
    fn start_rejects_unregistered_default_backends() {
        let _ = Service::start(ServiceConfig {
            default_backend: "typo",
            ..ServiceConfig::default()
        });
    }
}
