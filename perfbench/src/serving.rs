//! The serving workloads: `serve_mixed` (a `Service` behind `TcpServer`)
//! and `route_bulk` (a `Router` behind `RouterTcpServer` in front of a
//! 2-shard `LocalCluster`), both driven open loop over TCP.

use crate::inputs::{self, Key, WireMatrix, EPSILON};
use crate::layers::{self, PartitionLayers, WireTimes};
use crate::loadgen::{self, Lag, Outcome, Planned, Response, Schedule};
use crate::report::{EndToEnd, Report};
use crate::stats;
use mg_collection::job_seed;
use mg_obs::registry;
use mg_router::{LocalCluster, RouterConfig, RouterTcpServer, ShardSpec};
use mg_server::{Service, ServiceConfig, TcpServer};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Offered rate of `serve_mixed`, requests per second over both
/// connections.
const MIXED_RATE: f64 = 150.0;
/// Offered rate of `route_bulk`, requests per second over both
/// connections.
const BULK_RATE: f64 = 40.0;
/// Times `serve_mixed` repeats its whole set-up (`setup_s` is the median).
const MIXED_SETUP_REPS: usize = 3;
/// Consecutive windows a run's latency tail is taken over (the median of
/// the windows' tails).
const TAIL_WINDOWS: usize = 5;
/// Fresh `serve_mixed` computes the traced run decomposes.
const REPLAYED_COMPUTES: usize = 48;

const HELLO_BINARY: &[u8] = b"{\"id\":\"hello\",\"op\":\"hello\",\"codec\":\"binary\"}\n";

fn service_config() -> ServiceConfig {
    ServiceConfig {
        threads: 1,
        ..ServiceConfig::default()
    }
}

fn counter(name: &str, labels: &[(&str, &str)]) -> u64 {
    registry().counter(name, labels).get()
}

/// The program's own counters this benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    errors: u64,
    router_requests: u64,
    router_hits: u64,
    dispatches: u64,
    window_stalls: u64,
}

impl Counters {
    fn read() -> Counters {
        Counters {
            hits: counter("mgpart_cache_hits_total", &[]),
            misses: counter("mgpart_cache_misses_total", &[]),
            errors: counter("mgpart_errors_total", &[]),
            router_requests: counter("mgpart_router_requests_total", &[]),
            router_hits: counter("mgpart_router_cache_hits_total", &[]),
            dispatches: ["s0", "s1"]
                .iter()
                .map(|s| counter("mgpart_router_dispatches_total", &[("shard", s)]))
                .sum(),
            window_stalls: counter("mgpart_router_window_stalls_total", &[]),
        }
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            errors: self.errors - before.errors,
            router_requests: self.router_requests - before.router_requests,
            router_hits: self.router_hits - before.router_hits,
            dispatches: self.dispatches - before.dispatches,
            window_stalls: self.window_stalls - before.window_stalls,
        }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// One client connection and the codec it speaks.
struct Conn {
    stream: TcpStream,
    binary: bool,
}

impl Conn {
    fn open(addr: SocketAddr, binary: bool) -> Conn {
        let mut stream = TcpStream::connect(addr).expect("connecting to the local server");
        stream.set_nodelay(true).expect("setting TCP_NODELAY");
        if binary {
            let ack = loadgen::call(&mut stream, false, HELLO_BINARY).expect("hello handshake");
            assert!(ack.ok, "binary codec refused");
        }
        Conn { stream, binary }
    }
}

/// One open-loop phase over all connections.
struct Phase {
    outcomes: Vec<Outcome<Key>>,
    lag: Lag,
    bytes_out: u64,
    bytes_in: u64,
    errors: Vec<String>,
    cpu_s: f64,
    /// From the start of the phase to its last response.
    span_s: f64,
    counters: Counters,
}

impl Phase {
    /// The requests whose response is present, ok and in order.
    fn answered(&self) -> impl Iterator<Item = &Outcome<Key>> {
        self.outcomes.iter().filter(|o| {
            o.response
                .as_ref()
                .is_some_and(|r| r.ok && r.id == Some(o.plan.id))
        })
    }

    fn latencies(&self) -> Vec<f64> {
        stats::sorted(self.answered().filter_map(|o| o.latency_ms()).collect())
    }

    /// Latencies of the answered requests in each of `n` consecutive
    /// windows of the phase's requests.
    fn latency_windows(&self, n: usize) -> Vec<Vec<f64>> {
        let mut windows = vec![Vec::new(); n];
        let total = self.outcomes.len().max(1);
        for (i, o) in self.outcomes.iter().enumerate() {
            let answered = o
                .response
                .as_ref()
                .is_some_and(|r| r.ok && r.id == Some(o.plan.id));
            if let (true, Some(ms)) = (answered, o.latency_ms()) {
                windows[i * n / total].push(ms);
            }
        }
        windows.into_iter().map(stats::sorted).collect()
    }
}

/// Sends `count` requests open loop on `schedule`, request `i` on
/// connection `i % conns.len()`, ids from `first_id`.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    conns: &mut [Conn],
    matrices: &[WireMatrix],
    keys: &mut dyn Iterator<Item = Key>,
    schedule: Schedule,
    count: u64,
    first_id: u64,
    shards: Option<&[ShardSpec]>,
    traced: bool,
) -> Phase {
    let mut plans: Vec<Vec<Planned<Key>>> = conns.iter().map(|_| Vec::new()).collect();
    for i in 0..count {
        let plan = Planned {
            id: first_id + i,
            key: keys.next().expect("endless key stream"),
            due: schedule.due(i),
        };
        plans[(i as usize) % conns.len()].push(plan);
    }

    let counters = Counters::read();
    let cpu0 = stats::process_cpu_seconds();
    let start = Instant::now();
    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&plans)
            .map(|(conn, plan)| {
                scope.spawn(move || {
                    let binary = conn.binary;
                    let parts =
                        |p: &Planned<Key>| matrices[p.key.matrix].request(p.id, p.key.seed, binary);
                    let replay = |bytes: &[u8]| layers::replay_request(bytes, binary, shards);
                    let replay: Option<&loadgen::Replay> =
                        if traced { Some(&replay) } else { None };
                    loadgen::drive(&mut conn.stream, binary, plan, start, &parts, replay)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let cpu_s = stats::process_cpu_seconds() - cpu0;
    let counters = Counters::read().since(&counters);

    let mut phase = Phase {
        outcomes: Vec::new(),
        lag: Lag::default(),
        bytes_out: 0,
        bytes_in: 0,
        errors: Vec::new(),
        cpu_s,
        span_s: 0.0,
        counters,
    };
    for run in runs {
        phase.lag.merge(&run.lag);
        phase.bytes_out += run.bytes_out;
        phase.bytes_in += run.bytes_in;
        phase.errors.extend(run.error);
        phase.outcomes.extend(run.outcomes);
    }
    phase.outcomes.sort_by_key(|o| o.plan.id);
    phase.span_s = phase
        .outcomes
        .iter()
        .filter_map(|o| o.done)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    phase
}

/// Checks every outcome: one ok response per request, in order, within
/// the balance bound, with the cold-pass volume for every known key.
/// Returns the volume of every distinct key answered.
fn check(phase: &Phase, known: &HashMap<Key, u64>, report: &mut Report) -> HashMap<Key, u64> {
    let mut volumes: HashMap<Key, u64> = HashMap::new();
    for e in &phase.errors {
        report.problem(format!("connection: {e}"));
    }
    for o in &phase.outcomes {
        report.attempted += 1;
        let verdict = match &o.response {
            None => Err("no response".to_string()),
            Some(r) => check_response(r, o.plan.id, known.get(&o.plan.key).copied()),
        };
        match verdict {
            Ok(volume) => {
                let first = *volumes.entry(o.plan.key).or_insert(volume);
                if first != volume {
                    report.fail(format!("request {}: volume {volume} != {first}", o.plan.id));
                }
            }
            Err(why) => report.fail(format!("request {}: {why}", o.plan.id)),
        }
    }
    volumes
}

fn check_response(r: &Response, id: u64, known: Option<u64>) -> Result<u64, String> {
    if !r.ok {
        return Err("error response".into());
    }
    if r.id != Some(id) {
        return Err(format!("out of order: answered id {:?}", r.id));
    }
    let volume = r.volume.ok_or("no volume")?;
    let nnz = r.nnz.ok_or("no nnz")?;
    let parts = r.part_nnz.ok_or("no part_nnz")?;
    let budget = inputs::max_part_budget(nnz, EPSILON);
    if parts[0] + parts[1] != nnz || parts[0].max(parts[1]) > budget {
        return Err(format!(
            "part sizes {parts:?} of {nnz} nonzeros exceed {budget}"
        ));
    }
    match known {
        Some(v) if v != volume => Err(format!("volume {volume} != cold-pass {v}")),
        _ => Ok(volume),
    }
}

fn end_to_end(phase: &Phase, volumes: &HashMap<Key, u64>, setup_s: f64) -> EndToEnd {
    let answered = phase.answered().count();
    let mut vols: Vec<u64> = volumes.values().copied().collect();
    vols.sort_unstable();
    EndToEnd {
        ops: answered as u64,
        seconds: phase.span_s,
        windows: phase.latency_windows(TAIL_WINDOWS),
        cpu_s: phase.cpu_s,
        volumes: vols,
        setup_s,
    }
}

/// The cold pass of set-up: every key once, all due at once, spread
/// over the connections. Returns each key's volume.
fn cold_pass(
    conns: &mut [Conn],
    matrices: &[WireMatrix],
    keys: &[Key],
    report: &mut Report,
) -> HashMap<Key, u64> {
    let all_now = Schedule {
        rate: f64::INFINITY,
    };
    let count = keys.len() as u64;
    let phase = open_loop(
        conns,
        matrices,
        &mut keys.iter().copied(),
        all_now,
        count,
        1 << 40,
        None,
        false,
    );
    let mut scratch = Report::default();
    let volumes = check(&phase, &HashMap::new(), &mut scratch);
    if !scratch.correct() {
        report.problem(format!(
            "cold pass: {} of {count} requests failed",
            scratch.failed
        ));
    }
    volumes
}

/// One measured open-loop phase at `rate` for `seconds`.
#[allow(clippy::too_many_arguments)]
fn measure(
    conns: &mut [Conn],
    matrices: &[WireMatrix],
    keys: &mut dyn Iterator<Item = Key>,
    rate: f64,
    seconds: f64,
    first_id: u64,
    shards: Option<&[ShardSpec]>,
    traced: bool,
) -> Phase {
    let schedule = Schedule { rate };
    let count = schedule.count_within(seconds);
    open_loop(
        conns, matrices, keys, schedule, count, first_id, shards, traced,
    )
}

/// The trace-mode per-layer rows common to both serving workloads.
fn wire_rows(report: &mut Report, untraced: &Phase, traced: &Phase) {
    let ops = untraced.outcomes.len().max(1) as f64;
    report.layer(
        "wire.req_bytes_per_op",
        untraced.bytes_out as f64 / ops,
        "B",
    );
    report.layer(
        "wire.resp_bytes_per_op",
        untraced.bytes_in as f64 / ops,
        "B",
    );
    report.layer(
        "loadgen.lag_max_ms",
        untraced.lag.max.max(traced.lag.max).as_secs_f64() * 1e3,
        "ms",
    );
    let p50 = |p: &Phase| stats::median(&p.latencies());
    report.layer(
        "trace.overhead_share",
        p50(traced) / p50(untraced) - 1.0,
        "ratio",
    );
    let c = &traced.counters;
    report.layer(
        "service.cache_hit_ratio",
        ratio(c.hits, c.hits + c.misses),
        "ratio",
    );
    report.layer("service.computes", c.misses as f64, "count");
    report.layer("service.errors", c.errors as f64, "count");
    report.layer(
        "router.cache_hit_ratio",
        ratio(c.router_hits, c.router_requests),
        "ratio",
    );
    report.layer("router.dispatches", c.dispatches as f64, "count");
    report.layer("router.window_stalls", c.window_stalls as f64, "count");
}

/// Mean of one field of the replays of `outcomes`.
fn mean_us<'a>(outcomes: impl Iterator<Item = &'a Outcome<Key>>, f: fn(&WireTimes) -> f64) -> f64 {
    let (sum, n) = outcomes
        .filter_map(|o| o.replay.as_ref())
        .fold((0.0, 0usize), |(s, n), w| (s + f(w), n + 1));
    sum / n.max(1) as f64
}

// --------------------------------------------------------------------------
// serve_mixed
// --------------------------------------------------------------------------

struct MixedSetup {
    inputs: inputs::MixedInputs,
    server: TcpServer,
    conns: Vec<Conn>,
    cold: HashMap<Key, u64>,
}

fn mixed_setup(seed: u64, report: &mut Report) -> MixedSetup {
    let inputs = inputs::mixed_inputs(seed);
    let service = Service::start(service_config());
    let server = TcpServer::bind(service, "127.0.0.1:0").expect("binding the service");
    let mut conns: Vec<Conn> = (0..2)
        .map(|_| Conn::open(server.local_addr, false))
        .collect();
    let cold = cold_pass(&mut conns, &inputs.pool, &inputs.hot, report);
    MixedSetup {
        inputs,
        server,
        conns,
        cold,
    }
}

pub fn serve_mixed(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut live: Option<MixedSetup> = None;
    for _ in 0..MIXED_SETUP_REPS {
        if let Some(old) = live.take() {
            drop(old.conns);
            old.server.shutdown_and_join();
        }
        let t = Instant::now();
        live = Some(mixed_setup(seed, &mut report));
        setups.push(t.elapsed().as_secs_f64());
    }
    let MixedSetup {
        inputs,
        server,
        mut conns,
        cold,
    } = live.expect("at least one set-up");
    let setup_s = stats::median(&stats::sorted(setups));
    report.note(format!(
        "peak RSS after set-up: {:.1} MiB",
        stats::peak_rss_mib()
    ));
    let mut keys = inputs.stream();

    let budget = if trace { seconds / 2.0 } else { seconds };
    let untraced = measure(
        &mut conns,
        &inputs.pool,
        &mut keys,
        MIXED_RATE,
        budget,
        0,
        None,
        false,
    );
    let volumes = check(&untraced, &cold, &mut report);
    if !trace {
        report.end_to_end(&end_to_end(&untraced, &volumes, setup_s));
    } else {
        let first_id = untraced.outcomes.len() as u64;
        let traced = measure(
            &mut conns,
            &inputs.pool,
            &mut keys,
            MIXED_RATE,
            budget,
            first_id,
            None,
            true,
        );
        check(&traced, &cold, &mut report);
        wire_rows(&mut report, &untraced, &traced);

        // Cache hits: frame, decode and fingerprint, then whatever the
        // cache lookup, queue, writer and transport add.
        let hits = || {
            traced
                .answered()
                .filter(|o| o.response.as_ref().and_then(|r| r.cached) == Some(true))
        };
        let frame = mean_us(hits(), |w| w.first.frame_us);
        let decode = mean_us(hits(), |w| w.first.decode_us);
        let fingerprint = mean_us(hits(), |w| w.first.fingerprint_us);
        let hit_p50 = stats::median(&stats::sorted(
            hits().filter_map(|o| o.latency_ms()).collect(),
        ));
        let unmeasured = hit_p50 - (frame + decode + fingerprint) / 1e3;
        report.layer("codec.frame_us_per_req", frame, "us");
        report.layer("protocol.decode_us_per_req", decode, "us");
        report.layer("service.fingerprint_us_per_req", fingerprint, "us");
        report.layer("router.place_us_per_req", 0.0, "us");
        report.layer("service.unmeasured_ms", unmeasured, "ms");
        report.layer("router.unmeasured_ms", 0.0, "ms");
        report.note(format!(
            "cache hits: p50 {hit_p50:.4} ms = frame {frame:.1} us + decode {decode:.1} us \
             + fingerprint {fingerprint:.1} us + unmeasured {unmeasured:.4} ms"
        ));
        report.reconcile("service", unmeasured);

        // Fresh keys: decompose their partitions and match the live volume.
        let mut part = PartitionLayers::default();
        let fresh = traced
            .answered()
            .filter(|o| o.response.as_ref().and_then(|r| r.cached) == Some(false))
            .filter(|o| !cold.contains_key(&o.plan.key))
            .take(REPLAYED_COMPUTES);
        for o in fresh {
            let m = &inputs.pool[o.plan.key.matrix];
            let w = o.replay.as_ref().expect("traced outcomes carry a replay");
            let seed = job_seed(
                o.plan.key.seed.expect("serve_mixed keys carry a seed"),
                mg_core::DEFAULT_BACKEND,
                &format!("{:016x}", w.fingerprint),
                "mg-ir",
                EPSILON,
            );
            let t = layers::traced_bipartition(&m.matrix, mg_core::DEFAULT_BACKEND, EPSILON, seed);
            let live = o.response.as_ref().and_then(|r| r.volume);
            if live != Some(t.volume) {
                report.problem(format!(
                    "request {}: decomposed volume {} != served {live:?}",
                    o.plan.id, t.volume
                ));
            }
            part.add(&t);
        }
        report.partition_layers(&part);
    }

    drop(conns);
    server.shutdown_and_join();
    report
}

// --------------------------------------------------------------------------
// route_bulk
// --------------------------------------------------------------------------

pub fn route_bulk(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let t = Instant::now();
    let matrices = inputs::bulk_inputs(seed);
    let cluster = LocalCluster::spawn(2, |_| service_config());
    let shards = cluster.topology().shards().to_vec();
    let router = Arc::new(cluster.router(RouterConfig::default()));
    let server = RouterTcpServer::bind(router.clone(), "127.0.0.1:0").expect("binding the router");
    let mut conns = vec![
        Conn::open(server.local_addr, false),
        Conn::open(server.local_addr, true),
    ];
    let all: Vec<Key> = (0..matrices.len())
        .map(|matrix| Key { matrix, seed: None })
        .collect();
    let cold = cold_pass(&mut conns, &matrices, &all, &mut report);
    let setup_s = t.elapsed().as_secs_f64();
    report.note(format!(
        "peak RSS after set-up: {:.1} MiB",
        stats::peak_rss_mib()
    ));

    let mut keys = inputs::bulk_stream(seed);
    let budget = if trace { seconds / 2.0 } else { seconds };
    let untraced = measure(
        &mut conns,
        &matrices,
        &mut keys,
        BULK_RATE,
        budget,
        0,
        Some(&shards),
        false,
    );
    let volumes = check(&untraced, &cold, &mut report);
    if !trace {
        report.end_to_end(&end_to_end(&untraced, &volumes, setup_s));
    } else {
        let first_id = untraced.outcomes.len() as u64;
        let traced = measure(
            &mut conns,
            &matrices,
            &mut keys,
            BULK_RATE,
            budget,
            first_id,
            Some(&shards),
            true,
        );
        check(&traced, &cold, &mut report);
        wire_rows(&mut report, &untraced, &traced);
        let c = traced.counters;
        if c.misses != 0 {
            report.problem(format!("{} shard computes after the cold pass", c.misses));
        }

        // Every request is framed and decoded by the router (a binary one
        // is re-encoded as the JSON line shards read) and given its
        // placement key. The share that misses the router cache
        // (`dispatches / requests`) is also ranked onto a shard, which
        // frames, decodes and fingerprints the forwarded JSON line.
        let hop = ratio(c.dispatches, c.router_requests);
        let mean = |f: fn(&WireTimes) -> f64| mean_us(traced.answered(), f);
        let frame = mean(|w| w.first.frame_us) + hop * mean(|w| w.shard.frame_us);
        let decode = mean(|w| w.first.decode_us) + hop * mean(|w| w.shard.decode_us);
        let fingerprint = hop * mean(|w| w.shard.fingerprint_us);
        let place = mean(|w| w.first.fingerprint_us) + hop * mean(|w| w.place_us);
        let p50 = stats::median(&traced.latencies());
        let unmeasured = p50 - (frame + decode + fingerprint + place) / 1e3;
        report.layer("codec.frame_us_per_req", frame, "us");
        report.layer("protocol.decode_us_per_req", decode, "us");
        report.layer("service.fingerprint_us_per_req", fingerprint, "us");
        report.layer("router.place_us_per_req", place, "us");
        report.layer("service.unmeasured_ms", 0.0, "ms");
        report.layer("router.unmeasured_ms", unmeasured, "ms");
        report.note(format!(
            "p50 {p50:.4} ms = frame {frame:.1} us + decode {decode:.1} us + fingerprint \
             {fingerprint:.1} us + place {place:.1} us + unmeasured {unmeasured:.4} ms \
             (hop share {hop:.3})"
        ));
        report.reconcile("router", unmeasured);
        report.partition_layers(&PartitionLayers::default());
    }

    drop(conns);
    router.initiate_shutdown();
    server.join();
    drop(router);
    cluster.shutdown();
    report
}
