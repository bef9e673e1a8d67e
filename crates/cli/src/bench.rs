//! `mgpart bench` — the wire-path benchmark harness (the BENCH
//! trajectory).
//!
//! Drives real serve/route sessions — in-process pipe sessions for
//! decode/throughput numbers, TCP round-trips for latency — across both
//! wire codecs, and emits machine-readable JSON
//! (`{"schema":"mgpart-bench/v1", ...}`) so CI can diff trajectories.
//!
//! Three modes:
//!
//! * default run: measure every workload × codec × transport cell and
//!   print a table (`--json` / `-o FILE` for the JSON document instead);
//!   the run ends with the *compute trajectory* — fresh large inline
//!   partitions per backend, sized so the partitioner phases (not the
//!   wire) dominate, summarised in the document's `compute` block.
//!   `--baseline FILE` embeds the compute phases of a previously
//!   generated document and records per-phase speedups against it;
//! * `--validate FILE`: schema-check a bench document and enforce the
//!   trajectory gates (binary beats JSON on bytes for inline payloads,
//!   on throughput for the decode-bound cached workload, and — for a
//!   document carrying a compute baseline — the kernel-speedup gate).
//!   `--against COMMITTED` additionally compares the validated
//!   document's compute-phase *shares* to the committed trajectory file
//!   within a tolerance band, so CI catches per-phase regressions
//!   without depending on wall-clock absolutes;
//! * `--conformance`: run one mixed request stream through both codecs
//!   at 1/2/4 worker threads and require byte-identical response texts.

use crate::args::Parsed;
use mg_collection::{CollectionScale, CollectionSpec};
use mg_router::{LocalCluster, RouterConfig};
use mg_server::codec::{batch_payload, encode_frame, request_payload, split_responses, KIND_JSON};
use mg_server::json::obj;
use mg_server::{Json, Service, ServiceConfig, TcpServer};
use mg_sparse::{gen, Coo, Idx};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

const SCHEMA: &str = "mgpart-bench/v1";
const TRAJECTORY: u64 = 9;
const HELLO_BINARY: &str = "{\"id\":\"bench\",\"op\":\"hello\",\"codec\":\"binary\"}";

/// The workloads every codec is measured on. `inline` is fresh compute
/// over distinct inline-COO matrices; `inline_cached` repeats one large
/// inline matrix so the cache answers everything after the first request
/// and the wire + decode path dominates; `collection` names server-side
/// matrices (tiny requests); `ping` is pure protocol overhead.
const PIPE_WORKLOADS: &[&str] = &["inline", "inline_cached", "collection", "ping"];

/// The backends the compute trajectory partitions fresh large matrices
/// through (one preset with boundary FM off, one with it on, so both FM
/// seeding disciplines are measured).
const COMPUTE_BACKENDS: &[&str] = &["mondriaan", "patoh"];

/// The phases the kernel-speedup gate is allowed to count: the three hot
/// loops of the raw-speed pass (ROADMAP "part 2"). A committed document
/// carrying a compute `baseline` must show ≥ [`GATE_SPEEDUP`]× on at
/// least [`GATE_PHASES_REQUIRED`] of them.
const GATE_PHASES: &[&str] = &["medium_grain_build", "fm_refinement", "volume_count"];
const GATE_SPEEDUP: f64 = 1.3;
const GATE_PHASES_REQUIRED: usize = 2;

/// Minimum fraction of compute-trajectory phase seconds that must land in
/// the gate phases: proves the workloads are sized so the hot kernels
/// (not coarsest-level initial partitioning) dominate.
const COMPUTE_HOT_MIN: f64 = 0.25;

/// Tolerance band of the `--against` share comparison: a phase's share of
/// compute time may exceed the committed document's share by at most
/// `share * SHARE_BAND_FACTOR + SHARE_BAND_FLOOR`. Shares are
/// machine-speed independent, so this catches a kernel regressing
/// relative to its siblings without gating on wall-clock absolutes.
const SHARE_BAND_FACTOR: f64 = 2.0;
const SHARE_BAND_FLOOR: f64 = 0.10;

struct BenchConfig {
    requests: u64,
    threads: usize,
    quick: bool,
}

struct Row {
    workload: String,
    codec: &'static str,
    transport: &'static str,
    requests: u64,
    responses: u64,
    seconds: f64,
    bytes_out: u64,
    bytes_in: u64,
    cache_hits: Option<u64>,
    p50_ms: Option<f64>,
    p99_ms: Option<f64>,
}

impl Row {
    fn throughput(&self) -> f64 {
        self.requests as f64 / self.seconds.max(1e-9)
    }
}

pub fn bench(parsed: &Parsed) -> Result<(), String> {
    if let Some(path) = parsed.flag_opt("--validate") {
        return validate_file(&path, parsed.flag_opt("--against").as_deref());
    }
    if parsed.has("--conformance") {
        return conformance();
    }
    let quick = parsed.has("--quick");
    let config = BenchConfig {
        requests: parsed.flag_parse("--requests", if quick { 24 } else { 96 })?,
        threads: parsed.flag_parse("--threads", 0usize)?,
        quick,
    };
    if config.requests == 0 {
        return Err("--requests must be at least 1".into());
    }

    // Snapshot the per-phase timing histograms (paper Fig. 5) so the
    // document reports the compute breakdown of exactly this run.
    let phase_before: Vec<(u64, f64)> = mg_obs::PHASES
        .iter()
        .map(|p| mg_obs::phase_stats(p))
        .collect();

    let mut rows: Vec<Row> = Vec::new();
    for &workload in PIPE_WORKLOADS {
        let lines = workload_lines(workload, &config);
        for codec in ["json", "binary"] {
            rows.push(pipe_run(&config, workload, codec, &lines));
        }
    }
    // Pipelined multi-job frames: the whole cached workload in ONE frame.
    rows.push(batch_run(&config));
    // TCP round-trips for latency percentiles (serial, so throughput here
    // is per-round-trip rate, not the pipelined rate the pipe rows show).
    for &workload in &["inline_cached", "ping"] {
        let lines = workload_lines(workload, &config);
        let n = (lines.len() / 2).max(8).min(lines.len());
        for codec in ["json", "binary"] {
            rows.push(tcp_run(&config, workload, codec, &lines[..n])?);
        }
    }
    // The router in front of real TCP shards, pipe session on top.
    let lines = workload_lines("inline", &config);
    for codec in ["json", "binary"] {
        rows.push(routed_run(&config, codec, &lines));
    }

    // The compute trajectory: fresh large inline partitions per backend,
    // snapshotting the phase histograms around exactly these cells so the
    // `compute` block reports a wire-free kernel profile.
    let baseline = match parsed.flag_opt("--baseline") {
        Some(path) => Some(load_compute_phases(&path)?),
        None => None,
    };
    let compute_before: Vec<(u64, f64)> = mg_obs::PHASES
        .iter()
        .map(|p| mg_obs::phase_stats(p))
        .collect();
    let mut compute_rows: Vec<Row> = Vec::new();
    for &backend in COMPUTE_BACKENDS {
        let lines = compute_lines(backend, &config);
        compute_rows.push(pipe_run(
            &config,
            &format!("compute_{backend}"),
            "binary",
            &lines,
        ));
    }
    let compute = compute_json(&compute_rows, &compute_before, baseline.as_deref());
    rows.extend(compute_rows);

    let phases = phases_json(&phase_before);
    let document = render_document(&config, &rows, phases, compute);
    if let Some(path) = parsed.flag_opt("-o") {
        std::fs::write(&path, format!("{document}\n"))
            .map_err(|e| format!("writing {path}: {e}"))?;
        mg_obs::log::info(
            "bench_written",
            &[("path", path.as_str().into()), ("rows", rows.len().into())],
        );
    } else if parsed.has("--json") {
        println!("{document}");
    } else {
        print_table(&rows);
    }
    Ok(())
}

fn fresh_service(threads: usize) -> Arc<Service> {
    Service::start(ServiceConfig {
        threads,
        collection: CollectionSpec {
            seed: 11,
            scale: CollectionScale::Smoke,
        },
        ..ServiceConfig::default()
    })
}

fn inline_json(a: &Coo) -> String {
    let entries: Vec<String> = a.iter().map(|(i, j)| format!("[{i},{j}]")).collect();
    format!(
        "{{\"rows\":{},\"cols\":{},\"entries\":[{}]}}",
        a.rows(),
        a.cols(),
        entries.join(",")
    )
}

/// The request lines of one workload (ids increase, keys as described on
/// [`PIPE_WORKLOADS`]).
fn workload_lines(workload: &str, config: &BenchConfig) -> Vec<String> {
    let n = config.requests;
    match workload {
        // Distinct matrices → every request computes. Dimensions vary
        // per request so the keyspace is spread but each job stays small.
        "inline" => (0..n.min(if config.quick { 16 } else { 48 }))
            .map(|r| {
                let a = gen::laplacian_2d(16 + r as Idx, 18);
                format!("{{\"id\":{r},\"matrix\":{},\"seed\":5}}", inline_json(&a))
            })
            .collect(),
        // One big inline matrix repeated: request 0 computes, the rest
        // hit the cache — wire bytes and request decode dominate, which
        // is exactly what the codecs differ on.
        "inline_cached" => {
            let a = gen::laplacian_2d(48, 48);
            let payload = inline_json(&a);
            (0..2 * n)
                .map(|r| format!("{{\"id\":{r},\"matrix\":{payload},\"seed\":5}}"))
                .collect()
        }
        "collection" => (0..n)
            .map(|r| {
                let name = ["laplace2d_00_k20", "arrow_00_n287_b2"][(r % 2) as usize];
                format!("{{\"id\":{r},\"matrix\":{{\"collection\":{name:?}}},\"seed\":3}}")
            })
            .collect(),
        "ping" => (0..8 * n)
            .map(|r| format!("{{\"id\":{r},\"op\":\"ping\"}}"))
            .collect(),
        other => unreachable!("unknown workload {other}"),
    }
}

/// The request lines of one compute-trajectory cell: fresh large 2D
/// Laplacians (distinct dimensions per request, so every request computes)
/// partitioned through an explicit backend. Sized so `medium_grain_build`,
/// `fm_refinement` and `volume_count` dominate the phase profile — the
/// wire carries a few hundred KB but the partitioner does the work.
fn compute_lines(backend: &str, config: &BenchConfig) -> Vec<String> {
    let (count, base) = if config.quick {
        (5u32, 120)
    } else {
        (8u32, 144)
    };
    (0..count)
        .map(|r| {
            let k = (base + r) as Idx;
            let a = gen::laplacian_2d(k, k);
            format!(
                "{{\"id\":{r},\"matrix\":{},\"seed\":7,\"backend\":\"{backend}\"}}",
                inline_json(&a)
            )
        })
        .collect()
}

/// Reads the `compute.phases` block of a previously generated bench
/// document, for `--baseline`: the pre-change tree's kernel profile.
fn load_compute_phases(path: &str) -> Result<Vec<(String, u64, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let document = Json::parse(text.trim()).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    let phases = document
        .get("compute")
        .and_then(|c| c.get("phases"))
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no compute.phases block (not a compute-era document?)"))?;
    phases
        .iter()
        .map(|entry| {
            let phase = entry
                .get("phase")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: compute phase entry without a name"))?;
            let count = entry.get("count").and_then(Json::as_u64).unwrap_or(0);
            let seconds = entry.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
            Ok((phase.to_string(), count, seconds))
        })
        .collect()
}

/// Renders one phase-delta array entry.
fn phase_entry(phase: &str, count: u64, seconds: f64) -> Json {
    obj(vec![
        ("phase", Json::Str(phase.into())),
        ("count", Json::UInt(count)),
        ("seconds", Json::Num(seconds)),
        ("mean_seconds", Json::Num(seconds / count.max(1) as f64)),
    ])
}

/// The `compute` block: per-backend cells, the phase deltas of exactly
/// those cells, the hot-phase fraction, and — when a `--baseline`
/// document was given — the embedded baseline profile plus per-phase
/// speedups against it.
fn compute_json(
    rows: &[Row],
    before: &[(u64, f64)],
    baseline: Option<&[(String, u64, f64)]>,
) -> Json {
    let deltas: Vec<(String, u64, f64)> = mg_obs::PHASES
        .iter()
        .zip(before)
        .map(|(phase, (count_before, seconds_before))| {
            let (count_now, seconds_now) = mg_obs::phase_stats(phase);
            (
                phase.to_string(),
                count_now.saturating_sub(*count_before),
                (seconds_now - seconds_before).max(0.0),
            )
        })
        .collect();
    let total: f64 = deltas.iter().map(|(_, _, s)| s).sum();
    let hot: f64 = deltas
        .iter()
        .filter(|(p, _, _)| GATE_PHASES.contains(&p.as_str()))
        .map(|(_, _, s)| s)
        .sum();
    let mut fields = vec![
        ("workloads", Json::Arr(rows.iter().map(row_json).collect())),
        (
            "requests",
            Json::UInt(rows.iter().map(|r| r.requests).sum()),
        ),
        ("seconds", Json::Num(rows.iter().map(|r| r.seconds).sum())),
        (
            "phases",
            Json::Arr(
                deltas
                    .iter()
                    .map(|(p, c, s)| phase_entry(p, *c, *s))
                    .collect(),
            ),
        ),
        (
            "hot_fraction",
            Json::Num(if total > 0.0 { hot / total } else { 0.0 }),
        ),
    ];
    if let Some(baseline) = baseline {
        fields.push((
            "baseline",
            obj(vec![(
                "phases",
                Json::Arr(
                    baseline
                        .iter()
                        .map(|(p, c, s)| phase_entry(p, *c, *s))
                        .collect(),
                ),
            )]),
        ));
        let improvement: Vec<Json> = deltas
            .iter()
            .filter_map(|(phase, _, seconds)| {
                let (_, _, base_seconds) = baseline.iter().find(|(p, _, _)| p == phase)?;
                let speedup = if *seconds > 1e-12 {
                    (base_seconds / seconds).min(9999.0)
                } else {
                    9999.0
                };
                Some(obj(vec![
                    ("phase", Json::Str(phase.clone())),
                    ("baseline_seconds", Json::Num(*base_seconds)),
                    ("seconds", Json::Num(*seconds)),
                    ("speedup", Json::Num(speedup)),
                ]))
            })
            .collect();
        fields.push(("improvement", Json::Arr(improvement)));
    }
    obj(fields)
}

fn json_script(lines: &[String]) -> Vec<u8> {
    let mut script = Vec::new();
    for line in lines {
        script.extend_from_slice(line.as_bytes());
        script.push(b'\n');
    }
    script
}

fn binary_script(lines: &[String]) -> Vec<u8> {
    let mut script = format!("{HELLO_BINARY}\n").into_bytes();
    for line in lines {
        script.extend_from_slice(&encode_frame(&request_payload(line)));
    }
    script
}

fn pipe_run(config: &BenchConfig, workload: &str, codec: &'static str, lines: &[String]) -> Row {
    let service = fresh_service(config.threads);
    let script = match codec {
        "json" => json_script(lines),
        _ => binary_script(lines),
    };
    let mut out = Vec::new();
    let start = Instant::now();
    let summary = service.run_session(script.as_slice(), &mut out);
    let seconds = start.elapsed().as_secs_f64();
    service.shutdown_and_join();
    let hello = u64::from(codec == "binary");
    assert_eq!(summary.responses, lines.len() as u64 + hello);
    Row {
        workload: workload.to_string(),
        codec,
        transport: "pipe",
        requests: lines.len() as u64,
        responses: summary.responses - hello,
        seconds,
        bytes_out: script.len() as u64,
        bytes_in: out.len() as u64,
        cache_hits: Some(summary.cache_hits),
        p50_ms: None,
        p99_ms: None,
    }
}

fn batch_run(config: &BenchConfig) -> Row {
    let lines = workload_lines("inline_cached", config);
    let payloads: Vec<Vec<u8>> = lines.iter().map(|line| request_payload(line)).collect();
    let mut script = format!("{HELLO_BINARY}\n").into_bytes();
    script.extend_from_slice(&encode_frame(&batch_payload(&payloads)));

    let service = fresh_service(config.threads);
    let mut out = Vec::new();
    let start = Instant::now();
    let summary = service.run_session(script.as_slice(), &mut out);
    let seconds = start.elapsed().as_secs_f64();
    service.shutdown_and_join();
    assert_eq!(summary.responses, lines.len() as u64 + 1);
    Row {
        workload: "inline_cached_batch".into(),
        codec: "binary",
        transport: "pipe",
        requests: lines.len() as u64,
        responses: summary.responses - 1,
        seconds,
        bytes_out: script.len() as u64,
        bytes_in: out.len() as u64,
        cache_hits: Some(summary.cache_hits),
        p50_ms: None,
        p99_ms: None,
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let index = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[index.min(sorted_ms.len() - 1)]
}

fn tcp_run(
    config: &BenchConfig,
    workload: &str,
    codec: &'static str,
    lines: &[String],
) -> Result<Row, String> {
    let service = fresh_service(config.threads);
    let server = TcpServer::bind(service, "127.0.0.1:0").map_err(|e| format!("bench bind: {e}"))?;
    let mut stream =
        TcpStream::connect(server.local_addr).map_err(|e| format!("bench connect: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut bytes_out = 0u64;
    let mut bytes_in = 0u64;
    if codec == "binary" {
        let hello = format!("{HELLO_BINARY}\n");
        stream
            .write_all(hello.as_bytes())
            .map_err(|e| e.to_string())?;
        bytes_out += hello.len() as u64;
        let mut ack = String::new();
        reader.read_line(&mut ack).map_err(|e| e.to_string())?;
        bytes_in += ack.len() as u64;
    }

    let mut latencies_ms = Vec::with_capacity(lines.len());
    let start = Instant::now();
    for line in lines {
        let buf = match codec {
            "json" => {
                let mut b = line.clone().into_bytes();
                b.push(b'\n');
                b
            }
            _ => encode_frame(&request_payload(line)),
        };
        let t = Instant::now();
        stream.write_all(&buf).map_err(|e| e.to_string())?;
        stream.flush().map_err(|e| e.to_string())?;
        bytes_out += buf.len() as u64;
        if codec == "json" {
            let mut response = String::new();
            reader.read_line(&mut response).map_err(|e| e.to_string())?;
            bytes_in += response.len() as u64;
        } else {
            let mut header = [0u8; 4];
            reader.read_exact(&mut header).map_err(|e| e.to_string())?;
            let len = u32::from_le_bytes(header) as usize;
            let mut payload = vec![0u8; len];
            reader.read_exact(&mut payload).map_err(|e| e.to_string())?;
            assert_eq!(payload[0], KIND_JSON);
            bytes_in += 4 + len as u64;
        }
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let seconds = start.elapsed().as_secs_f64();
    drop(reader);
    drop(stream);
    server.shutdown_and_join();

    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    Ok(Row {
        workload: workload.to_string(),
        codec,
        transport: "tcp",
        requests: lines.len() as u64,
        responses: lines.len() as u64,
        seconds,
        bytes_out,
        bytes_in,
        cache_hits: None,
        p50_ms: Some(percentile(&latencies_ms, 0.50)),
        p99_ms: Some(percentile(&latencies_ms, 0.99)),
    })
}

fn routed_run(config: &BenchConfig, codec: &'static str, lines: &[String]) -> Row {
    let threads = config.threads;
    let cluster = LocalCluster::spawn(2, |_| ServiceConfig {
        threads,
        collection: CollectionSpec {
            seed: 11,
            scale: CollectionScale::Smoke,
        },
        ..ServiceConfig::default()
    });
    let router = cluster.router(RouterConfig::default());
    let script = match codec {
        "json" => json_script(lines),
        _ => binary_script(lines),
    };
    let mut out = Vec::new();
    let start = Instant::now();
    let summary = router.run_session(script.as_slice(), &mut out);
    let seconds = start.elapsed().as_secs_f64();
    cluster.shutdown();
    let hello = u64::from(codec == "binary");
    assert_eq!(summary.responses, lines.len() as u64 + hello);
    Row {
        workload: "routed_inline".into(),
        codec,
        transport: "pipe",
        requests: lines.len() as u64,
        responses: summary.responses - hello,
        seconds,
        bytes_out: script.len() as u64,
        bytes_in: out.len() as u64,
        cache_hits: Some(summary.cache_hits),
        p50_ms: None,
        p99_ms: None,
    }
}

fn opt_num(value: Option<f64>) -> Json {
    match value {
        Some(v) => Json::Num(v),
        None => Json::Null,
    }
}

fn row_json(row: &Row) -> Json {
    obj(vec![
        ("workload", Json::Str(row.workload.clone())),
        ("codec", Json::Str(row.codec.into())),
        ("transport", Json::Str(row.transport.into())),
        ("requests", Json::UInt(row.requests)),
        ("responses", Json::UInt(row.responses)),
        ("seconds", Json::Num(row.seconds)),
        ("throughput_rps", Json::Num(row.throughput())),
        ("bytes_out", Json::UInt(row.bytes_out)),
        ("bytes_in", Json::UInt(row.bytes_in)),
        (
            "cache_hits",
            match row.cache_hits {
                Some(hits) => Json::UInt(hits),
                None => Json::Null,
            },
        ),
        ("p50_ms", opt_num(row.p50_ms)),
        ("p99_ms", opt_num(row.p99_ms)),
    ])
}

fn find<'a>(rows: &'a [Row], workload: &str, codec: &str, transport: &str) -> Option<&'a Row> {
    rows.iter()
        .find(|r| r.workload == workload && r.codec == codec && r.transport == transport)
}

/// The codec comparisons CI gates on: per pipe workload, binary/json
/// ratios for bytes-on-wire (request direction) and throughput.
fn comparisons_json(rows: &[Row]) -> Vec<Json> {
    let mut comparisons = Vec::new();
    for &workload in PIPE_WORKLOADS {
        let (Some(json), Some(binary)) = (
            find(rows, workload, "json", "pipe"),
            find(rows, workload, "binary", "pipe"),
        ) else {
            continue;
        };
        comparisons.push(obj(vec![
            ("workload", Json::Str(workload.into())),
            ("transport", Json::Str("pipe".into())),
            ("metric", Json::Str("bytes_out".into())),
            ("json", Json::UInt(json.bytes_out)),
            ("binary", Json::UInt(binary.bytes_out)),
            (
                "binary_over_json",
                Json::Num(binary.bytes_out as f64 / json.bytes_out.max(1) as f64),
            ),
        ]));
        comparisons.push(obj(vec![
            ("workload", Json::Str(workload.into())),
            ("transport", Json::Str("pipe".into())),
            ("metric", Json::Str("throughput_rps".into())),
            ("json", Json::Num(json.throughput())),
            ("binary", Json::Num(binary.throughput())),
            (
                "binary_over_json",
                Json::Num(binary.throughput() / json.throughput().max(1e-9)),
            ),
        ]));
    }
    comparisons
}

/// The per-phase compute breakdown of this run: deltas of the global
/// `mgpart_phase_seconds` histograms (paper Fig. 5) against a snapshot
/// taken before the first measured cell.
fn phases_json(before: &[(u64, f64)]) -> Vec<Json> {
    mg_obs::PHASES
        .iter()
        .zip(before)
        .map(|(phase, (count_before, seconds_before))| {
            let (count_now, seconds_now) = mg_obs::phase_stats(phase);
            let count = count_now.saturating_sub(*count_before);
            let seconds = (seconds_now - seconds_before).max(0.0);
            obj(vec![
                ("phase", Json::Str((*phase).into())),
                ("count", Json::UInt(count)),
                ("seconds", Json::Num(seconds)),
                ("mean_seconds", Json::Num(seconds / count.max(1) as f64)),
            ])
        })
        .collect()
}

fn render_document(config: &BenchConfig, rows: &[Row], phases: Vec<Json>, compute: Json) -> String {
    obj(vec![
        ("schema", Json::Str(SCHEMA.into())),
        ("trajectory", Json::UInt(TRAJECTORY)),
        (
            "config",
            obj(vec![
                ("requests", Json::UInt(config.requests)),
                ("threads", Json::UInt(config.threads as u64)),
                ("quick", Json::Bool(config.quick)),
            ]),
        ),
        ("results", Json::Arr(rows.iter().map(row_json).collect())),
        ("phases", Json::Arr(phases)),
        ("compute", compute),
        ("comparisons", Json::Arr(comparisons_json(rows))),
    ])
    .to_string()
}

fn print_table(rows: &[Row]) {
    println!(
        "{:<20} {:<7} {:<5} {:>8} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "workload", "codec", "wire", "requests", "rps", "bytes_out", "bytes_in", "p50_ms", "p99_ms"
    );
    for row in rows {
        let fmt_ms = |v: Option<f64>| match v {
            Some(v) => format!("{v:.3}"),
            None => "-".into(),
        };
        println!(
            "{:<20} {:<7} {:<5} {:>8} {:>12.0} {:>12} {:>12} {:>9} {:>9}",
            row.workload,
            row.codec,
            row.transport,
            row.requests,
            row.throughput(),
            row.bytes_out,
            row.bytes_in,
            fmt_ms(row.p50_ms),
            fmt_ms(row.p99_ms),
        );
    }
}

// ---------------------------------------------------------------------
// --validate: schema + trajectory gates on a bench document
// ---------------------------------------------------------------------

fn validate_file(path: &str, against: Option<&str>) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let document = Json::parse(text.trim()).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    validate_document(&document).map_err(|e| format!("{path}: {e}"))?;
    if let Some(committed) = against {
        validate_against(&document, committed).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: ok (compute shares within band of {committed})");
    } else {
        println!("{path}: ok");
    }
    Ok(())
}

/// Per-phase seconds of a document's `compute.phases` block.
fn compute_seconds(document: &Json) -> Result<Vec<(String, f64)>, String> {
    let phases = document
        .get("compute")
        .and_then(|c| c.get("phases"))
        .and_then(Json::as_array)
        .ok_or("missing compute.phases block")?;
    Ok(phases
        .iter()
        .filter_map(|entry| {
            let phase = entry.get("phase").and_then(Json::as_str)?;
            let seconds = entry.get("seconds").and_then(Json::as_f64)?;
            Some((phase.to_string(), seconds))
        })
        .collect())
}

/// The `--against` regression gate: compare the fresh document's
/// compute-phase *shares* (seconds / total compute seconds) to the
/// committed trajectory document's shares. Shares are machine-speed
/// independent, so a slow CI runner passes while a kernel that regressed
/// relative to its siblings fails. The band is generous
/// ([`SHARE_BAND_FACTOR`]× + [`SHARE_BAND_FLOOR`]) because speeding one
/// phase up mechanically inflates every other phase's share.
fn validate_against(fresh: &Json, committed_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(committed_path)
        .map_err(|e| format!("reading {committed_path}: {e}"))?;
    let committed =
        Json::parse(text.trim()).map_err(|e| format!("{committed_path}: not valid JSON: {e}"))?;
    let fresh_phases = compute_seconds(fresh)?;
    let committed_phases =
        compute_seconds(&committed).map_err(|e| format!("{committed_path}: {e}"))?;
    let fresh_total: f64 = fresh_phases.iter().map(|(_, s)| s).sum();
    let committed_total: f64 = committed_phases.iter().map(|(_, s)| s).sum();
    if fresh_total <= 0.0 || committed_total <= 0.0 {
        return Err("compute phase totals must be positive on both sides".into());
    }
    for (phase, seconds) in &fresh_phases {
        let committed_seconds = committed_phases
            .iter()
            .find(|(p, _)| p == phase)
            .map(|(_, s)| *s)
            .ok_or_else(|| format!("{committed_path}: no compute phase {phase:?}"))?;
        let share = seconds / fresh_total;
        let committed_share = committed_seconds / committed_total;
        let band = committed_share * SHARE_BAND_FACTOR + SHARE_BAND_FLOOR;
        if share > band {
            return Err(format!(
                "compute phase {phase:?} regressed: share {share:.3} exceeds \
                 committed share {committed_share:.3} band (≤ {band:.3})"
            ));
        }
    }
    Ok(())
}

fn field<'a>(value: &'a Json, name: &str) -> Result<&'a Json, String> {
    value
        .get(name)
        .ok_or_else(|| format!("missing field {name:?}"))
}

fn validate_document(document: &Json) -> Result<(), String> {
    let schema = field(document, "schema")?
        .as_str()
        .ok_or("schema must be a string")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let trajectory = field(document, "trajectory")?
        .as_u64()
        .ok_or("trajectory must be an unsigned integer")?;
    if trajectory != TRAJECTORY {
        return Err(format!("trajectory {trajectory}, expected {TRAJECTORY}"));
    }

    let results = field(document, "results")?
        .as_array()
        .ok_or("results must be an array")?;
    if results.is_empty() {
        return Err("results is empty".into());
    }
    for (index, row) in results.iter().enumerate() {
        let label = || {
            format!(
                "results[{index}] ({})",
                row.get("workload")
                    .and_then(Json::as_str)
                    .unwrap_or("<unnamed>")
            )
        };
        for name in ["workload", "codec", "transport"] {
            field(row, name)?
                .as_str()
                .ok_or_else(|| format!("{}: {name} must be a string", label()))?;
        }
        for name in ["requests", "responses", "bytes_out", "bytes_in"] {
            field(row, name)?
                .as_u64()
                .ok_or_else(|| format!("{}: {name} must be an unsigned integer", label()))?;
        }
        for name in ["seconds", "throughput_rps"] {
            let value = field(row, name)?
                .as_f64()
                .ok_or_else(|| format!("{}: {name} must be a number", label()))?;
            if !value.is_finite() || value <= 0.0 {
                return Err(format!("{}: {name} must be positive, got {value}", label()));
            }
        }
        let requests = row.get("requests").and_then(Json::as_u64).unwrap_or(0);
        let responses = row.get("responses").and_then(Json::as_u64).unwrap_or(0);
        if requests != responses {
            return Err(format!(
                "{}: {requests} requests but {responses} responses",
                label()
            ));
        }
    }
    // Full pipe coverage: every workload measured under both codecs.
    for &workload in PIPE_WORKLOADS {
        for codec in ["json", "binary"] {
            if !results.iter().any(|row| {
                row.get("workload").and_then(Json::as_str) == Some(workload)
                    && row.get("codec").and_then(Json::as_str) == Some(codec)
                    && row.get("transport").and_then(Json::as_str) == Some("pipe")
            }) {
                return Err(format!("missing pipe row for {workload}/{codec}"));
            }
        }
    }

    // The per-phase compute breakdown: all four multilevel phases (paper
    // Fig. 5) must have been observed during the run.
    let phases = field(document, "phases")?
        .as_array()
        .ok_or("phases must be an array")?;
    for required in mg_obs::PHASES {
        let entry = phases
            .iter()
            .find(|p| p.get("phase").and_then(Json::as_str) == Some(required))
            .ok_or_else(|| format!("missing phase entry {required:?}"))?;
        let count = field(entry, "count")?
            .as_u64()
            .ok_or_else(|| format!("phase {required:?}: count must be an unsigned integer"))?;
        if count == 0 {
            return Err(format!("phase {required:?} recorded no observations"));
        }
        for name in ["seconds", "mean_seconds"] {
            let value = field(entry, name)?
                .as_f64()
                .ok_or_else(|| format!("phase {required:?}: {name} must be a number"))?;
            if !value.is_finite() || value < 0.0 {
                return Err(format!(
                    "phase {required:?}: {name} must be non-negative, got {value}"
                ));
            }
        }
    }

    // The compute trajectory: per-backend cells present, the gate phases
    // observed, and — for the committed BENCH_9 document, which carries a
    // baseline — the kernel-speedup gate.
    let compute = field(document, "compute")?;
    for &backend in COMPUTE_BACKENDS {
        let name = format!("compute_{backend}");
        if !results
            .iter()
            .any(|row| row.get("workload").and_then(Json::as_str) == Some(name.as_str()))
        {
            return Err(format!("missing compute row for backend {backend}"));
        }
    }
    let compute_phases = field(compute, "phases")?
        .as_array()
        .ok_or("compute.phases must be an array")?;
    for required in GATE_PHASES {
        let entry = compute_phases
            .iter()
            .find(|p| p.get("phase").and_then(Json::as_str) == Some(required))
            .ok_or_else(|| format!("missing compute phase entry {required:?}"))?;
        let count = field(entry, "count")?.as_u64().ok_or_else(|| {
            format!("compute phase {required:?}: count must be an unsigned integer")
        })?;
        if count == 0 {
            return Err(format!(
                "compute phase {required:?} recorded no observations"
            ));
        }
    }
    let hot_fraction = field(compute, "hot_fraction")?
        .as_f64()
        .ok_or("compute.hot_fraction must be a number")?;
    if hot_fraction.is_nan() || hot_fraction < COMPUTE_HOT_MIN {
        return Err(format!(
            "compute workloads are not kernel-bound: hot_fraction {hot_fraction:.3} \
             < {COMPUTE_HOT_MIN} (gate phases must dominate)"
        ));
    }
    if let Some(improvement) = compute.get("improvement").and_then(Json::as_array) {
        let passing = improvement
            .iter()
            .filter(|entry| {
                let phase = entry.get("phase").and_then(Json::as_str).unwrap_or("");
                let speedup = entry.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
                GATE_PHASES.contains(&phase) && speedup >= GATE_SPEEDUP
            })
            .count();
        if passing < GATE_PHASES_REQUIRED {
            return Err(format!(
                "kernel-speedup gate: only {passing} of {GATE_PHASES:?} reached \
                 {GATE_SPEEDUP}× vs baseline (need {GATE_PHASES_REQUIRED})"
            ));
        }
    }

    // The trajectory gates, from the comparisons block.
    let comparisons = field(document, "comparisons")?
        .as_array()
        .ok_or("comparisons must be an array")?;
    let ratio = |workload: &str, metric: &str| -> Result<f64, String> {
        comparisons
            .iter()
            .find(|c| {
                c.get("workload").and_then(Json::as_str) == Some(workload)
                    && c.get("metric").and_then(Json::as_str) == Some(metric)
            })
            .and_then(|c| c.get("binary_over_json").and_then(Json::as_f64))
            .ok_or_else(|| format!("missing comparison {workload}/{metric}"))
    };
    for workload in ["inline", "inline_cached"] {
        let r = ratio(workload, "bytes_out")?;
        if r >= 1.0 {
            return Err(format!(
                "binary does not beat JSON on bytes-on-wire for {workload} (ratio {r:.3})"
            ));
        }
    }
    let r = ratio("inline_cached", "throughput_rps")?;
    if r <= 1.0 {
        return Err(format!(
            "binary does not beat JSON on throughput for inline_cached (ratio {r:.3})"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// --conformance: identical response texts across codecs and threads
// ---------------------------------------------------------------------

fn conformance() -> Result<(), String> {
    // A mixed stream: fresh compute, cache repeats, a collection matrix,
    // pings, a typed error, an assignment request.
    let a = gen::laplacian_2d(20, 17);
    let b = gen::laplacian_2d(9, 9);
    let lines: Vec<String> = vec![
        format!("{{\"id\":1,\"matrix\":{},\"seed\":5}}", inline_json(&a)),
        "{\"id\":2,\"op\":\"ping\"}".into(),
        format!("{{\"id\":3,\"matrix\":{},\"seed\":5}}", inline_json(&a)),
        "{\"id\":4,\"matrix\":{\"collection\":\"laplace2d_00_k20\"},\"seed\":3}".into(),
        "{\"id\":5,\"method\":\"zz\"}".into(),
        format!(
            "{{\"id\":6,\"matrix\":{},\"seed\":5,\"include_partition\":true}}",
            inline_json(&b)
        ),
    ];
    for threads in [1usize, 2, 4] {
        let service = fresh_service(threads);
        let mut json_out = Vec::new();
        service.run_session(json_script(&lines).as_slice(), &mut json_out);
        service.shutdown_and_join();
        let json_texts = split_responses(&json_out).ok_or("malformed response stream")?;

        let service = fresh_service(threads);
        let mut binary_out = Vec::new();
        service.run_session(binary_script(&lines).as_slice(), &mut binary_out);
        service.shutdown_and_join();
        let binary_texts = split_responses(&binary_out).ok_or("malformed response stream")?;

        if json_texts != binary_texts[1..] {
            return Err(format!(
                "codec conformance failed at {threads} threads: \
                 JSON and binary response texts differ"
            ));
        }
        println!(
            "conformance ok at {threads} threads ({} responses)",
            lines.len()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_of_one_element_is_that_element() {
        assert_eq!(percentile(&[7.5], 0.50), 7.5);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
        assert_eq!(percentile(&[7.5], 0.0), 7.5);
        assert_eq!(percentile(&[7.5], 1.0), 7.5);
    }

    #[test]
    fn percentile_of_empty_input_is_zero() {
        assert_eq!(percentile(&[], 0.50), 0.0);
    }

    #[test]
    fn percentile_hits_exact_rank_boundaries() {
        // 1..=100: nearest-rank on (len-1)*q.
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        // (100-1)*0.50 = 49.5 → rounds to index 50 → value 51.
        assert_eq!(percentile(&sorted, 0.50), 51.0);
        // (100-1)*0.99 = 98.01 → index 98 → value 99.
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
    }

    #[test]
    fn percentile_is_clamped_to_the_last_element() {
        let sorted = [1.0, 2.0];
        assert_eq!(percentile(&sorted, 2.0), 2.0);
    }
}
