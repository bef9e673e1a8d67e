//! `offline_collection`: the paper's own measurement. A closed loop on one
//! thread calls `PartitionBackend::bipartition` (MG+IR, ε = 0.03) on every
//! matrix of the default collection under both multilevel presets.

use crate::inputs::{self, OfflineOp, EPSILON};
use crate::layers::{self, PartitionLayers};
use crate::report::{EndToEnd, Report};
use crate::stats;
use mg_collection::CollectionEntry;
use mg_core::{parse_backend, Method};
use mg_sparse::{communication_volume, load_imbalance, max_part_size};
use std::time::{Duration, Instant};

/// Times the collection is generated in set-up (`setup_s` is the median).
/// One generation takes about 0.2 s, so a stall moves few of them.
const SETUP_REPS: usize = 15;

const METHOD: Method = Method::MediumGrain { refine: true };

/// Nominal length of one pass over the corpus (about 15 s on a 2-core
/// x86-64 sandbox): a run measures `max(1, ⌊seconds / PASS_SECONDS⌋)`
/// whole passes, a count that does not depend on how fast they go.
const PASS_SECONDS: f64 = 15.0;

fn pass_count(seconds: f64) -> usize {
    ((seconds / PASS_SECONDS) as usize).max(1)
}

/// Runs `passes` passes over `ops`, checking every output. `after_op` is
/// called with each op's index and volume; its time, like the checks', is
/// kept out of the measurement.
fn untraced(
    entries: &[CollectionEntry],
    ops: &[OfflineOp],
    passes: usize,
    report: &mut Report,
    mut after_op: impl FnMut(usize, u64, &mut Report),
) -> EndToEnd {
    let mut latencies = Vec::with_capacity(ops.len() * passes);
    let mut volumes: Vec<Option<u64>> = vec![None; ops.len()];
    let mut excluded = Duration::ZERO;
    let cpu0 = stats::process_cpu_seconds();
    let start = Instant::now();
    for _ in 0..passes {
        for (k, op) in ops.iter().enumerate() {
            let a = &entries[op.matrix].matrix;
            let backend = parse_backend(op.preset).expect("registered preset");
            let t = Instant::now();
            let r = backend.bipartition(a, METHOD, EPSILON, op.seed);
            latencies.push(t.elapsed().as_secs_f64() * 1e3);

            let t = Instant::now();
            report.attempted += 1;
            let name = &entries[op.matrix].name;
            let recount = communication_volume(a, &r.partition);
            let largest = max_part_size(&r.partition);
            let budget = inputs::max_part_budget(a.nnz() as u64, EPSILON);
            let first = *volumes[k].get_or_insert(r.volume);
            if recount != r.volume {
                report.fail(format!(
                    "{name}/{}: volume {} recounts as {recount}",
                    op.preset, r.volume
                ));
            } else if largest > budget {
                let imbalance = load_imbalance(&r.partition);
                report.fail(format!(
                    "{name}/{}: largest part {largest} > {budget} (imbalance {imbalance})",
                    op.preset
                ));
            } else if first != r.volume {
                report.fail(format!(
                    "{name}/{}: volume {} != earlier pass {first}",
                    op.preset, r.volume
                ));
            }
            after_op(k, r.volume, report);
            excluded += t.elapsed();
        }
    }
    let seconds = (start.elapsed() - excluded).as_secs_f64();
    // One thread: the excluded CPU time is its wall time.
    let cpu_s = stats::process_cpu_seconds() - cpu0 - excluded.as_secs_f64();
    EndToEnd {
        ops: (ops.len() * passes) as u64,
        seconds,
        windows: vec![stats::sorted(latencies)],
        cpu_s,
        volumes: volumes
            .into_iter()
            .map(|v| v.expect("every op ran"))
            .collect(),
        setup_s: 0.0,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut entries = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        entries = inputs::collection(seed);
        setups.push(t.elapsed().as_secs_f64());
    }
    let ops = inputs::offline_ops(seed, entries.len());

    if !trace {
        let mut e2e = untraced(
            &entries,
            &ops,
            pass_count(seconds),
            &mut report,
            |_, _, _| {},
        );
        e2e.setup_s = stats::median(&stats::sorted(setups));
        report.end_to_end(&e2e);
        return report;
    }

    // Right after each untraced op, the same op decomposed into its public
    // steps, which must reproduce the untraced volume exactly. Pairing the
    // two runs of an op keeps host-speed drift out of the comparison.
    let passes = pass_count(seconds / 2.0);
    let mut layers = PartitionLayers::default();
    let mut traced_ms = Vec::with_capacity(ops.len() * passes);
    let base = untraced(&entries, &ops, passes, &mut report, |k, volume, report| {
        let op = &ops[k];
        let a = &entries[op.matrix].matrix;
        let t = layers::traced_bipartition(a, op.preset, EPSILON, op.seed);
        if t.volume != volume {
            report.problem(format!(
                "{}/{}: decomposed volume {} != {volume}",
                entries[op.matrix].name, op.preset, t.volume
            ));
        }
        traced_ms.push(t.total_ms);
        layers.add(&t);
    });
    report.partition_layers(&layers);

    let untraced_ms = base.seconds * 1e3 / base.ops as f64;
    let unmeasured = layers
        .metrics()
        .iter()
        .find(|m| m.0 == "partitioner.unmeasured_ms_per_op")
        .map_or(0.0, |m| m.1);
    report.note(format!(
        "ms per op: untraced {untraced_ms:.4}, traced {:.4} (layers plus {unmeasured:.4} unmeasured)",
        layers.total_ms_per_op()
    ));
    report.reconcile("partitioner", unmeasured);
    let traced_p50 = stats::median(&stats::sorted(traced_ms));
    report.layer(
        "trace.overhead_share",
        traced_p50 / stats::median(&base.windows[0]) - 1.0,
        "ratio",
    );
    for (names, unit) in [
        (
            &[
                "codec.frame_us_per_req",
                "protocol.decode_us_per_req",
                "service.fingerprint_us_per_req",
                "router.place_us_per_req",
            ][..],
            "us",
        ),
        (
            &["service.cache_hit_ratio", "router.cache_hit_ratio"],
            "ratio",
        ),
        (
            &[
                "service.computes",
                "service.errors",
                "router.dispatches",
                "router.window_stalls",
            ],
            "count",
        ),
        (
            &[
                "service.unmeasured_ms",
                "router.unmeasured_ms",
                "loadgen.lag_max_ms",
            ],
            "ms",
        ),
        (&["wire.req_bytes_per_op", "wire.resp_bytes_per_op"], "B"),
    ] {
        for &name in names {
            report.layer(name, 0.0, unit);
        }
    }
    report
}
