//! Metric names, the end-to-end figures every workload reports, and the
//! result line.

use crate::layers::PartitionLayers;
use crate::stats;

/// The end-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: [&str; 7] = [
    "ops_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "cpu_ms_per_op",
    "volume_geomean",
    "setup_s",
    "peak_rss_mib",
];

/// The per-layer metrics, printed by a traced run (`--trace 1`). Layers a
/// workload does not exercise report 0.
pub const PER_LAYER: [&str; 26] = [
    "split.ms_per_op",
    "bmatrix.ms_per_op",
    "bmatrix.pins_per_op",
    "coarsen.ms_per_op",
    "initial.ms_per_op",
    "fm.ms_per_op",
    "refine.ms_per_op",
    "refine.passes_per_op",
    "volume.ms_per_op",
    "partitioner.unmeasured_ms_per_op",
    "codec.frame_us_per_req",
    "protocol.decode_us_per_req",
    "service.fingerprint_us_per_req",
    "service.cache_hit_ratio",
    "service.computes",
    "service.errors",
    "service.unmeasured_ms",
    "router.place_us_per_req",
    "router.cache_hit_ratio",
    "router.dispatches",
    "router.window_stalls",
    "router.unmeasured_ms",
    "wire.req_bytes_per_op",
    "wire.resp_bytes_per_op",
    "loadgen.lag_max_ms",
    "trace.overhead_share",
];

/// Raw end-to-end measurements of one untraced run.
pub struct EndToEnd {
    /// Operations completed correctly.
    pub ops: u64,
    /// Measured wall time those operations took, in seconds.
    pub seconds: f64,
    /// Latency samples (one per operation) of each consecutive window of
    /// the run, ascending.
    pub windows: Vec<Vec<f64>>,
    /// Process CPU spent on them, in seconds.
    pub cpu_s: f64,
    /// Volume of every distinct key.
    pub volumes: Vec<u64>,
    /// Median set-up time.
    pub setup_s: f64,
}

/// Failures, problems and metrics of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

/// Failure reasons printed before the rest are only counted.
const SHOWN_FAILURES: u64 = 10;

impl Report {
    /// A failed operation (wrong, missing or error output).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= SHOWN_FAILURES {
            self.notes.push(format!("FAILED {why}"));
        }
    }

    /// A check that is not one operation's output (set-up, reconciliation).
    pub fn problem(&mut self, why: String) {
        self.notes.push(format!("PROBLEM {why}"));
        self.problems.push(why);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// A layer's unexplained time must not be negative: the measured
    /// layers cannot take longer than the whole they are part of.
    pub fn reconcile(&mut self, layer: &str, unmeasured_ms: f64) {
        if unmeasured_ms < 0.0 {
            self.problem(format!(
                "{layer}: layer times exceed the end-to-end time by {:.4} ms",
                -unmeasured_ms
            ));
        }
    }

    pub fn partition_layers(&mut self, layers: &PartitionLayers) {
        for (name, value, unit) in layers.metrics() {
            self.layer(name, value, unit);
        }
        self.note(format!(
            "partitions decomposed: {}, {:.4} ms each",
            layers.ops,
            layers.total_ms_per_op()
        ));
    }

    pub fn end_to_end(&mut self, e: &EndToEnd) {
        if e.ops == 0 {
            self.problem("no operation completed".into());
            return;
        }
        let all = stats::sorted(e.windows.concat());
        let (tail, per_window) = stats::windowed_tail(&e.windows);
        let described: Vec<String> = per_window
            .iter()
            .map(|(v, pct, n)| format!("p{pct:.3} of {n} = {v:.3} ms"))
            .collect();
        self.note(format!(
            "latency_tail_ms is the median over {} windows of ({}); {} ops in {:.3} s",
            e.windows.len(),
            described.join(", "),
            e.ops,
            e.seconds
        ));
        self.layer("ops_per_s", e.ops as f64 / e.seconds, "1/s");
        self.layer("latency_p50_ms", stats::median(&all), "ms");
        self.layer("latency_tail_ms", tail, "ms");
        self.layer("cpu_ms_per_op", e.cpu_s * 1e3 / e.ops as f64, "ms");
        self.layer("volume_geomean", stats::geomean(&e.volumes), "count");
        self.layer("setup_s", e.setup_s, "s");
        self.layer("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    }

    /// Checks that exactly the metrics `expected` were reported.
    pub fn expect_metrics(&mut self, expected: &[&str]) {
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        got.sort_unstable();
        let mut want = expected.to_vec();
        want.sort_unstable();
        if got != want {
            self.problem(format!("reported metrics {got:?}, expected {want:?}"));
        }
        for &(name, value, _) in &self.metrics {
            if !value.is_finite() {
                self.problems.push(format!("{name} is {value}"));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Notes, one line per metric, then the result object as the last line.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        let mut fields = Vec::new();
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
            let value = if value.is_finite() { *value } else { 0.0 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names here are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = start + text[start..].find(']').expect("closing bracket");
            text[start..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(section("end_to_end"), END_TO_END);
        assert_eq!(section("per_layer"), PER_LAYER);
    }

    #[test]
    fn a_run_without_operations_is_not_correct() {
        let mut r = Report::default();
        assert!(!r.correct());
        r.attempted = 3;
        assert!(r.correct());
        r.reconcile("x", -0.5);
        assert!(!r.correct());
    }
}
