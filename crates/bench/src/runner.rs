//! The parallel experiment runner.
//!
//! Runs every method of the paper's comparison over a (synthetic)
//! collection, averaging communication volume and wall-clock partitioning
//! time over several runs, exactly like §IV ("the average communication
//! volume and partitioning time of 10 runs"). Both sweeps are thin views
//! over the batched engine of [`crate::batch`]: cells are scheduled on
//! the work-stealing pool and seeded from stable key hashes, so records
//! are identical for every thread count.

use crate::batch::{run_batch_sweep, BatchSweepConfig, SweepError};
use mg_collection::batch::{expand_jobs, run_jobs, run_seed};
use mg_collection::worker_count;
use mg_collection::{generate, CollectionSpec};
use mg_core::{parse_backend, recursive_bisection_backend, Method};
use mg_sparse::{bsp_cost, Idx, MatrixClass};
use std::time::Instant;

/// Configuration of a sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Which collection to run on.
    pub collection: CollectionSpec,
    /// Load-imbalance parameter ε (the paper uses 0.03).
    pub epsilon: f64,
    /// Runs per (matrix, method); results are averaged.
    pub runs: u32,
    /// Master seed for the partitioning RNG streams.
    pub seed: u64,
    /// Canonical backend name (the [`mg_core::backend`] registry).
    pub backend: String,
    /// Methods to compare.
    pub methods: Vec<Method>,
    /// Worker threads; 0 = one per available core.
    pub threads: usize,
}

impl SweepConfig {
    /// The paper's standard sweep: six methods, ε = 0.03, given backend.
    pub fn paper(collection: CollectionSpec, backend: &str, runs: u32) -> Self {
        SweepConfig {
            collection,
            epsilon: 0.03,
            runs,
            seed: 0xB15EC7,
            backend: backend.to_string(),
            methods: Method::paper_set().to_vec(),
            threads: 0,
        }
    }
}

/// One (matrix, method) measurement for p = 2.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Matrix name.
    pub matrix: String,
    /// Matrix class (paper's three-way split).
    pub class: MatrixClass,
    /// Matrix nonzero count.
    pub nnz: usize,
    /// Method label (`LB`, `MG+IR`, …).
    pub method: String,
    /// Mean communication volume over the runs.
    pub volume_avg: f64,
    /// Mean wall-clock partitioning time in seconds.
    pub time_avg_s: f64,
    /// Number of runs averaged.
    pub runs: u32,
}

/// One (matrix, method) measurement for p-way recursive bisection.
#[derive(Debug, Clone)]
pub struct MultiwayRecord {
    /// Matrix name.
    pub matrix: String,
    /// Matrix class.
    pub class: MatrixClass,
    /// Method label.
    pub method: String,
    /// Number of parts.
    pub p: Idx,
    /// Mean communication volume.
    pub volume_avg: f64,
    /// Mean BSP cost (fan-out + fan-in h-relations).
    pub bsp_cost_avg: f64,
    /// Mean wall-clock time in seconds.
    pub time_avg_s: f64,
}

/// Projects batch records onto the [`RunRecord`] view the profile and
/// geomean layers consume (drops the ε/seed/imbalance fields), sorted by
/// matrix name then method label.
///
/// The projection is only meaningful for a single-ε sweep — `RunRecord`
/// has no ε field, so records from different ε values would collapse
/// into duplicate (matrix, method) cells and silently corrupt the
/// profiles downstream. Multi-ε input therefore panics; split the
/// records by ε first.
pub fn batch_to_run_records(records: Vec<crate::batch::BatchRecord>) -> Vec<RunRecord> {
    if let Some(first) = records.first() {
        assert!(
            records.iter().all(|r| r.epsilon == first.epsilon),
            "batch_to_run_records projects a single-epsilon sweep; \
             partition multi-epsilon records by epsilon first"
        );
    }
    let mut out: Vec<RunRecord> = records
        .into_iter()
        .map(|r| RunRecord {
            matrix: r.matrix,
            class: r.class,
            nnz: r.nnz,
            method: r.method,
            volume_avg: r.volume_avg,
            time_avg_s: r.time_avg_s,
            runs: r.runs,
        })
        .collect();
    out.sort_by(|a, b| (a.matrix.as_str(), a.method.as_str()).cmp(&(&b.matrix, &b.method)));
    out
}

/// Runs the p = 2 sweep, returning one record per (matrix, method), sorted
/// by matrix name then method label. A thin view over
/// [`crate::batch::run_batch_sweep`] with a single-ε axis.
pub fn run_sweep(config: &SweepConfig) -> Result<Vec<RunRecord>, SweepError> {
    let batch = BatchSweepConfig {
        collection: config.collection.clone(),
        matrices: None,
        methods: config.methods.clone(),
        epsilons: vec![config.epsilon],
        runs: config.runs,
        seed: config.seed,
        backend: config.backend.clone(),
        threads: config.threads,
        verify: false,
    };
    Ok(batch_to_run_records(run_batch_sweep(&batch)?))
}

/// Runs the p-way sweep (recursive bisection), additionally measuring the
/// BSP cost of each partitioning (Table II). Cells are scheduled on the
/// same work-stealing pool as the p = 2 sweep; `p` is folded into the
/// master seed so the p = 2 and p = 64 campaigns draw independent
/// streams.
pub fn run_multiway_sweep(config: &SweepConfig, p: Idx) -> Result<Vec<MultiwayRecord>, SweepError> {
    let backend = parse_backend(&config.backend).map_err(SweepError::UnknownBackend)?;
    let entries = generate(&config.collection);
    let names: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();
    let labels: Vec<String> = config
        .methods
        .iter()
        .map(|m| m.label().to_string())
        .collect();
    let master = config.seed ^ (u64::from(p) << 32) ^ 0x4D57_4159; // "MWAY"
    let jobs = expand_jobs(backend.name(), &names, &labels, &[config.epsilon], master);
    if jobs.is_empty() {
        return Err(SweepError::EmptySweep {
            matrices: names.len(),
            methods: labels.len(),
            epsilons: 1,
        });
    }
    let runs = config.runs.max(1);

    let mut out: Vec<MultiwayRecord> = run_jobs(&jobs, worker_count(config.threads), |job| {
        let entry = &entries[job.matrix_index];
        let method = config.methods[job.method_index];
        let mut volume_sum = 0.0;
        let mut cost_sum = 0.0;
        let mut time_sum = 0.0;
        for run in 0..runs {
            let start = Instant::now();
            let result = recursive_bisection_backend(
                &entry.matrix,
                p,
                job.epsilon,
                method,
                backend,
                run_seed(job, run),
            );
            time_sum += start.elapsed().as_secs_f64();
            volume_sum += result.volume as f64;
            cost_sum += bsp_cost(&entry.matrix, &result.partition).total() as f64;
        }
        MultiwayRecord {
            matrix: entry.name.clone(),
            class: entry.class,
            method: job.method.clone(),
            p,
            volume_avg: volume_sum / runs as f64,
            bsp_cost_avg: cost_sum / runs as f64,
            time_avg_s: time_sum / runs as f64,
        }
    });
    out.sort_by(|a, b| (a.matrix.as_str(), a.method.as_str()).cmp(&(&b.matrix, &b.method)));
    Ok(out)
}

/// The paper's column order for method labels; unknown labels sort last,
/// alphabetically.
pub fn method_order_key(label: &str) -> (usize, String) {
    const ORDER: [&str; 10] = [
        "LB", "LB+IR", "MG", "MG+IR", "FG", "FG+IR", "RN", "RN+IR", "CN", "CN+IR",
    ];
    let rank = ORDER
        .iter()
        .position(|&x| x == label)
        .unwrap_or(ORDER.len());
    (rank, label.to_string())
}

/// Reshapes records into the method × case value matrices the profile and
/// geomean code consume. Returns (method labels in the paper's column
/// order, per-method values, per-case group labels), with cases ordered by
/// first appearance.
pub fn pivot_records<'a>(
    records: &'a [RunRecord],
    value: impl Fn(&RunRecord) -> f64,
) -> (Vec<String>, Vec<Vec<f64>>, Vec<String>) {
    let mut methods: Vec<String> = Vec::new();
    let mut matrices: Vec<&'a str> = Vec::new();
    for r in records {
        if !methods.contains(&r.method) {
            methods.push(r.method.clone());
        }
        if !matrices.contains(&r.matrix.as_str()) {
            matrices.push(&r.matrix);
        }
    }
    methods.sort_by_key(|m| method_order_key(m));
    let mut values = vec![vec![f64::INFINITY; matrices.len()]; methods.len()];
    let mut groups = vec![String::new(); matrices.len()];
    for r in records {
        let m = methods.iter().position(|x| *x == r.method).expect("known");
        let c = matrices.iter().position(|x| *x == r.matrix).expect("known");
        values[m][c] = value(r);
        groups[c] = class_label(r.class).to_string();
    }
    (methods, values, groups)
}

/// The paper's row labels for classes.
pub fn class_label(class: MatrixClass) -> &'static str {
    match class {
        MatrixClass::Rectangular => "Rec",
        MatrixClass::Symmetric => "Sym",
        MatrixClass::SquareNonSymmetric => "Sqr",
    }
}

/// CSV serialisation of p = 2 records.
pub fn records_to_csv(records: &[RunRecord]) -> String {
    let mut out = String::from("matrix,class,nnz,method,volume_avg,time_avg_s,runs\n");
    for r in records {
        out.push_str(&format!(
            "{},{},{},{},{:.3},{:.6},{}\n",
            r.matrix,
            class_label(r.class),
            r.nnz,
            r.method,
            r.volume_avg,
            r.time_avg_s,
            r.runs
        ));
    }
    out
}

/// CSV serialisation of multiway records.
pub fn multiway_to_csv(records: &[MultiwayRecord]) -> String {
    let mut out = String::from("matrix,class,method,p,volume_avg,bsp_cost_avg,time_avg_s\n");
    for r in records {
        out.push_str(&format!(
            "{},{},{},{},{:.3},{:.3},{:.6}\n",
            r.matrix,
            class_label(r.class),
            r.method,
            r.p,
            r.volume_avg,
            r.bsp_cost_avg,
            r.time_avg_s
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_collection::CollectionScale;

    fn tiny_config() -> SweepConfig {
        let mut cfg = SweepConfig::paper(
            CollectionSpec {
                seed: 7,
                scale: CollectionScale::Smoke,
            },
            "mondriaan",
            1,
        );
        cfg.methods = vec![
            Method::LocalBest { refine: false },
            Method::MediumGrain { refine: true },
        ];
        cfg
    }

    #[test]
    fn sweep_covers_every_matrix_and_method() {
        let cfg = tiny_config();
        let records = run_sweep(&cfg).unwrap();
        let entries = generate(&cfg.collection);
        assert_eq!(records.len(), entries.len() * cfg.methods.len());
        for r in &records {
            assert!(r.time_avg_s >= 0.0);
            assert!(r.volume_avg >= 0.0);
        }
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let mut cfg = tiny_config();
        cfg.threads = 1;
        let one = run_sweep(&cfg).unwrap();
        cfg.threads = 4;
        let four = run_sweep(&cfg).unwrap();
        assert_eq!(one.len(), four.len());
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.matrix, b.matrix);
            assert_eq!(a.method, b.method);
            assert_eq!(a.volume_avg, b.volume_avg, "{} {}", a.matrix, a.method);
        }
    }

    #[test]
    #[should_panic(expected = "single-epsilon")]
    fn multi_epsilon_records_are_rejected_by_the_projection() {
        let mut cfg = crate::batch::BatchSweepConfig::paper(
            CollectionSpec {
                seed: 7,
                scale: CollectionScale::Smoke,
            },
            "mondriaan",
            1,
        );
        cfg.methods = vec![Method::LocalBest { refine: false }];
        cfg.epsilons = vec![0.03, 0.1];
        let records = crate::batch::run_batch_sweep(&cfg).unwrap();
        let _ = batch_to_run_records(records);
    }

    #[test]
    fn multiway_sweep_is_deterministic_across_thread_counts() {
        let mut cfg = tiny_config();
        cfg.threads = 1;
        let one = run_multiway_sweep(&cfg, 4).unwrap();
        cfg.threads = 3;
        let three = run_multiway_sweep(&cfg, 4).unwrap();
        assert_eq!(one.len(), three.len());
        for (a, b) in one.iter().zip(&three) {
            assert_eq!(a.matrix, b.matrix);
            assert_eq!(a.method, b.method);
            assert_eq!(a.volume_avg, b.volume_avg, "{} {}", a.matrix, a.method);
            assert_eq!(a.bsp_cost_avg, b.bsp_cost_avg, "{} {}", a.matrix, a.method);
        }
    }

    #[test]
    fn multiway_sweep_rejects_unknown_backends() {
        let mut cfg = tiny_config();
        cfg.backend = "zoltan".to_string();
        assert!(matches!(
            run_multiway_sweep(&cfg, 4),
            Err(SweepError::UnknownBackend(_))
        ));
    }

    #[test]
    fn pivot_produces_consistent_matrix() {
        let cfg = tiny_config();
        let records = run_sweep(&cfg).unwrap();
        let (methods, values, groups) = pivot_records(&records, |r| r.volume_avg);
        assert_eq!(methods.len(), 2);
        assert_eq!(values[0].len(), groups.len());
        assert!(values.iter().all(|row| row.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let cfg = tiny_config();
        let records = run_sweep(&cfg).unwrap();
        let csv = records_to_csv(&records);
        assert_eq!(csv.lines().count(), records.len() + 1);
        assert!(csv.starts_with("matrix,class,nnz,method"));
    }
}
