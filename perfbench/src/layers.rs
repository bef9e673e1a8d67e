//! The traced run: calls each layer's public functions directly, timed
//! from outside, in the order the program itself calls them.

use mg_core::bmatrix::MediumGrainModel;
use mg_core::refine::{iterative_refinement_with_budgets, RefineOptions};
use mg_core::service::{matrix_fingerprint, payload_matrix, placement_key};
use mg_core::{initial_split, parse_backend};
use mg_partitioner::{bipartition_hypergraph, BisectionTargets, PartitionerConfig};
use mg_router::{place_replicas, RouterConfig, ShardSpec};
use mg_server::codec::{decode_partition_payload, request_json_line};
use mg_server::{parse_request_line, Request, UnitKind, UnitScanner, WireCodec};
use mg_sparse::{communication_volume, Coo};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Chunk size the TCP transports read requests in.
const READ_CHUNK: usize = 16 * 1024;

/// The program's phase histograms that time the inside of
/// `bipartition_hypergraph`.
const PHASES: [&str; 3] = ["coarsening", "initial_partition", "fm_refinement"];

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One partition split into its public steps, with the time of each.
#[derive(Debug, Clone, Default)]
pub struct PartitionTrace {
    pub volume: u64,
    pub ir_iterations: u32,
    pub pins: usize,
    pub split_ms: f64,
    pub bmatrix_ms: f64,
    pub coarsen_ms: f64,
    pub initial_ms: f64,
    pub fm_ms: f64,
    pub refine_ms: f64,
    pub volume_ms: f64,
    pub total_ms: f64,
}

/// Medium-grain bipartitioning with iterative refinement, exactly as
/// `PartitionBackend::bipartition` runs it for a multilevel preset
/// (`initial_split` → `MediumGrainModel::build` → `bipartition_hypergraph`
/// → `to_nonzero_partition` → `communication_volume` →
/// `iterative_refinement_with_budgets`), one timed call at a time.
/// Coarsening, initial partitioning and FM are the change in the
/// program's phase histograms across `bipartition_hypergraph`.
pub fn traced_bipartition(a: &Coo, preset: &str, epsilon: f64, seed: u64) -> PartitionTrace {
    let config = PartitionerConfig::preset(preset).expect("a registered preset");
    let targets = BisectionTargets::even(a.nnz() as u64, epsilon);
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();

    let t = Instant::now();
    let split = initial_split(a, &mut rng);
    let split_ms = ms_since(t);

    let t = Instant::now();
    let model = MediumGrainModel::build(a, &split);
    let bmatrix_ms = ms_since(t);

    let phases = || PHASES.map(|p| mg_obs::phase_stats(p).1);
    let before = phases();
    let outcome = bipartition_hypergraph(&model.hypergraph, &targets, &config, &mut rng);
    let after = phases();
    let delta = |k: usize| (after[k] - before[k]) * 1e3;

    let partition = model.to_nonzero_partition(a, &outcome.sides);

    let t = Instant::now();
    black_box(communication_volume(a, &partition));
    let volume_ms = ms_since(t);

    let t = Instant::now();
    let refined = iterative_refinement_with_budgets(
        a,
        &partition,
        targets.budgets(),
        &RefineOptions::default(),
    );
    let refine_ms = ms_since(t);

    PartitionTrace {
        volume: refined.volume,
        ir_iterations: refined.iterations,
        pins: model.hypergraph.num_pins(),
        split_ms,
        bmatrix_ms,
        coarsen_ms: delta(0),
        initial_ms: delta(1),
        fm_ms: delta(2),
        refine_ms,
        volume_ms,
        total_ms: ms_since(start),
    }
}

/// Running means of [`PartitionTrace`]s.
#[derive(Debug, Clone, Default)]
pub struct PartitionLayers {
    pub ops: u64,
    sum: PartitionTrace,
    passes: u64,
    pins: u64,
}

impl PartitionLayers {
    pub fn add(&mut self, t: &PartitionTrace) {
        self.ops += 1;
        self.passes += u64::from(t.ir_iterations);
        self.pins += t.pins as u64;
        let s = &mut self.sum;
        s.split_ms += t.split_ms;
        s.bmatrix_ms += t.bmatrix_ms;
        s.coarsen_ms += t.coarsen_ms;
        s.initial_ms += t.initial_ms;
        s.fm_ms += t.fm_ms;
        s.refine_ms += t.refine_ms;
        s.volume_ms += t.volume_ms;
        s.total_ms += t.total_ms;
    }

    /// Per-op means: `(name, value, unit)`, with the time not covered by
    /// any listed layer as `partitioner.unmeasured_ms_per_op`, so the
    /// times add up to `total_ms_per_op`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let n = self.ops.max(1) as f64;
        let s = &self.sum;
        let layers = [
            ("split.ms_per_op", s.split_ms),
            ("bmatrix.ms_per_op", s.bmatrix_ms),
            ("coarsen.ms_per_op", s.coarsen_ms),
            ("initial.ms_per_op", s.initial_ms),
            ("fm.ms_per_op", s.fm_ms),
            ("refine.ms_per_op", s.refine_ms),
            ("volume.ms_per_op", s.volume_ms),
        ];
        let covered: f64 = layers.iter().map(|(_, v)| v).sum();
        let mut out: Vec<_> = layers.iter().map(|&(k, v)| (k, v / n, "ms")).collect();
        out.push(("bmatrix.pins_per_op", self.pins as f64 / n, "count"));
        out.push(("refine.passes_per_op", self.passes as f64 / n, "count"));
        out.push((
            "partitioner.unmeasured_ms_per_op",
            (s.total_ms - covered) / n,
            "ms",
        ));
        out
    }

    /// Mean wall time of one decomposed partition.
    pub fn total_ms_per_op(&self) -> f64 {
        self.sum.total_ms / self.ops.max(1) as f64
    }
}

/// The calls one server makes on one request before any cache or queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerTimes {
    /// `UnitScanner::push`/`next_unit` over the bytes in read-sized chunks.
    pub frame_us: f64,
    /// `parse_request_line` or `decode_partition_payload`; on a router,
    /// a binary request's `request_json_line` re-encode too.
    pub decode_us: f64,
    /// `payload_matrix` + `matrix_fingerprint` (the router's
    /// `placement_key` makes the same two calls).
    pub fingerprint_us: f64,
}

/// The wire-side layer calls of one request, replayed in-process.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireTimes {
    /// The server that reads the client's bytes: the service, or the router.
    pub first: ServerTimes,
    /// Router only: `estimated_cost` + `place_replicas`, which the router
    /// calls on a cache miss.
    pub place_us: f64,
    /// Router only: the shard's calls on the JSON line the router
    /// forwards on a cache miss.
    pub shard: ServerTimes,
    pub fingerprint: u64,
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Frames and decodes one request's bytes as a server's reader does, and
/// returns the request unit with the decoded request. With `reencode`, a
/// binary request is also rendered into the JSON line a router forwards
/// for it (timed as part of the decode, as the router does it there).
fn frame_and_decode(
    bytes: &[u8],
    binary: bool,
    reencode: bool,
) -> (ServerTimes, Vec<u8>, Request, Option<String>) {
    let t = Instant::now();
    let mut scanner = UnitScanner::new();
    if binary {
        scanner.set_codec(WireCodec::Binary);
    }
    let mut unit = None;
    for chunk in bytes.chunks(READ_CHUNK) {
        scanner.push(chunk);
        while let Some((kind, range)) = scanner.next_unit().expect("well-formed request") {
            unit = Some((kind, scanner.bytes(&range).to_vec()));
        }
    }
    let frame_us = us_since(t);
    let (kind, unit) = unit.expect("one complete request unit");

    let t = Instant::now();
    let request = match kind {
        UnitKind::Line => {
            let text = std::str::from_utf8(&unit).expect("UTF-8 request line");
            parse_request_line(text.trim_end_matches('\r'))
        }
        UnitKind::Frame => decode_partition_payload(&unit[1..]),
    }
    .expect("decodable request");
    let reencoded =
        (reencode && matches!(kind, UnitKind::Frame)).then(|| request_json_line(&request));
    let decode_us = us_since(t);
    let times = ServerTimes {
        frame_us,
        decode_us,
        fingerprint_us: 0.0,
    };
    (times, unit, request, reencoded)
}

/// Replays one request's bytes through the calls a server makes on it
/// before any cache or queue. With `shards`, the server is a router: its
/// placement calls are timed too, and the JSON line it forwards on a miss
/// is replayed through the shard's calls.
pub fn replay_request(bytes: &[u8], binary: bool, shards: Option<&[ShardSpec]>) -> WireTimes {
    let (mut first, unit, request, reencoded) = frame_and_decode(bytes, binary, shards.is_some());
    let spec = request.spec.expect("a partition request");

    let Some(shards) = shards else {
        let t = Instant::now();
        let matrix = payload_matrix(&spec.matrix)
            .expect("valid matrix")
            .expect("inline matrix");
        let fingerprint = matrix_fingerprint(&matrix);
        first.fingerprint_us = us_since(t);
        return WireTimes {
            first,
            fingerprint,
            ..WireTimes::default()
        };
    };

    let t = Instant::now();
    let placement = placement_key(&spec.matrix).expect("valid matrix");
    first.fingerprint_us = us_since(t);

    let t = Instant::now();
    let backend = parse_backend(spec.backend.unwrap_or(mg_core::DEFAULT_BACKEND))
        .expect("registered backend");
    let heavy = placement
        .matrix
        .as_ref()
        .is_some_and(|m| backend.estimated_cost(m) >= RouterConfig::default().heavy_cost);
    black_box(place_replicas(placement.key, shards, heavy, 1));
    let place_us = us_since(t);

    // A JSON request is forwarded as it came, a binary one re-encoded.
    let mut line = reencoded.map_or(unit, String::into_bytes);
    line.push(b'\n');
    let shard = replay_request(&line, false, None);
    WireTimes {
        first,
        place_us,
        shard: shard.first,
        fingerprint: placement.key,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WireMatrix;
    use mg_core::Method;

    #[test]
    fn decomposition_reproduces_the_backend_volume() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = mg_sparse::gen::erdos_renyi(300, 200, 3000, &mut rng);
        for preset in ["mondriaan", "patoh"] {
            let backend = parse_backend(preset).unwrap();
            let whole = backend.bipartition(&a, Method::MediumGrain { refine: true }, 0.03, 99);
            let traced = traced_bipartition(&a, preset, 0.03, 99);
            assert_eq!(traced.volume, whole.volume);
            assert_eq!(traced.ir_iterations, whole.ir_iterations);
            assert!(traced.total_ms >= traced.split_ms + traced.bmatrix_ms + traced.refine_ms);
        }
    }

    #[test]
    fn replays_both_codecs_to_the_same_fingerprint() {
        let a = mg_sparse::gen::laplacian_2d(60, 60);
        let m = WireMatrix::new(a.clone());
        let json = m.request_bytes(3, None, false);
        let frame = m.request_bytes(3, None, true);
        let from_json = replay_request(&json, false, None);
        let from_binary = replay_request(&frame, true, None);
        assert_eq!(from_json.fingerprint, matrix_fingerprint(&a));
        assert_eq!(from_binary.fingerprint, matrix_fingerprint(&a));
        assert_eq!(from_json.place_us, 0.0);
        assert_eq!(from_json.shard.frame_us, 0.0);
    }

    #[test]
    fn routed_replay_times_the_shard_on_the_forwarded_line() {
        let a = mg_sparse::gen::laplacian_2d(40, 40);
        let m = WireMatrix::new(a.clone());
        let topology = mg_router::Topology::parse("127.0.0.1:1,127.0.0.1:2").unwrap();
        for binary in [false, true] {
            let bytes = m.request_bytes(5, None, binary);
            let w = replay_request(&bytes, binary, Some(topology.shards()));
            assert_eq!(w.fingerprint, matrix_fingerprint(&a));
            assert!(w.first.fingerprint_us > 0.0 && w.place_us > 0.0);
            assert!(w.shard.frame_us > 0.0 && w.shard.decode_us > 0.0);
            assert!(w.shard.fingerprint_us > 0.0);
        }
    }
}
