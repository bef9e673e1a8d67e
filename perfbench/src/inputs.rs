//! Every input of every workload, derived from the `--seed` argument.
//!
//! The program under test only ever sees what these functions return:
//! matrices, request bytes and the order requests arrive in.

use mg_collection::{generate, CollectionEntry, CollectionScale, CollectionSpec};
use mg_sparse::{gen, Coo, Idx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The two engine presets the offline workload runs every matrix under.
const PRESETS: [&str; 2] = ["mondriaan", "patoh"];

/// ε of every partition request (the paper's 3 %).
pub const EPSILON: f64 = 0.03;

/// Largest collection matrix `serve_mixed` sends.
pub const SERVE_MAX_NNZ: usize = 5_000;
/// Size of the `serve_mixed` hot set.
pub const HOT_KEYS: usize = 8;
/// Share of `serve_mixed` requests that repeat a hot key.
pub const HOT_SHARE: f64 = 0.7;

/// `route_bulk` matrix count: 1.5 × the default router cache (128).
pub const BULK_KEYS: usize = 192;
/// `route_bulk` payload sizes, in nonzeros.
pub const BULK_NNZ: (usize, usize) = (10_000, 60_000);

/// Eqn (1) of the paper for two parts: the largest part may hold at most
/// `⌊(1+ε)·⌈N/2⌉⌋` nonzeros. (`load_imbalance` measures against `N/2`, so
/// for odd `N` a partition within this bound can read slightly above ε.)
pub fn max_part_budget(nnz: u64, epsilon: f64) -> u64 {
    ((1.0 + epsilon) * nnz.div_ceil(2) as f64).floor() as u64
}

/// SplitMix64 of `seed ^ tag`: independent streams for independent inputs.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut x = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The default-scale collection (96 matrices, 500 to 60k nonzeros) whose
/// random families are drawn from `seed`.
pub fn collection(seed: u64) -> Vec<CollectionEntry> {
    generate(&CollectionSpec {
        seed: mix(seed, 0xC011),
        scale: CollectionScale::Default,
    })
}

/// One offline operation: a matrix of the collection under one preset.
#[derive(Debug, Clone, Copy)]
pub struct OfflineOp {
    pub matrix: usize,
    pub preset: &'static str,
    pub seed: u64,
}

/// Every (matrix, preset) pair of one pass, matrix-major.
pub fn offline_ops(seed: u64, matrices: usize) -> Vec<OfflineOp> {
    (0..matrices)
        .flat_map(|matrix| {
            PRESETS
                .iter()
                .enumerate()
                .map(move |(p, &preset)| OfflineOp {
                    matrix,
                    preset,
                    seed: mix(seed, (matrix * PRESETS.len() + p) as u64 + 1),
                })
        })
        .collect()
}

/// `{"rows":R,"cols":C,"entries":[[i,j],...]}`.
fn inline_json(a: &Coo) -> String {
    let mut out = String::with_capacity(32 + a.nnz() * 12);
    out.push_str(&format!(
        "{{\"rows\":{},\"cols\":{},\"entries\":[",
        a.rows(),
        a.cols()
    ));
    for (k, (i, j)) in a.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{i},{j}]"));
    }
    out.push_str("]}");
    out
}

fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The binary partition body after the id (protocol kind `0x02`): no
/// optional fields, then the inline matrix.
fn binary_body(a: &Coo) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + a.nnz() * 4);
    out.push(0); // flags: every field at its default
    out.push(0); // matrix tag: inline
    varint(&mut out, u64::from(a.rows()));
    varint(&mut out, u64::from(a.cols()));
    varint(&mut out, a.nnz() as u64);
    for (i, j) in a.iter() {
        varint(&mut out, u64::from(i));
        varint(&mut out, u64::from(j));
    }
    out
}

/// Everything of a JSON request line before its matrix.
fn json_head(id: u64, seed: Option<u64>) -> Vec<u8> {
    match seed {
        Some(s) => format!("{{\"id\":{id},\"seed\":{s},\"matrix\":"),
        None => format!("{{\"id\":{id},\"matrix\":"),
    }
    .into_bytes()
}

/// Length prefix, kind and id of a binary partition frame whose body is
/// `body_len` bytes long.
fn binary_head(id: u64, body_len: usize) -> [u8; 14] {
    let mut head = [0u8; 14];
    head[..4].copy_from_slice(&((10 + body_len) as u32).to_le_bytes());
    head[4] = 0x02; // binary partition request
    head[5] = 1; // id tag: u64
    head[6..].copy_from_slice(&id.to_le_bytes());
    head
}

/// A matrix prepared for the wire in both codecs.
pub struct WireMatrix {
    pub matrix: Coo,
    /// The inline matrix object and the end of the request line.
    pub json_tail: Vec<u8>,
    /// The binary body after the request id.
    pub binary: Vec<u8>,
}

impl WireMatrix {
    pub fn new(matrix: Coo) -> WireMatrix {
        WireMatrix {
            json_tail: format!("{}}}\n", inline_json(&matrix)).into_bytes(),
            binary: binary_body(&matrix),
            matrix,
        }
    }

    /// A request for this matrix as `(head, body)`: the bytes that differ
    /// per request, then the shared rest. Binary requests carry no seed.
    pub fn request(&self, id: u64, seed: Option<u64>, binary: bool) -> (Vec<u8>, &[u8]) {
        if binary {
            assert!(seed.is_none(), "binary requests here carry no seed field");
            (binary_head(id, self.binary.len()).to_vec(), &self.binary)
        } else {
            (json_head(id, seed), &self.json_tail)
        }
    }

    /// The whole request in one buffer.
    #[cfg(test)]
    pub fn request_bytes(&self, id: u64, seed: Option<u64>, binary: bool) -> Vec<u8> {
        let (mut head, body) = self.request(id, seed, binary);
        head.extend_from_slice(body);
        head
    }
}

/// A cacheable request identity: a matrix and the request's seed field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    pub matrix: usize,
    pub seed: Option<u64>,
}

/// `serve_mixed` inputs: the collection's matrices of at most
/// [`SERVE_MAX_NNZ`] nonzeros and the hot keys drawn from them.
pub struct MixedInputs {
    pub pool: Vec<WireMatrix>,
    pub hot: Vec<Key>,
    seed: u64,
}

pub fn mixed_inputs(seed: u64) -> MixedInputs {
    let pool: Vec<WireMatrix> = collection(seed)
        .into_iter()
        .filter(|e| e.matrix.nnz() <= SERVE_MAX_NNZ)
        .map(|e| WireMatrix::new(e.matrix))
        .collect();
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x407));
    let hot = (0..HOT_KEYS)
        .map(|h| Key {
            matrix: rng.gen_range(0..pool.len()),
            seed: Some(mix(seed, 0x4000 + h as u64)),
        })
        .collect();
    MixedInputs { pool, hot, seed }
}

impl MixedInputs {
    /// The key sequence requests draw from: [`HOT_SHARE`] hot repeats,
    /// the rest fresh keys (a pool matrix under a seed never used before).
    pub fn stream(&self) -> impl Iterator<Item = Key> + '_ {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, 0x5EED));
        let mut fresh = 0u64;
        std::iter::from_fn(move || {
            if rng.gen_bool(HOT_SHARE) {
                Some(self.hot[rng.gen_range(0..self.hot.len())])
            } else {
                fresh += 1;
                Some(Key {
                    matrix: rng.gen_range(0..self.pool.len()),
                    seed: Some(mix(self.seed, (1 << 40) | fresh)),
                })
            }
        })
    }
}

/// Log-uniform interpolation between `lo` and `hi` for step `i` of `n`.
fn log_interp(lo: usize, hi: usize, i: usize, n: usize) -> usize {
    let t = i as f64 / (n - 1) as f64;
    ((lo as f64).ln() + t * ((hi as f64).ln() - (lo as f64).ln()))
        .exp()
        .round() as usize
}

/// One `route_bulk` matrix of about `nnz` nonzeros; the family rotates
/// with `i` over banded, power-law, rectangular-random and directed
/// scale-free patterns.
fn bulk_matrix(i: usize, nnz: usize, rng: &mut StdRng) -> Coo {
    match i % 4 {
        0 => {
            let bw = 2 + (i / 4 % 5) as Idx;
            // Dropped band entries and long-range extras about cancel.
            let n = (nnz * 11 / (10 * (2 * bw as usize + 1))) as Idx;
            gen::perturbed_band(n, bw, 0.2, nnz / 50, rng)
        }
        1 => gen::chung_lu_symmetric((nnz / 6) as Idx, nnz, 0.9, rng),
        2 => gen::erdos_renyi((nnz / 6) as Idx, (nnz / 24) as Idx, nnz, rng),
        _ => gen::scale_free_directed((nnz / 6) as Idx, nnz, 0.8, 1.0, rng),
    }
}

/// `route_bulk` inputs: [`BULK_KEYS`] distinct matrices, sizes spread
/// log-uniformly over [`BULK_NNZ`], in seed-shuffled order.
pub fn bulk_inputs(seed: u64) -> Vec<WireMatrix> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xB01C));
    let mut sizes: Vec<usize> = (0..BULK_KEYS)
        .map(|i| log_interp(BULK_NNZ.0, BULK_NNZ.1, i, BULK_KEYS))
        .collect();
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.gen_range(0..=i));
    }
    sizes
        .iter()
        .enumerate()
        .map(|(i, &nnz)| WireMatrix::new(bulk_matrix(i, nnz, &mut rng)))
        .collect()
}

/// The request keys of `route_bulk`, uniform over every matrix.
pub fn bulk_stream(seed: u64) -> impl Iterator<Item = Key> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xB5EE));
    std::iter::from_fn(move || {
        Some(Key {
            matrix: rng.gen_range(0..BULK_KEYS),
            seed: None,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_server::codec::decode_partition_payload;
    use mg_server::parse_request_line;

    fn mixed_bytes(seed: u64) -> Vec<u8> {
        let inputs = mixed_inputs(seed);
        let mut out = Vec::new();
        for (id, key) in inputs.stream().take(200).enumerate() {
            out.extend(inputs.pool[key.matrix].request_bytes(id as u64, key.seed, false));
        }
        out
    }

    fn bulk_bytes(seed: u64) -> Vec<u8> {
        let inputs = bulk_inputs(seed);
        let mut out = Vec::new();
        for (id, key) in bulk_stream(seed).take(200).enumerate() {
            let m = &inputs[key.matrix];
            out.extend(m.request_bytes(id as u64, None, false));
            out.extend(m.request_bytes(id as u64, None, true));
        }
        out
    }

    fn offline_bytes(seed: u64) -> Vec<u8> {
        let entries = collection(seed);
        let mut out = Vec::new();
        for e in &entries {
            out.extend(inline_json(&e.matrix).into_bytes());
        }
        for op in offline_ops(seed, entries.len()) {
            out.extend(op.seed.to_le_bytes());
        }
        out
    }

    #[test]
    fn eqn_1_budget_rounds_half_up_then_down() {
        assert_eq!(max_part_budget(499, EPSILON), 257);
        assert_eq!(max_part_budget(485, EPSILON), 250);
        assert_eq!(max_part_budget(1000, EPSILON), 515);
        assert_eq!(max_part_budget(2, EPSILON), 1);
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for make in [offline_bytes as fn(u64) -> Vec<u8>, mixed_bytes, bulk_bytes] {
            assert_eq!(make(7), make(7));
            assert_ne!(make(7), make(8));
        }
    }

    #[test]
    fn offline_pass_covers_the_collection_under_both_presets() {
        let entries = collection(3);
        assert_eq!(entries.len(), 96);
        assert!(entries.iter().any(|e| e.name == "verytall_05_20000x13"));
        let ops = offline_ops(3, entries.len());
        assert_eq!(ops.len(), 192);
        assert_eq!(ops[1].preset, "patoh");
    }

    #[test]
    fn mixed_stream_is_mostly_hot() {
        let inputs = mixed_inputs(1);
        assert!(inputs.pool.iter().all(|m| m.matrix.nnz() <= SERVE_MAX_NNZ));
        let keys: Vec<Key> = inputs.stream().take(4000).collect();
        let hot = keys.iter().filter(|k| inputs.hot.contains(k)).count();
        let share = hot as f64 / keys.len() as f64;
        assert!((share - HOT_SHARE).abs() < 0.03, "hot share {share}");
        let fresh: std::collections::HashSet<_> =
            keys.iter().filter(|k| !inputs.hot.contains(k)).collect();
        assert_eq!(fresh.len(), keys.len() - hot, "fresh keys repeat");
    }

    #[test]
    fn bulk_payloads_span_the_size_range_and_decode() {
        let inputs = bulk_inputs(5);
        assert_eq!(inputs.len(), BULK_KEYS);
        for m in &inputs {
            let nnz = m.matrix.nnz();
            assert!((9_500..=63_000).contains(&nnz), "nnz {nnz}");
        }
        // Both encodings decode to the matrix they were made from.
        let m = &inputs[0];
        let line = m.request_bytes(9, None, false);
        let text = std::str::from_utf8(&line[..line.len() - 1]).unwrap();
        let from_json = parse_request_line(text).unwrap();
        let frame = m.request_bytes(9, None, true);
        let from_binary = decode_partition_payload(&frame[5..]).unwrap();
        for request in [from_json, from_binary] {
            let spec = request.spec.unwrap();
            let a = mg_core::service::payload_matrix(&spec.matrix)
                .unwrap()
                .unwrap();
            assert_eq!(a, m.matrix);
        }
    }
}
