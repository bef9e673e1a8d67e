//! The JSON-lines wire codec: request decoding and response encoding.
//!
//! One request per line, one response per line, streamed back in
//! submission order. The full schema (fields, defaults, error codes) is
//! specified in `crates/server/PROTOCOL.md`; this module is its only
//! implementation. Method names go through the canonical
//! [`Method::parse_name`] codec, matrix payloads through the same
//! [`Coo`](mg_sparse::Coo) constructors and Matrix Market reader as the
//! rest of the workspace — so a malformed payload surfaces the library's
//! typed errors verbatim in the `message` field.

use crate::codec::WireCodec;
use crate::json::{obj, Json, JsonError, Parser};
use mg_core::service::{ErrorCode, MatrixPayload, PartitionOutcome, PartitionSpec, RequestOp};
use mg_core::Method;
use mg_sparse::Idx;

/// A decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client correlation id, echoed verbatim (`null` when absent).
    pub id: Json,
    /// What the line asks for.
    pub op: RequestOp,
    /// The partition job; present iff `op == Partition`.
    pub spec: Option<PartitionSpec>,
    /// Shard addressing of a `stats` request (`{"op":"stats","shard":
    /// "s1"}`): a router forwards the line to the named shard; a plain
    /// server answers with its own counters regardless.
    pub shard: Option<String>,
    /// The wire codec a `hello` request asks to switch to (`{"op":
    /// "hello","codec":"binary"}`); `None` on a bare hello means "stay
    /// on JSON lines". Only present when `op == Hello`.
    pub codec: Option<WireCodec>,
    /// Propagated trace context (`{"trace":{"id":"…32 hex…","parent":
    /// "…16 hex…"}}`), only on partition requests. Tracing is strictly
    /// out-of-band: the field never changes response bytes (see
    /// PROTOCOL.md § Tracing).
    pub trace: Option<mg_obs::WireTrace>,
}

/// A request that failed to decode: the (best-effort) id to echo plus the
/// error class and message for the response line.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// Echoed id (`null` when the line was not even valid JSON).
    pub id: Json,
    /// Machine-readable error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    fn new(id: &Json, code: ErrorCode, message: impl Into<String>) -> Self {
        RequestError {
            id: id.clone(),
            code,
            message: message.into(),
        }
    }
}

/// Default ε when a partition request has no `epsilon` field (the paper's
/// evaluation setting).
pub const DEFAULT_EPSILON: f64 = 0.03;

/// Default method when a partition request has no `method` field —
/// medium-grain with iterative refinement, Mondriaan 4.0's default.
pub const DEFAULT_METHOD: &str = "mg-ir";

/// Decodes one request line.
///
/// The line is parsed once. Every field lands in a [`Json`] tree and is
/// validated there, except the coordinates of an inline matrix, which
/// are decoded into the entry vector as the parse reaches them. The
/// checks still run in one fixed order, so a line with several faults
/// always reports the same one (see `PROTOCOL.md` § Matrix payloads).
pub fn parse_request_line(line: &str) -> Result<Request, RequestError> {
    let (doc, entries) = parse_document(line)
        .map_err(|e| RequestError::new(&Json::Null, ErrorCode::BadJson, e.to_string()))?;
    validate(doc, |id, m| decode_matrix(id, m, entries))
}

/// The first `entries` array of the first `matrix` object, decoded while
/// the line was parsed: the pairs up to the first entry that is not a
/// valid `[row, col]` pair, and that entry's error message. The message
/// waits for [`decode_matrix`], because a syntax error later in the line,
/// or a bad field checked before the matrix, must win over it.
struct InlineEntries {
    pairs: Vec<(Idx, Idx)>,
    first_bad: Option<String>,
}

/// Parses a request line into its [`Json`] tree, except that the first
/// `entries` array of the first `matrix` object is decoded by
/// [`decode_entries`] and leaves an empty array in its place, so no
/// `Json` value exists per nonzero. Duplicate keys keep their first
/// value, as [`Json::get`] reads them.
fn parse_document(line: &str) -> Result<(Json, Option<InlineEntries>), JsonError> {
    let mut p = Parser::new(line);
    let mut entries = None;
    let doc = if p.peek() == Some(b'{') {
        object_with(&mut p, 0, "matrix", b'{', |p| {
            object_with(p, 1, "entries", b'[', |p| {
                entries = Some(decode_entries(p, 2)?);
                Ok(Json::Arr(Vec::new()))
            })
        })?
    } else {
        p.value(0)?
    };
    p.finish()?;
    Ok((doc, entries))
}

/// Parses the object at `depth`, handing the value of its first member
/// named `key` to `decode` when that value opens with `open`.
fn object_with(
    p: &mut Parser<'_>,
    depth: usize,
    key: &str,
    open: u8,
    mut decode: impl FnMut(&mut Parser<'_>) -> Result<Json, JsonError>,
) -> Result<Json, JsonError> {
    let mut fields = Vec::new();
    let mut seen = false;
    if p.open(b'{', depth)? {
        loop {
            let name = p.key()?;
            let first = name == key && !std::mem::replace(&mut seen, true);
            let value = if first && p.peek() == Some(open) {
                decode(p)?
            } else {
                p.value(depth + 1)?
            };
            fields.push((name, value));
            if !p.more(b'}')? {
                break;
            }
        }
    }
    Ok(Json::Obj(fields))
}

/// Decodes the `entries` array at `depth`. A bad entry stops the pairs but
/// not the parse: the rest of the line must still be valid JSON.
fn decode_entries(p: &mut Parser<'_>, depth: usize) -> Result<InlineEntries, JsonError> {
    let mut decoded = InlineEntries {
        pairs: Vec::new(),
        first_bad: None,
    };
    if !p.open(b'[', depth)? {
        return Ok(decoded);
    }
    for k in 0.. {
        let pair = entry(p, depth + 1)?;
        if decoded.first_bad.is_none() {
            match entry_pair(k, pair) {
                Ok(pair) => decoded.pairs.push(pair),
                Err(message) => decoded.first_bad = Some(message),
            }
        }
        if !p.more(b']')? {
            break;
        }
    }
    Ok(decoded)
}

/// One element of `entries`: when it is an array of exactly two values,
/// each value's [`Json::as_u64`] view; `None` for anything else. Plain
/// integer coordinates are read without a [`Json`] value.
fn entry(p: &mut Parser<'_>, depth: usize) -> Result<Option<[Option<u64>; 2]>, JsonError> {
    if p.peek() != Some(b'[') {
        p.value(depth)?;
        return Ok(None);
    }
    let (mut coords, mut members) = ([None; 2], 0usize);
    if p.open(b'[', depth)? {
        loop {
            let coord = match p.uint() {
                Some(v) => Some(v),
                None => p.value(depth + 1)?.as_u64(),
            };
            if let Some(slot) = coords.get_mut(members) {
                *slot = coord;
            }
            members += 1;
            if !p.more(b']')? {
                break;
            }
        }
    }
    Ok((members == 2).then_some(coords))
}

/// Applies the coordinate rule to entry `k`: a `[row, col]` pair of
/// integers below `Idx::MAX`, the row checked first.
fn entry_pair(k: usize, coords: Option<[Option<u64>; 2]>) -> Result<(Idx, Idx), String> {
    let [row, col] = coords.ok_or_else(|| format!("entry {k} must be a [row, col] pair"))?;
    let coord = |v: Option<u64>, name: &str| {
        v.filter(|&v| v < u64::from(Idx::MAX))
            .map(|v| v as Idx)
            .ok_or_else(|| format!("entry {k}: {name} must be a 0-based u32 index"))
    };
    Ok((coord(row, "row")?, coord(col, "col")?))
}

/// Validates a parsed request document field by field; `matrix` decodes
/// the `matrix` field once every other field has passed.
fn validate(
    doc: Json,
    matrix: impl FnOnce(&Json, Option<&Json>) -> Result<MatrixPayload, RequestError>,
) -> Result<Request, RequestError> {
    if !matches!(doc, Json::Obj(_)) {
        return Err(RequestError::new(
            &Json::Null,
            ErrorCode::BadRequest,
            "request must be a JSON object",
        ));
    }
    let id = doc.get("id").cloned().unwrap_or(Json::Null);

    let op = match doc.get("op") {
        None => RequestOp::Partition,
        Some(Json::Str(s)) => match s.as_str() {
            "partition" => RequestOp::Partition,
            "ping" => RequestOp::Ping,
            "stats" => RequestOp::Stats,
            "shutdown" => RequestOp::Shutdown,
            "hello" => RequestOp::Hello,
            other => {
                return Err(RequestError::new(
                    &id,
                    ErrorCode::Unsupported,
                    format!("unsupported op {other:?}"),
                ))
            }
        },
        Some(_) => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"op\" must be a string",
            ))
        }
    };
    let shard = match doc.get("shard") {
        None => None,
        Some(Json::Str(s)) if op == RequestOp::Stats => Some(s.clone()),
        Some(_) if op == RequestOp::Stats => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"shard\" must be a string",
            ))
        }
        Some(_) => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"shard\" only applies to stats requests",
            ))
        }
    };
    let codec = match doc.get("codec") {
        None => None,
        Some(Json::Str(s)) if op == RequestOp::Hello => match WireCodec::parse(s) {
            Some(c) => Some(c),
            None => {
                return Err(RequestError::new(
                    &id,
                    ErrorCode::BadRequest,
                    format!("unknown codec {s:?} (expected \"json\" or \"binary\")"),
                ))
            }
        },
        Some(_) if op == RequestOp::Hello => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"codec\" must be a string",
            ))
        }
        Some(_) => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"codec\" only applies to hello requests",
            ))
        }
    };
    let trace = match doc.get("trace") {
        None => None,
        Some(v) if op == RequestOp::Partition => Some(parse_trace_field(&id, v)?),
        Some(_) => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"trace\" only applies to partition requests",
            ))
        }
    };
    if op != RequestOp::Partition {
        return Ok(Request {
            id,
            op,
            spec: None,
            shard,
            codec,
            trace: None,
        });
    }

    let method_name = match doc.get("method") {
        None => DEFAULT_METHOD.to_string(),
        Some(Json::Str(s)) => s.clone(),
        Some(_) => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"method\" must be a string",
            ))
        }
    };
    let method = Method::parse_name(&method_name)
        .map_err(|e| RequestError::new(&id, ErrorCode::BadMethod, e))?;

    let backend = match doc.get("backend") {
        None => None,
        Some(Json::Str(s)) => Some(
            mg_core::parse_backend(s)
                .map_err(|e| RequestError::new(&id, ErrorCode::UnknownBackend, e))?
                .name(),
        ),
        Some(_) => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"backend\" must be a string",
            ))
        }
    };

    let epsilon = match doc.get("epsilon") {
        None => DEFAULT_EPSILON,
        Some(v) => match v.as_f64() {
            Some(x) if x.is_finite() && x >= 0.0 => x,
            _ => {
                return Err(RequestError::new(
                    &id,
                    ErrorCode::BadRequest,
                    "\"epsilon\" must be a finite non-negative number",
                ))
            }
        },
    };

    let seed = match doc.get("seed") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(s) => Some(s),
            None => {
                return Err(RequestError::new(
                    &id,
                    ErrorCode::BadRequest,
                    "\"seed\" must be a non-negative integer",
                ))
            }
        },
    };

    let include_partition = match doc.get("include_partition") {
        None => false,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => {
                return Err(RequestError::new(
                    &id,
                    ErrorCode::BadRequest,
                    "\"include_partition\" must be a boolean",
                ))
            }
        },
    };

    let matrix = matrix(&id, doc.get("matrix"))?;

    Ok(Request {
        id,
        op,
        spec: Some(PartitionSpec {
            matrix,
            method,
            backend,
            epsilon,
            seed,
            include_partition,
        }),
        shard: None,
        codec: None,
        trace,
    })
}

/// Decodes the `trace` request field: an object with a mandatory 32-hex
/// `id` and an optional 16-hex `parent`. The field only carries
/// diagnostic identity, so validation is strict but the values never
/// reach a response.
fn parse_trace_field(id: &Json, v: &Json) -> Result<mg_obs::WireTrace, RequestError> {
    if !matches!(v, Json::Obj(_)) {
        return Err(RequestError::new(
            id,
            ErrorCode::BadRequest,
            "\"trace\" must be an object",
        ));
    }
    let trace_id = match v.get("id") {
        Some(Json::Str(s)) => mg_obs::trace::parse_trace_id(s).ok_or_else(|| {
            RequestError::new(
                id,
                ErrorCode::BadRequest,
                "\"trace.id\" must be 32 lowercase hex chars",
            )
        })?,
        _ => {
            return Err(RequestError::new(
                id,
                ErrorCode::BadRequest,
                "\"trace\" needs a string \"id\" field",
            ))
        }
    };
    let parent = match v.get("parent") {
        None => None,
        Some(Json::Str(s)) => Some(mg_obs::trace::parse_span_id(s).ok_or_else(|| {
            RequestError::new(
                id,
                ErrorCode::BadRequest,
                "\"trace.parent\" must be 16 lowercase hex chars",
            )
        })?),
        Some(_) => {
            return Err(RequestError::new(
                id,
                ErrorCode::BadRequest,
                "\"trace.parent\" must be a string",
            ))
        }
    };
    Ok(mg_obs::WireTrace { trace_id, parent })
}

fn decode_matrix(
    id: &Json,
    field: Option<&Json>,
    entries: Option<InlineEntries>,
) -> Result<MatrixPayload, RequestError> {
    let Some(m) = field else {
        return Err(RequestError::new(
            id,
            ErrorCode::BadRequest,
            "partition requests need a \"matrix\" field",
        ));
    };
    if !matches!(m, Json::Obj(_)) {
        return Err(RequestError::new(
            id,
            ErrorCode::BadRequest,
            "\"matrix\" must be an object",
        ));
    }
    let sources = [
        m.get("entries").is_some() || m.get("rows").is_some() || m.get("cols").is_some(),
        m.get("collection").is_some(),
        m.get("mtx").is_some(),
    ];
    match sources {
        [true, false, false] => {
            let rows = dim(id, m, "rows")?;
            let cols = dim(id, m, "cols")?;
            // An `entries` array in the tree is the placeholder of the
            // one the parse decoded.
            let decoded = match (m.get("entries").and_then(Json::as_array), entries) {
                (Some(_), Some(decoded)) => decoded,
                _ => {
                    return Err(RequestError::new(
                        id,
                        ErrorCode::BadRequest,
                        "inline matrices need an \"entries\" array",
                    ))
                }
            };
            if let Some(message) = decoded.first_bad {
                return Err(RequestError::new(id, ErrorCode::BadMatrix, message));
            }
            Ok(MatrixPayload::Inline {
                rows,
                cols,
                entries: decoded.pairs,
            })
        }
        [false, true, false] => {
            let name = m.get("collection").and_then(Json::as_str).ok_or_else(|| {
                RequestError::new(id, ErrorCode::BadRequest, "\"collection\" must be a string")
            })?;
            Ok(MatrixPayload::Collection(name.to_string()))
        }
        [false, false, true] => {
            let text = m.get("mtx").and_then(Json::as_str).ok_or_else(|| {
                RequestError::new(id, ErrorCode::BadRequest, "\"mtx\" must be a string")
            })?;
            Ok(MatrixPayload::MatrixMarket(text.to_string()))
        }
        _ => Err(RequestError::new(
            id,
            ErrorCode::BadRequest,
            "\"matrix\" must be exactly one of inline {rows, cols, entries}, \
             {collection}, or {mtx}",
        )),
    }
}

fn dim(id: &Json, m: &Json, name: &str) -> Result<Idx, RequestError> {
    m.get(name)
        .and_then(Json::as_u64)
        .filter(|&v| v < u64::from(Idx::MAX))
        .map(|v| v as Idx)
        .ok_or_else(|| {
            RequestError::new(
                id,
                ErrorCode::BadRequest,
                format!("inline matrices need a u32 \"{name}\" field"),
            )
        })
}

/// Encodes the success response for an executed (or cache-served) job.
///
/// Every field is a pure function of (matrix content, method, ε, seed) —
/// plus the submission-order-deterministic `cached` flag — so the line is
/// byte-identical whatever thread count or scheduling produced it.
/// `time_ms` is the only exception and is emitted solely when the server
/// runs with timing enabled (a non-deterministic, human-facing mode).
pub fn ok_response(
    id: &Json,
    outcome: &PartitionOutcome,
    cached: bool,
    include_partition: bool,
    time_ms: Option<f64>,
) -> String {
    let mut fields = vec![
        ("id", id.clone()),
        ("status", Json::Str("ok".into())),
        (
            "matrix",
            obj(vec![
                ("rows", Json::UInt(u64::from(outcome.rows))),
                ("cols", Json::UInt(u64::from(outcome.cols))),
                ("nnz", Json::UInt(outcome.nnz as u64)),
                (
                    "fingerprint",
                    Json::Str(format!("{:016x}", outcome.fingerprint)),
                ),
            ]),
        ),
        ("backend", Json::Str(outcome.backend.into())),
        ("method", Json::Str(outcome.method.into())),
        ("epsilon", Json::Num(outcome.epsilon)),
        ("seed", Json::UInt(outcome.seed)),
        ("volume", Json::UInt(outcome.volume)),
        ("imbalance", Json::Num(outcome.imbalance)),
        (
            "ir_iterations",
            Json::UInt(u64::from(outcome.ir_iterations)),
        ),
        (
            "part_nnz",
            Json::Arr(vec![
                Json::UInt(outcome.part_nnz[0]),
                Json::UInt(outcome.part_nnz[1]),
            ]),
        ),
        ("cached", Json::Bool(cached)),
    ];
    if include_partition {
        fields.push((
            "partition",
            Json::Arr(
                outcome
                    .partition
                    .iter()
                    .map(|&p| Json::UInt(u64::from(p)))
                    .collect(),
            ),
        ));
    }
    if let Some(ms) = time_ms {
        fields.push(("time_ms", Json::Num(ms)));
    }
    obj(fields).to_string()
}

/// Encodes an error response line. `shard` is the serving shard's
/// diagnostic tag (`--shard-id`), appended so a client behind a router
/// can see which shard rejected the request; untagged servers (the
/// default) omit the field entirely.
pub fn error_response(id: &Json, code: ErrorCode, message: &str, shard: Option<&str>) -> String {
    let mut fields = vec![
        ("id", id.clone()),
        ("status", Json::Str("error".into())),
        ("code", Json::Str(code.as_str().into())),
        ("message", Json::Str(message.into())),
    ];
    if let Some(shard) = shard {
        fields.push(("shard", Json::Str(shard.into())));
    }
    obj(fields).to_string()
}

/// Encodes the acknowledgement of a `hello` codec negotiation. The ack
/// itself travels in the codec that was in effect *before* the hello;
/// every unit after it uses the acknowledged codec.
pub fn hello_response(id: &Json, codec: WireCodec) -> String {
    obj(vec![
        ("id", id.clone()),
        ("status", Json::Str("ok".into())),
        ("op", Json::Str("hello".into())),
        ("codec", Json::Str(codec.name().into())),
    ])
    .to_string()
}

/// Encodes the response to a `ping` / `shutdown` op.
pub fn op_response(id: &Json, op: &str) -> String {
    obj(vec![
        ("id", id.clone()),
        ("status", Json::Str("ok".into())),
        ("op", Json::Str(op.into())),
    ])
    .to_string()
}

/// Session counters snapshotted when a `stats` request is decoded; all
/// are decided at submission time in stream order, so they are a pure
/// function of the request prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Request lines decoded so far (including this one).
    pub received: u64,
    /// Partition requests served from the cache or coalesced onto an
    /// in-flight twin.
    pub cache_hits: u64,
    /// Partition requests that missed the cache and queued a fresh job.
    pub cache_misses: u64,
    /// Error responses so far.
    pub errors: u64,
    /// Open sessions on the serving engine when this request was
    /// decoded (always counts at least the asking session).
    pub sessions: u64,
}

/// Encodes the response to a `stats` op. The snapshot counters reflect
/// the session stream strictly *up to and including* this request;
/// `completed` counts the jobs *computed* (not cache-served) per backend
/// among the responses delivered before this line — also a pure function
/// of the request prefix, because responses are delivered in submission
/// order. `queue_depth` is the session's still-undelivered partition
/// jobs at render time — deterministically 0 unless partition requests
/// trail the stats request in flight (see PROTOCOL.md). Backends with
/// zero completed jobs are omitted; `shard` is the serving shard's
/// diagnostic tag, omitted when the server is untagged.
pub fn stats_response(
    id: &Json,
    snapshot: StatsSnapshot,
    completed: &[(&'static str, u64)],
    queue_depth: u64,
    shard: Option<&str>,
) -> String {
    let mut fields = vec![
        ("id", id.clone()),
        ("status", Json::Str("ok".into())),
        ("op", Json::Str("stats".into())),
        ("received", Json::UInt(snapshot.received)),
        ("cache_hits", Json::UInt(snapshot.cache_hits)),
        ("cache_misses", Json::UInt(snapshot.cache_misses)),
        ("errors", Json::UInt(snapshot.errors)),
        ("sessions", Json::UInt(snapshot.sessions)),
        ("queue_depth", Json::UInt(queue_depth)),
        (
            "backends",
            Json::Obj(
                completed
                    .iter()
                    .filter(|(_, count)| *count > 0)
                    .map(|(name, count)| (name.to_string(), Json::UInt(*count)))
                    .collect(),
            ),
        ),
    ];
    if let Some(shard) = shard {
        fields.push(("shard", Json::Str(shard.into())));
    }
    obj(fields).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The tree-based decode the streaming one replaced, kept as its
    /// oracle: the whole line through [`Json::parse`], then the same
    /// field checks, with the matrix decoded from the tree.
    fn oracle(line: &str) -> Result<Request, RequestError> {
        let doc = Json::parse(line)
            .map_err(|e| RequestError::new(&Json::Null, ErrorCode::BadJson, e.to_string()))?;
        validate(doc, tree_decode_matrix)
    }

    fn tree_decode_matrix(id: &Json, field: Option<&Json>) -> Result<MatrixPayload, RequestError> {
        let Some(m) = field else {
            return Err(RequestError::new(
                id,
                ErrorCode::BadRequest,
                "partition requests need a \"matrix\" field",
            ));
        };
        if !matches!(m, Json::Obj(_)) {
            return Err(RequestError::new(
                id,
                ErrorCode::BadRequest,
                "\"matrix\" must be an object",
            ));
        }
        let sources = [
            m.get("entries").is_some() || m.get("rows").is_some() || m.get("cols").is_some(),
            m.get("collection").is_some(),
            m.get("mtx").is_some(),
        ];
        match sources {
            [true, false, false] => {
                let rows = dim(id, m, "rows")?;
                let cols = dim(id, m, "cols")?;
                let raw = m.get("entries").and_then(Json::as_array).ok_or_else(|| {
                    RequestError::new(
                        id,
                        ErrorCode::BadRequest,
                        "inline matrices need an \"entries\" array",
                    )
                })?;
                let mut entries = Vec::with_capacity(raw.len());
                for (k, pair) in raw.iter().enumerate() {
                    let coords = pair.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                        RequestError::new(
                            id,
                            ErrorCode::BadMatrix,
                            format!("entry {k} must be a [row, col] pair"),
                        )
                    })?;
                    let coord = |axis: usize, name: &str| -> Result<Idx, RequestError> {
                        coords[axis]
                            .as_u64()
                            .filter(|&v| v < u64::from(Idx::MAX))
                            .map(|v| v as Idx)
                            .ok_or_else(|| {
                                RequestError::new(
                                    id,
                                    ErrorCode::BadMatrix,
                                    format!("entry {k}: {name} must be a 0-based u32 index"),
                                )
                            })
                    };
                    entries.push((coord(0, "row")?, coord(1, "col")?));
                }
                Ok(MatrixPayload::Inline {
                    rows,
                    cols,
                    entries,
                })
            }
            [false, true, false] => {
                let name = m.get("collection").and_then(Json::as_str).ok_or_else(|| {
                    RequestError::new(id, ErrorCode::BadRequest, "\"collection\" must be a string")
                })?;
                Ok(MatrixPayload::Collection(name.to_string()))
            }
            [false, false, true] => {
                let text = m.get("mtx").and_then(Json::as_str).ok_or_else(|| {
                    RequestError::new(id, ErrorCode::BadRequest, "\"mtx\" must be a string")
                })?;
                Ok(MatrixPayload::MatrixMarket(text.to_string()))
            }
            _ => Err(RequestError::new(
                id,
                ErrorCode::BadRequest,
                "\"matrix\" must be exactly one of inline {rows, cols, entries}, \
                 {collection}, or {mtx}",
            )),
        }
    }

    fn assert_matches_oracle(line: &str) {
        assert_eq!(parse_request_line(line), oracle(line), "line {line:?}");
    }

    #[test]
    fn checked_in_scripts_decode_as_the_oracle_does() {
        let scripts = [
            include_str!("../tests/data/smoke_requests.jsonl"),
            include_str!("../../router/tests/data/route_requests.jsonl"),
        ];
        let mut lines = 0;
        for line in scripts.iter().flat_map(|s| s.lines()) {
            let line = line.trim();
            if !line.is_empty() {
                assert_matches_oracle(line);
                lines += 1;
            }
        }
        assert!(lines >= 15, "both scripts were read ({lines} lines)");
    }

    /// The coordinate edge cases one by one, each with the outcome it
    /// must have besides agreeing with the oracle.
    #[test]
    fn coordinate_edge_cases_decode_as_the_oracle_does() {
        let inline = |entries: &str| {
            format!(r#"{{"id":3,"matrix":{{"rows":9,"cols":9,"entries":{entries}}}}}"#)
        };
        let big = |entries: &str| {
            format!(r#"{{"matrix":{{"rows":4294967294,"cols":4294967294,"entries":{entries}}}}}"#)
        };
        let pairs = |line: &str| match parse_request_line(line).unwrap().spec.unwrap().matrix {
            MatrixPayload::Inline { entries, .. } => entries,
            other => panic!("not inline: {other:?}"),
        };
        let error = |line: &str| {
            let e = parse_request_line(line).unwrap_err();
            (e.code, e.message)
        };
        let bad_matrix = |m: &str| (ErrorCode::BadMatrix, m.to_string());

        let line = inline("[[1.0,1e0],[2,0.0],[0,3E+0]]");
        assert_eq!(pairs(&line), vec![(1, 1), (2, 0), (0, 3)]);
        let line = big("[[4294967293,0],[0,4294967293]]");
        assert_eq!(pairs(&line), vec![(4294967293, 0), (0, 4294967293)]);
        let spaced = " {\t\"matrix\" :\n{ \"rows\" : 2 ,\"cols\":2,\r\n\"entries\" :[ [ 0 , 1 ] ,[1,0 ] ] } } ";
        assert_eq!(pairs(spaced), vec![(0, 1), (1, 0)]);
        assert_eq!(pairs(&inline("[]")), vec![]);
        let cases = [
            (
                inline("[[-1,0]]"),
                bad_matrix("entry 0: row must be a 0-based u32 index"),
            ),
            (
                inline("[[0,0],[0,-1]]"),
                bad_matrix("entry 1: col must be a 0-based u32 index"),
            ),
            (
                inline("[[0,1.5]]"),
                bad_matrix("entry 0: col must be a 0-based u32 index"),
            ),
            (
                big("[[4294967295,0]]"),
                bad_matrix("entry 0: row must be a 0-based u32 index"),
            ),
            (
                inline("[[0,0],[1]]"),
                bad_matrix("entry 1 must be a [row, col] pair"),
            ),
            (
                inline("[[1,2,3]]"),
                bad_matrix("entry 0 must be a [row, col] pair"),
            ),
            (
                inline(r#"[[0,0],"x"]"#),
                bad_matrix("entry 1 must be a [row, col] pair"),
            ),
            (
                inline("[[[0],0]]"),
                bad_matrix("entry 0: row must be a 0-based u32 index"),
            ),
            (
                inline("{}"),
                (
                    ErrorCode::BadRequest,
                    "inline matrices need an \"entries\" array".into(),
                ),
            ),
            (
                inline(r#""x""#),
                (
                    ErrorCode::BadRequest,
                    "inline matrices need an \"entries\" array".into(),
                ),
            ),
        ];
        for (line, expected) in &cases {
            assert_eq!(&error(line), expected, "line {line:?}");
        }
        // `01` is not a number: a syntax error, not a bad coordinate.
        assert_eq!(error(&inline("[[01,0]]")).0, ErrorCode::BadJson);
        // Duplicate keys: the first `matrix` and the first `entries` win.
        let line = r#"{"matrix":{"rows":2,"cols":2,"entries":[[0,0]],"entries":[[1,-1]]},"matrix":{"collection":"x"}}"#;
        assert_eq!(pairs(line), vec![(0, 0)]);
        let line = r#"{"matrix":{"rows":2,"cols":2,"entries":"x","entries":[[1,1]]}}"#;
        assert_eq!(error(line).0, ErrorCode::BadRequest);
        let line = r#"{"matrix":"m","matrix":{"rows":2,"cols":2,"entries":[[0,0]]}}"#;
        assert_eq!(error(line).0, ErrorCode::BadRequest);
        // An escaped key is the key it decodes to.
        assert_eq!(
            pairs(r#"{"matrix":{"rows":2,"cols":2,"entr\u0069es":[[1,0]]}}"#),
            vec![(1, 0)]
        );
        // A bad entry waits: a later syntax error is still `bad_json`, and
        // a bad field checked before the matrix still wins.
        let line = inline("[[-1,0],[0,0]]");
        assert_eq!(error(&format!("{line} x")).0, ErrorCode::BadJson);
        assert_eq!(
            error(&line.replacen("[0,0]]", "[0,0]", 1)).0,
            ErrorCode::BadJson
        );
        assert_eq!(
            error(&line.replacen("{", r#"{"method":"zz","#, 1)).0,
            ErrorCode::BadMethod
        );
        assert_eq!(
            error(&line.replacen("{", r#"{"seed":-1,"#, 1)).0,
            ErrorCode::BadRequest
        );
        assert_eq!(
            error(&line.replace(r#""rows":9"#, r#""rows":-9"#)),
            (
                ErrorCode::BadRequest,
                "inline matrices need a u32 \"rows\" field".into()
            )
        );
        for (line, _) in &cases {
            assert_matches_oracle(line);
        }
        for line in [
            inline("[[1.0,1e0],[2,0.0],[0,3E+0]]"),
            big("[[4294967293,0],[0,4294967293]]"),
            spaced.to_string(),
            inline("[[01,0]]"),
            inline("[[-1,0],[0,0]] x"),
            r#"{"matrix":{"rows":2,"cols":2,"entr\u0069es":[[1,0]]}}"#.to_string(),
        ] {
            assert_matches_oracle(&line);
        }
    }

    /// Whitespace drawn at random: none mostly, sometimes every kind.
    fn ws(rng: &mut TestRng) -> &'static str {
        const WS: [&str; 8] = ["", "", "", "", " ", "\t", "\r\n", " \n  "];
        WS[(rng.next_u64() % WS.len() as u64) as usize]
    }

    fn one_in(rng: &mut TestRng, n: u64) -> bool {
        rng.next_u64().is_multiple_of(n)
    }

    fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
        options[(rng.next_u64() % options.len() as u64) as usize]
    }

    /// An object of `fields` in random order, whitespace around every
    /// token.
    fn object(rng: &mut TestRng, mut fields: Vec<(String, String)>) -> String {
        for k in (1..fields.len()).rev() {
            fields.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
        }
        let mut out = format!("{{{}", ws(rng));
        for (k, (key, value)) in fields.iter().enumerate() {
            if k > 0 {
                out.push_str(&format!(",{}", ws(rng)));
            }
            out.push_str(&format!("{key}{}:{}{value}{}", ws(rng), ws(rng), ws(rng)));
        }
        out.push('}');
        out
    }

    /// A random inline-matrix request: mostly valid, with a few faults
    /// drawn from the edge cases of the coordinate rule, the `entries`
    /// and `matrix` keys, and the fields checked before the matrix.
    fn mutant(rng: &mut TestRng) -> String {
        const COORDS: [&str; 14] = [
            "0",
            "1",
            "7",
            "1.0",
            "1e0",
            "2E1",
            "-1",
            "01",
            "0.5",
            "4294967294",
            "4294967295",
            "18446744073709551616",
            "\"3\"",
            "null",
        ];
        const ENTRIES: [&str; 6] = ["[1]", "[1,2,3]", "\"x\"", "[]", "{}", "[[1,2]]"];
        let count = rng.next_u64() % 6;
        let mut entries = format!("[{}", ws(rng));
        for k in 0..count {
            if k > 0 {
                entries.push_str(&format!(",{}", ws(rng)));
            }
            if one_in(rng, 8) {
                entries.push_str(pick(rng, &ENTRIES));
            } else {
                let coord = |rng: &mut TestRng| {
                    if one_in(rng, 6) {
                        pick(rng, &COORDS).to_string()
                    } else {
                        (rng.next_u64() % 9).to_string()
                    }
                };
                let (i, j) = (coord(rng), coord(rng));
                entries.push_str(&format!(
                    "[{}{i}{},{}{j}{}]",
                    ws(rng),
                    ws(rng),
                    ws(rng),
                    ws(rng)
                ));
            }
        }
        entries.push_str(&format!("{}]", ws(rng)));
        let entries_key = if one_in(rng, 10) {
            r#""entr\u0069es""#
        } else {
            r#""entries""#
        }
        .to_string();
        let mut matrix = vec![
            (
                "\"rows\"".to_string(),
                if one_in(rng, 4) {
                    pick(rng, &["9.0", "-9", "\"9\"", "4294967295"])
                } else {
                    "9"
                }
                .to_string(),
            ),
            (
                "\"cols\"".to_string(),
                pick(rng, &["9", "9", "9", "1e1"]).to_string(),
            ),
        ];
        match rng.next_u64() % 12 {
            0 => matrix.push((
                entries_key,
                pick(rng, &["\"x\"", "{}", "5", "null"]).to_string(),
            )),
            1 => {
                matrix.push((entries_key, entries));
                matrix.push(("\"entries\"".into(), "[[1,-1]]".into()));
            }
            2 => {
                matrix.push(("\"entries\"".into(), "7".into()));
                matrix.push((entries_key, entries));
            }
            3 => matrix = vec![("\"collection\"".into(), "\"c\"".into())],
            _ => matrix.push((entries_key, entries)),
        }
        let matrix = object(rng, matrix);
        let mut fields = vec![(
            "\"id\"".to_string(),
            pick(rng, &["1", "\"a\\\"b\"", "null", "-3", "{\"k\":[1]}"]).to_string(),
        )];
        match rng.next_u64() % 10 {
            0 => fields.push((
                "\"matrix\"".into(),
                pick(rng, &["\"m\"", "[1]"]).to_string(),
            )),
            1 => {
                fields.push(("\"matrix\"".into(), matrix));
                fields.push(("\"matrix\"".into(), "{\"collection\":\"x\"}".into()));
            }
            _ => fields.push(("\"matrix\"".into(), matrix)),
        }
        for (key, values) in [
            ("\"method\"", ["\"mg\"", "\"zz\"", "3"]),
            ("\"backend\"", ["\"patoh\"", "\"hmetis\"", "1"]),
            ("\"epsilon\"", ["0.1", "-1", "\"e\""]),
            ("\"seed\"", ["7", "-3", "18446744073709551615"]),
        ] {
            if one_in(rng, 4) {
                fields.push((key.into(), pick(rng, &values).to_string()));
            }
        }
        let mut line = format!("{}{}{}", ws(rng), object(rng, fields), ws(rng));
        // A syntax error after everything else: cut the line short, or
        // drop a stray byte into it.
        match rng.next_u64() % 8 {
            0 => line.truncate((rng.next_u64() % line.len() as u64) as usize),
            1 => {
                const STRAY: [char; 6] = [',', ']', '}', 'x', ':', '"'];
                let at = (rng.next_u64() % (line.len() as u64 + 1)) as usize;
                line.insert(at, STRAY[(rng.next_u64() % 6) as usize]);
            }
            _ => {}
        }
        line
    }

    proptest! {
        #[test]
        fn mutated_requests_decode_as_the_oracle_does(seed in any::<u64>()) {
            let mut rng = TestRng::from_seed(seed);
            for _ in 0..32 {
                let line = mutant(&mut rng);
                prop_assert_eq!(parse_request_line(&line), oracle(&line), "line {:?}", line);
            }
        }
    }

    #[test]
    fn decodes_a_minimal_inline_request() {
        let r =
            parse_request_line(r#"{"id":1,"matrix":{"rows":2,"cols":2,"entries":[[0,0],[1,1]]}}"#)
                .unwrap();
        assert_eq!(r.id, Json::UInt(1));
        assert_eq!(r.op, RequestOp::Partition);
        let spec = r.spec.unwrap();
        assert_eq!(spec.method, Method::MediumGrain { refine: true });
        assert_eq!(spec.backend, None, "no backend field means server default");
        assert_eq!(spec.epsilon, DEFAULT_EPSILON);
        assert_eq!(spec.seed, None);
        assert!(!spec.include_partition);
        assert_eq!(
            spec.matrix,
            MatrixPayload::Inline {
                rows: 2,
                cols: 2,
                entries: vec![(0, 0), (1, 1)]
            }
        );
    }

    #[test]
    fn decodes_and_validates_the_trace_field() {
        let tid = "00112233445566778899aabbccddeeff";
        let line = format!(
            r#"{{"id":1,"matrix":{{"rows":2,"cols":2,"entries":[[0,0],[1,1]]}},"trace":{{"id":"{tid}","parent":"0011223344556677"}}}}"#
        );
        let r = parse_request_line(&line).unwrap();
        let trace = r.trace.expect("trace field decodes");
        assert_eq!(trace.trace_id, 0x0011_2233_4455_6677_8899_aabb_ccdd_eeff);
        assert_eq!(trace.parent, Some(0x0011_2233_4455_6677));

        // `parent` is optional.
        let line = format!(
            r#"{{"matrix":{{"rows":1,"cols":1,"entries":[[0,0]]}},"trace":{{"id":"{tid}"}}}}"#
        );
        assert_eq!(
            parse_request_line(&line).unwrap().trace,
            Some(mg_obs::WireTrace {
                trace_id: 0x0011_2233_4455_6677_8899_aabb_ccdd_eeff,
                parent: None
            })
        );

        // Malformed ids, wrong shapes, and misplaced fields are typed errors.
        for bad in [
            r#"{"matrix":{"rows":1,"cols":1,"entries":[[0,0]]},"trace":"abc"}"#.to_string(),
            r#"{"matrix":{"rows":1,"cols":1,"entries":[[0,0]]},"trace":{"id":"xyz"}}"#.to_string(),
            format!(
                r#"{{"matrix":{{"rows":1,"cols":1,"entries":[[0,0]]}},"trace":{{"id":"{tid}","parent":7}}}}"#
            ),
            format!(r#"{{"op":"ping","trace":{{"id":"{tid}"}}}}"#),
        ] {
            let e = parse_request_line(&bad).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest, "line: {bad}");
        }
        let e = parse_request_line(&format!(r#"{{"op":"ping","trace":{{"id":"{tid}"}}}}"#))
            .unwrap_err();
        assert!(
            e.message.contains("only applies to partition"),
            "{}",
            e.message
        );
    }

    #[test]
    fn decodes_hello_and_validates_the_codec_field() {
        let r = parse_request_line(r#"{"id":9,"op":"hello","codec":"binary"}"#).unwrap();
        assert_eq!(r.op, RequestOp::Hello);
        assert_eq!(r.codec, Some(WireCodec::Binary));
        assert_eq!(
            hello_response(&r.id, WireCodec::Binary),
            r#"{"id":9,"status":"ok","op":"hello","codec":"binary"}"#
        );

        // Omitting the codec is a no-op hello (stays on JSON lines).
        let r = parse_request_line(r#"{"op":"hello"}"#).unwrap();
        assert_eq!(r.codec, None);
        assert_eq!(
            hello_response(&r.id, WireCodec::JsonLines),
            r#"{"id":null,"status":"ok","op":"hello","codec":"json"}"#
        );

        // Unknown codec names and non-string values are typed errors.
        let e = parse_request_line(r#"{"op":"hello","codec":"msgpack"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(e.message.contains("msgpack"), "{}", e.message);
        let e = parse_request_line(r#"{"op":"hello","codec":2}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);

        // `codec` is meaningless outside hello.
        let e = parse_request_line(r#"{"op":"ping","codec":"json"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(e.message.contains("only applies to hello"), "{}", e.message);
    }

    #[test]
    fn decodes_collection_and_mtx_payloads() {
        let r = parse_request_line(
            r#"{"matrix":{"collection":"laplace2d_00_k10"},"method":"lb","epsilon":0.1,"seed":7}"#,
        )
        .unwrap();
        let spec = r.spec.unwrap();
        assert_eq!(
            spec.matrix,
            MatrixPayload::Collection("laplace2d_00_k10".into())
        );
        assert_eq!(spec.method, Method::LocalBest { refine: false });
        assert_eq!(spec.epsilon, 0.1);
        assert_eq!(spec.seed, Some(7));

        let r = parse_request_line(r#"{"matrix":{"mtx":"%%MatrixMarket ..."}}"#).unwrap();
        assert!(matches!(
            r.spec.unwrap().matrix,
            MatrixPayload::MatrixMarket(_)
        ));
    }

    #[test]
    fn decodes_the_backend_field_through_the_registry() {
        for (raw, canonical) in [
            ("geometric", "geometric"),
            ("coarse_grain", "coarse-grain"),
            ("PATOH", "patoh"),
        ] {
            let r = parse_request_line(&format!(
                r#"{{"matrix":{{"rows":2,"cols":2,"entries":[[0,0]]}},"backend":"{raw}"}}"#
            ))
            .unwrap();
            assert_eq!(r.spec.unwrap().backend, Some(canonical), "{raw}");
        }
    }

    #[test]
    fn unknown_backends_fail_with_their_own_code() {
        let err = parse_request_line(
            r#"{"id":9,"matrix":{"rows":2,"cols":2,"entries":[[0,0]]},"backend":"hmetis"}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownBackend);
        assert!(err.message.contains("hmetis"), "{}", err.message);
        assert!(
            err.message.contains("coarse-grain"),
            "message lists the registry: {}",
            err.message
        );
        let line = error_response(&err.id, err.code, &err.message, None);
        assert!(line.contains("\"code\":\"unknown_backend\""));
    }

    #[test]
    fn decodes_ops_without_matrices() {
        for (op, expected) in [
            ("ping", RequestOp::Ping),
            ("stats", RequestOp::Stats),
            ("shutdown", RequestOp::Shutdown),
        ] {
            let r = parse_request_line(&format!(r#"{{"id":"x","op":"{op}"}}"#)).unwrap();
            assert_eq!(r.op, expected);
            assert!(r.spec.is_none());
            assert!(r.shard.is_none());
        }
    }

    #[test]
    fn decodes_shard_addressed_stats() {
        let r = parse_request_line(r#"{"op":"stats","shard":"s1"}"#).unwrap();
        assert_eq!(r.op, RequestOp::Stats);
        assert_eq!(r.shard.as_deref(), Some("s1"));
        let bad = parse_request_line(r#"{"op":"stats","shard":7}"#).unwrap_err();
        assert_eq!(bad.code, ErrorCode::BadRequest);
        assert!(bad.message.contains("string"), "{}", bad.message);
        let misplaced = parse_request_line(r#"{"op":"ping","shard":"s1"}"#).unwrap_err();
        assert_eq!(misplaced.code, ErrorCode::BadRequest);
        assert!(misplaced.message.contains("stats"), "{}", misplaced.message);
    }

    #[test]
    fn rejects_bad_requests_with_the_right_code() {
        let cases: Vec<(&str, ErrorCode)> = vec![
            ("not json", ErrorCode::BadJson),
            ("[1,2]", ErrorCode::BadRequest),
            (r#"{"op":"dance"}"#, ErrorCode::Unsupported),
            (r#"{"op":7}"#, ErrorCode::BadRequest),
            (
                r#"{"matrix":{"rows":2,"cols":2,"entries":[[0,0]]},"method":"zz"}"#,
                ErrorCode::BadMethod,
            ),
            (
                r#"{"matrix":{"rows":2,"cols":2,"entries":[[0,0]]},"backend":7}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"matrix":{"rows":2,"cols":2,"entries":[[0,0]]},"epsilon":-1}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"matrix":{"rows":2,"cols":2,"entries":[[0,0]]},"seed":-3}"#,
                ErrorCode::BadRequest,
            ),
            (r#"{"method":"mg"}"#, ErrorCode::BadRequest),
            (r#"{"matrix":{}}"#, ErrorCode::BadRequest),
            (
                r#"{"matrix":{"collection":"a","mtx":"b"}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"matrix":{"rows":2,"cols":2,"entries":[[0]]}}"#,
                ErrorCode::BadMatrix,
            ),
            (
                r#"{"matrix":{"rows":2,"cols":2,"entries":[[0,"x"]]}}"#,
                ErrorCode::BadMatrix,
            ),
        ];
        for (line, code) in cases {
            let err = parse_request_line(line).unwrap_err();
            assert_eq!(err.code, code, "line {line:?} → {err:?}");
        }
    }

    #[test]
    fn request_ids_are_echoed_even_on_errors() {
        let err = parse_request_line(r#"{"id":"req-9","op":"dance"}"#).unwrap_err();
        assert_eq!(err.id, Json::Str("req-9".into()));
        let line = error_response(&err.id, err.code, &err.message, None);
        assert!(line.starts_with(r#"{"id":"req-9","status":"error","code":"unsupported""#));
        assert!(!line.contains("shard"), "untagged servers omit the field");
    }

    #[test]
    fn shard_tags_append_to_error_responses() {
        let line = error_response(
            &Json::UInt(4),
            ErrorCode::UnknownCollection,
            "no such matrix",
            Some("s1"),
        );
        assert!(line.ends_with(r#","shard":"s1"}"#), "{line}");
    }

    #[test]
    fn ok_response_shape_is_stable() {
        let outcome = PartitionOutcome {
            rows: 2,
            cols: 3,
            nnz: 4,
            fingerprint: 0xAB,
            backend: "mondriaan",
            method: "mg-ir",
            epsilon: 0.03,
            seed: 99,
            volume: 1,
            imbalance: 0.0,
            ir_iterations: 2,
            part_nnz: [2, 2],
            partition: vec![0, 1, 1, 0],
        };
        let line = ok_response(&Json::UInt(5), &outcome, false, false, None);
        assert_eq!(
            line,
            "{\"id\":5,\"status\":\"ok\",\
             \"matrix\":{\"rows\":2,\"cols\":3,\"nnz\":4,\"fingerprint\":\"00000000000000ab\"},\
             \"backend\":\"mondriaan\",\
             \"method\":\"mg-ir\",\"epsilon\":0.03,\"seed\":99,\"volume\":1,\"imbalance\":0,\
             \"ir_iterations\":2,\"part_nnz\":[2,2],\"cached\":false}"
        );
        let with_partition = ok_response(&Json::Null, &outcome, true, true, None);
        assert!(with_partition.contains("\"partition\":[0,1,1,0]"));
        assert!(with_partition.contains("\"cached\":true"));
        assert!(!line.contains("time_ms"));
        let timed = ok_response(&Json::Null, &outcome, false, false, Some(1.5));
        assert!(timed.contains("\"time_ms\":1.5"));
    }

    #[test]
    fn stats_and_op_responses_are_deterministic() {
        let snapshot = StatsSnapshot {
            received: 3,
            cache_hits: 1,
            cache_misses: 1,
            errors: 0,
            sessions: 1,
        };
        assert_eq!(
            stats_response(
                &Json::UInt(3),
                snapshot,
                &[("mondriaan", 1), ("patoh", 0)],
                0,
                None
            ),
            "{\"id\":3,\"status\":\"ok\",\"op\":\"stats\",\"received\":3,\"cache_hits\":1,\
             \"cache_misses\":1,\"errors\":0,\"sessions\":1,\"queue_depth\":0,\
             \"backends\":{\"mondriaan\":1}}"
        );
        assert_eq!(
            stats_response(&Json::UInt(3), snapshot, &[], 2, Some("s0")),
            "{\"id\":3,\"status\":\"ok\",\"op\":\"stats\",\"received\":3,\"cache_hits\":1,\
             \"cache_misses\":1,\"errors\":0,\"sessions\":1,\"queue_depth\":2,\
             \"backends\":{},\"shard\":\"s0\"}"
        );
        assert_eq!(
            op_response(&Json::Null, "ping"),
            r#"{"id":null,"status":"ok","op":"ping"}"#
        );
    }
}
