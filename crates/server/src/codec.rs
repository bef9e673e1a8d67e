//! Wire framing: the codec seam between JSON lines and binary frames.
//!
//! Every session starts in [`WireCodec::JsonLines`] — one UTF-8 request
//! per `\n`-terminated line, one response per line, the golden contract.
//! A `{"op":"hello","codec":"binary"}` request switches the connection to
//! [`WireCodec::Binary`]: length-prefixed frames whose payloads carry
//! either a JSON document (requests *and* all responses — the response
//! text stays byte-identical to JSON-lines mode, so determinism is pinned
//! by a single encoder), a compact binary partition request decoded
//! zero-copy from the frame slice, or a batch of pipelined sub-requests.
//!
//! ## Frame layout (binary codec)
//!
//! ```text
//! frame   := len:u32-le payload            len = payload byte count
//! payload := kind:u8 body
//! kind    := 0x01 JSON document (UTF-8, no trailing newline)
//!          | 0x02 binary partition request
//!          | 0x03 batch: repeated (sublen:u32-le subpayload), where each
//!                 subpayload is a kind-0x01 or kind-0x02 payload
//! ```
//!
//! ## Binary partition body (kind 0x02)
//!
//! ```text
//! id_tag:u8                    0 = null | 1 = u64-le | 2 = string
//! [id:u64-le]                  if id_tag == 1
//! [id_len:varint id:utf8]      if id_tag == 2
//! flags:u8                     bit0 include_partition, bit1 has seed,
//!                              bit2 has backend, bit3 has epsilon,
//!                              bit4 has method
//! [method_len:varint  utf8]    if bit4
//! [backend_len:varint utf8]    if bit2
//! [epsilon:f64-le]             if bit3
//! [seed:u64-le]                if bit1
//! matrix_tag:u8                0 = inline | 1 = collection | 2 = mtx
//!   inline:     rows:varint cols:varint count:varint
//!               count × (row:varint col:varint)
//!   collection: len:varint name:utf8
//!   mtx:        len:varint text:utf8
//! ```
//!
//! Varints are unsigned LEB128 (7 payload bits per byte, little-endian,
//! high bit = continuation, at most 10 bytes). Inline coordinates are
//! parsed straight out of the request byte slice into the entry vector —
//! no intermediate JSON tree, string, or per-entry allocation.
//!
//! Shards speak JSON lines only, so a router renders a binary request
//! into its canonical JSON line ([`request_json_line`]) when it forwards
//! it, and only then: a request the router answers from its own cache is
//! never rendered.

use crate::json::{write_escaped, write_f64, write_u64, Json};
use crate::protocol::{Request, RequestError};
use mg_core::service::{ErrorCode, MatrixPayload, PartitionSpec, RequestOp};
use mg_core::Method;
use mg_sparse::Idx;
use std::ops::Range;

/// The two wire codecs a session can speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCodec {
    /// One UTF-8 JSON document per `\n`-terminated line (the default and
    /// the golden determinism contract).
    JsonLines,
    /// Length-prefixed binary frames (negotiated via `hello`).
    Binary,
}

impl WireCodec {
    /// The wire spelling used in `hello` requests and acks.
    pub fn name(self) -> &'static str {
        match self {
            WireCodec::JsonLines => "json",
            WireCodec::Binary => "binary",
        }
    }

    /// Parses a `hello` codec name.
    pub fn parse(name: &str) -> Option<WireCodec> {
        match name {
            "json" => Some(WireCodec::JsonLines),
            "binary" => Some(WireCodec::Binary),
            _ => None,
        }
    }
}

/// Payload kind: a UTF-8 JSON document.
pub const KIND_JSON: u8 = 0x01;
/// Payload kind: a compact binary partition request.
pub const KIND_PARTITION: u8 = 0x02;
/// Payload kind: a batch of pipelined sub-payloads.
pub const KIND_BATCH: u8 = 0x03;

/// Hard cap on one request unit: a declared frame length, or a JSON line
/// still without its `\n` past this many bytes. A peer exceeding it is
/// treated as a framing error and the session ends — there is no way to
/// resynchronise after refusing to buffer a unit.
pub const MAX_FRAME: usize = 64 << 20;

/// A fatal framing violation (an oversized frame or line): the reader
/// cannot resynchronise, so the session answers with one error and ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// Human-readable detail for the error response.
    pub message: String,
}

/// What one scanned unit is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// A JSON-lines request line (without its terminator).
    Line,
    /// A binary frame payload (kind byte + body).
    Frame,
}

/// Incremental splitter of a request byte stream into protocol units.
///
/// Transports push raw chunks in whatever sizes the socket or pipe hands
/// them and drain complete units out; partial lines and partial frames
/// stay buffered across any number of pushes (and read timeouts). The
/// scanner owns the codec state of the *inbound* direction — the session
/// driver signals a switch right after a `hello` is processed, so frames
/// already pipelined behind the hello parse under the new codec.
#[derive(Debug, Default)]
pub struct UnitScanner {
    buf: Vec<u8>,
    start: usize,
    /// Where the next `\n` search resumes: `buf[start..scanned]` holds no
    /// newline, so every buffered byte is examined once however many
    /// pushes a long line takes.
    scanned: usize,
    codec: Option<WireCodec>,
}

impl UnitScanner {
    /// A scanner starting in JSON-lines mode.
    pub fn new() -> UnitScanner {
        UnitScanner::default()
    }

    /// The codec currently in effect.
    pub fn codec(&self) -> WireCodec {
        self.codec.unwrap_or(WireCodec::JsonLines)
    }

    /// Switches the inbound codec (after a `hello` was processed).
    pub fn set_codec(&mut self, codec: WireCodec) {
        self.codec = Some(codec);
    }

    /// Appends a raw chunk. May compact the internal buffer, so ranges
    /// returned by earlier [`UnitScanner::next_unit`] calls are invalid
    /// after a push — drain and process units between pushes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.scanned = 0;
            self.start = 0;
        } else if self.start >= 64 * 1024 {
            self.buf.drain(..self.start);
            self.scanned = self.scanned.saturating_sub(self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete unit, if any. The range indexes into this
    /// scanner's buffer (see [`UnitScanner::bytes`]) and stays valid
    /// until the next `push`. Lines exclude their `\n` terminator (a
    /// trailing `\r` is left for the caller to trim); frames exclude
    /// their length prefix but include the kind byte. A line or frame
    /// longer than [`MAX_FRAME`] is a [`FrameError`].
    pub fn next_unit(&mut self) -> Result<Option<(UnitKind, Range<usize>)>, FrameError> {
        let rest = &self.buf[self.start..];
        match self.codec() {
            WireCodec::JsonLines => {
                let from = self.scanned.max(self.start);
                let end = self.buf[from..].iter().position(|&b| b == b'\n');
                let len = end.map_or(self.buf.len(), |pos| from + pos) - self.start;
                if len > MAX_FRAME {
                    return Err(FrameError {
                        message: format!("request line exceeds the {MAX_FRAME}-byte cap"),
                    });
                }
                let Some(pos) = end else {
                    self.scanned = self.buf.len();
                    return Ok(None);
                };
                let range = self.start..from + pos;
                self.start = from + pos + 1;
                Ok(Some((UnitKind::Line, range)))
            }
            WireCodec::Binary => {
                if rest.len() < 4 {
                    return Ok(None);
                }
                let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
                if len > MAX_FRAME {
                    return Err(FrameError {
                        message: format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
                    });
                }
                if rest.len() < 4 + len {
                    return Ok(None);
                }
                let range = self.start + 4..self.start + 4 + len;
                self.start += 4 + len;
                Ok(Some((UnitKind::Frame, range)))
            }
        }
    }

    /// The bytes of a unit returned by [`UnitScanner::next_unit`].
    pub fn bytes(&self, range: &Range<usize>) -> &[u8] {
        &self.buf[range.clone()]
    }

    /// At end of input: the final *unterminated* line, if the stream is
    /// in JSON-lines mode and ended without a trailing `\n`. A client
    /// that closes the connection right after its last request must not
    /// lose it to a missing newline. A partial binary *frame* at EOF is
    /// unrecoverable by construction (its declared length never arrived)
    /// and yields `None`.
    pub fn take_eof_remainder(&mut self) -> Option<Vec<u8>> {
        if self.codec() != WireCodec::JsonLines || self.start >= self.buf.len() {
            return None;
        }
        let tail = self.buf[self.start..].to_vec();
        self.buf.clear();
        self.scanned = 0;
        self.start = 0;
        Some(tail)
    }
}

/// Writes one response document in the given codec: the text plus `\n`
/// on JSON lines, a kind-`0x01` frame on binary. Responses are *always*
/// JSON documents — both codecs share one response encoder, so the
/// response text is byte-identical whichever framing carries it.
pub fn write_response_unit<W: std::io::Write>(
    output: &mut W,
    codec: WireCodec,
    text: &str,
) -> std::io::Result<()> {
    match codec {
        WireCodec::JsonLines => {
            output.write_all(text.as_bytes())?;
            output.write_all(b"\n")?;
        }
        WireCodec::Binary => {
            output.write_all(&(text.len() as u32 + 1).to_le_bytes())?;
            output.write_all(&[KIND_JSON])?;
            output.write_all(text.as_bytes())?;
        }
    }
    output.flush()
}

/// Splits a session's response byte stream back into response texts —
/// the client's side of [`write_response_unit`]: JSON lines until a
/// `hello` ack switches the codec, kind-`0x01` frames after it. `None`
/// when the stream is truncated or malformed.
pub fn split_responses(mut bytes: &[u8]) -> Option<Vec<String>> {
    let mut texts = Vec::new();
    let mut codec = WireCodec::JsonLines;
    while !bytes.is_empty() {
        let (text, rest) = match codec {
            WireCodec::JsonLines => {
                let nl = bytes.iter().position(|&b| b == b'\n')?;
                (&bytes[..nl], &bytes[nl + 1..])
            }
            WireCodec::Binary => {
                let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
                match bytes.get(4..4 + len)?.split_first()? {
                    (&KIND_JSON, text) => (text, &bytes[4 + len..]),
                    _ => return None,
                }
            }
        };
        let text = String::from_utf8(text.to_vec()).ok()?;
        if text.contains("\"status\":\"ok\",\"op\":\"hello\"") {
            let binary = text.contains("\"codec\":\"binary\"");
            codec = if binary {
                WireCodec::Binary
            } else {
                WireCodec::JsonLines
            };
        }
        texts.push(text);
        bytes = rest;
    }
    Some(texts)
}

/// The frame payload a client sends for a request line: the compact
/// kind-`0x02` form when the line is a partition request it can carry,
/// the line itself as a kind-`0x01` JSON payload otherwise.
pub fn request_payload(line: &str) -> Vec<u8> {
    crate::protocol::parse_request_line(line)
        .ok()
        .and_then(|request| partition_payload(&request))
        .unwrap_or_else(|| json_payload(line))
}

/// Wraps a payload in a length-prefixed frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// A kind-`0x01` payload carrying a JSON document.
pub fn json_payload(text: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + text.len());
    payload.push(KIND_JSON);
    payload.extend_from_slice(text.as_bytes());
    payload
}

/// A kind-`0x03` payload batching several sub-payloads into one frame.
pub fn batch_payload(subpayloads: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = subpayloads.iter().map(|p| 4 + p.len()).sum();
    let mut payload = Vec::with_capacity(1 + total);
    payload.push(KIND_BATCH);
    for sub in subpayloads {
        payload.extend_from_slice(&(sub.len() as u32).to_le_bytes());
        payload.extend_from_slice(sub);
    }
    payload
}

/// Splits a kind-`0x03` body (after the kind byte) into sub-payload
/// ranges relative to `body`. Fails on a truncated sub-length or a
/// sub-payload running past the end of the batch.
pub fn batch_subframes(body: &[u8]) -> Result<Vec<Range<usize>>, String> {
    let mut subs = Vec::new();
    let mut pos = 0usize;
    while pos < body.len() {
        if body.len() - pos < 4 {
            return Err(format!("truncated batch sub-frame length at byte {pos}"));
        }
        let len =
            u32::from_le_bytes([body[pos], body[pos + 1], body[pos + 2], body[pos + 3]]) as usize;
        pos += 4;
        if body.len() - pos < len {
            return Err(format!(
                "batch sub-frame of {len} bytes at byte {pos} runs past the batch end"
            ));
        }
        subs.push(pos..pos + len);
        pos += len;
    }
    Ok(subs)
}

fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // overflow past 64 bits
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

const FLAG_INCLUDE_PARTITION: u8 = 1 << 0;
const FLAG_SEED: u8 = 1 << 1;
const FLAG_BACKEND: u8 = 1 << 2;
const FLAG_EPSILON: u8 = 1 << 3;
const FLAG_METHOD: u8 = 1 << 4;

const ID_NULL: u8 = 0;
const ID_UINT: u8 = 1;
const ID_STR: u8 = 2;

const MATRIX_INLINE: u8 = 0;
const MATRIX_COLLECTION: u8 = 1;
const MATRIX_MTX: u8 = 2;

/// Encodes a partition request as a kind-`0x02` payload. Returns `None`
/// for non-partition requests and for ids that are neither null, a u64,
/// nor a string (those must travel as kind-`0x01` JSON payloads).
pub fn partition_payload(request: &Request) -> Option<Vec<u8>> {
    let spec = match (request.op, &request.spec) {
        (RequestOp::Partition, Some(spec)) => spec,
        _ => return None,
    };
    let mut p = vec![KIND_PARTITION];
    match &request.id {
        Json::Null => p.push(ID_NULL),
        Json::UInt(u) => {
            p.push(ID_UINT);
            p.extend_from_slice(&u.to_le_bytes());
        }
        Json::Str(s) => {
            p.push(ID_STR);
            write_varint(&mut p, s.len() as u64);
            p.extend_from_slice(s.as_bytes());
        }
        _ => return None,
    }
    let mut flags = FLAG_METHOD | FLAG_EPSILON;
    if spec.include_partition {
        flags |= FLAG_INCLUDE_PARTITION;
    }
    if spec.seed.is_some() {
        flags |= FLAG_SEED;
    }
    if spec.backend.is_some() {
        flags |= FLAG_BACKEND;
    }
    p.push(flags);
    let method = spec.method.name();
    write_varint(&mut p, method.len() as u64);
    p.extend_from_slice(method.as_bytes());
    if let Some(backend) = spec.backend {
        write_varint(&mut p, backend.len() as u64);
        p.extend_from_slice(backend.as_bytes());
    }
    p.extend_from_slice(&spec.epsilon.to_le_bytes());
    if let Some(seed) = spec.seed {
        p.extend_from_slice(&seed.to_le_bytes());
    }
    match &spec.matrix {
        MatrixPayload::Inline {
            rows,
            cols,
            entries,
        } => {
            p.push(MATRIX_INLINE);
            write_varint(&mut p, u64::from(*rows));
            write_varint(&mut p, u64::from(*cols));
            write_varint(&mut p, entries.len() as u64);
            for &(i, j) in entries {
                write_varint(&mut p, u64::from(i));
                write_varint(&mut p, u64::from(j));
            }
        }
        MatrixPayload::Collection(name) => {
            p.push(MATRIX_COLLECTION);
            write_varint(&mut p, name.len() as u64);
            p.extend_from_slice(name.as_bytes());
        }
        MatrixPayload::MatrixMarket(text) => {
            p.push(MATRIX_MTX);
            write_varint(&mut p, text.len() as u64);
            p.extend_from_slice(text.as_bytes());
        }
    }
    Some(p)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn fixed<const N: usize>(&mut self) -> Option<[u8; N]> {
        let slice = self.bytes.get(self.pos..self.pos + N)?;
        self.pos += N;
        Some(slice.try_into().expect("slice of length N"))
    }

    fn varint(&mut self) -> Option<u64> {
        read_varint(self.bytes, &mut self.pos)
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = self.varint()? as usize;
        let slice = self.bytes.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        std::str::from_utf8(slice).ok()
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

fn truncated(id: &Json) -> RequestError {
    RequestError {
        id: id.clone(),
        code: ErrorCode::BadRequest,
        message: "truncated or malformed binary partition payload".into(),
    }
}

/// Decodes a kind-`0x02` body (after the kind byte) into a [`Request`],
/// enforcing the same validation — and producing the same error classes —
/// as the JSON decode path. Coordinates are read straight from the byte
/// slice; nothing is allocated per entry beyond the entry vector itself.
pub fn decode_partition_payload(body: &[u8]) -> Result<Request, RequestError> {
    let mut c = Cursor {
        bytes: body,
        pos: 0,
    };
    let id = match c.u8() {
        Some(ID_NULL) => Json::Null,
        Some(ID_UINT) => Json::UInt(u64::from_le_bytes(
            c.fixed::<8>().ok_or_else(|| truncated(&Json::Null))?,
        )),
        Some(ID_STR) => Json::Str(c.str().ok_or_else(|| truncated(&Json::Null))?.to_string()),
        _ => return Err(truncated(&Json::Null)),
    };
    let flags = c.u8().ok_or_else(|| truncated(&id))?;

    let method = if flags & FLAG_METHOD != 0 {
        let name = c.str().ok_or_else(|| truncated(&id))?;
        Method::parse_name(name).map_err(|e| RequestError {
            id: id.clone(),
            code: ErrorCode::BadMethod,
            message: e,
        })?
    } else {
        Method::parse_name(crate::protocol::DEFAULT_METHOD).expect("default method parses")
    };
    let backend = if flags & FLAG_BACKEND != 0 {
        let name = c.str().ok_or_else(|| truncated(&id))?;
        Some(
            mg_core::parse_backend(name)
                .map_err(|e| RequestError {
                    id: id.clone(),
                    code: ErrorCode::UnknownBackend,
                    message: e,
                })?
                .name(),
        )
    } else {
        None
    };
    let epsilon = if flags & FLAG_EPSILON != 0 {
        f64::from_le_bytes(c.fixed::<8>().ok_or_else(|| truncated(&id))?)
    } else {
        crate::protocol::DEFAULT_EPSILON
    };
    if !epsilon.is_finite() || epsilon < 0.0 {
        return Err(RequestError {
            id: id.clone(),
            code: ErrorCode::BadRequest,
            message: "\"epsilon\" must be a finite non-negative number".into(),
        });
    }
    let seed = if flags & FLAG_SEED != 0 {
        Some(u64::from_le_bytes(
            c.fixed::<8>().ok_or_else(|| truncated(&id))?,
        ))
    } else {
        None
    };

    let matrix = match c.u8() {
        Some(MATRIX_INLINE) => {
            let dim = |c: &mut Cursor<'_>, name: &str| -> Result<Idx, RequestError> {
                c.varint()
                    .filter(|&v| v < u64::from(Idx::MAX))
                    .map(|v| v as Idx)
                    .ok_or_else(|| RequestError {
                        id: id.clone(),
                        code: ErrorCode::BadRequest,
                        message: format!("inline matrices need a u32 \"{name}\" field"),
                    })
            };
            let rows = dim(&mut c, "rows")?;
            let cols = dim(&mut c, "cols")?;
            let count = c.varint().ok_or_else(|| truncated(&id))? as usize;
            // Each entry is at least two one-byte varints: refuse to
            // allocate for a count the remaining bytes cannot hold.
            if count > c.remaining() / 2 + 1 {
                return Err(truncated(&id));
            }
            let mut entries = Vec::with_capacity(count);
            for k in 0..count {
                let coord = |c: &mut Cursor<'_>, name: &str| -> Result<Idx, RequestError> {
                    c.varint()
                        .filter(|&v| v < u64::from(Idx::MAX))
                        .map(|v| v as Idx)
                        .ok_or_else(|| RequestError {
                            id: id.clone(),
                            code: ErrorCode::BadMatrix,
                            message: format!("entry {k}: {name} must be a 0-based u32 index"),
                        })
                };
                entries.push((coord(&mut c, "row")?, coord(&mut c, "col")?));
            }
            MatrixPayload::Inline {
                rows,
                cols,
                entries,
            }
        }
        Some(MATRIX_COLLECTION) => {
            MatrixPayload::Collection(c.str().ok_or_else(|| truncated(&id))?.to_string())
        }
        Some(MATRIX_MTX) => {
            MatrixPayload::MatrixMarket(c.str().ok_or_else(|| truncated(&id))?.to_string())
        }
        _ => return Err(truncated(&id)),
    };
    if c.remaining() != 0 {
        return Err(RequestError {
            id,
            code: ErrorCode::BadRequest,
            message: "trailing bytes after binary partition payload".into(),
        });
    }
    Ok(Request {
        id,
        op: RequestOp::Partition,
        spec: Some(PartitionSpec {
            matrix,
            method,
            backend,
            epsilon,
            seed,
            include_partition: flags & FLAG_INCLUDE_PARTITION != 0,
        }),
        shard: None,
        codec: None,
        // The binary frame schema carries no trace field; tracing rides
        // the JSON-lines codec only.
        trace: None,
    })
}

/// Renders a decoded request back to its canonical JSON-lines text (no
/// trailing newline). This is how a router forwards a *binary* request to
/// its JSON-lines shards, and it does so only for a request it forwards:
/// one its own cache cannot answer. The re-rendered line is semantically
/// identical to the original unit; requests that were born as JSON are
/// forwarded as their original text instead, so golden streams never
/// change.
///
/// The line is written straight into one `String`, inline coordinates
/// included, in the bytes [`Json::write`] would produce for the same
/// fields: no `Json` tree is built for it.
pub fn request_json_line(request: &Request) -> String {
    let nnz = match &request.spec {
        Some(PartitionSpec {
            matrix: MatrixPayload::Inline { entries, .. },
            ..
        }) => entries.len(),
        _ => 0,
    };
    // `[row,col],` with up to five-digit coordinates, plus the fields.
    let mut out = String::with_capacity(160 + 14 * nnz);
    out.push_str("{\"id\":");
    request.id.write(&mut out);
    match request.op {
        RequestOp::Partition => {
            let spec = request
                .spec
                .as_ref()
                .expect("partition requests carry a spec");
            out.push_str(",\"matrix\":");
            match &spec.matrix {
                MatrixPayload::Inline {
                    rows,
                    cols,
                    entries,
                } => {
                    out.push_str("{\"rows\":");
                    write_u64(u64::from(*rows), &mut out);
                    out.push_str(",\"cols\":");
                    write_u64(u64::from(*cols), &mut out);
                    out.push_str(",\"entries\":[");
                    for (k, &(i, j)) in entries.iter().enumerate() {
                        out.push_str(if k == 0 { "[" } else { ",[" });
                        write_u64(u64::from(i), &mut out);
                        out.push(',');
                        write_u64(u64::from(j), &mut out);
                        out.push(']');
                    }
                    out.push_str("]}");
                }
                MatrixPayload::Collection(name) => {
                    out.push('{');
                    write_field(&mut out, "collection", name);
                    out.push('}');
                }
                MatrixPayload::MatrixMarket(text) => {
                    out.push('{');
                    write_field(&mut out, "mtx", text);
                    out.push('}');
                }
            }
            out.push(',');
            write_field(&mut out, "method", spec.method.name());
            if let Some(backend) = spec.backend {
                out.push(',');
                write_field(&mut out, "backend", backend);
            }
            out.push_str(",\"epsilon\":");
            write_f64(spec.epsilon, &mut out);
            if let Some(seed) = spec.seed {
                out.push_str(",\"seed\":");
                write_u64(seed, &mut out);
            }
            if spec.include_partition {
                out.push_str(",\"include_partition\":true");
            }
            if let Some(trace) = request.trace {
                out.push_str(",\"trace\":{");
                write_field(&mut out, "id", &mg_obs::trace::trace_id_hex(trace.trace_id));
                if let Some(parent) = trace.parent {
                    out.push(',');
                    write_field(&mut out, "parent", &mg_obs::trace::span_id_hex(parent));
                }
                out.push('}');
            }
        }
        op => {
            // `shard` rides only on stats requests, `codec` on hellos.
            out.push(',');
            write_field(&mut out, "op", op.name());
            if let Some(shard) = &request.shard {
                out.push(',');
                write_field(&mut out, "shard", shard);
            }
            if let Some(codec) = request.codec {
                out.push(',');
                write_field(&mut out, "codec", codec.name());
            }
        }
    }
    out.push('}');
    out
}

/// Writes `"key":"value"`, the value escaped; keys are plain ASCII.
fn write_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    write_escaped(value, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;
    use crate::protocol::parse_request_line;

    #[test]
    fn varints_round_trip() {
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &cases {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v), "{v}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80, 0x80], &mut pos), None, "truncated");
        // 11 continuation bytes: more than a u64 can hold.
        let long = [0xFFu8; 10];
        let mut pos = 0;
        assert_eq!(read_varint(&long, &mut pos), None, "overflow");
    }

    #[test]
    fn scanner_splits_lines_across_arbitrary_pushes() {
        let mut s = UnitScanner::new();
        let text = b"{\"op\":\"ping\"}\n{\"id\":2,\"op\":\"ping\"}\n";
        let mut units = Vec::new();
        for chunk in text.chunks(3) {
            s.push(chunk);
            while let Some((kind, range)) = s.next_unit().unwrap() {
                assert_eq!(kind, UnitKind::Line);
                units.push(String::from_utf8(s.bytes(&range).to_vec()).unwrap());
            }
        }
        assert_eq!(
            units,
            vec!["{\"op\":\"ping\"}", "{\"id\":2,\"op\":\"ping\"}"]
        );
        assert_eq!(s.take_eof_remainder(), None);
    }

    #[test]
    fn scanner_yields_the_unterminated_final_line_at_eof() {
        let mut s = UnitScanner::new();
        s.push(b"{\"op\":\"ping\"}\n{\"id\":9,\"op\":\"ping\"}");
        let (_, first) = s.next_unit().unwrap().unwrap();
        assert_eq!(s.bytes(&first), b"{\"op\":\"ping\"}");
        assert_eq!(s.next_unit().unwrap(), None, "no trailing newline yet");
        let tail = s.take_eof_remainder().unwrap();
        assert_eq!(tail, b"{\"id\":9,\"op\":\"ping\"}");
        assert_eq!(s.take_eof_remainder(), None, "remainder drains once");
    }

    #[test]
    fn scanner_reassembles_frames_byte_by_byte() {
        let mut s = UnitScanner::new();
        s.set_codec(WireCodec::Binary);
        let frame = encode_frame(&json_payload("{\"op\":\"ping\"}"));
        for &b in &frame {
            assert_eq!(s.next_unit().unwrap(), None);
            s.push(&[b]);
        }
        let (kind, range) = s.next_unit().unwrap().unwrap();
        assert_eq!(kind, UnitKind::Frame);
        assert_eq!(s.bytes(&range)[0], KIND_JSON);
        assert_eq!(&s.bytes(&range)[1..], b"{\"op\":\"ping\"}");
        assert_eq!(
            s.take_eof_remainder(),
            None,
            "binary mode has no line remainder"
        );
    }

    #[test]
    fn scanner_rejects_oversized_frames() {
        let mut s = UnitScanner::new();
        s.set_codec(WireCodec::Binary);
        s.push(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let err = s.next_unit().unwrap_err();
        assert!(err.message.contains("cap"), "{}", err.message);
    }

    /// Framing is linear in the line length: an 8 MiB line arriving in
    /// 16 KiB reads is scanned once, not once per read. (A rescan per
    /// push examines ~2 GiB here and blows far past the bound.)
    #[test]
    fn long_lines_frame_in_linear_time() {
        let mut line = vec![b' '; 8 << 20];
        line.push(b'\n');
        let start = std::time::Instant::now();
        let mut s = UnitScanner::new();
        let mut units = 0;
        for chunk in line.chunks(16 * 1024) {
            s.push(chunk);
            while let Some((_, range)) = s.next_unit().unwrap() {
                assert_eq!(range.len(), 8 << 20);
                units += 1;
            }
        }
        assert_eq!(units, 1);
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(3),
            "framing an 8 MiB line took {elapsed:?}"
        );
    }

    #[test]
    fn split_responses_follows_the_hello_switch() {
        let mut out =
            b"{\"id\":1,\"status\":\"ok\",\"op\":\"hello\",\"codec\":\"binary\"}\n".to_vec();
        out.extend_from_slice(&encode_frame(&json_payload("{\"id\":2}")));
        assert_eq!(split_responses(&out).unwrap()[1], "{\"id\":2}");
        assert_eq!(
            split_responses(&out[..out.len() - 1]),
            None,
            "truncated frame"
        );
        assert_eq!(split_responses(b"{\"id\":1}"), None, "unterminated line");
    }

    #[test]
    fn partition_payloads_round_trip_through_binary() {
        let line = "{\"id\":\"job-1\",\"matrix\":{\"rows\":3,\"cols\":4,\
                    \"entries\":[[0,1],[2,3],[1,1]]},\"method\":\"mg\",\
                    \"backend\":\"geometric\",\"epsilon\":0.1,\"seed\":7,\
                    \"include_partition\":true}";
        let request = parse_request_line(line).unwrap();
        let payload = partition_payload(&request).unwrap();
        assert_eq!(payload[0], KIND_PARTITION);
        let decoded = decode_partition_payload(&payload[1..]).unwrap();
        assert_eq!(decoded, request);
        // And the canonical re-rendering parses back to the same request.
        let rendered = request_json_line(&decoded);
        assert_eq!(parse_request_line(&rendered).unwrap(), request);
    }

    #[test]
    fn minimal_partition_payloads_apply_protocol_defaults() {
        let request =
            parse_request_line("{\"matrix\":{\"rows\":2,\"cols\":2,\"entries\":[[0,0],[1,1]]}}")
                .unwrap();
        let payload = partition_payload(&request).unwrap();
        let decoded = decode_partition_payload(&payload[1..]).unwrap();
        assert_eq!(decoded, request);
        let spec = decoded.spec.unwrap();
        assert_eq!(spec.epsilon, crate::protocol::DEFAULT_EPSILON);
        assert_eq!(spec.seed, None);
        assert_eq!(spec.backend, None);
    }

    #[test]
    fn binary_decode_enforces_protocol_validation() {
        // Unknown method name → bad_method, same as the JSON path.
        let request =
            parse_request_line("{\"id\":4,\"matrix\":{\"rows\":2,\"cols\":2,\"entries\":[[0,0]]}}")
                .unwrap();
        let mut payload = partition_payload(&request).unwrap();
        // Corrupt the method string ("mg-ir" at a fixed offset: kind, tag,
        // 8-byte id, flags, len).
        let method_at = 1 + 1 + 8 + 1 + 1;
        assert_eq!(&payload[method_at..method_at + 5], b"mg-ir");
        payload[method_at] = b'z';
        let err = decode_partition_payload(&payload[1..]).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadMethod);
        assert_eq!(err.id, Json::UInt(4), "id still echoed");

        // Truncation anywhere → bad_request, never a panic.
        let good = partition_payload(&request).unwrap();
        for cut in 1..good.len() {
            let err = decode_partition_payload(&good[1..cut]).unwrap_err();
            assert!(
                matches!(err.code, ErrorCode::BadRequest | ErrorCode::BadMatrix),
                "cut at {cut}: {err:?}"
            );
        }

        // Out-of-range coordinate → bad_matrix with the entry index.
        let mut p = vec![ID_NULL, FLAG_EPSILON];
        p.extend_from_slice(&0.03f64.to_le_bytes());
        p.push(MATRIX_INLINE);
        write_varint(&mut p, 2);
        write_varint(&mut p, 2);
        write_varint(&mut p, 1);
        write_varint(&mut p, u64::from(u32::MAX));
        write_varint(&mut p, 0);
        let err = decode_partition_payload(&p).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadMatrix);
        assert!(err.message.contains("entry 0"), "{}", err.message);
    }

    #[test]
    fn batch_payloads_split_back_into_subframes() {
        let a = json_payload("{\"op\":\"ping\"}");
        let b = json_payload("{\"id\":2,\"op\":\"ping\"}");
        let batch = batch_payload(&[a.clone(), b.clone()]);
        assert_eq!(batch[0], KIND_BATCH);
        let subs = batch_subframes(&batch[1..]).unwrap();
        assert_eq!(subs.len(), 2);
        assert_eq!(&batch[1..][subs[0].clone()], a.as_slice());
        assert_eq!(&batch[1..][subs[1].clone()], b.as_slice());
        // Truncated sub-length and overlong sub-frame both fail.
        assert!(batch_subframes(&batch[1..3]).is_err());
        let mut bad = vec![9, 0, 0, 0];
        bad.push(KIND_JSON);
        assert!(batch_subframes(&bad).is_err());
    }

    /// The tree rendering the direct writer replaced, kept as its oracle.
    fn request_json_tree(request: &Request) -> String {
        let mut fields = vec![("id", request.id.clone())];
        match request.op {
            RequestOp::Partition => {
                let spec = request
                    .spec
                    .as_ref()
                    .expect("partition requests carry a spec");
                let matrix = match &spec.matrix {
                    MatrixPayload::Inline {
                        rows,
                        cols,
                        entries,
                    } => obj(vec![
                        ("rows", Json::UInt(u64::from(*rows))),
                        ("cols", Json::UInt(u64::from(*cols))),
                        (
                            "entries",
                            Json::Arr(
                                entries
                                    .iter()
                                    .map(|&(i, j)| {
                                        Json::Arr(vec![
                                            Json::UInt(u64::from(i)),
                                            Json::UInt(u64::from(j)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                    MatrixPayload::Collection(name) => {
                        obj(vec![("collection", Json::Str(name.clone()))])
                    }
                    MatrixPayload::MatrixMarket(text) => {
                        obj(vec![("mtx", Json::Str(text.clone()))])
                    }
                };
                fields.push(("matrix", matrix));
                fields.push(("method", Json::Str(spec.method.name().into())));
                if let Some(backend) = spec.backend {
                    fields.push(("backend", Json::Str(backend.into())));
                }
                fields.push(("epsilon", Json::Num(spec.epsilon)));
                if let Some(seed) = spec.seed {
                    fields.push(("seed", Json::UInt(seed)));
                }
                if spec.include_partition {
                    fields.push(("include_partition", Json::Bool(true)));
                }
                if let Some(trace) = request.trace {
                    let mut tf =
                        vec![("id", Json::Str(mg_obs::trace::trace_id_hex(trace.trace_id)))];
                    if let Some(parent) = trace.parent {
                        tf.push(("parent", Json::Str(mg_obs::trace::span_id_hex(parent))));
                    }
                    fields.push(("trace", obj(tf)));
                }
            }
            op => {
                // `shard` rides only on stats requests, `codec` on hellos.
                fields.push(("op", Json::Str(op.name().into())));
                if let Some(shard) = &request.shard {
                    fields.push(("shard", Json::Str(shard.clone())));
                }
                if let Some(codec) = request.codec {
                    fields.push(("codec", Json::Str(codec.name().into())));
                }
            }
        }
        obj(fields).to_string()
    }

    #[test]
    fn request_json_line_writes_the_bytes_of_the_tree_rendering() {
        let spec = |matrix, backend, seed, include_partition| PartitionSpec {
            matrix,
            method: Method::parse_name("lb").unwrap(),
            backend,
            epsilon: 0.125,
            seed,
            include_partition,
        };
        let inline = |entries: Vec<(Idx, Idx)>| MatrixPayload::Inline {
            rows: 4294967294,
            cols: 3,
            entries,
        };
        let partition = |id: Json, spec: PartitionSpec, trace| Request {
            id,
            op: RequestOp::Partition,
            spec: Some(spec),
            shard: None,
            codec: None,
            trace,
        };
        let trace = mg_obs::WireTrace {
            trace_id: 0x0011_2233_4455_6677_8899_aabb_ccdd_eeff,
            parent: Some(0xfedc_ba98_7654_3210),
        };
        let entries = vec![(0, 0), (4294967293, 2), (17, 1)];
        let mut requests = vec![
            partition(
                Json::Str("quote\" slash\\ nl\n tab\t ctl\u{1} é".into()),
                spec(inline(entries.clone()), None, None, false),
                None,
            ),
            partition(
                Json::UInt(u64::MAX),
                spec(inline(vec![]), Some("geometric"), Some(u64::MAX), true),
                Some(trace),
            ),
            partition(
                Json::Null,
                spec(inline(entries), Some("patoh"), Some(0), false),
                Some(mg_obs::WireTrace {
                    parent: None,
                    ..trace
                }),
            ),
            partition(
                Json::Int(-7),
                spec(
                    MatrixPayload::Collection("name \"q\"".into()),
                    None,
                    None,
                    true,
                ),
                None,
            ),
            partition(
                Json::parse(r#"{"k":[1.5,null,true]}"#).unwrap(),
                spec(
                    MatrixPayload::MatrixMarket("%%MatrixMarket\n1 1 0\n".into()),
                    None,
                    Some(3),
                    false,
                ),
                None,
            ),
        ];
        for line in [
            r#"{"id":1,"op":"ping"}"#,
            r#"{"id":"s","op":"stats","shard":"s\"1"}"#,
            r#"{"op":"hello","codec":"binary"}"#,
            r#"{"op":"shutdown"}"#,
        ] {
            requests.push(parse_request_line(line).unwrap());
        }
        for request in &requests {
            let line = request_json_line(request);
            assert_eq!(line, request_json_tree(request));
            assert_eq!(&parse_request_line(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn request_json_line_covers_every_op() {
        for (line, expected) in [
            ("{\"id\":1,\"op\":\"ping\"}", "{\"id\":1,\"op\":\"ping\"}"),
            (
                "{\"op\":\"stats\",\"shard\":\"s1\"}",
                "{\"id\":null,\"op\":\"stats\",\"shard\":\"s1\"}",
            ),
            ("{\"op\":\"shutdown\"}", "{\"id\":null,\"op\":\"shutdown\"}"),
            (
                "{\"op\":\"hello\",\"codec\":\"binary\"}",
                "{\"id\":null,\"op\":\"hello\",\"codec\":\"binary\"}",
            ),
        ] {
            let request = parse_request_line(line).unwrap();
            assert_eq!(request_json_line(&request), expected, "{line}");
        }
    }
}
