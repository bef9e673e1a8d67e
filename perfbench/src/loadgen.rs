//! The open-loop load generator: one thread per connection sends each
//! request when it is due, whether or not earlier ones were answered, and
//! reads the in-order responses in between.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long the generator waits for outstanding responses once it has
/// sent everything.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Evenly spaced due times at `rate` requests per second, from offset 0.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub rate: f64,
}

impl Schedule {
    /// Due time of request `i`, relative to the start of the run.
    pub fn due(&self, i: u64) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// Requests due strictly within the first `seconds`.
    pub fn count_within(&self, seconds: f64) -> u64 {
        (seconds * self.rate).ceil() as u64
    }
}

/// The worst lateness of a send against its due time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lag {
    pub max: Duration,
}

impl Lag {
    /// Records a send at `sent` of a request due at `due` (both relative
    /// to the run start). A send cannot be early, so lateness is `≥ 0`.
    pub fn record(&mut self, due: Duration, sent: Duration) {
        self.max = self.max.max(sent.saturating_sub(due));
    }

    pub fn merge(&mut self, other: &Lag) {
        self.max = self.max.max(other.max);
    }
}

/// The fields of a response the benchmark checks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Response {
    pub id: Option<u64>,
    pub ok: bool,
    pub volume: Option<u64>,
    pub nnz: Option<u64>,
    pub part_nnz: Option<[u64; 2]>,
    pub cached: Option<bool>,
}

/// The raw text of top-level field `key` in a one-line JSON response
/// (the service's responses name each field once).
fn field<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = doc.find(&tag)? + tag.len();
    let rest = &doc[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// The two-element `part_nnz` array.
fn part_nnz(doc: &str) -> Option<[u64; 2]> {
    let tag = "\"part_nnz\":[";
    let start = doc.find(tag)? + tag.len();
    let rest = &doc[start..];
    let (a, b) = rest[..rest.find(']')?].split_once(',')?;
    Some([a.trim().parse().ok()?, b.trim().parse().ok()?])
}

impl Response {
    pub fn parse(doc: &str) -> Response {
        Response {
            id: field(doc, "id").and_then(|v| v.parse().ok()),
            ok: field(doc, "status") == Some("\"ok\""),
            volume: field(doc, "volume").and_then(|v| v.parse().ok()),
            nnz: field(doc, "nnz").and_then(|v| v.parse().ok()),
            part_nnz: part_nnz(doc),
            cached: field(doc, "cached").and_then(|v| v.parse().ok()),
        }
    }
}

/// Splits complete responses off the front of `buf`.
fn take_responses(buf: &mut Vec<u8>, binary: bool) -> Vec<String> {
    let mut out = Vec::new();
    let mut pos = 0;
    loop {
        let rest = &buf[pos..];
        let (doc, used) = if binary {
            if rest.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            if rest.len() < 4 + len {
                break;
            }
            // Kind byte 0x01, then the JSON document.
            (&rest[5.min(4 + len)..4 + len], 4 + len)
        } else {
            match rest.iter().position(|&b| b == b'\n') {
                Some(n) => (&rest[..n], n + 1),
                None => break,
            }
        };
        out.push(String::from_utf8_lossy(doc).into_owned());
        pos += used;
    }
    buf.drain(..pos);
    out
}

/// One request of a connection's plan.
#[derive(Debug, Clone, Copy)]
pub struct Planned<K> {
    pub id: u64,
    pub key: K,
    pub due: Duration,
}

/// What happened to one planned request.
#[derive(Debug, Clone)]
pub struct Outcome<K> {
    pub plan: Planned<K>,
    pub done: Option<Duration>,
    pub response: Option<Response>,
    /// Per-request layer replay, when the run is traced.
    pub replay: Option<crate::layers::WireTimes>,
}

impl<K> Outcome<K> {
    /// Latency from the due time to the response, in ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_sub(self.plan.due).as_secs_f64() * 1e3)
    }
}

/// One connection's run.
pub struct ConnRun<K> {
    pub outcomes: Vec<Outcome<K>>,
    pub lag: Lag,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub error: Option<String>,
}

/// A request's bytes as `(head, body)`: what differs per request, then the
/// rest it shares with others.
pub type RequestParts<'a, K> = dyn Fn(&Planned<K>) -> (Vec<u8>, &'a [u8]) + 'a;

/// Replays a whole request through the layer calls (the traced run).
pub type Replay<'r> = dyn Fn(&[u8]) -> crate::layers::WireTimes + 'r;

/// Drives one connection through its plan. `head_body` gives the two
/// pieces of a request's bytes; `replay`, when set, is called with each
/// whole request once it is answered, at a moment the connection is idle:
/// no response outstanding and the next send not yet due (the traced run).
/// So a replay neither holds up the read of a response nor, unless it
/// runs past the next due time, a send.
pub fn drive<'a, K: Copy>(
    stream: &mut TcpStream,
    binary: bool,
    plan: &[Planned<K>],
    start: Instant,
    head_body: &RequestParts<'a, K>,
    replay: Option<&Replay>,
) -> ConnRun<K> {
    let mut run = ConnRun {
        outcomes: Vec::with_capacity(plan.len()),
        lag: Lag::default(),
        bytes_out: 0,
        bytes_in: 0,
        error: None,
    };
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut unreplayed: VecDeque<usize> = VecDeque::new();
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0;
    let mut drain_deadline = None;
    loop {
        let now = start.elapsed();
        let idle = waiting.is_empty() && plan.get(next).is_none_or(|p| now < p.due);
        if let (Some(f), true) = (replay, idle) {
            if let Some(index) = unreplayed.pop_front() {
                let o = &mut run.outcomes[index];
                let (mut whole, body) = head_body(&o.plan);
                whole.extend_from_slice(body);
                o.replay = Some(f(&whole));
                continue;
            }
        }
        let wait = if next < plan.len() {
            let p = &plan[next];
            if now >= p.due {
                let (head, body) = head_body(p);
                let sent = start.elapsed();
                if let Err(e) = stream.write_all(&head).and_then(|_| stream.write_all(body)) {
                    run.error = Some(format!("send: {e}"));
                    break;
                }
                run.lag.record(p.due, sent);
                run.bytes_out += (head.len() + body.len()) as u64;
                waiting.push_back(run.outcomes.len());
                unreplayed.push_back(run.outcomes.len());
                run.outcomes.push(Outcome {
                    plan: *p,
                    done: None,
                    response: None,
                    replay: None,
                });
                next += 1;
                continue;
            }
            p.due - now
        } else if waiting.is_empty() {
            break;
        } else {
            let deadline = *drain_deadline.get_or_insert(now + DRAIN_TIMEOUT);
            if now >= deadline {
                run.error = Some(format!("{} responses missing", waiting.len()));
                break;
            }
            Duration::from_millis(20)
        };
        let _ = stream.set_read_timeout(Some(wait.max(Duration::from_micros(50))));
        match stream.read(&mut chunk) {
            Ok(0) => {
                run.error = Some("connection closed".into());
                break;
            }
            Ok(n) => {
                let done = start.elapsed();
                run.bytes_in += n as u64;
                buf.extend_from_slice(&chunk[..n]);
                for doc in take_responses(&mut buf, binary) {
                    let Some(index) = waiting.pop_front() else {
                        run.error = Some("response without a request".into());
                        break;
                    };
                    let o = &mut run.outcomes[index];
                    o.done = Some(done);
                    o.response = Some(Response::parse(&doc));
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                run.error = Some(format!("receive: {e}"));
                break;
            }
        }
    }
    // Requests never sent (after an error) still count as attempted.
    for p in &plan[next..] {
        run.outcomes.push(Outcome {
            plan: *p,
            done: None,
            response: None,
            replay: None,
        });
    }
    run
}

/// Sends one request and waits for its response (the codec handshake).
pub fn call(stream: &mut TcpStream, binary: bool, request: &[u8]) -> Result<Response, String> {
    stream.write_all(request).map_err(|e| e.to_string())?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed".into());
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(doc) = take_responses(&mut buf, binary).into_iter().next() {
            return Ok(Response::parse(&doc));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced() {
        let s = Schedule { rate: 200.0 };
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), Duration::from_millis(5));
        assert_eq!(s.due(200), Duration::from_secs(1));
        assert_eq!(s.count_within(2.0), 400);
        assert_eq!(Schedule { rate: 3.0 }.count_within(1.1), 4);
    }

    #[test]
    fn lag_counts_only_lateness() {
        let mut lag = Lag::default();
        lag.record(Duration::from_millis(10), Duration::from_millis(10));
        lag.record(Duration::from_millis(20), Duration::from_millis(27));
        lag.record(Duration::from_millis(30), Duration::from_millis(29));
        assert_eq!(lag.max, Duration::from_millis(7));
        let mut other = Lag::default();
        other.record(Duration::ZERO, Duration::from_millis(9));
        lag.merge(&other);
        assert_eq!(lag.max, Duration::from_millis(9));
    }

    #[test]
    fn latency_runs_from_due_time() {
        let o = Outcome {
            plan: Planned {
                id: 0,
                key: (),
                due: Duration::from_millis(100),
            },
            done: Some(Duration::from_millis(135)),
            response: None,
            replay: None,
        };
        // A stalled send counts against the request: 35 ms, not 5 ms.
        assert!((o.latency_ms().unwrap() - 35.0).abs() < 1e-9);
    }

    #[test]
    fn splits_lines_and_frames() {
        let mut lines = b"{\"id\":1}\n{\"id\":2}\n{\"id\"".to_vec();
        assert_eq!(take_responses(&mut lines, false).len(), 2);
        assert_eq!(lines, b"{\"id\"");

        let doc = b"{\"id\":7,\"status\":\"ok\"}";
        let mut frames = ((doc.len() + 1) as u32).to_le_bytes().to_vec();
        frames.push(0x01);
        frames.extend_from_slice(doc);
        frames.extend_from_slice(&[9, 0]);
        let got = take_responses(&mut frames, true);
        assert_eq!(got, vec![String::from_utf8(doc.to_vec()).unwrap()]);
        assert_eq!(frames, vec![9, 0]);
    }

    #[test]
    fn parses_response_fields() {
        let ok = "{\"id\":12,\"status\":\"ok\",\"matrix\":{\"rows\":2,\"cols\":2,\"nnz\":2,\
                  \"fingerprint\":\"00ff\"},\"backend\":\"mondriaan\",\"method\":\"mg-ir\",\
                  \"epsilon\":0.03,\"seed\":5,\"volume\":17,\"imbalance\":0.0125,\
                  \"ir_iterations\":2,\"part_nnz\":[1,1],\"cached\":true}";
        let r = Response::parse(ok);
        assert_eq!(r.id, Some(12));
        assert!(r.ok);
        assert_eq!(r.volume, Some(17));
        assert_eq!(r.nnz, Some(2));
        assert_eq!(r.part_nnz, Some([1, 1]));
        assert_eq!(r.cached, Some(true));
        let err = Response::parse("{\"id\":3,\"status\":\"error\",\"code\":\"bad_matrix\"}");
        assert!(!err.ok);
        assert_eq!(err.volume, None);
    }
}
