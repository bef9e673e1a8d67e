//! The ordered-session engine: one implementation of everything a
//! session does regardless of how its requests are resolved.
//!
//! A session reads protocol units from a byte stream (a pipe or a TCP
//! connection), answers them out of order, and writes the answers back
//! **in submission order**. The engine owns the parts that are the same
//! for every kind of session:
//!
//! * the unit pump — raw reads into a [`UnitScanner`], pipe and TCP alike;
//! * the unit decoder — JSON lines, binary frame kinds 0x01–0x03,
//!   invalid UTF-8 and blank lines, and the `hello` codec negotiation;
//! * the sliding slot window ([`SessionShared`]) that out-of-order
//!   resolutions fill, with a drain barrier ([`SessionShared::drain_resolved`]);
//! * the in-order writer, which tallies responses,
//!   `cached: true` lines, error lines and per-backend completions as
//!   they pass — the one [`Tally`] that both the deferred `stats` line
//!   and the session summary read;
//! * the threaded TCP accept loop ([`TcpFront`]) with session reaping
//!   and drain on shutdown.
//!
//! What differs plugs in through two traits: a [`Handler`] resolves each
//! decoded request (the local engine executes it, the router forwards
//! it), and its [`Stats`] type renders the deferred `stats` slot from the
//! writer's tally. A [`Host`] opens one handler per session.

use crate::codec::{self, UnitKind, UnitScanner, WireCodec};
use crate::json::Json;
use crate::protocol::{self, Request};
use mg_core::service::{ErrorCode, RequestOp};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Wall-clock anchors of one request unit, captured before decode so
/// traced requests can report `decode` and end-to-end durations.
#[derive(Clone, Copy, Debug)]
pub struct UnitStart {
    /// `trace::now_us()` at unit start (span timestamps).
    pub sys_us: u64,
    /// Monotonic twin of `sys_us` (span durations).
    pub at: Instant,
}

impl UnitStart {
    fn now() -> UnitStart {
        UnitStart {
            sys_us: mg_obs::trace::now_us(),
            at: Instant::now(),
        }
    }
}

/// One admitted request: its response slot, the session's decode-time
/// request count (including this one), and when its unit started.
#[derive(Clone, Copy, Debug)]
pub struct Unit {
    /// Submission index — the response slot to resolve.
    pub index: u64,
    /// Requests decoded so far in this session, this one included.
    pub received: u64,
    /// When the unit carrying the request was scanned.
    pub start: UnitStart,
}

/// A finished response line plus what the writer tallies for it.
#[derive(Debug, Default)]
pub struct Reply {
    /// The response document text (no terminator).
    pub line: String,
    /// The line says `cached: true`.
    pub cached: bool,
    /// The line is an error response.
    pub error: bool,
    /// The backend of a freshly computed (not cache-served) partition.
    pub computed: Option<&'static str>,
    /// A `hello` negotiation: the writer emits this line in the old
    /// codec, then switches.
    pub switch: Option<WireCodec>,
}

impl Reply {
    /// A plain successful line.
    pub fn ok(line: String) -> Reply {
        Reply {
            line,
            ..Reply::default()
        }
    }

    /// An error line.
    pub fn error(line: String) -> Reply {
        Reply {
            line,
            error: true,
            ..Reply::default()
        }
    }
}

/// What the writer has counted over the lines it emitted so far, in
/// stream order — so at any slot it covers exactly the preceding prefix.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Lines written to the transport.
    pub responses: u64,
    /// `cached: true` lines.
    pub cache_hits: u64,
    /// Error lines.
    pub errors: u64,
    /// Freshly computed partitions per registered backend.
    pub completed: Vec<(&'static str, u64)>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            completed: mg_core::all_backends()
                .iter()
                .map(|b| (b.name(), 0))
                .collect(),
            ..Tally::default()
        }
    }

    /// Freshly computed partitions over all backends.
    pub fn computed(&self) -> u64 {
        self.completed.iter().map(|(_, n)| n).sum()
    }

    fn count(&mut self, reply: &Reply) {
        self.cache_hits += u64::from(reply.cached);
        self.errors += u64::from(reply.error);
        if let Some(backend) = reply.computed {
            if let Some(entry) = self.completed.iter_mut().find(|(name, _)| *name == backend) {
                entry.1 += 1;
            }
        }
    }
}

/// The writer-side half of a kind of session: a deferred `stats` slot,
/// rendered when the writer reaches it, plus per-line observation hooks.
pub trait Stats: Send + 'static {
    /// Renders the stats line from the tally of every preceding response
    /// and the session's still-outstanding request count.
    fn render(self, tally: &Tally, outstanding: u64) -> String;

    /// Observes each line before it is written (metrics).
    fn counted(_reply: &Reply) {}

    /// Observes each line the transport accepted (metrics).
    fn written(_wire: WireCodec, _bytes: usize) {}
}

enum Slot<S> {
    /// Request admitted, response not resolved yet.
    Pending,
    Ready(Reply),
    /// A `stats` request, rendered by the writer when it reaches it.
    Deferred(S),
}

/// Response slots of one session: a sliding window of pending lines.
/// `base` is the submission index of `slots[0]`; the writer pops from the
/// front as lines resolve, so memory stays bounded by the in-flight
/// window rather than the session length.
struct Window<S> {
    base: u64,
    slots: VecDeque<Slot<S>>,
    input_done: bool,
}

/// The state a session's reader, its resolvers and its writer share.
pub struct SessionShared<S> {
    window: Mutex<Window<S>>,
    ready: Condvar,
    /// Admitted requests resolving asynchronously (queued jobs, forwarded
    /// lines). Resolvers decrement it *before* resolving their slot, and
    /// the writer samples it when it renders a `stats` slot — after the
    /// whole preceding prefix resolved — so the sampled value is
    /// deterministic whenever no such request trails the stats request.
    pub outstanding: AtomicU64,
}

impl<S: Stats> SessionShared<S> {
    /// An empty window.
    pub fn new() -> Arc<SessionShared<S>> {
        Arc::new(SessionShared {
            window: Mutex::new(Window {
                base: 0,
                slots: VecDeque::new(),
                input_done: false,
            }),
            ready: Condvar::new(),
            outstanding: AtomicU64::new(0),
        })
    }

    /// Locks the window, recovering from poison: a panicking resolver
    /// must not take the rest of the session down with it.
    fn lock(&self) -> MutexGuard<'_, Window<S>> {
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, Window<S>>) -> MutexGuard<'a, Window<S>> {
        self.ready
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Allocates the next slot in stream order; returns its index.
    fn push_pending(&self) -> u64 {
        let mut window = self.lock();
        window.slots.push_back(Slot::Pending);
        window.base + window.slots.len() as u64 - 1
    }

    fn set(&self, index: u64, slot: Slot<S>) {
        let mut window = self.lock();
        let offset = (index - window.base) as usize;
        window.slots[offset] = slot;
        self.ready.notify_all();
    }

    /// Resolves slot `index` with a finished line.
    pub fn resolve(&self, index: u64, reply: Reply) {
        self.set(index, Slot::Ready(reply));
    }

    /// Resolves slot `index` with a `stats` line the writer renders.
    pub fn defer(&self, index: u64, stats: S) {
        self.set(index, Slot::Deferred(stats));
    }

    fn finish_input(&self) {
        self.lock().input_done = true;
        self.ready.notify_all();
    }

    /// Blocks until every slot except (optionally) `skip` is resolved —
    /// a session-level drain that also covers requests between two
    /// resolvers (a router failover in limbo).
    pub fn drain_resolved(&self, skip: Option<u64>) {
        let mut window = self.lock();
        loop {
            let base = window.base;
            let unresolved = window.slots.iter().enumerate().any(|(offset, slot)| {
                matches!(slot, Slot::Pending) && Some(base + offset as u64) != skip
            });
            if !unresolved {
                return;
            }
            window = self.wait(window);
        }
    }
}

/// Writer half of a session: emits resolved slots in submission order,
/// flushing after each line so clients see results as they land, and
/// tallies them as they pass. Returns when the input has ended and every
/// slot has been written. A broken pipe only stops the writes: the
/// writer keeps draining so the session still terminates cleanly.
fn write_responses<S: Stats, W: Write>(shared: &SessionShared<S>, output: &mut W) -> Tally {
    let mut tally = Tally::new();
    let mut wire = WireCodec::JsonLines;
    loop {
        let slot = {
            let mut window = shared.lock();
            loop {
                match window.slots.front() {
                    Some(Slot::Pending) => {}
                    Some(_) => break,
                    None if window.input_done => return tally,
                    None => {}
                }
                window = shared.wait(window);
            }
            window.base += 1;
            window.slots.pop_front().expect("checked front")
        };
        let reply = match slot {
            Slot::Pending => unreachable!("the writer only pops resolved slots"),
            Slot::Ready(reply) => reply,
            Slot::Deferred(stats) => {
                Reply::ok(stats.render(&tally, shared.outstanding.load(Ordering::SeqCst)))
            }
        };
        tally.count(&reply);
        S::counted(&reply);
        // Response documents are forwarded opaquely: whatever codec the
        // client negotiated, only the framing around the text changes.
        if codec::write_response_unit(output, wire, &reply.line).is_ok() {
            tally.responses += 1;
            S::written(wire, reply.line.len() + 1);
        }
        if let Some(next) = reply.switch {
            wire = next;
        }
    }
}

/// How one kind of session resolves its requests.
pub trait Handler {
    /// The deferred `stats` slot this kind of session renders.
    type Stats: Stats;

    /// The slot window this handler resolves into.
    fn shared(&self) -> &Arc<SessionShared<Self::Stats>>;

    /// Resolves one decoded request — every op but `hello`, which the
    /// engine answers itself. `line` is the request's JSON text when it
    /// arrived as text (a line or a kind-0x01 frame), `None` for a
    /// kind-0x02 binary partition payload. Returns `false` when the
    /// session should stop reading (an in-band `shutdown`).
    fn handle(&mut self, unit: Unit, request: Request, line: Option<&str>) -> bool;

    /// The `shard` tag of locally answered decode errors.
    fn error_shard(&self) -> Option<&str> {
        None
    }

    /// Observes each scanned unit (metrics).
    fn scanned(&mut self, _kind: UnitKind, _bytes: usize) {}

    /// Observes each admitted request, decodable or not (metrics).
    fn admitted(&mut self) {}

    /// Observes each successfully decoded request (metrics).
    fn decoded(&mut self, _op: RequestOp) {}

    /// The input has ended: settle in-flight work before the writer is
    /// told no more slots will come.
    fn finish(&mut self) {}
}

/// What a finished session reports.
pub struct Outcome<H> {
    /// The session's handler, for handler-specific counters.
    pub handler: H,
    /// Requests decoded (including failed ones).
    pub received: u64,
    /// The writer's tally over the whole response stream.
    pub tally: Tally,
}

/// The reader half of a session: the unit decoder over a handler.
struct Session<H> {
    handler: H,
    received: u64,
    /// A `hello` just switched the inbound codec; applied to the scanner
    /// before the next unit is parsed.
    switch: Option<WireCodec>,
}

impl<H: Handler> Session<H> {
    fn admit(&mut self, start: UnitStart) -> Unit {
        self.received += 1;
        self.handler.admitted();
        Unit {
            index: self.handler.shared().push_pending(),
            received: self.received,
            start,
        }
    }

    fn fail(&mut self, unit: Unit, id: &Json, code: ErrorCode, message: &str) {
        let line = protocol::error_response(id, code, message, self.handler.error_shard());
        self.handler
            .shared()
            .resolve(unit.index, Reply::error(line));
    }

    /// Admits a request that failed before decode with a null id.
    fn reject(&mut self, start: UnitStart, message: &str) {
        let unit = self.admit(start);
        self.fail(unit, &Json::Null, ErrorCode::BadRequest, message);
    }

    /// Handles one scanned unit. Returns `false` to stop reading.
    fn unit(&mut self, kind: UnitKind, bytes: &[u8]) -> bool {
        let start = UnitStart::now();
        self.handler.scanned(kind, bytes.len());
        match kind {
            UnitKind::Line => self.text(bytes, start),
            UnitKind::Frame => self.frame(bytes, start),
        }
    }

    fn text(&mut self, bytes: &[u8], start: UnitStart) -> bool {
        // Non-UTF-8 request bytes get a typed error, never a lossily
        // mangled parse.
        let Ok(text) = std::str::from_utf8(bytes) else {
            self.reject(start, "request bytes are not valid UTF-8");
            return true;
        };
        // Blank lines (and a `\r` left by CRLF framing) get no response.
        let line = text.trim();
        if line.is_empty() {
            return true;
        }
        let unit = self.admit(start);
        match protocol::parse_request_line(line) {
            Ok(request) => self.request(unit, request, Some(line)),
            Err(e) => {
                self.fail(unit, &e.id, e.code, &e.message);
                true
            }
        }
    }

    fn frame(&mut self, payload: &[u8], start: UnitStart) -> bool {
        match payload.split_first() {
            None => self.reject(start, "empty frame"),
            Some((&codec::KIND_JSON, body)) => return self.text(body, start),
            Some((&codec::KIND_PARTITION, body)) => {
                let unit = self.admit(start);
                match codec::decode_partition_payload(body) {
                    Ok(request) => return self.request(unit, request, None),
                    Err(e) => self.fail(unit, &e.id, e.code, &e.message),
                }
            }
            Some((&codec::KIND_BATCH, body)) => match codec::batch_subframes(body) {
                Ok(subs) => return subs.into_iter().all(|sub| self.frame(&body[sub], start)),
                Err(message) => self.reject(start, &message),
            },
            Some((&kind, _)) => self.reject(start, &format!("unknown frame kind 0x{kind:02x}")),
        }
        true
    }

    fn request(&mut self, unit: Unit, request: Request, line: Option<&str>) -> bool {
        self.handler.decoded(request.op);
        if request.op != RequestOp::Hello {
            return self.handler.handle(unit, request, line);
        }
        // Codec negotiation is strictly between the client and this
        // session; a bare hello re-affirms JSON lines.
        let codec = request.codec.unwrap_or(WireCodec::JsonLines);
        self.switch = Some(codec);
        let reply = Reply {
            switch: Some(codec),
            ..Reply::ok(protocol::hello_response(&request.id, codec))
        };
        self.handler.shared().resolve(unit.index, reply);
        true
    }

    /// The unit pump: raw reads into the scanner. A request split across
    /// reads (or read timeouts) stays buffered until its terminator — or
    /// its declared frame length — arrives, whatever the codec. A read
    /// timeout only polls `stop`.
    fn pump<R: Read>(&mut self, mut input: R, stop: &dyn Fn() -> bool) {
        let mut scanner = UnitScanner::new();
        let mut chunk = vec![0u8; 16 * 1024];
        loop {
            match input.read(&mut chunk) {
                Ok(0) => {
                    // A final request without its `\n` terminator is
                    // still a request.
                    if let Some(tail) = scanner.take_eof_remainder() {
                        self.unit(UnitKind::Line, &tail);
                    }
                    return;
                }
                Ok(n) => {
                    scanner.push(&chunk[..n]);
                    loop {
                        match scanner.next_unit() {
                            Ok(Some((kind, range))) => {
                                let go = self.unit(kind, scanner.bytes(&range));
                                if let Some(codec) = self.switch.take() {
                                    scanner.set_codec(codec);
                                }
                                if !go {
                                    return;
                                }
                            }
                            Ok(None) => break,
                            Err(e) => {
                                // Unresynchronisable framing violation:
                                // answer with a typed error, then stop.
                                self.reject(UnitStart::now(), &e.message);
                                return;
                            }
                        }
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if stop() {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

/// Runs one full session: the reader pumps `input` on the calling thread
/// while a scoped writer thread streams responses to `output` in
/// submission order. The stream starts as JSON lines; a `hello` can
/// switch it to binary frames mid-session (both directions). Returns once
/// the input is exhausted (EOF, an in-band `shutdown`, or `stop` during a
/// read timeout) and every response has been written.
fn run<H, R, W>(handler: H, input: R, mut output: W, stop: &dyn Fn() -> bool) -> Outcome<H>
where
    H: Handler,
    R: Read,
    W: Write + Send,
{
    let mut session = Session {
        handler,
        received: 0,
        switch: None,
    };
    let shared = session.handler.shared().clone();
    let tally = std::thread::scope(|scope| {
        let writer = scope.spawn(|| write_responses(&shared, &mut output));
        session.pump(input, stop);
        session.handler.finish();
        shared.finish_input();
        // A panicked writer is an internal failure of this session only:
        // the outcome then reports an empty tally.
        writer.join().unwrap_or_default()
    });
    Outcome {
        handler: session.handler,
        received: session.received,
        tally,
    }
}

/// A process that serves sessions: opens one handler per session.
pub trait Host: Send + Sync + 'static {
    /// The handler of one session on this host.
    type Handler: Handler;

    /// Thread-name stem of this host's TCP threads.
    const NAME: &'static str;

    /// Opens a session's handler.
    fn open(&self) -> Self::Handler;

    /// `true` once the host stopped taking work: the accept loop exits
    /// and idle sessions end at their next read timeout.
    fn is_shutting_down(&self) -> bool;

    /// Stops taking work (the out-of-band twin of the `shutdown` op).
    fn initiate_shutdown(&self);

    /// Runs after every TCP session ended: drains what the host still
    /// owes (the local engine's queued jobs).
    fn drain(&self) {}

    /// Runs one session of this host over a generic byte transport.
    fn serve<R: Read, W: Write + Send>(&self, input: R, output: W) -> Outcome<Self::Handler>
    where
        Self: Sized,
    {
        run(self.open(), input, output, &|| self.is_shutting_down())
    }
}

/// A running threaded TCP front end: a `std::net` listener with one
/// session thread per connection over the shared host. Finished sessions
/// are reaped on every accept-loop pass; on shutdown the loop stops
/// accepting and waits for every open session to drain.
pub struct TcpFront<H: Host> {
    /// The bound address (useful with port 0).
    pub local_addr: SocketAddr,
    accept_thread: std::thread::JoinHandle<()>,
    host: Arc<H>,
    live_sessions: Arc<AtomicUsize>,
}

impl<H: Host> TcpFront<H> {
    /// Binds `addr` (e.g. `127.0.0.1:7077`, port 0 for ephemeral) and
    /// starts accepting connections.
    pub fn bind(host: Arc<H>, addr: &str) -> std::io::Result<TcpFront<H>> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let live_sessions = Arc::new(AtomicUsize::new(0));
        let accept_thread = std::thread::Builder::new()
            .name(format!("mg-{}-accept", H::NAME))
            .spawn({
                let host = host.clone();
                let live = live_sessions.clone();
                move || accept_loop(&host, &listener, &live)
            })?;
        Ok(TcpFront {
            local_addr,
            accept_thread,
            host,
            live_sessions,
        })
    }

    /// Session handles the accept loop currently retains: the sessions
    /// still running plus any finished ones not yet reaped by the next
    /// sweep. Stays bounded by the number of *concurrently open*
    /// connections, however many have come and gone.
    pub fn live_sessions(&self) -> usize {
        self.live_sessions.load(Ordering::SeqCst)
    }

    /// Waits for the accept loop and every session it spawned to end —
    /// after an in-band `shutdown` or [`Host::initiate_shutdown`] — then
    /// lets the host drain what it still owes.
    pub fn join(self) {
        self.accept_thread.join().expect("accept loop panicked");
        self.host.drain();
    }

    /// Initiates shutdown, then drains like [`TcpFront::join`].
    pub fn shutdown_and_join(self) {
        self.host.initiate_shutdown();
        self.join();
    }
}

fn accept_loop<H: Host>(host: &Arc<H>, listener: &TcpListener, live: &AtomicUsize) {
    let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        // Reap on every pass (including the idle 5 ms ticks), so a
        // long-lived server holds handles only for open connections.
        sessions.retain(|session| !session.is_finished());
        live.store(sessions.len(), Ordering::SeqCst);
        if host.is_shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let host = host.clone();
                let session = std::thread::Builder::new()
                    .name(format!("mg-{}-session", H::NAME))
                    .spawn(move || {
                        // The read timeout is what lets an idle
                        // connection notice shutdown.
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
                        let _ = stream.set_nodelay(true);
                        if let Ok(write_half) = stream.try_clone() {
                            host.serve(stream, write_half);
                        }
                    });
                match session {
                    Ok(handle) => sessions.push(handle),
                    Err(_) => break,
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    // Drain: session readers notice the shutdown within their read
    // timeout, stop reading, and their writers flush every in-flight
    // response first.
    for session in sessions {
        let _ = session.join();
    }
    live.store(0, Ordering::SeqCst);
}
