//! The persistent daemon: socket accept loop, per-connection handlers,
//! and graceful shutdown.
//!
//! One [`ServeState`] (both cache tiers) and one [`Executor`] (the
//! work-stealing pool) are shared by every connection. Each connection
//! gets a reader thread that parses line-delimited requests, queues each
//! `run` in the batching tier's coalescer (whose drain jobs run on the
//! pool), and writes exactly one response line per request line, in
//! order — the protocol is strictly request-response per connection, so
//! clients can never observe reordering.
//!
//! Admission control: when the pool's bounded queue is full, a drain job
//! is refused and every request pending under its batch key immediately
//! receives an `overloaded` response. Nothing is ever silently dropped; a
//! malformed line yields an `error` response and the connection stays
//! usable.
//!
//! Hardening (PR 7, see `DESIGN.md` §14):
//!
//! * **Deadlines & cancellation** — every `run` request gets a
//!   [`CancelToken`] carrying the effective deadline
//!   ([`RunBudget::effective_deadline_ms`]). While the job runs, the
//!   dispatching reader thread wakes every
//!   [`reply_poll`](crate::executor::ExecutorConfig::reply_poll) to
//!   probe for client disconnect or server shutdown and trips the token;
//!   the interpreter observes it at the next block boundary and the
//!   client (if still there) receives a structured `deadline_exceeded` /
//!   `cancelled` / `shutting_down` line. Tokens of in-flight requests
//!   are registered so shutdown can cancel them all at once.
//! * **Bounded frames** — the reader enforces
//!   [`ServeLimits::max_frame_bytes`] (an oversized frame gets a
//!   `resource_exhausted` reply and the connection closes — an oversized
//!   line cannot be re-synchronized), reaps idle connections
//!   ([`ServeLimits::idle_timeout_ms`]) and slow-trickling writers
//!   ([`ServeLimits::frame_timeout_ms`], slowloris protection).
//! * **Chaos** — with a [`ChaosSpec`] armed, socket reads/writes and the
//!   worker can be made to fail deterministically at registered sites;
//!   the sweep harness (`servebench --chaos`) asserts every site yields
//!   a structured error or clean close, never a hang or a wrong answer.

use crate::batch::Coalescer;
use crate::chaos::{maybe_delay, ChaosSpec};
use crate::engine::{RunBudget, ServeError, ServeLimits, ServeOptions, ServeState};
use crate::executor::{Executor, ExecutorConfig};
use crate::hashing::{batch_key, request_key};
use crate::request::{Request, Response, RunRequest};
use psir::{CancelReason, CancelToken};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::cli::PROTOCOL_VERSION;
use telemetry::Json;

/// Socket read-timeout tick for the frame reader: how often a blocked
/// read wakes to check stopping/idle/slow deadlines. Bounds reaction
/// latency, not throughput (data arrival interrupts the wait).
const READ_POLL: Duration = Duration::from_millis(100);

/// Per-request lifecycle counters, reported under `"lifecycle"` in
/// `stats` and asserted by the robustness tests.
#[derive(Default)]
struct Lifecycle {
    deadline_exceeded: AtomicU64,
    cancelled: AtomicU64,
    resource_exhausted: AtomicU64,
    shutting_down: AtomicU64,
    worker_crashes: AtomicU64,
    frames_oversized: AtomicU64,
    conns_reaped: AtomicU64,
}

/// One `run` request pending in the coalescer or running in a batch: the
/// request itself plus the reply channel and token its connection thread
/// is waiting on. The drain job that takes the member answers it through
/// its own channel; the member's connection thread keeps running its
/// usual reply loop (disconnect probing, shutdown checks) meanwhile.
struct BatchMember {
    run: Box<RunRequest>,
    token: CancelToken,
    tx: mpsc::Sender<Response>,
}

struct ServerShared {
    state: ServeState,
    executor: Arc<Executor>,
    limits: ServeLimits,
    /// The batching tier: every `run` request is dispatched through it.
    coalescer: Coalescer<BatchMember>,
    chaos: Option<ChaosSpec>,
    stopping: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    lifecycle: Lifecycle,
    /// Cancel tokens of requests currently inside the pool, keyed by a
    /// server-private sequence number (request ids are client-chosen and
    /// not unique across connections).
    inflight: Mutex<HashMap<u64, CancelToken>>,
    next_seq: AtomicU64,
}

impl ServerShared {
    fn stats_json(&self) -> Json {
        let (executed, refused) = self.executor.counters();
        let mut fields = match self.state.stats_json() {
            Json::Obj(pairs) => pairs,
            _ => Vec::new(),
        };
        fields.push((
            "admission".into(),
            Json::obj(vec![
                ("pending", Json::u64(self.executor.pending() as u64)),
                ("queue_cap", Json::u64(self.executor.queue_cap() as u64)),
                ("executed", Json::u64(executed as u64)),
                ("refused", Json::u64(refused as u64)),
            ]),
        ));
        let l = &self.lifecycle;
        fields.push((
            "lifecycle".into(),
            Json::obj(vec![
                (
                    "deadline_exceeded",
                    Json::u64(l.deadline_exceeded.load(Ordering::Relaxed)),
                ),
                ("cancelled", Json::u64(l.cancelled.load(Ordering::Relaxed))),
                (
                    "resource_exhausted",
                    Json::u64(l.resource_exhausted.load(Ordering::Relaxed)),
                ),
                (
                    "shutting_down",
                    Json::u64(l.shutting_down.load(Ordering::Relaxed)),
                ),
                (
                    "worker_crashes",
                    Json::u64(l.worker_crashes.load(Ordering::Relaxed)),
                ),
                (
                    "frames_oversized",
                    Json::u64(l.frames_oversized.load(Ordering::Relaxed)),
                ),
                (
                    "conns_reaped",
                    Json::u64(l.conns_reaped.load(Ordering::Relaxed)),
                ),
                ("worker_panics", Json::u64(self.executor.panics() as u64)),
                (
                    "aborted_at_shutdown",
                    Json::u64(self.executor.aborted() as u64),
                ),
            ]),
        ));
        let b = &self.coalescer.counters;
        let n = |c: &AtomicU64| Json::u64(c.load(Ordering::Relaxed));
        fields.push((
            "batch".into(),
            Json::obj(vec![
                ("max_batch", Json::u64(self.coalescer.max_batch() as u64)),
                ("batches_formed", n(&b.batches_formed)),
                ("batched_requests", n(&b.batched_requests)),
                ("coalesced_requests", n(&b.coalesced_requests)),
                ("max_batch_size", n(&b.max_batch_size)),
            ]),
        ));
        fields.push((
            "requests".into(),
            Json::u64(self.requests.load(Ordering::Relaxed)),
        ));
        fields.push((
            "errors".into(),
            Json::u64(self.errors.load(Ordering::Relaxed)),
        ));
        fields.push(("protocol".into(), Json::u64(PROTOCOL_VERSION)));
        Json::Obj(fields)
    }

    /// Cancels every in-flight request with the given reason (first
    /// cancellation wins per token, so an already-tripped deadline is
    /// left alone).
    fn cancel_inflight(&self, reason: CancelReason) {
        let inflight = self
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for tok in inflight.values() {
            tok.cancel(reason);
        }
    }
}

enum WakeTarget {
    Tcp(std::net::SocketAddr),
    Unix(PathBuf),
}

/// A running server; dropping it without [`ServerHandle::shutdown`] leaks
/// the accept thread (tests and the daemon always shut down explicitly).
pub struct ServerHandle {
    /// Displayable listen address (`host:port` or a socket path).
    pub addr: String,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
    wake: WakeTarget,
}

impl ServerHandle {
    /// Requests shutdown (idempotent) and joins the accept loop and the
    /// worker pool. In-flight requests are cancelled with the shutdown
    /// reason (their clients receive structured `shutting_down` lines);
    /// queued-but-unstarted jobs are aborted with the same reply.
    pub fn shutdown(mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Stop starting new jobs, then cancel what is already running.
        self.shared.executor.begin_shutdown();
        self.shared.cancel_inflight(CancelReason::Shutdown);
        match &self.wake {
            WakeTarget::Tcp(addr) => drop(TcpStream::connect(addr)),
            WakeTarget::Unix(path) => drop(UnixStream::connect(path)),
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.executor.shutdown();
        if let WakeTarget::Unix(path) = &self.wake {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Waits for a *client-initiated* `shutdown` request to stop the
    /// server, then joins the pool (the daemon binary's main loop).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.executor.begin_shutdown();
        self.shared.cancel_inflight(CancelReason::Shutdown);
        self.shared.executor.shutdown();
        if let WakeTarget::Unix(path) = &self.wake {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Binds a TCP listener and starts serving. `addr` may use port 0 for an
/// ephemeral port; the bound address is in the returned handle.
///
/// # Errors
/// Propagates bind failures.
pub fn serve_tcp(addr: &str, opts: &ServeOptions) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shared = make_shared(opts);
    let accept = {
        let shared = Arc::clone(&shared);
        let wake = local;
        std::thread::Builder::new()
            .name("psim-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // The protocol is write-then-read per line; leaving
                    // Nagle on makes every payload+newline pair eat a
                    // delayed-ACK round trip (~40 ms) on loopback.
                    let _ = stream.set_nodelay(true);
                    spawn_conn(&shared, stream, move || {
                        drop(TcpStream::connect(wake));
                    });
                }
            })?
    };
    Ok(ServerHandle {
        addr: local.to_string(),
        shared,
        accept: Some(accept),
        wake: WakeTarget::Tcp(local),
    })
}

/// Binds a Unix-domain socket at `path` (removing a stale socket file
/// first) and starts serving.
///
/// # Errors
/// Propagates bind failures.
pub fn serve_unix(path: &str, opts: &ServeOptions) -> std::io::Result<ServerHandle> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let shared = make_shared(opts);
    let wake_path = PathBuf::from(path);
    let accept = {
        let shared = Arc::clone(&shared);
        let wake = wake_path.clone();
        std::thread::Builder::new()
            .name("psim-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let wake = wake.clone();
                    spawn_conn(&shared, stream, move || {
                        drop(UnixStream::connect(&wake));
                    });
                }
            })?
    };
    Ok(ServerHandle {
        addr: path.to_string(),
        shared,
        accept: Some(accept),
        wake: WakeTarget::Unix(wake_path),
    })
}

fn make_shared(opts: &ServeOptions) -> Arc<ServerShared> {
    Arc::new(ServerShared {
        state: ServeState::new(opts),
        executor: Executor::with_config(ExecutorConfig {
            workers: opts.workers,
            queue_cap: opts.queue_cap,
            ..ExecutorConfig::default()
        }),
        limits: opts.limits.clone(),
        coalescer: Coalescer::new(opts.max_batch),
        chaos: opts.chaos.clone(),
        stopping: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        lifecycle: Lifecycle::default(),
        inflight: Mutex::new(HashMap::new()),
        next_seq: AtomicU64::new(0),
    })
}

trait Conn: Read + Write + Send + 'static {
    fn split(&self) -> std::io::Result<Box<dyn Conn>>;
    fn set_read_timeout_opt(&self, t: Option<Duration>) -> std::io::Result<()>;
    fn set_write_timeout_opt(&self, t: Option<Duration>) -> std::io::Result<()>;
    fn set_nonblocking_opt(&self, nb: bool) -> std::io::Result<()>;
}

macro_rules! impl_conn {
    ($t:ty) => {
        impl Conn for $t {
            fn split(&self) -> std::io::Result<Box<dyn Conn>> {
                Ok(Box::new(self.try_clone()?))
            }
            fn set_read_timeout_opt(&self, t: Option<Duration>) -> std::io::Result<()> {
                self.set_read_timeout(t)
            }
            fn set_write_timeout_opt(&self, t: Option<Duration>) -> std::io::Result<()> {
                self.set_write_timeout(t)
            }
            fn set_nonblocking_opt(&self, nb: bool) -> std::io::Result<()> {
                self.set_nonblocking(nb)
            }
        }
    };
}

impl_conn!(TcpStream);
impl_conn!(UnixStream);

/// One fully-read frame, or the reason the connection is done.
enum Frame {
    /// A complete line (newline stripped; may be empty or malformed —
    /// the dispatcher decides).
    Line(String),
    /// The current frame exceeded [`ServeLimits::max_frame_bytes`].
    Oversized(usize),
    /// Clean end of stream.
    Eof,
    /// No frame activity for [`ServeLimits::idle_timeout_ms`].
    Idle,
    /// A started frame did not complete within
    /// [`ServeLimits::frame_timeout_ms`] (slowloris).
    TooSlow,
    /// The server is stopping.
    Stopping,
    /// Unrecoverable socket error.
    IoError,
}

/// Bounded line reader over a raw connection: enforces the frame-size
/// cap, the idle timeout, and the per-frame (slowloris) timeout, and
/// notices server shutdown while blocked. Replaces `BufReader::lines`,
/// which would buffer an unbounded line and block forever on a silent
/// peer.
struct FrameReader {
    conn: Box<dyn Conn>,
    /// Carry-over bytes past the last returned frame.
    buf: Vec<u8>,
    max_frame: usize,
    idle: Option<Duration>,
    per_frame: Option<Duration>,
}

impl FrameReader {
    fn new(conn: Box<dyn Conn>, limits: &ServeLimits) -> FrameReader {
        let _ = conn.set_read_timeout_opt(Some(READ_POLL));
        let opt_ms = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
        FrameReader {
            conn,
            buf: Vec::new(),
            max_frame: limits.max_frame_bytes as usize,
            idle: opt_ms(limits.idle_timeout_ms),
            per_frame: opt_ms(limits.frame_timeout_ms),
        }
    }

    fn next_frame(&mut self, stopping: &AtomicBool) -> Frame {
        let entered = Instant::now();
        // A frame "starts" at its first byte; carried-over bytes from the
        // previous read mean it already started.
        let mut frame_start = (!self.buf.is_empty()).then(Instant::now);
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Frame::Line(String::from_utf8_lossy(&line).into_owned());
            }
            if self.buf.len() > self.max_frame {
                return Frame::Oversized(self.buf.len());
            }
            if stopping.load(Ordering::SeqCst) {
                return Frame::Stopping;
            }
            match (frame_start, self.per_frame) {
                (Some(t0), Some(cap)) if t0.elapsed() >= cap => return Frame::TooSlow,
                _ => {}
            }
            if frame_start.is_none() {
                if let Some(cap) = self.idle {
                    if entered.elapsed() >= cap {
                        return Frame::Idle;
                    }
                }
            }
            match self.conn.read(&mut chunk) {
                Ok(0) => return Frame::Eof,
                Ok(n) => {
                    frame_start.get_or_insert_with(Instant::now);
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => return Frame::IoError,
            }
        }
    }

    /// Liveness probe used while a job is in flight: a non-blocking read
    /// that returns `true` when the peer has closed or reset the
    /// connection. Bytes a pipelining client sent early are moved into
    /// the carry-over buffer, never lost. Sound because the dispatcher
    /// runs on this connection's reader thread — nothing else reads the
    /// socket. (O_NONBLOCK and the read-timeout socket option are
    /// independent; restoring blocking mode leaves the poll tick set.)
    fn peer_gone(&mut self) -> bool {
        if self.conn.set_nonblocking_opt(true).is_err() {
            return true;
        }
        let mut chunk = [0u8; 4096];
        let gone = match self.conn.read(&mut chunk) {
            Ok(0) => true,
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                false
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
            Err(_) => true,
        };
        let _ = self.conn.set_nonblocking_opt(false);
        gone
    }
}

fn spawn_conn<C: Conn>(
    shared: &Arc<ServerShared>,
    stream: C,
    wake: impl FnOnce() + Send + 'static,
) {
    let shared = Arc::clone(shared);
    let _ = std::thread::Builder::new()
        .name("psim-serve-conn".into())
        .spawn(move || {
            let Ok(writer) = stream.split() else { return };
            handle_conn(&shared, Box::new(stream), writer, wake);
        });
}

/// Writes one response line, with the connection-layer chaos sites
/// threaded through. An `Err` means the connection must close.
fn write_response(
    writer: &mut Box<dyn Conn>,
    chaos: Option<&ChaosSpec>,
    out: &str,
) -> std::io::Result<()> {
    if chaos.is_some_and(|c| c.fires("conn", "close_before_write")) {
        return Err(std::io::Error::other("chaos: close_before_write"));
    }
    maybe_delay(chaos, "conn", "delay_write");
    if chaos.is_some_and(|c| c.fires("conn", "truncate_write")) {
        // A torn frame: half the bytes, no newline, then hard close.
        writer.write_all(&out.as_bytes()[..out.len() / 2])?;
        let _ = writer.flush();
        return Err(std::io::Error::other("chaos: truncate_write"));
    }
    // One write for payload + newline: a separate `write_all(b"\n")`
    // is a write-write-read pattern that stalls on Nagle + delayed ACK.
    let mut framed = Vec::with_capacity(out.len() + 1);
    framed.extend_from_slice(out.as_bytes());
    framed.push(b'\n');
    writer.write_all(&framed)?;
    writer.flush()
}

fn handle_conn(
    shared: &Arc<ServerShared>,
    read_half: Box<dyn Conn>,
    mut writer: Box<dyn Conn>,
    wake: impl FnOnce(),
) {
    if shared.limits.write_timeout_ms > 0 {
        let _ = writer
            .set_write_timeout_opt(Some(Duration::from_millis(shared.limits.write_timeout_ms)));
    }
    let mut frames = FrameReader::new(read_half, &shared.limits);
    loop {
        let line = match frames.next_frame(&shared.stopping) {
            Frame::Line(line) => line,
            Frame::Oversized(got) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                shared
                    .lifecycle
                    .frames_oversized
                    .fetch_add(1, Ordering::Relaxed);
                let resp = Response::ResourceExhausted {
                    id: 0,
                    what: "frame_bytes".into(),
                    detail: format!(
                        "frame exceeds {} bytes (got {got}+); closing connection",
                        shared.limits.max_frame_bytes
                    ),
                };
                let _ = write_response(
                    &mut writer,
                    shared.chaos.as_ref(),
                    &resp.to_json().to_string_compact(),
                );
                return;
            }
            Frame::Idle | Frame::TooSlow => {
                shared
                    .lifecycle
                    .conns_reaped
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            Frame::Eof | Frame::Stopping | Frame::IoError => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        if shared
            .chaos
            .as_ref()
            .is_some_and(|c| c.fires("conn", "close_on_read"))
        {
            // The request is dropped on the floor; the client sees EOF.
            return;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let (response, stop) = dispatch(shared, &line, &mut frames);
        note_response(shared, &response, stop);
        let out = response.to_json().to_string_compact();
        if write_response(&mut writer, shared.chaos.as_ref(), &out).is_err() {
            return;
        }
        if stop {
            shared.stopping.store(true, Ordering::SeqCst);
            wake();
            return;
        }
    }
}

/// Bumps the stats counters for an outgoing response.
fn note_response(shared: &ServerShared, response: &Response, stop: bool) {
    let l = &shared.lifecycle;
    match response {
        Response::Error { .. } | Response::Overloaded { .. } => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
        }
        Response::DeadlineExceeded { .. } => {
            l.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        }
        Response::Cancelled { .. } => {
            l.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        Response::ResourceExhausted { .. } => {
            l.resource_exhausted.fetch_add(1, Ordering::Relaxed);
        }
        // The reply to an explicit `shutdown` request (stop == true) is
        // an acknowledgement, not a rejected request.
        Response::ShuttingDown { .. } if !stop => {
            l.shutting_down.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
}

/// Handles one request line, returning the response and whether the
/// server should stop after sending it. `frames` is only used for the
/// non-destructive peer-liveness probe while a job is in flight.
fn dispatch(shared: &Arc<ServerShared>, line: &str, frames: &mut FrameReader) -> (Response, bool) {
    let req = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => return (Response::Error { id: 0, message: e }, false),
    };
    match req {
        Request::Ping { id } => (
            Response::Pong {
                id,
                protocol: PROTOCOL_VERSION,
            },
            false,
        ),
        Request::Stats { id } => (
            Response::Stats {
                id,
                stats: shared.stats_json(),
            },
            false,
        ),
        Request::Shutdown { id } => (Response::ShuttingDown { id }, true),
        Request::Run(run) => {
            let id = run.id;
            if shared.stopping.load(Ordering::SeqCst) {
                return (Response::ShuttingDown { id }, false);
            }
            // The token's deadline clock starts *now*, so time spent
            // queued behind other requests counts against the deadline —
            // the worker checks the token before compiling.
            let deadline_ms = RunBudget::effective_deadline_ms(&shared.limits, &run);
            let token = if deadline_ms > 0 {
                CancelToken::with_deadline(Duration::from_millis(deadline_ms))
            } else {
                CancelToken::new()
            };
            let seq = shared.next_seq.fetch_add(1, Ordering::Relaxed);
            shared
                .inflight
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(seq, token.clone());
            let (tx, rx) = mpsc::channel();
            // Every outcome — result, structured error, even executor
            // overload — arrives through `tx` from whichever thread drains
            // the member's batch, so this thread drops straight into the
            // reply loop below.
            submit_run(shared, run, token.clone(), tx);
            let reply_poll = shared.executor.config().reply_poll;
            let resp = loop {
                match rx.recv_timeout(reply_poll) {
                    Ok(resp) => break resp,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // The job is still running: trip the token if the
                        // server is stopping or the client went away; the
                        // interpreter notices at the next block boundary
                        // and the worker replies through the channel.
                        if shared.stopping.load(Ordering::SeqCst) {
                            token.cancel(CancelReason::Shutdown);
                        } else if frames.peer_gone() {
                            token.cancel(CancelReason::Client);
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        // The member was dropped without a reply: its drain
                        // job panicked (contained by the pool).
                        shared
                            .lifecycle
                            .worker_crashes
                            .fetch_add(1, Ordering::Relaxed);
                        break Response::Error {
                            id,
                            message: "worker crashed mid-request".into(),
                        };
                    }
                }
            };
            shared
                .inflight
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .remove(&seq);
            (resp, false)
        }
    }
}

/// Admits one `run` request into the batching tier: computes its batch
/// key and queues it under that key, scheduling a drain when it is the
/// first pending member. All replies flow through the member channels.
fn submit_run(
    shared: &Arc<ServerShared>,
    run: Box<RunRequest>,
    token: CancelToken,
    tx: mpsc::Sender<Response>,
) {
    let key = batch_key(
        request_key(
            &run.source,
            run.mode.name(),
            &run.verify,
            &run.inject,
            run.engine.flag_name(),
            &run.target.flag_name(),
        ),
        &run.entry,
        run.n,
        run.deadline_ms,
        run.max_steps,
        run.max_mem_bytes,
    );
    maybe_delay(shared.chaos.as_ref(), "batch", "form_delay");
    if shared.coalescer.push(key, BatchMember { run, token, tx }) {
        schedule_drain(shared, key);
    }
}

/// Schedules one drain job for `key`. If the pool shuts down before the
/// job starts, every member pending under the key gets `shutting_down`;
/// if the pool refuses the job (bounded queue full), every one of them
/// gets `overloaded` — no connection thread is left waiting on a member
/// nothing will drain.
fn schedule_drain(shared: &Arc<ServerShared>, key: u64) {
    let job = {
        let shared = Arc::clone(shared);
        Box::new(move || drain(&shared, key)) as Box<dyn FnOnce() + Send>
    };
    let abort = {
        let shared = Arc::clone(shared);
        Box::new(move || {
            for m in shared.coalescer.take_all(key) {
                let _ = m.tx.send(Response::ShuttingDown { id: m.run.id });
            }
        })
    };
    if shared.executor.submit_with_abort(job, abort).is_err() {
        for m in shared.coalescer.take_all(key) {
            let _ = m.tx.send(Response::Overloaded { id: m.run.id });
        }
    }
}

/// The drain job: takes the next batch pending under `key`, schedules the
/// drain for any leftovers first, then runs the members back-to-back on
/// one interpreter arena ([`ServeState::run_batch_with`]) and fans the
/// per-member results back out through their channels.
fn drain(shared: &Arc<ServerShared>, key: u64) {
    maybe_delay(shared.chaos.as_ref(), "worker", "delay");
    let (members, more) = shared.coalescer.take(key);
    if more {
        schedule_drain(shared, key);
    }
    if shared
        .chaos
        .as_ref()
        .is_some_and(|c| c.fires("worker", "kill"))
    {
        panic!("chaos: worker killed mid-batch");
    }
    if let Some(first) = members.first() {
        if shared
            .chaos
            .as_ref()
            .is_some_and(|c| c.fires("batch", "member_cancel"))
        {
            // As if the first member's client vanished at the worst
            // moment: it must detach to a structured `cancelled` reply
            // without poisoning its batchmates.
            first.token.cancel(CancelReason::Client);
        }
    }
    let refs: Vec<(&RunRequest, Option<&CancelToken>)> =
        members.iter().map(|m| (&*m.run, Some(&m.token))).collect();
    let results = shared.state.run_batch_with(&refs, &shared.limits);
    for (m, result) in members.iter().zip(results) {
        let resp = match result {
            Ok(r) => Response::Ok(Box::new(r)),
            Err(e) => serve_error_response(m.run.id, e),
        };
        let _ = m.tx.send(resp);
    }
}

/// Maps a typed serve failure onto its wire response.
fn serve_error_response(id: u64, e: ServeError) -> Response {
    match e {
        ServeError::Error(message) => Response::Error { id, message },
        ServeError::DeadlineExceeded => Response::DeadlineExceeded { id },
        ServeError::Cancelled => Response::Cancelled { id },
        ServeError::ShuttingDown => Response::ShuttingDown { id },
        ServeError::ResourceExhausted { what, detail } => {
            Response::ResourceExhausted { id, what, detail }
        }
    }
}
