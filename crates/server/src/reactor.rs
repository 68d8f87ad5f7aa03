//! Readiness-driven serving core: one reactor thread owns every
//! connection's state machine.
//!
//! The legacy accept loop hands each connection to a worker thread that
//! blocks on it for the connection's whole life, capping concurrency at
//! the pool size. The reactor inverts that: all sockets are nonblocking
//! and registered with one [`Poller`] (epoll on Linux, `poll(2)` on
//! other Unixes — see the `sys` shim), and the single reactor thread
//! drives every connection through `read → parse → dispatch → write`.
//! Only fully-parsed requests cross to the worker pool, so handler code
//! is untouched and a worker is occupied exactly for the time a request
//! actually computes. Ten thousand idle keep-alive connections cost ten
//! thousand fds and buffers, not ten thousand threads.
//!
//! Workers hand finished responses back through a `Mailbox`: a mutexed
//! vector plus a self-pipe-style waker (a loopback TCP pair — the only
//! std-only way to make `epoll_wait` return early). Each completion
//! names its connection slot *and generation*, so a response for a
//! connection that died mid-flight is dropped instead of being written
//! to whoever reused the slot.
//!
//! Admission control happens on the reactor thread, before dispatch:
//! [`crate::admission::Admission::try_admit`] is consulted with the
//! route pattern, and a shed turns into an immediate `429` +
//! `Retry-After` serialized straight into the connection's write buffer
//! — the saturated pool is never touched, which is what keeps shedding
//! cheap under overload.
//!
//! Shutdown: the first tick of the shutdown flag stops accepting and
//! closes every *idle* keep-alive connection immediately (the
//! idle-deadline sweep with a zero deadline); connections with a
//! request in flight drain untruncated, and half-received requests get
//! the normal `READ_TIMEOUT` grace before the socket is
//! dropped.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::admission::ShedReason;
use crate::http::{self, Incremental};
use crate::pool::WorkerPool;
use crate::AppState;

pub use sys::{raise_nofile_limit, PollEvent, Poller};

/// Token for the waker's read half.
const WAKER_TOKEN: u64 = 0;
/// Token for the listening socket.
const LISTENER_TOKEN: u64 = 1;
/// First token handed to connections; token = `TOKEN_BASE + slot`.
const TOKEN_BASE: u64 = 2;
/// Read chunk size (stack scratch, reused for every read).
const READ_CHUNK: usize = 16 * 1024;
/// Poll timeout: bounds shutdown-flag latency and sweep granularity.
const WAIT_MS: i32 = 50;
/// How often the idle-deadline sweep runs during normal operation.
const SWEEP_EVERY: Duration = Duration::from_millis(250);
/// A pass through the reactor's ready-work phase (I/O + completions +
/// sweep) longer than this is recorded as a `ReactorStall` flight event
/// — time the reactor spent away from its poller, during which no new
/// readiness was observed.
const STALL_THRESHOLD: Duration = Duration::from_millis(10);
/// Max buffered-but-unparsed bytes while a request is already in
/// flight. Bounds memory against clients that pipeline without reading;
/// reading resumes the moment the in-flight response is handed back.
const PIPELINE_CAP: usize = 64 * 1024;

/// A finished response crossing back from a worker to the reactor.
struct Completion {
    slot: usize,
    generation: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// Worker → reactor channel: completed responses plus the waker that
/// makes the poller return early to drain them.
struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    /// Write half of the loopback waker pair (nonblocking). A full send
    /// buffer is fine — unread wake bytes already make the read half
    /// level-readable.
    waker_tx: TcpStream,
}

impl Mailbox {
    fn deliver(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("reactor mailbox poisoned")
            .push(completion);
        let _ = (&self.waker_tx).write(&[1]);
    }
}

/// Builds the loopback socket pair used as a std-only waker. The
/// accepted peer is verified against the connecting socket's address so
/// a stray local connection cannot hijack the waker.
fn waker_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let tx = TcpStream::connect(addr)?;
    let tx_addr = tx.local_addr()?;
    loop {
        let (rx, peer) = listener.accept()?;
        if peer == tx_addr {
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            let _ = tx.set_nodelay(true);
            return Ok((rx, tx));
        }
        // Someone else raced onto our ephemeral port; drop and retry.
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed by the parser.
    rbuf: Vec<u8>,
    /// Serialized response being written; reused across requests.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Guards completions against slot reuse.
    generation: u64,
    /// A request from this connection is in the worker pool.
    busy: bool,
    /// Peer is gone; drop the in-flight completion when it lands.
    dead: bool,
    /// Peer half-closed its write side (EOF seen); serve what is
    /// buffered, then close.
    eof: bool,
    close_after_flush: bool,
    want_read: bool,
    want_write: bool,
    last_activity: Instant,
}

/// What [`Reactor::advance`] decided to do with the next parsed request.
enum Step {
    /// Nothing parseable yet (or response still flushing) — wait.
    Wait,
    /// Connection is finished; close it now.
    CloseNow,
    /// Parse error — serialize this response and close after flushing.
    Fail(http::Response),
    /// Admission shed — 429 with the given header-close decision.
    Shed(http::Response, bool),
    /// Admitted — hand the request to the worker pool.
    Dispatch(http::Request, crate::admission::AdmitGuard),
}

struct Reactor<'a> {
    poller: Poller,
    listener: &'a TcpListener,
    state: &'a Arc<AppState>,
    pool: &'a WorkerPool,
    shutdown: &'a Arc<AtomicBool>,
    mailbox: Arc<Mailbox>,
    waker_rx: TcpStream,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    next_generation: u64,
    draining: bool,
}

/// Runs the readiness loop until shutdown completes its drain.
///
/// The listener must already be nonblocking. Fatal poller/listener
/// errors propagate; per-connection errors close that connection only.
pub(crate) fn serve(
    listener: &TcpListener,
    state: &Arc<AppState>,
    pool: &WorkerPool,
    shutdown: &Arc<AtomicBool>,
) -> io::Result<()> {
    let (waker_rx, waker_tx) = waker_pair()?;
    let mailbox = Arc::new(Mailbox {
        completions: Mutex::new(Vec::new()),
        waker_tx,
    });
    let mut reactor = Reactor {
        poller: Poller::new()?,
        listener,
        state,
        pool,
        shutdown,
        mailbox,
        waker_rx,
        conns: Vec::new(),
        free: Vec::new(),
        open: 0,
        next_generation: 0,
        draining: false,
    };
    reactor.run()
}

impl Reactor<'_> {
    fn run(&mut self) -> io::Result<()> {
        // std's listener carries a 128-entry backlog; a connection storm
        // needs room to queue while the reactor drains the accept loop.
        sys::deepen_backlog(self.listener.as_raw_fd(), 4096);
        self.poller
            .register(self.waker_rx.as_raw_fd(), WAKER_TOKEN, true, false)?;
        self.poller
            .register(self.listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
        let mut events = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            if self.shutdown.load(Ordering::Relaxed) && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.open == 0 {
                return Ok(());
            }
            {
                let _span = cpssec_obs::span!("reactor-poll");
                self.poller.wait(&mut events, WAIT_MS)?;
            }
            let busy_started = Instant::now();
            {
                let _span = cpssec_obs::span!("reactor-io");
                for event in &events {
                    match event.token {
                        WAKER_TOKEN => self.drain_waker(),
                        LISTENER_TOKEN => self.accept_ready()?,
                        token => {
                            let slot =
                                usize::try_from(token - TOKEN_BASE).expect("token fits usize");
                            if event.readable {
                                self.on_readable(slot);
                            }
                            if event.writable {
                                self.on_writable(slot);
                            }
                        }
                    }
                }
            }
            {
                let _span = cpssec_obs::span!("reactor-completions");
                self.apply_completions();
            }
            if self.draining || last_sweep.elapsed() >= SWEEP_EVERY {
                let _span = cpssec_obs::span!("reactor-sweep");
                self.sweep();
                last_sweep = Instant::now();
            }
            // Readiness stall: every µs spent here is a µs no new socket
            // event could be observed. Long passes are exactly what the
            // flight recorder exists to catch.
            let busy = busy_started.elapsed();
            if busy >= STALL_THRESHOLD && cpssec_obs::flight::enabled() {
                cpssec_obs::flight::event(
                    cpssec_obs::FlightKind::ReactorStall,
                    u64::try_from(busy.as_micros()).unwrap_or(u64::MAX),
                    0,
                );
            }
        }
    }

    /// Stop accepting and immediately close idle keep-alive connections;
    /// in-flight work drains on its own schedule.
    fn begin_drain(&mut self) {
        self.draining = true;
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        self.sweep();
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.waker_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn accept_ready(&mut self) -> io::Result<()> {
        loop {
            if self.draining {
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // EMFILE/ENFILE: the process is out of descriptors. A
                // serving core must shed, not die — leave the pending
                // connections in the backlog and retry on the next
                // readiness tick, by which point closes may have freed
                // descriptors (and the idle sweep keeps reclaiming them).
                Err(e) if matches!(e.raw_os_error(), Some(23 | 24)) => return Ok(()),
                // The peer can abort between SYN and accept; skip it.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn admit_conn(&mut self, stream: TcpStream) {
        if !self.state.admission.try_open_conn() {
            // Over --max-conns: best-effort canned 429, then drop. Never
            // parse, never touch the pool.
            let mut response =
                http::Response::error(429, "connection limit reached; retry shortly");
            response.add_header("Retry-After", "1");
            let mut bytes = Vec::with_capacity(192);
            let _ = response.write_to(&mut bytes, true);
            let _ = stream.set_nonblocking(true);
            let _ = (&stream).write(&bytes);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            self.state.admission.close_conn();
            return;
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        if self
            .poller
            .register(fd, TOKEN_BASE + slot as u64, true, false)
            .is_err()
        {
            self.free.push(slot);
            self.state.admission.close_conn();
            return;
        }
        self.next_generation += 1;
        self.conns[slot] = Some(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            generation: self.next_generation,
            busy: false,
            dead: false,
            eof: false,
            close_after_flush: false,
            want_read: true,
            want_write: false,
            last_activity: Instant::now(),
        });
        self.open += 1;
    }

    /// Closes (or, if a request is in flight, condemns) a connection.
    fn close_slot(&mut self, slot: usize) {
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return;
        };
        let fd = conn.stream.as_raw_fd();
        if conn.busy {
            // The pool still owns a request for this connection; keep
            // the slot (and its generation) until the completion lands
            // so `open` only reaches zero once all work is accounted.
            let _ = self.poller.deregister(fd);
            let conn = self.conns[slot].as_mut().expect("slot checked");
            if !conn.dead {
                conn.dead = true;
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            return;
        }
        let _ = self.poller.deregister(fd);
        self.conns[slot] = None;
        self.free.push(slot);
        self.open -= 1;
        self.state.admission.close_conn();
    }

    fn on_readable(&mut self, slot: usize) {
        let mut peer_gone = false;
        let mut got_data = false;
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.dead || conn.eof {
                return;
            }
            let mut scratch = [0u8; READ_CHUNK];
            loop {
                if conn.busy && conn.rbuf.len() >= PIPELINE_CAP {
                    break; // Interest update below parks the read side.
                }
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&scratch[..n]);
                        conn.last_activity = Instant::now();
                        got_data = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        peer_gone = true;
                        break;
                    }
                }
            }
            if conn.eof && !conn.busy && conn.rbuf.is_empty() && conn.wbuf.is_empty() {
                peer_gone = true; // Clean close with nothing pending.
            }
        }
        if peer_gone {
            self.close_slot(slot);
            return;
        }
        if got_data {
            self.advance(slot);
        } else {
            self.advance_if_eof(slot);
        }
        self.update_interest(slot);
    }

    /// EOF with buffered bytes: the peer half-closed after sending — try
    /// to serve what is already buffered, then close.
    fn advance_if_eof(&mut self, slot: usize) {
        let pending = self
            .conns
            .get(slot)
            .and_then(Option::as_ref)
            .is_some_and(|c| c.eof && !c.rbuf.is_empty());
        if pending {
            self.advance(slot);
        }
    }

    fn on_writable(&mut self, slot: usize) {
        if self.conns.get(slot).and_then(Option::as_ref).is_none() {
            return;
        }
        if self.flush(slot) {
            self.advance(slot);
        }
    }

    /// Writes as much of `wbuf` as the socket accepts. Returns `true`
    /// when the buffer fully flushed and the connection is still open
    /// (i.e. the caller may parse the next pipelined request).
    fn flush(&mut self, slot: usize) -> bool {
        let mut should_close = false;
        let mut flushed = false;
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return false;
            };
            while conn.wpos < conn.wbuf.len() {
                match (&conn.stream).write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        should_close = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        should_close = true;
                        break;
                    }
                }
            }
            if !should_close && conn.wpos == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
                if conn.close_after_flush {
                    should_close = true;
                } else {
                    flushed = true;
                }
            }
        }
        if should_close {
            self.close_slot(slot);
            return false;
        }
        self.update_interest(slot);
        flushed
    }

    /// Recomputes poller interest from buffer state. Read interest is
    /// parked only while a request is in flight *and* the pipeline
    /// lookahead is full (level-triggered readiness would spin
    /// otherwise); write interest tracks a non-empty write buffer.
    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return;
        };
        let fd = conn.stream.as_raw_fd();
        let want_read = !(conn.dead || (conn.busy && conn.rbuf.len() >= PIPELINE_CAP));
        let want_write = conn.wpos < conn.wbuf.len();
        if want_read == conn.want_read && want_write == conn.want_write {
            return;
        }
        let token = TOKEN_BASE + slot as u64;
        if self.poller.modify(fd, token, want_read, want_write).is_ok() {
            let conn = self.conns[slot].as_mut().expect("slot checked");
            conn.want_read = want_read;
            conn.want_write = want_write;
        }
    }

    /// Parses and dispatches requests from `rbuf` until the connection
    /// is busy, waiting for bytes, mid-flush, or closed. Loops so a
    /// burst of pipelined shed responses never recurses.
    fn advance(&mut self, slot: usize) {
        loop {
            let step = self.next_step(slot);
            match step {
                Step::Wait => return,
                Step::CloseNow => {
                    self.close_slot(slot);
                    return;
                }
                Step::Fail(response) => {
                    self.enqueue_response(slot, &response, true);
                    let _ = self.flush(slot);
                    return;
                }
                Step::Shed(response, header_close) => {
                    self.enqueue_response(slot, &response, header_close);
                    if !self.flush(slot) {
                        return; // Mid-flush or closed; writable event resumes.
                    }
                }
                Step::Dispatch(request, guard) => {
                    self.dispatch(slot, request, guard);
                    return;
                }
            }
        }
    }

    /// Decides the next action for a connection. Admission runs here, on
    /// the reactor thread, so sheds never occupy a worker.
    fn next_step(&mut self, slot: usize) -> Step {
        let shutting_down = self.shutdown.load(Ordering::Relaxed);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return Step::Wait;
        };
        if conn.busy || conn.dead || !conn.wbuf.is_empty() {
            return Step::Wait;
        }
        if conn.rbuf.is_empty() {
            return if conn.eof { Step::CloseNow } else { Step::Wait };
        }
        match http::parse_request_bytes(&conn.rbuf) {
            Ok(Incremental::Complete(request, consumed)) => {
                conn.rbuf.drain(..consumed);
                conn.last_activity = Instant::now();
                let route = crate::router::route_pattern(&request.method, &request.path);
                match self.state.admission.try_admit(route) {
                    Ok(guard) => Step::Dispatch(request, guard),
                    Err(reason) => {
                        // Sheds get the same trace-id treatment as served
                        // requests: honor an inbound `traceparent`, else
                        // mint — so a shed 429 still lands in the request
                        // ring and answers `GET /debug/requests/:id`.
                        let remote_parent = request
                            .header("traceparent")
                            .and_then(crate::requests::parse_traceparent);
                        let trace_id = remote_parent.unwrap_or_else(cpssec_obs::mint_trace_id);
                        self.state.metrics.record(route, 429, Duration::ZERO);
                        self.state.requests.record(crate::requests::RequestEntry {
                            trace_id,
                            route: route.to_owned(),
                            status: 429,
                            ts_ms: crate::telemetry::now_ms(),
                            total_us: 0,
                            remote_parent: remote_parent.is_some(),
                            stages: Vec::new(),
                            annotations: vec![("shed".to_owned(), reason.as_str().to_owned())],
                            model_hash: None,
                            fidelity: None,
                        });
                        if cpssec_obs::flight::enabled() {
                            cpssec_obs::flight::event(
                                cpssec_obs::FlightKind::Shed,
                                cpssec_obs::flight::label_id(route),
                                cpssec_obs::flight::label_id(reason.as_str()),
                            );
                        }
                        let detail = match reason {
                            ShedReason::SloBurn => {
                                "shed: SLO burn-rate admission control engaged; retry shortly"
                            }
                            _ => "shed: request queue full; retry shortly",
                        };
                        let mut response = http::Response::error(429, detail);
                        response.add_header("Retry-After", "1");
                        response.add_header("X-Trace-Id", format!("{trace_id:032x}"));
                        let header_close = request.wants_close() || shutting_down;
                        Step::Shed(response, header_close)
                    }
                }
            }
            Ok(Incremental::NeedMore) => {
                if conn.eof {
                    Step::CloseNow // Truncated request, peer gone.
                } else {
                    Step::Wait
                }
            }
            Err(http::HttpError::TooLarge) => {
                Step::Fail(http::Response::error(413, "request body too large"))
            }
            Err(http::HttpError::Malformed(detail)) => {
                Step::Fail(http::Response::error(400, &detail))
            }
            Err(http::HttpError::Io(_)) => Step::CloseNow,
        }
    }

    /// Serializes a reactor-built response (shed or parse failure) into
    /// the connection's write buffer. `header_close` is what goes on the
    /// wire; the connection additionally closes after flushing if the
    /// peer hit EOF or the server is draining.
    fn enqueue_response(&mut self, slot: usize, response: &http::Response, header_close: bool) {
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        conn.wpos = 0;
        let _ = response.write_to(&mut conn.wbuf, header_close);
        conn.close_after_flush = header_close || conn.eof || draining;
    }

    /// Hands a fully-parsed request to the worker pool. The worker runs
    /// the exact same per-request bookkeeping as the legacy path
    /// ([`crate::process_request`]), serializes the response off the
    /// reactor thread, and mails the bytes back.
    fn dispatch(
        &mut self,
        slot: usize,
        request: http::Request,
        guard: crate::admission::AdmitGuard,
    ) {
        let generation = {
            let conn = self.conns[slot].as_mut().expect("dispatch on live slot");
            conn.busy = true;
            conn.generation
        };
        let wants_close = request.wants_close();
        let state = Arc::clone(self.state);
        let shutdown = Arc::clone(self.shutdown);
        let mailbox = Arc::clone(&self.mailbox);
        self.pool.execute(move || {
            let response = crate::process_request(&state, &request);
            // Same close rule as the legacy loop, evaluated at the same
            // point (after the handler ran): byte-identical headers.
            let close = wants_close || shutdown.load(Ordering::Relaxed);
            let mut bytes = Vec::with_capacity(response.body.len() + 256);
            let _ = response.write_to(&mut bytes, close);
            drop(guard); // Budget unit released once the work is done.
            mailbox.deliver(Completion {
                slot,
                generation,
                bytes,
                close,
            });
        });
    }

    fn apply_completions(&mut self) {
        let drained = {
            let mut queue = self
                .mailbox
                .completions
                .lock()
                .expect("reactor mailbox poisoned");
            std::mem::take(&mut *queue)
        };
        for completion in drained {
            let mut dead = false;
            {
                let Some(conn) = self.conns.get_mut(completion.slot).and_then(Option::as_mut)
                else {
                    continue;
                };
                if conn.generation != completion.generation {
                    continue; // Stale: the slot was reused.
                }
                conn.busy = false;
                if conn.dead {
                    dead = true;
                } else {
                    conn.wbuf = completion.bytes;
                    conn.wpos = 0;
                    conn.close_after_flush = completion.close || conn.eof || self.draining;
                    conn.last_activity = Instant::now();
                }
            }
            if dead {
                self.close_slot(completion.slot);
                continue;
            }
            if self.flush(completion.slot) {
                self.advance(completion.slot);
            }
            self.update_interest(completion.slot);
        }
    }

    /// Idle-deadline sweep: drops connections quiet past
    /// [`crate::READ_TIMEOUT`] (matching the legacy read timeout), and —
    /// once draining — drops *idle* keep-alive connections immediately
    /// so shutdown never waits on clients that are merely holding a
    /// socket open.
    fn sweep(&mut self) {
        let now = Instant::now();
        let mut expired = Vec::new();
        for (slot, entry) in self.conns.iter().enumerate() {
            let Some(conn) = entry else { continue };
            if conn.busy {
                continue;
            }
            let idle_ok = if self.draining && conn.rbuf.is_empty() && conn.wbuf.is_empty() {
                Duration::ZERO
            } else {
                crate::READ_TIMEOUT
            };
            if now.duration_since(conn.last_activity) >= idle_ok {
                expired.push(slot);
            }
        }
        for slot in expired {
            self.close_slot(slot);
        }
    }
}

/// Thin syscall shim: the only unsafe code in the serving path. Linux
/// gets epoll; other Unixes fall back to `poll(2)`. Both back the same
/// [`Poller`] API, which the bench load generator reuses to drive tens
/// of thousands of client sockets from a handful of threads.
#[allow(unsafe_code)]
mod sys {
    use std::io;

    /// One readiness notification from [`Poller::wait`].
    #[derive(Debug, Clone, Copy)]
    pub struct PollEvent {
        /// The token the descriptor was registered with.
        pub token: u64,
        /// Ready to read (errors and hangups also report readable so a
        /// `read` can surface the actual condition).
        pub readable: bool,
        /// Ready to write.
        pub writable: bool,
    }

    #[cfg(target_os = "linux")]
    pub use self::epoll::Poller;
    #[cfg(all(unix, not(target_os = "linux")))]
    pub use self::pollsys::Poller;

    #[cfg(target_os = "linux")]
    mod epoll {
        use super::PollEvent;
        use std::io;
        use std::os::unix::io::RawFd;

        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        struct EpollEvent {
            events: u32,
            data: u64,
        }

        const EPOLLIN: u32 = 0x001;
        const EPOLLOUT: u32 = 0x004;
        const EPOLLERR: u32 = 0x008;
        const EPOLLHUP: u32 = 0x010;
        const EPOLL_CTL_ADD: i32 = 1;
        const EPOLL_CTL_DEL: i32 = 2;
        const EPOLL_CTL_MOD: i32 = 3;
        const EPOLL_CLOEXEC: i32 = 0x80000;

        extern "C" {
            fn epoll_create1(flags: i32) -> i32;
            fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
            fn close(fd: i32) -> i32;
        }

        /// Readiness multiplexer over `epoll(7)` (level-triggered).
        #[derive(Debug)]
        pub struct Poller {
            epfd: RawFd,
            capacity: usize,
        }

        impl Poller {
            /// Creates the epoll instance (`CLOEXEC`).
            ///
            /// # Errors
            ///
            /// The `epoll_create1` errno.
            pub fn new() -> io::Result<Poller> {
                let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
                if epfd < 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(Poller {
                    epfd,
                    capacity: 1024,
                })
            }

            fn ctl(
                &mut self,
                op: i32,
                fd: RawFd,
                token: u64,
                read: bool,
                write: bool,
            ) -> io::Result<()> {
                let mut events = 0u32;
                if read {
                    events |= EPOLLIN;
                }
                if write {
                    events |= EPOLLOUT;
                }
                let mut event = EpollEvent {
                    events,
                    data: token,
                };
                let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut event) };
                if rc < 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            }

            /// Starts watching `fd` under `token`.
            ///
            /// # Errors
            ///
            /// The `epoll_ctl` errno.
            pub fn register(
                &mut self,
                fd: RawFd,
                token: u64,
                read: bool,
                write: bool,
            ) -> io::Result<()> {
                self.ctl(EPOLL_CTL_ADD, fd, token, read, write)
            }

            /// Updates interest for an already-registered `fd`.
            ///
            /// # Errors
            ///
            /// The `epoll_ctl` errno.
            pub fn modify(
                &mut self,
                fd: RawFd,
                token: u64,
                read: bool,
                write: bool,
            ) -> io::Result<()> {
                self.ctl(EPOLL_CTL_MOD, fd, token, read, write)
            }

            /// Stops watching `fd`.
            ///
            /// # Errors
            ///
            /// The `epoll_ctl` errno.
            pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
                self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
            }

            /// Blocks up to `timeout_ms` for readiness; fills `out`.
            /// `EINTR` returns an empty batch rather than an error.
            ///
            /// # Errors
            ///
            /// The `epoll_wait` errno (other than `EINTR`).
            pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
                out.clear();
                let mut buf = vec![EpollEvent { events: 0, data: 0 }; self.capacity];
                let n = unsafe {
                    epoll_wait(
                        self.epfd,
                        buf.as_mut_ptr(),
                        i32::try_from(buf.len()).unwrap_or(i32::MAX),
                        timeout_ms,
                    )
                };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(err);
                }
                let n = usize::try_from(n).expect("epoll_wait count");
                for event in buf.iter().take(n) {
                    // Copy packed fields out by value (no references).
                    let bits = { event.events };
                    let token = { event.data };
                    out.push(PollEvent {
                        token,
                        readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                        writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                    });
                }
                if n == buf.len() && self.capacity < 65_536 {
                    self.capacity *= 2; // Batch was full; see more next time.
                }
                Ok(())
            }
        }

        impl Drop for Poller {
            fn drop(&mut self) {
                let _ = unsafe { close(self.epfd) };
            }
        }
    }

    #[cfg(all(unix, not(target_os = "linux")))]
    mod pollsys {
        use super::PollEvent;
        use std::io;
        use std::os::unix::io::RawFd;

        #[repr(C)]
        struct PollFd {
            fd: i32,
            events: i16,
            revents: i16,
        }

        const POLLIN: i16 = 0x001;
        const POLLOUT: i16 = 0x004;
        const POLLERR: i16 = 0x008;
        const POLLHUP: i16 = 0x010;

        extern "C" {
            fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        }

        /// Readiness multiplexer over `poll(2)` — the portable fallback.
        /// Registration lives in userspace; every wait rebuilds the fd
        /// array, which is O(n) but correct everywhere.
        #[derive(Debug)]
        pub struct Poller {
            entries: Vec<(RawFd, u64, bool, bool)>,
        }

        impl Poller {
            /// Creates an empty registration table.
            ///
            /// # Errors
            ///
            /// Never fails (kept for API parity with the epoll backend).
            pub fn new() -> io::Result<Poller> {
                Ok(Poller {
                    entries: Vec::new(),
                })
            }

            /// Starts watching `fd` under `token`.
            ///
            /// # Errors
            ///
            /// Never fails (API parity).
            pub fn register(
                &mut self,
                fd: RawFd,
                token: u64,
                read: bool,
                write: bool,
            ) -> io::Result<()> {
                self.entries.push((fd, token, read, write));
                Ok(())
            }

            /// Updates interest for an already-registered `fd`.
            ///
            /// # Errors
            ///
            /// `NotFound` if `fd` was never registered.
            pub fn modify(
                &mut self,
                fd: RawFd,
                token: u64,
                read: bool,
                write: bool,
            ) -> io::Result<()> {
                for entry in &mut self.entries {
                    if entry.0 == fd {
                        *entry = (fd, token, read, write);
                        return Ok(());
                    }
                }
                Err(io::Error::from(io::ErrorKind::NotFound))
            }

            /// Stops watching `fd`.
            ///
            /// # Errors
            ///
            /// Never fails; unknown fds are ignored.
            pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
                self.entries.retain(|entry| entry.0 != fd);
                Ok(())
            }

            /// Blocks up to `timeout_ms` for readiness; fills `out`.
            ///
            /// # Errors
            ///
            /// The `poll` errno (other than `EINTR`).
            pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
                out.clear();
                let mut fds: Vec<PollFd> = self
                    .entries
                    .iter()
                    .map(|&(fd, _, read, write)| PollFd {
                        fd,
                        events: if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 },
                        revents: 0,
                    })
                    .collect();
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(err);
                }
                for (pollfd, &(_, token, _, _)) in fds.iter().zip(&self.entries) {
                    let bits = pollfd.revents;
                    if bits == 0 {
                        continue;
                    }
                    out.push(PollEvent {
                        token,
                        readable: bits & (POLLIN | POLLERR | POLLHUP) != 0,
                        writable: bits & (POLLOUT | POLLERR | POLLHUP) != 0,
                    });
                }
                Ok(())
            }
        }
    }

    #[repr(C)]
    struct RLimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8;

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
    }

    /// Re-issues `listen(2)` on an already-listening socket to deepen
    /// its accept backlog. `std::net::TcpListener` hardcodes a backlog
    /// of 128, which a 10k-connection storm overruns — overflowing SYNs
    /// get dropped and retransmitted seconds later, wrecking connect
    /// latency. POSIX permits re-listening; the kernel just updates the
    /// queue limit. Best effort: failure leaves the original backlog.
    pub fn deepen_backlog(fd: std::os::unix::io::RawFd, backlog: i32) {
        let _ = unsafe { listen(fd, backlog) };
    }

    /// Best-effort raise of `RLIMIT_NOFILE` to at least `want`
    /// descriptors (the load harness spends roughly two fds per
    /// in-process connection). Returns the soft limit in effect
    /// afterwards; never errors — callers decide whether the returned
    /// budget is enough.
    pub fn raise_nofile_limit(want: u64) -> u64 {
        let mut lim = RLimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return 0;
        }
        if lim.rlim_cur >= want {
            return lim.rlim_cur;
        }
        // Privileged processes may raise the hard limit too.
        let ambitious = RLimit {
            rlim_cur: want,
            rlim_max: lim.rlim_max.max(want),
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &ambitious) } == 0 {
            return want;
        }
        let capped = RLimit {
            rlim_cur: lim.rlim_max.min(want).max(lim.rlim_cur),
            rlim_max: lim.rlim_max,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &capped) } == 0 {
            return capped.rlim_cur;
        }
        lim.rlim_cur
    }

    /// Compile-time proof the API stays `io::Result`-shaped on every
    /// backend (referenced by the reactor; keeps non-Linux builds honest).
    #[allow(dead_code)]
    fn _assert_api(p: &mut Poller, out: &mut Vec<PollEvent>) -> io::Result<()> {
        p.wait(out, 0)
    }
}
