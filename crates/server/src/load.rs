//! The workspace's HTTP load client, and the response reader the server
//! tests and the benchmark share.
//!
//! `cpssec load`, CI's serve step and the release-mode serving gates
//! (E11, E18, E19) drive a running server through [`run`]. A few driver
//! threads each multiplex their share of keep-alive connections through
//! the server's own [`Poller`], so ten thousand connections need no
//! thread per socket.
//!
//! Every request has a due time, and latency runs from the due time to
//! the full response. Under [`Arrivals::Open`] the due times are fixed
//! before the run from SplitMix64 streams seeded per connection
//! ([`derive_seed`]), so a server that stalls cannot hide the stall by
//! slowing the client down (no coordinated omission). Under
//! [`Arrivals::Closed`] request i+1 is due the moment response i
//! arrives.
//!
//! Determinism: which requests are sent, on which connection and in what
//! order depends only on the connection and request indices.
//! Latency and throughput vary with the machine.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use cpssec_obs::Histogram;
use cpssec_sim::{derive_seed, SplitMix64};

use crate::reactor::{raise_nofile_limit, PollEvent, Poller};

/// A request still unanswered this long after its write fails its
/// connection, so a wedged server cannot hang the client.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Master seed of the open-loop schedules and the drawn mixes.
const SEED: u64 = 42;

/// Driver threads at most, each multiplexing its share of the
/// connections.
const MAX_DRIVERS: usize = 8;

/// The what-if body the cycle mix posts (a risky-OS edit on the built-in
/// SCADA model).
const WHATIF_BODY: &str = r#"{"changes":[{"op":"add","component":"Temperature sensor","kind":"os","value":"Windows 7","atFidelity":"implementation"}]}"#;

/// Which requests a run sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `GET /healthz` → associate → `GET /table1` → what-if POST, by
    /// request index: the cycle `cpssec load` drives.
    Cycle,
    /// 80% `GET /healthz`, 15% `GET /table1`, 5% associate, drawn per
    /// request: the "many analysts watching dashboards" shape.
    Dashboards,
    /// Only `GET /models/scada/associate`, a handler that honors
    /// `POST /debug/delay`.
    Associate,
}

impl Mix {
    fn write_request(self, index: usize, rng: &mut SplitMix64, out: &mut Vec<u8>) {
        const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\n\r\n";
        const ASSOCIATE: &[u8] = b"GET /models/scada/associate HTTP/1.1\r\n\r\n";
        const TABLE1: &[u8] = b"GET /table1 HTTP/1.1\r\n\r\n";
        let turn = match self {
            Mix::Cycle => index % 4,
            Mix::Dashboards => match rng.gen_range(0, 100) {
                0..=79 => 0,
                80..=94 => 2,
                _ => 1,
            },
            Mix::Associate => 1,
        };
        match turn {
            0 => out.extend_from_slice(HEALTHZ),
            1 => out.extend_from_slice(ASSOCIATE),
            2 => out.extend_from_slice(TABLE1),
            _ => {
                let _ = write!(
                    out,
                    "POST /models/scada/whatif HTTP/1.1\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\n\r\n{WHATIF_BODY}",
                    WHATIF_BODY.len()
                );
            }
        }
    }
}

/// When each request is due.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Request i+1 is due when response i arrives.
    Closed,
    /// Due times spread over the run at this aggregate rate, in
    /// requests per second, whatever the server does.
    Open(f64),
}

/// Parameters for one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Concurrent keep-alive connections, all open for the whole run.
    pub connections: usize,
    /// Requests each connection sends.
    pub requests: usize,
    /// When requests are due.
    pub arrivals: Arrivals,
    /// Which requests are sent.
    pub mix: Mix,
}

impl LoadConfig {
    /// A closed-loop run of the [`Mix::Cycle`] requests.
    #[must_use]
    pub fn new(addr: String, connections: usize, requests: usize) -> Self {
        LoadConfig {
            addr,
            connections,
            requests,
            arrivals: Arrivals::Closed,
            mix: Mix::Cycle,
        }
    }
}

/// What a run observed, merged across drivers.
pub struct LoadReport {
    /// Connections that completed the TCP handshake.
    pub established: usize,
    /// Requests written to sockets.
    pub sent: u64,
    /// 2xx responses.
    pub ok: u64,
    /// 429 responses (admission sheds).
    pub shed: u64,
    /// 5xx responses.
    pub server_errors: u64,
    /// Any other status.
    pub other_status: u64,
    /// Connections lost to connect, read or write errors or a request
    /// timeout.
    pub transport_errors: u64,
    /// Latency from due time to full response, µs.
    pub latency: Histogram,
    /// Wall clock for the whole run (connect + drive).
    pub elapsed: Duration,
}

impl LoadReport {
    /// Failures of every kind: non-2xx responses plus lost connections.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.shed + self.server_errors + self.other_status + self.transport_errors
    }

    /// Completed responses per second of wall clock.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let done = self.ok + self.shed + self.server_errors + self.other_status;
        done as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} conns, {} sent, {} ok, {} errors ({} shed, {} 5xx, {} other, {} transport), \
             {:.0} req/s, p50 {} µs, p99 {} µs",
            self.established,
            self.sent,
            self.ok,
            self.errors(),
            self.shed,
            self.server_errors,
            self.other_status,
            self.transport_errors,
            self.throughput(),
            self.latency.quantile_us(0.50),
            self.latency.quantile_us(0.99),
        )
    }
}

/// A parsed HTTP response (status + headers + body) from the wire.
#[derive(Debug)]
pub struct WireResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl WireResponse {
    /// A header value by (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Up-front body reservation cap: a larger `Content-Length` is read as
/// the bytes arrive instead of being trusted with one allocation.
const MAX_BODY_RESERVE: usize = 8 << 20;

fn unexpected_eof(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("connection closed {what}"),
    )
}

/// Parses a response head (status line and headers, up to the blank
/// line), handing each trimmed header name and value to `on_header`.
/// Returns the status and the `Content-Length` (0 when absent).
fn parse_head<'h>(
    head: &'h str,
    mut on_header: impl FnMut(&'h str, &'h str),
) -> io::Result<(u16, usize)> {
    let invalid = |what| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut content_length = 0;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| invalid("bad content-length"))?;
            }
            on_header(name, value);
        }
    }
    Ok((status, content_length))
}

/// Reads one HTTP/1.1 response with a `Content-Length` body.
///
/// # Errors
///
/// `InvalidData` on protocol violations, `UnexpectedEof` if the stream
/// ends before the blank line that closes the headers or inside the
/// body, otherwise transport errors.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<WireResponse> {
    let mut head = String::new();
    if reader.read_line(&mut head)? == 0 {
        return Err(unexpected_eof("before status line"));
    }
    loop {
        let start = head.len();
        if reader.read_line(&mut head)? == 0 {
            return Err(unexpected_eof("inside the header block"));
        }
        if head[start..].trim_end().is_empty() {
            break;
        }
    }
    let mut headers = Vec::new();
    let (status, content_length) = parse_head(&head, |name, value| {
        headers.push((name.to_ascii_lowercase(), value.to_owned()));
    })?;
    let mut body = Vec::with_capacity(content_length.min(MAX_BODY_RESERVE));
    reader.take(content_length as u64).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(unexpected_eof("inside the body"));
    }
    Ok(WireResponse {
        status,
        headers,
        body,
    })
}

/// Finds a complete response at the front of `buf`: its status and its
/// length in bytes, or `None` while more bytes are needed.
fn complete_response(buf: &[u8]) -> io::Result<Option<(u16, usize)>> {
    let Some(blank) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..blank])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let (status, content_length) = parse_head(head, |_, _| {})?;
    // Saturating: a hostile length leaves the response incomplete (and
    // the request to time out) instead of wrapping.
    let total = (blank + 4).saturating_add(content_length);
    Ok((buf.len() >= total).then_some((status, total)))
}

/// One connection's client state machine (mirror image of the server's).
struct ClientConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    rng: SplitMix64,
    /// Due offsets (µs from the run's start) of the open-loop requests;
    /// empty in a closed loop.
    schedule: Vec<u64>,
    sent: usize,
    /// Due and write offsets (µs) of the in-flight request.
    outstanding: Option<(u64, u64)>,
    want_write: bool,
    done: bool,
}

/// Counters one driver accumulates.
#[derive(Default)]
struct DriverStats {
    sent: u64,
    ok: u64,
    shed: u64,
    server_errors: u64,
    other_status: u64,
    transport_errors: u64,
}

impl DriverStats {
    fn lose(&mut self, conn: &mut ClientConn) {
        self.transport_errors += 1;
        conn.done = true;
    }
}

/// Runs the load `config` describes and reports what happened.
///
/// # Errors
///
/// Only setup failures (poller creation) error out; per-connection
/// trouble is counted in `transport_errors`.
pub fn run(config: &LoadConfig) -> io::Result<LoadReport> {
    // ~2 fds per connection when the server shares the process, plus
    // headroom for the process itself.
    let _ = raise_nofile_limit(config.connections as u64 * 2 + 512);
    let started = Instant::now();
    let drivers = config.connections.clamp(1, MAX_DRIVERS);
    let per_driver = config.connections.div_ceil(drivers);
    let mut joins = Vec::new();
    for driver in 0..drivers {
        let lo = driver * per_driver;
        let hi = ((driver + 1) * per_driver).min(config.connections);
        if lo >= hi {
            break;
        }
        let config = config.clone();
        joins.push(std::thread::spawn(move || drive(&config, lo, hi)));
    }
    let mut report = LoadReport {
        established: 0,
        sent: 0,
        ok: 0,
        shed: 0,
        server_errors: 0,
        other_status: 0,
        transport_errors: 0,
        latency: Histogram::new(),
        elapsed: Duration::ZERO,
    };
    for join in joins {
        let (established, stats, latency) = join
            .join()
            .map_err(|_| io::Error::other("load driver panicked"))??;
        report.established += established;
        report.sent += stats.sent;
        report.ok += stats.ok;
        report.shed += stats.shed;
        report.server_errors += stats.server_errors;
        report.other_status += stats.other_status;
        report.transport_errors += stats.transport_errors;
        report.latency.merge(&latency);
    }
    report.elapsed = started.elapsed();
    Ok(report)
}

/// One driver: connects connections `lo..hi`, then multiplexes them
/// through a poller until every request is answered or lost.
fn drive(config: &LoadConfig, lo: usize, hi: usize) -> io::Result<(usize, DriverStats, Histogram)> {
    let mut poller = Poller::new()?;
    let mut stats = DriverStats::default();
    let latency = Histogram::new();
    // Each connection's mean gap between due times in an open loop.
    let interval_us = match config.arrivals {
        Arrivals::Closed => None,
        Arrivals::Open(rate) => {
            Some(((config.connections as f64 / rate.max(1.0) * 1e6) as u64).max(1))
        }
    };
    let mut conns: Vec<ClientConn> = Vec::with_capacity(hi - lo);

    // Connect phase: blocking connects, staggered so ten thousand SYNs
    // do not land on the listener's backlog in one burst.
    for index in lo..hi {
        let mut rng = SplitMix64::new(derive_seed(SEED, index as u64));
        let Some(stream) = connect_with_retry(&config.addr) else {
            stats.transport_errors += 1;
            continue;
        };
        let schedule = interval_us.map_or_else(Vec::new, |interval| {
            let offset = rng.gen_range(0, interval);
            let jitter_cap = (interval / 4).max(1);
            (0..config.requests)
                .map(|k| offset + k as u64 * interval + rng.gen_range(0, jitter_cap))
                .collect()
        });
        conns.push(ClientConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            rng,
            schedule,
            sent: 0,
            outstanding: None,
            want_write: false,
            done: false,
        });
        if conns.len() % 64 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let established = conns.len();
    for (slot, conn) in conns.iter().enumerate() {
        conn.stream.set_nonblocking(true)?;
        let _ = conn.stream.set_nodelay(true);
        poller.register(conn.stream.as_raw_fd(), slot as u64, true, false)?;
    }

    // The clock starts once every connection is up, so a slow connect
    // phase cannot turn into a burst of past-due arrivals.
    let t0 = Instant::now();
    let now_us = || u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    let timeout_us = REQUEST_TIMEOUT.as_micros() as u64;
    let mut events: Vec<PollEvent> = Vec::new();
    loop {
        if conns
            .iter()
            .all(|c| c.done || (c.sent == config.requests && c.outstanding.is_none()))
        {
            break;
        }
        poller.wait(&mut events, 2)?;
        for event in &events {
            let slot = usize::try_from(event.token).expect("token fits");
            let conn = &mut conns[slot];
            if event.readable {
                on_readable(conn, config.requests, &mut stats, &latency, now_us());
            }
            if event.writable {
                flush(conn, &mut stats);
            }
            sync_interest(&mut poller, conn, slot);
        }
        // Send every request now due; time out any that waited too long.
        let now = now_us();
        for (slot, conn) in conns.iter_mut().enumerate() {
            if conn.done {
                continue;
            }
            if let Some((_, written)) = conn.outstanding {
                if now.saturating_sub(written) > timeout_us {
                    stats.lose(conn);
                }
                continue;
            }
            if conn.sent == config.requests {
                continue;
            }
            let due = conn.schedule.get(conn.sent).copied().unwrap_or(now);
            if now < due {
                continue;
            }
            config
                .mix
                .write_request(conn.sent, &mut conn.rng, &mut conn.wbuf);
            conn.outstanding = Some((due, now));
            conn.sent += 1;
            stats.sent += 1;
            flush(conn, &mut stats);
            sync_interest(&mut poller, conn, slot);
        }
    }
    Ok((established, stats, latency))
}

fn connect_with_retry(addr: &str) -> Option<TcpStream> {
    for attempt in 0..4u32 {
        match TcpStream::connect(addr) {
            Ok(stream) => return Some(stream),
            Err(_) => std::thread::sleep(Duration::from_millis(10 << attempt)),
        }
    }
    None
}

fn on_readable(
    conn: &mut ClientConn,
    requests: usize,
    stats: &mut DriverStats,
    latency: &Histogram,
    now: u64,
) {
    if conn.done {
        return;
    }
    let mut scratch = [0u8; 8192];
    loop {
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                // The server closed: expected once every request is
                // answered (idle sweep), a loss if work remained.
                if conn.outstanding.is_some() || conn.sent < requests {
                    stats.transport_errors += 1;
                }
                conn.done = true;
                return;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&scratch[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return stats.lose(conn),
        }
    }
    loop {
        let (status, total) = match complete_response(&conn.rbuf) {
            Ok(Some(found)) => found,
            Ok(None) => return,
            Err(_) => return stats.lose(conn),
        };
        conn.rbuf.drain(..total);
        match status {
            200..=299 => stats.ok += 1,
            429 => stats.shed += 1,
            500..=599 => stats.server_errors += 1,
            _ => stats.other_status += 1,
        }
        if let Some((due, _)) = conn.outstanding.take() {
            latency.record(now.saturating_sub(due));
        }
    }
}

fn flush(conn: &mut ClientConn, stats: &mut DriverStats) {
    if conn.done {
        return;
    }
    while conn.wpos < conn.wbuf.len() {
        match (&conn.stream).write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return stats.lose(conn),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return stats.lose(conn),
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
}

fn sync_interest(poller: &mut Poller, conn: &mut ClientConn, slot: usize) {
    if conn.done {
        // A lost connection stays readable at EOF; stop polling it.
        let _ = poller.deregister(conn.stream.as_raw_fd());
        return;
    }
    let want_write = conn.wpos < conn.wbuf.len();
    if want_write != conn.want_write
        && poller
            .modify(conn.stream.as_raw_fd(), slot as u64, true, want_write)
            .is_ok()
    {
        conn.want_write = want_write;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn read_response_parses_status_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\n\r\nok\n";
        let response = read_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("Content-Type"), Some("text/plain"));
        assert_eq!(response.body, b"ok\n");
    }

    #[test]
    fn read_response_refuses_a_response_cut_off_in_its_headers() {
        for raw in [
            &b"HTTP/1.1 200 OK\r\n"[..],
            b"HTTP/1.1 200 OK\r\nContent-Len",
        ] {
            let err = read_response(&mut BufReader::new(raw)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{raw:?}");
        }
    }

    #[test]
    fn a_huge_content_length_is_a_short_body_not_an_allocation() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 1152921504606846976\r\n\r\nabc";
        let err = read_response(&mut BufReader::new(&raw[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn complete_response_waits_for_the_body_and_splits_back_to_back() {
        let one = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n";
        assert!(complete_response(&one[..10]).unwrap().is_none());
        assert!(complete_response(&one[..one.len() - 1]).unwrap().is_none());
        assert_eq!(complete_response(one).unwrap(), Some((200, one.len())));
        let mut two = one.to_vec();
        two.extend_from_slice(b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(complete_response(&two).unwrap(), Some((200, one.len())));
        assert!(complete_response(b"HTTP/1.1 OK\r\n\r\n").is_err());
        let huge = b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nabc";
        assert!(complete_response(huge).unwrap().is_none());
    }

    #[test]
    fn the_cycle_mix_posts_a_well_formed_whatif() {
        let mut rng = SplitMix64::new(1);
        let mut out = Vec::new();
        Mix::Cycle.write_request(3, &mut rng, &mut out);
        let text = String::from_utf8(out).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("POST /models/scada/whatif "));
        assert!(head.ends_with(&format!("Content-Length: {}", body.len())));
    }

    fn serve_seed_corpus() -> (String, impl FnOnce()) {
        let state = crate::AppState::new(cpssec_attackdb::seed::seed_corpus());
        let server = crate::Server::bind("127.0.0.1:0", 4, state).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, move || {
            flag.store(true, std::sync::atomic::Ordering::Relaxed);
            handle.join().unwrap();
        })
    }

    #[test]
    fn a_closed_loop_drives_a_live_server_with_zero_errors() {
        let (addr, stop) = serve_seed_corpus();
        let report = run(&LoadConfig::new(addr, 4, 8)).unwrap();
        stop();
        assert_eq!(report.errors(), 0, "{}", report.summary());
        assert_eq!((report.established, report.ok), (4, 32));
        assert!(report.latency.quantile_us(0.99) > 0);
        assert!(report.summary().contains("32 ok, 0 errors"));
    }

    #[test]
    fn an_open_loop_keeps_its_schedule_against_a_live_server() {
        let (addr, stop) = serve_seed_corpus();
        let config = LoadConfig {
            arrivals: Arrivals::Open(2_000.0),
            mix: Mix::Dashboards,
            ..LoadConfig::new(addr, 16, 4)
        };
        let report = run(&config).unwrap();
        stop();
        assert_eq!(report.errors(), 0, "{}", report.summary());
        assert_eq!((report.sent, report.ok), (64, 64));
    }

    #[test]
    fn a_refused_connection_is_a_transport_error() {
        // Bind, then drop: nothing listens on the port any more.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let report = run(&LoadConfig::new(addr.to_string(), 2, 3)).unwrap();
        assert_eq!((report.established, report.transport_errors), (0, 2));
        assert_eq!(report.errors(), 2);
    }
}
