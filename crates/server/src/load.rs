//! A hand-rolled load generator for the analysis service.
//!
//! `cpssec load` drives a running server with N concurrent clients, each
//! issuing M requests over one keep-alive connection, cycling through the
//! read endpoints plus a what-if POST. Used by CI to prove the concurrent
//! path serves real traffic with zero errors, and by E11 to measure
//! throughput.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Load run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests issued per client.
    pub requests: usize,
}

/// Aggregate results of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests that returned 2xx.
    pub ok: u64,
    /// Requests that failed (non-2xx status or transport error).
    pub errors: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Sum of per-request latencies in microseconds.
    pub total_latency_us: u64,
    /// Slowest single request in microseconds.
    pub max_latency_us: u64,
}

impl LoadReport {
    /// Requests per second over the wall clock.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            (self.ok + self.errors) as f64 / secs
        }
    }

    /// Mean latency in microseconds.
    #[must_use]
    pub fn mean_latency_us(&self) -> f64 {
        let n = self.ok + self.errors;
        if n == 0 {
            0.0
        } else {
            self.total_latency_us as f64 / n as f64
        }
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} ok, {} errors, {:.0} req/s, mean {:.0} us, max {} us",
            self.ok,
            self.errors,
            self.throughput(),
            self.mean_latency_us(),
            self.max_latency_us
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

/// Reads one HTTP/1.1 response with a `Content-Length` body.
///
/// # Errors
///
/// `InvalidData` on protocol violations, `UnexpectedEof` if the stream
/// ends before the blank line that closes the headers or inside the
/// body, otherwise transport errors.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<WireResponse> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before status line",
        ));
    }
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside the header block",
            ));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_owned();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    io::Read::read_exact(reader, &mut body)?;
    Ok(WireResponse {
        status,
        headers,
        body,
    })
}

/// The what-if body every fourth request posts (a risky-OS edit on the
/// built-in SCADA model).
const WHATIF_BODY: &str = r#"{"changes":[{"op":"add","component":"Temperature sensor","kind":"os","value":"Windows 7","atFidelity":"implementation"}]}"#;

/// One client: `requests` requests over one keep-alive connection,
/// cycling healthz → associate → table1 → what-if.
fn run_client(config: &LoadConfig, report: &SharedCounters) -> io::Result<()> {
    let stream = TcpStream::connect(&config.addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    for turn in 0..config.requests {
        let started = Instant::now();
        match turn % 4 {
            0 => write!(writer, "GET /healthz HTTP/1.1\r\n\r\n")?,
            1 => write!(writer, "GET /models/scada/associate HTTP/1.1\r\n\r\n")?,
            2 => write!(writer, "GET /table1 HTTP/1.1\r\n\r\n")?,
            _ => write!(
                writer,
                "POST /models/scada/whatif HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{WHATIF_BODY}",
                WHATIF_BODY.len()
            )?,
        }
        writer.flush()?;
        let response = read_response(&mut reader)?;
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        report
            .total_latency_us
            .fetch_add(elapsed_us, Ordering::Relaxed);
        report
            .max_latency_us
            .fetch_max(elapsed_us, Ordering::Relaxed);
        if (200..300).contains(&response.status) {
            report.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            report.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    Ok(())
}

#[derive(Default)]
struct SharedCounters {
    ok: AtomicU64,
    errors: AtomicU64,
    total_latency_us: AtomicU64,
    max_latency_us: AtomicU64,
}

/// Runs the load: `clients` threads, each `requests` requests over one
/// keep-alive connection. A client whose connection fails mid-run counts
/// one error for the failure; completed requests stay accounted.
#[must_use]
pub fn run(config: &LoadConfig) -> LoadReport {
    let counters = SharedCounters::default();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..config.clients.max(1) {
            scope.spawn(|| {
                if run_client(config, &counters).is_err() {
                    counters.errors.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    LoadReport {
        ok: counters.ok.load(Ordering::Relaxed),
        errors: counters.errors.load(Ordering::Relaxed),
        elapsed: started.elapsed(),
        total_latency_us: counters.total_latency_us.load(Ordering::Relaxed),
        max_latency_us: counters.max_latency_us.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn report_math_is_sane() {
        let report = LoadReport {
            ok: 90,
            errors: 10,
            elapsed: Duration::from_secs(2),
            total_latency_us: 1_000,
            max_latency_us: 500,
        };
        assert!((report.throughput() - 50.0).abs() < 1e-9);
        assert!((report.mean_latency_us() - 10.0).abs() < 1e-9);
        assert!(report.summary().contains("90 ok"));
    }

    #[test]
    fn load_drives_a_live_server_with_zero_errors() {
        let state = crate::AppState::new(cpssec_attackdb::seed::seed_corpus());
        let server = crate::Server::bind("127.0.0.1:0", 4, state).unwrap();
        let addr = server.local_addr().unwrap();
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let report = run(&LoadConfig {
            addr: addr.to_string(),
            clients: 4,
            requests: 8,
        });
        flag.store(true, std::sync::atomic::Ordering::Relaxed);
        handle.join().unwrap();
        assert_eq!(report.errors, 0, "{}", report.summary());
        assert_eq!(report.ok, 32);
        assert!(report.max_latency_us > 0);
    }
}
