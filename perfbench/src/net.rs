//! The server under test and the benchmark's HTTP client.
//!
//! Each boot of the server is a fresh child process — this binary run
//! with `--serve-child` — that builds its state from inputs it was handed,
//! serves exactly as `cpssec serve` does (reactor, worker pool, telemetry
//! tick), and answers a few line commands on stdin. A fresh process per
//! boot makes every boot cold and makes `VmHWM` the server's own peak. The
//! client talks to it over loopback TCP on keep-alive connections.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpssec_server::load::{read_response, WireResponse};
use cpssec_server::{AppState, Server};

/// Worker threads in the server, sized for a 2-core host.
pub const WORKERS: usize = 2;

/// What a server boots from.
#[derive(Clone)]
pub enum Boot {
    /// `AppState::new` over the paper-scale corpus, generated by the
    /// child before its boot clock starts.
    Paper,
    /// `AppState::from_snapshot_mapped` over these `.cpsnap` bytes, sent
    /// to the child before its boot clock starts; the boot ends once the
    /// owned state has thawed.
    Mapped(Arc<[u8]>),
}

/// Server-side counters read at the end of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Response cache `(hits, misses)`.
    pub responses: (u64, u64),
    /// What-if prior cache `(hits, misses)`.
    pub priors: (u64, u64),
    /// `Admission::shed_total()`.
    pub shed_total: u64,
    /// Pool gauges while sampling was on: `(max queued, mean utilization,
    /// samples)`.
    pub pool: (u64, f64, usize),
    /// Peak resident set size of the server process, MiB.
    pub peak_rss_mb: f64,
}

/// A running server child process.
pub struct Running {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Running {
    /// Starts one server process and waits for its boot report. Returns
    /// the server and its boot time in seconds: state build, bind, and
    /// the first `200` on `/healthz`.
    pub fn boot(boot: &Boot) -> (Running, f64) {
        let kind = match boot {
            Boot::Paper => "paper",
            Boot::Mapped(_) => "mapped",
        };
        let mut child = Command::new(std::env::current_exe().expect("own executable"))
            .args(["--serve-child", kind])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn server process");
        let mut stdin = child.stdin.take().expect("child stdin");
        let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        if let Boot::Mapped(bytes) = boot {
            writeln!(stdin, "{}", bytes.len()).expect("send snapshot length");
            stdin.write_all(bytes).expect("send snapshot");
            stdin.flush().expect("flush snapshot");
        }
        let mut running = Running {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let ready = running.line();
        let mut words = ready.split_whitespace();
        assert_eq!(words.next(), Some("ready"), "server process: {ready}");
        running.addr = words
            .next()
            .and_then(|a| a.parse().ok())
            .expect("ready address");
        let seconds = words
            .next()
            .and_then(|s| s.parse().ok())
            .expect("ready boot time");
        (running, seconds)
    }

    /// Boots `boots` times, stopping every server but the last. Returns
    /// the last server and each boot's time in seconds.
    pub fn boot_repeatedly(boots: usize, boot: &Boot) -> (Running, Vec<f64>) {
        let mut times = Vec::with_capacity(boots);
        let mut last: Option<Running> = None;
        for _ in 0..boots.max(1) {
            if let Some(previous) = last.take() {
                previous.stop();
            }
            let (running, seconds) = Running::boot(boot);
            times.push(seconds);
            last = Some(running);
        }
        (last.expect("at least one boot"), times)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn line(&mut self) -> String {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .expect("read server process");
        line.trim_end().to_owned()
    }

    fn command(&mut self, command: &str) -> String {
        writeln!(self.stdin, "{command}").expect("command server process");
        self.stdin.flush().expect("flush command");
        self.line()
    }

    /// Starts sampling the worker-pool gauges every few milliseconds.
    pub fn sample_pool(&mut self) {
        assert_eq!(self.command("sample-pool"), "ok");
    }

    /// Reads the server's counters (and stops pool sampling).
    pub fn stats(&mut self) -> ServerStats {
        let reply = self.command("stats");
        let fields: Vec<f64> = reply
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().expect("numeric stat"))
            .collect();
        assert_eq!(fields.len(), 9, "server stats: {reply}");
        let count = |i: usize| fields[i] as u64;
        ServerStats {
            responses: (count(0), count(1)),
            priors: (count(2), count(3)),
            shed_total: count(4),
            pool: (count(5), fields[6], count(7) as usize),
            peak_rss_mb: fields[8],
        }
    }

    /// Graceful shutdown: the server drains and joins its threads, then
    /// the process exits and is reaped.
    pub fn stop(mut self) {
        assert_eq!(self.command("stop"), "stopped");
        let status = self.child.wait().expect("reap server process");
        assert!(status.success(), "server process exited with {status}");
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        // Reached only when `stop` did not run (a panic unwinding).
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The `--serve-child` side: boot, report, serve until told to stop.
pub fn serve_child(kind: &str) {
    let mut stdin = BufReader::new(io::stdin().lock());
    let corpus = (kind == "paper").then(crate::serve::paper_corpus);
    let snapshot: Option<Arc<[u8]>> = (kind == "mapped").then(|| {
        let mut header = String::new();
        stdin.read_line(&mut header).expect("snapshot length");
        let mut bytes = vec![0; header.trim().parse().expect("snapshot length")];
        stdin.read_exact(&mut bytes).expect("snapshot bytes");
        bytes.into()
    });

    let started = Instant::now();
    let state = match (corpus, snapshot) {
        (Some(corpus), _) => AppState::new(corpus),
        (_, Some(bytes)) => {
            let state = AppState::from_snapshot_mapped(bytes).expect("snapshot opens");
            drop(state.corpus());
            state
        }
        _ => panic!("unknown server kind {kind}"),
    };
    let server = Server::bind("127.0.0.1:0", WORKERS, Arc::clone(&state)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let flag = server.shutdown_flag();
    let serving = std::thread::spawn(move || server.run());
    let reply = Conn::open(addr)
        .send(&request("GET", "/healthz", b""))
        .expect("first /healthz");
    assert_eq!(reply.status, 200, "first /healthz");
    let boot_s = started.elapsed().as_secs_f64();
    let mut stdout = io::stdout().lock();
    writeln!(stdout, "ready {addr} {boot_s}").expect("report boot");
    stdout.flush().expect("flush boot report");

    let sampling = Arc::new(AtomicBool::new(false));
    let mut sampler = None;
    let mut line = String::new();
    loop {
        line.clear();
        if stdin.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        match line.trim() {
            "sample-pool" => {
                sampling.store(true, Ordering::SeqCst);
                let (state, sampling) = (Arc::clone(&state), Arc::clone(&sampling));
                sampler = Some(std::thread::spawn(move || {
                    sample_pool(&state.pool_stats, &sampling)
                }));
                writeln!(stdout, "ok").expect("reply");
            }
            "stats" => {
                sampling.store(false, Ordering::SeqCst);
                let pool = sampler
                    .take()
                    .map_or((0, 0.0, 0), |s| s.join().expect("pool sampler"));
                let (rh, rm) = state.responses.stats();
                let (ph, pm) = state.priors.stats();
                writeln!(
                    stdout,
                    "stats {rh} {rm} {ph} {pm} {} {} {} {} {}",
                    state.admission.shed_total(),
                    pool.0,
                    pool.1,
                    pool.2,
                    peak_rss_mb()
                )
                .expect("reply");
            }
            "stop" => break,
            other => panic!("unknown command {other}"),
        }
        stdout.flush().expect("flush reply");
    }
    sampling.store(false, Ordering::SeqCst);
    if let Some(sampler) = sampler {
        let _ = sampler.join();
    }
    flag.store(true, Ordering::SeqCst);
    serving
        .join()
        .expect("server thread panicked")
        .expect("server run failed");
    writeln!(stdout, "stopped").expect("report stop");
    stdout.flush().expect("flush stop");
}

/// Samples the worker-pool gauges every few milliseconds while `running`
/// holds: `(max queued, mean utilization, samples)`.
fn sample_pool(stats: &cpssec_server::pool::PoolStats, running: &AtomicBool) -> (u64, f64, usize) {
    let mut queued_max = 0;
    let mut utilization = 0.0;
    let mut samples = 0usize;
    while running.load(Ordering::SeqCst) {
        queued_max = queued_max.max(stats.queued());
        utilization += stats.utilization();
        samples += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    (queued_max, utilization / samples.max(1) as f64, samples)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One keep-alive client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr`.
    pub fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Conn {
            writer: stream,
            reader,
        }
    }

    /// Writes one request and reads its full response.
    pub fn send(&mut self, raw: &[u8]) -> io::Result<WireResponse> {
        self.writer.write_all(raw)?;
        read_response(&mut self.reader)
    }

    /// [`Conn::send`], timed from the first byte written to the last
    /// byte read, in milliseconds.
    pub fn timed(&mut self, raw: &[u8]) -> (io::Result<WireResponse>, f64) {
        let started = Instant::now();
        let reply = self.send(raw);
        (reply, started.elapsed().as_secs_f64() * 1e3)
    }
}

/// The wire bytes of one request.
pub fn request(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// Parses wire bytes into the server's request type, as the reactor does.
pub fn parse(raw: &[u8]) -> cpssec_server::http::Request {
    match cpssec_server::http::parse_request_bytes(raw) {
        Ok(cpssec_server::http::Incremental::Complete(request, _)) => request,
        other => panic!("benchmark request does not parse: {other:?}"),
    }
}

/// One generated request of a workload.
#[derive(Debug, Clone)]
pub struct Op {
    /// The op class the mix assigns it to (latencies are kept per class).
    pub class: &'static str,
    /// HTTP method.
    pub method: &'static str,
    /// Request target: path and query.
    pub target: String,
    /// Request body.
    pub body: Vec<u8>,
}

impl Op {
    /// The op's wire bytes.
    pub fn raw(&self) -> Vec<u8> {
        request(self.method, &self.target, &self.body)
    }
}

/// What a closed-loop drive observed.
#[derive(Debug, Default)]
pub struct Drive {
    /// Every successful op as `(completion time in seconds since the
    /// start, latency in ms, op class)`, in completion order.
    pub timeline: Vec<(f64, f64, &'static str)>,
    /// Host contention score of each whole second of the drive (see
    /// `host::HostSampler`); lower is quieter.
    pub contention: Vec<f64>,
    /// Ops sent.
    pub attempted: u64,
    /// Ops that failed: transport error or non-2xx status.
    pub failed: u64,
    /// Sampled replies `(op index, status, body)` for the correctness check.
    pub sampled: Vec<(u64, u16, Vec<u8>)>,
    /// Wall time the drive lasted, in seconds.
    pub elapsed_s: f64,
}

/// The ops of a drive that completed in its quieter seconds.
#[derive(Debug, Default)]
pub struct Quiet {
    /// Latencies in ms per op class, in completion order.
    pub by_class: BTreeMap<&'static str, Vec<f64>>,
    /// All latencies in ms, in completion order.
    pub in_order: Vec<f64>,
    /// Median completions per kept second.
    pub rate: f64,
    /// `(kept, all)` one-second windows.
    pub windows: (usize, usize),
}

impl Drive {
    /// Keeps the ops that completed in the half of the drive's whole
    /// seconds with the least host contention. On a shared virtual
    /// machine other tenants slow the program in bursts of seconds; those
    /// seconds measure the host, not the program. With fewer than four
    /// whole seconds every op is kept.
    pub fn quiet(&self) -> Quiet {
        let windows = self.contention.len();
        let ranked = windows >= 4;
        let median = crate::stats::median(&self.contention);
        let keep: Vec<bool> = self
            .contention
            .iter()
            .map(|&s| !ranked || s <= median)
            .collect();
        let kept = |t: f64| !ranked || keep.get(t as usize).copied().unwrap_or(false);
        let mut quiet = Quiet {
            windows: (keep.iter().filter(|&&k| k).count(), windows),
            ..Quiet::default()
        };
        let mut counts = vec![0.0; windows];
        for &(t, ms, class) in self.timeline.iter().filter(|(t, _, _)| kept(*t)) {
            quiet.by_class.entry(class).or_default().push(ms);
            quiet.in_order.push(ms);
            if let Some(count) = counts.get_mut(t as usize) {
                *count += 1.0;
            }
        }
        let kept_counts: Vec<f64> = counts
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(&c, _)| c)
            .collect();
        quiet.rate = if ranked {
            crate::stats::median(&kept_counts)
        } else {
            quiet.in_order.len() as f64 / self.elapsed_s.max(1e-9)
        };
        quiet
    }
}

/// Closed-loop load from one caller on one keep-alive connection: send op
/// `i`, wait for the reply, and go on with op `i + 1` until `seconds` have
/// passed. Building an op happens outside its timed span.
pub fn drive(
    addr: SocketAddr,
    seconds: f64,
    op_of: &dyn Fn(u64) -> Op,
    sample: &dyn Fn(u64) -> bool,
) -> Drive {
    let started = Instant::now();
    let host = crate::host::HostSampler::start(started);
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut drive = Drive::default();
    let mut conn = Conn::open(addr);
    let mut index = 0;
    while Instant::now() < deadline {
        let op = op_of(index);
        let raw = op.raw();
        let (reply, ms) = conn.timed(&raw);
        drive.attempted += 1;
        match reply {
            Ok(reply) if (200..300).contains(&reply.status) => {
                let t = started.elapsed().as_secs_f64();
                drive.timeline.push((t, ms, op.class));
                if sample(index) {
                    drive.sampled.push((index, reply.status, reply.body));
                }
            }
            Ok(reply) => {
                eprintln!("op {index} ({}): status {}", op.target, reply.status);
                drive.failed += 1;
            }
            Err(e) => {
                eprintln!("op {index} ({}): {e}", op.target);
                drive.failed += 1;
                conn = Conn::open(addr);
            }
        }
        index += 1;
    }
    drive.elapsed_s = started.elapsed().as_secs_f64();
    drive.contention = host.stop();
    drive
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_keeps_the_quietest_seconds() {
        // 100 ops in each of six seconds; seconds 1 and 4 saw heavy contention
        // and slow ops, and one op completed after the last whole second.
        let mut drive = Drive {
            contention: vec![1.0, 1.3, 1.01, 1.0, 1.2, 1.02],
            elapsed_s: 6.5,
            ..Drive::default()
        };
        for second in 0..6 {
            let ms = if second == 1 || second == 4 { 9.0 } else { 1.0 };
            for i in 0..100 {
                drive
                    .timeline
                    .push((f64::from(second) + f64::from(i) / 100.0, ms, "op"));
            }
        }
        drive.timeline.push((6.2, 50.0, "op"));
        let quiet = drive.quiet();
        assert_eq!(quiet.windows, (3, 6), "contention at or below the median");
        assert_eq!(quiet.in_order.len(), 300);
        assert!(quiet.in_order.iter().all(|&ms| ms == 1.0));
        assert_eq!(quiet.rate, 100.0);
        // Too short to rank seconds: everything is kept.
        drive.contention.truncate(3);
        assert_eq!(drive.quiet().in_order.len(), 601);
    }
}
