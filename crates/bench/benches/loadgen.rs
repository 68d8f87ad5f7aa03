//! E18 — Readiness-driven serving core under 10k keep-alive connections.
//!
//! Three phases against in-process servers:
//!
//! 1. **Capacity**: N concurrent keep-alive connections drive an
//!    open-loop arrival schedule; asserts every connection establishes,
//!    zero 5xx, zero transport errors, and a bounded p99 measured from
//!    *scheduled* send time (no coordinated omission).
//! 2. **Overload**: a 2-deep per-route queue plus an injected 40 ms
//!    handler delay; asserts load is shed with 429 (never 5xx, never a
//!    hang) and `shed_total` only ever grows.
//! 3. **Recovery**: the delay cleared, gentle load; asserts shedding
//!    stops — admission restored.
//!
//! `CPSSEC_BENCH_FAST=1` (CI) runs 1 000 connections; the full run does
//! 10 000. Results land in `BENCH_loadgen.json`.

#[cfg(unix)]
mod unix_bench {
    use criterion::{criterion_group, Criterion};
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    use cpssec_bench::loadgen::{run, LoadgenConfig, LoadgenReport, RouteMix};
    use cpssec_server::load::read_response;
    use cpssec_server::{AppState, Server};

    fn fast_mode() -> bool {
        std::env::var("CPSSEC_BENCH_FAST").is_ok_and(|v| v == "1")
    }

    /// The capacity-phase server, re-exec'ed as a child process: the
    /// container caps each process at 20 000 descriptors, and 10 000
    /// in-process connection *pairs* need all of them twice over. The
    /// child holds the server's 10k fds, this process the client's.
    /// Control channel is stdin — dropping it asks the child to drain.
    struct ChildServer {
        addr: std::net::SocketAddr,
        child: std::process::Child,
        stdin: Option<std::process::ChildStdin>,
    }

    impl ChildServer {
        fn start(workers: usize) -> ChildServer {
            let exe = std::env::current_exe().expect("current exe");
            let mut child = std::process::Command::new(exe)
                .env("CPSSEC_LOADGEN_SERVER", "1")
                .env("CPSSEC_LOADGEN_WORKERS", workers.to_string())
                .stdin(std::process::Stdio::piped())
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("spawn server child");
            let stdout = child.stdout.take().expect("child stdout");
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            std::io::BufRead::read_line(&mut reader, &mut line).expect("addr line");
            let addr = line
                .trim()
                .strip_prefix("ADDR ")
                .expect("ADDR prefix")
                .parse()
                .expect("addr parses");
            // Keep draining the child's stdout (telemetry may log) so a
            // full pipe can never wedge it.
            std::thread::spawn(move || {
                let mut sink = String::new();
                while std::io::BufRead::read_line(&mut reader, &mut sink).is_ok_and(|n| n > 0) {
                    sink.clear();
                }
            });
            let stdin = child.stdin.take();
            ChildServer { addr, child, stdin }
        }
    }

    impl Drop for ChildServer {
        fn drop(&mut self) {
            drop(self.stdin.take());
            let _ = self.child.wait();
        }
    }

    /// Entry point when re-exec'ed with `CPSSEC_LOADGEN_SERVER=1`:
    /// serve on an ephemeral port, announce it, drain on stdin EOF.
    pub fn server_child() -> ! {
        use std::io::Read;
        let workers = std::env::var("CPSSEC_LOADGEN_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8);
        let state = AppState::new(cpssec_bench::corpus());
        let server = Server::bind("127.0.0.1:0", workers, state).expect("bind");
        println!("ADDR {}", server.local_addr().expect("addr"));
        std::io::stdout().flush().expect("flush");
        let flag = server.shutdown_flag();
        std::thread::spawn(move || {
            let mut sink = [0u8; 64];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            flag.store(true, Ordering::Relaxed);
        });
        server.run().expect("serve");
        std::process::exit(0);
    }

    struct Running {
        addr: std::net::SocketAddr,
        state: Arc<AppState>,
        flag: Arc<AtomicBool>,
        handle: Option<std::thread::JoinHandle<()>>,
    }

    impl Running {
        fn start(workers: usize) -> Running {
            let state = AppState::new(cpssec_bench::corpus());
            let server = Server::bind("127.0.0.1:0", workers, state).expect("bind");
            let addr = server.local_addr().expect("addr");
            let state = server.state();
            let flag = server.shutdown_flag();
            let handle = std::thread::spawn(move || server.run().expect("serve"));
            Running {
                addr,
                state,
                flag,
                handle: Some(handle),
            }
        }

        fn request(&self, line: &str) -> (u16, String) {
            let mut stream = TcpStream::connect(self.addr).expect("connect");
            stream
                .write_all(format!("{line} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
                .expect("send");
            let mut reader = BufReader::new(stream);
            let response = read_response(&mut reader).expect("response");
            (
                response.status,
                String::from_utf8_lossy(&response.body).into_owned(),
            )
        }

        fn metrics(&self) -> String {
            let (status, body) = self.request("GET /metrics");
            assert_eq!(status, 200);
            body
        }
    }

    impl Drop for Running {
        fn drop(&mut self) {
            self.flag.store(true, Ordering::Relaxed);
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
        }
    }

    fn gauge(text: &str, name: &str) -> u64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    fn sum_shed_total(text: &str) -> u64 {
        text.lines()
            .filter(|l| l.starts_with("shed_total{"))
            .filter_map(|l| l.split_whitespace().last())
            .filter_map(|v| v.parse::<u64>().ok())
            .sum()
    }

    fn assert_clean(report: &LoadgenReport, phase: &str) {
        assert_eq!(
            report.server_errors,
            0,
            "{phase}: the serving core must never 5xx ({})",
            report.summary()
        );
        assert_eq!(
            report.transport_errors,
            0,
            "{phase}: no dropped or hung connections ({})",
            report.summary()
        );
    }

    pub fn bench_loadgen(c: &mut Criterion) {
        let fast = fast_mode();
        let connections = if fast { 1_000 } else { 10_000 };
        let requests_per_conn = if fast { 4 } else { 5 };
        let rate = if fast { 4_000.0 } else { 8_000.0 };
        let p99_budget_us = 250_000u64;

        // Phase 1 — capacity: every connection holds open, keep-alive,
        // for the whole schedule; a monitor thread watches the server's
        // own connections_open gauge for the sustained peak.
        let server = ChildServer::start(8);
        let peak = Arc::new(AtomicU64::new(0));
        let monitoring = Arc::new(AtomicBool::new(true));
        let monitor = {
            let peak = Arc::clone(&peak);
            let monitoring = Arc::clone(&monitoring);
            let addr = server.addr;
            std::thread::spawn(move || {
                while monitoring.load(Ordering::Relaxed) {
                    if let Ok(mut stream) = TcpStream::connect(addr) {
                        let _ =
                            stream.write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
                        let mut reader = BufReader::new(stream);
                        if let Ok(response) = read_response(&mut reader) {
                            let text = String::from_utf8_lossy(&response.body).into_owned();
                            let open = gauge(&text, "connections_open");
                            peak.fetch_max(open, Ordering::Relaxed);
                        }
                    }
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
            })
        };
        let capacity = run(&LoadgenConfig::new(
            server.addr.to_string(),
            connections,
            requests_per_conn,
            rate,
        ))
        .expect("capacity run");
        monitoring.store(false, Ordering::Relaxed);
        let _ = monitor.join();
        let peak_open = peak.load(Ordering::Relaxed);
        println!("\nE18 — serving core at {connections} keep-alive connections:");
        println!("  capacity : {}", capacity.summary());
        println!("  peak connections_open gauge: {peak_open}");
        assert_eq!(
            capacity.established, connections,
            "every connection must establish"
        );
        assert_clean(&capacity, "capacity");
        assert_eq!(capacity.shed, 0, "capacity run is under the default limits");
        let p99 = capacity.latency.quantile_us(0.99);
        assert!(
            p99 <= p99_budget_us,
            "capacity p99 {p99} µs blew the {p99_budget_us} µs budget"
        );
        drop(server);

        // Phase 2 — overload: 2-deep queue, 40 ms injected delay; the
        // only valid responses are 200 and 429.
        let server = Running::start(4);
        server.state.admission.set_queue_depth(2);
        let (status, _) = server.request("POST /debug/delay?us=40000");
        assert_eq!(status, 200);
        let shed_before = sum_shed_total(&server.metrics());
        let mut overload_cfg = LoadgenConfig::new(server.addr.to_string(), 64, 8, 2_000.0);
        overload_cfg.mix = RouteMix::AssociateOnly;
        let overload = run(&overload_cfg).expect("overload run");
        println!("  overload : {}", overload.summary());
        assert_clean(&overload, "overload");
        assert!(
            overload.shed > 0,
            "a 2-deep queue at 2000 req/s against 40 ms handlers must shed ({})",
            overload.summary()
        );
        let shed_after = sum_shed_total(&server.metrics());
        assert!(
            shed_after >= shed_before + overload.shed,
            "shed_total is monotone and counts every shed \
             (before {shed_before}, after {shed_after}, client saw {})",
            overload.shed
        );

        // Phase 3 — recovery: clear the delay and restore the default
        // queue depth (shed-then-recover); gentle load must not shed.
        let (status, _) = server.request("POST /debug/delay?us=0");
        assert_eq!(status, 200);
        server
            .state
            .admission
            .set_queue_depth(cpssec_server::admission::DEFAULT_QUEUE_DEPTH);
        let mut recovery_cfg = LoadgenConfig::new(server.addr.to_string(), 64, 4, 200.0);
        recovery_cfg.mix = RouteMix::AssociateOnly;
        let recovery = run(&recovery_cfg).expect("recovery run");
        println!("  recovery : {}", recovery.summary());
        assert_clean(&recovery, "recovery");
        assert_eq!(
            recovery.shed,
            0,
            "with the overload gone, admission must be fully restored ({})",
            recovery.summary()
        );
        let shed_final = sum_shed_total(&server.metrics());
        assert!(
            shed_final >= shed_after,
            "shed counters never move backwards"
        );
        drop(server);

        let json = format!(
            "{{\"connections\":{connections},\"peakConnectionsOpen\":{peak_open},\
             \"capacity\":{},\"overload\":{},\"recovery\":{}}}",
            capacity.to_json(),
            overload.to_json(),
            recovery.to_json(),
        );
        std::fs::write("BENCH_loadgen.json", &json).expect("write bench artifact");
        println!("  wrote BENCH_loadgen.json");

        // Criterion sample: one keep-alive round trip against a fresh
        // reactor server (the per-request floor under no contention).
        let server = Running::start(4);
        let mut stream = TcpStream::connect(server.addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut group = c.benchmark_group("loadgen");
        group.sample_size(if fast { 10 } else { 50 });
        group.bench_function("healthz_round_trip", |b| {
            b.iter(|| {
                stream
                    .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
                    .expect("send");
                let response = read_response(&mut reader).expect("response");
                assert_eq!(response.status, 200);
            })
        });
        group.finish();
    }

    criterion_group!(benches, bench_loadgen);
}

#[cfg(unix)]
fn main() {
    if std::env::var("CPSSEC_LOADGEN_SERVER").as_deref() == Ok("1") {
        unix_bench::server_child();
    }
    unix_bench::benches();
}

#[cfg(not(unix))]
fn main() {
    println!("loadgen bench requires a Unix poller; skipped");
}
