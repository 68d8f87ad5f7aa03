//! E19 — What does always-on observability cost?
//!
//! The continuous profiler exists to run in production, so its overhead
//! is the headline number. Against an in-process reactor server under a
//! closed-loop associate workload (the E18 route with real handler
//! work), this bench measures sustained throughput with the sampler
//! off, then at 9, 99, and 997 Hz — best-of-three rounds per phase so a
//! scheduler hiccup cannot masquerade as profiler overhead. The flight
//! recorder's per-event cost is measured in a tight loop and asserted
//! under 100 ns: cheap enough to leave on everywhere.
//!
//! `CPSSEC_BENCH_FAST=1` (CI) shrinks the request counts. Results land
//! in `BENCH_profile_overhead.json`; CI asserts the 99 Hz column stays
//! within 3% of baseline.

#[cfg(unix)]
mod unix_bench {
    use criterion::{black_box, criterion_group, Criterion};
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    use cpssec_obs::flight;
    use cpssec_server::load::read_response;
    use cpssec_server::{AppState, Server};

    fn fast_mode() -> bool {
        std::env::var("CPSSEC_BENCH_FAST").is_ok_and(|v| v == "1")
    }

    struct Running {
        addr: std::net::SocketAddr,
        flag: Arc<AtomicBool>,
        handle: Option<std::thread::JoinHandle<()>>,
    }

    impl Running {
        fn start(workers: usize) -> Running {
            let state = AppState::new(cpssec_bench::corpus());
            let server = Server::bind("127.0.0.1:0", workers, state).expect("bind");
            let addr = server.local_addr().expect("addr");
            let flag = server.shutdown_flag();
            let handle = std::thread::spawn(move || server.run().expect("serve"));
            Running {
                addr,
                flag,
                handle: Some(handle),
            }
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

    /// Closed-loop: `threads` keep-alive connections each issue
    /// `requests` associate calls back to back; returns aggregate
    /// completed requests per second.
    fn drive(addr: std::net::SocketAddr, threads: usize, requests: usize) -> f64 {
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    for _ in 0..requests {
                        stream
                            .write_all(b"GET /models/scada/associate HTTP/1.1\r\n\r\n")
                            .expect("send");
                        let response = read_response(&mut reader).expect("response");
                        assert_eq!(response.status, 200);
                    }
                });
            }
        });
        (threads * requests) as f64 / started.elapsed().as_secs_f64().max(1e-9)
    }

    /// One round: optionally sample at `hz` while driving the workload.
    fn round(addr: std::net::SocketAddr, hz: Option<u64>, threads: usize, requests: usize) -> f64 {
        let sampler = hz.map(cpssec_obs::Sampler::start);
        let rps = drive(addr, threads, requests);
        if let Some(sampler) = sampler {
            let graph = sampler.stop();
            assert!(
                graph.samples > 0,
                "the sampler must actually sample during the run"
            );
        }
        rps
    }

    /// Paired comparison: alternate off/on rounds so machine drift hits
    /// both sides equally, then compare best-of each — CI runners
    /// (often a single shared core) make any one round hostage to the
    /// scheduler, and the quietest round still carries the full
    /// profiler cost, so best-of filters noise without hiding overhead.
    fn phase(addr: std::net::SocketAddr, hz: u64, threads: usize, requests: usize) -> (f64, f64) {
        let mut best_off = 0.0f64;
        let mut best_on = 0.0f64;
        for _ in 0..5 {
            best_off = best_off.max(round(addr, None, threads, requests));
            best_on = best_on.max(round(addr, Some(hz), threads, requests));
        }
        (best_off, best_on)
    }

    pub fn bench_profile_overhead(c: &mut Criterion) {
        let fast = fast_mode();
        let threads = 2;
        let requests = if fast { 1_000 } else { 5_000 };

        let server = Running::start(4);
        // Warm caches and the worker pool so round 1 of the baseline is
        // not paying first-touch costs the sampled rounds avoid.
        drive(server.addr, threads, requests / 3 + 1);

        let (base9, hz9) = phase(server.addr, 9, threads, requests);
        let (base99, hz99) = phase(server.addr, 99, threads, requests);
        let (base997, hz997) = phase(server.addr, 997, threads, requests);
        drop(server);

        let pct = |base: f64, rps: f64| 100.0 * (base - rps) / base.max(1e-9);
        println!("\nE19 — continuous profiler overhead (closed-loop associate):");
        println!(
            "  9 Hz   : {hz9:>8.0} vs {base9:>8.0} req/s off ({:+.1}%)",
            pct(base9, hz9)
        );
        println!(
            "  99 Hz  : {hz99:>8.0} vs {base99:>8.0} req/s off ({:+.1}%)",
            pct(base99, hz99)
        );
        println!(
            "  997 Hz : {hz997:>8.0} vs {base997:>8.0} req/s off ({:+.1}%)",
            pct(base997, hz997)
        );

        // Flight recorder per-event cost: one seqlocked ring write.
        flight::set_enabled(true);
        let route = flight::label_id("GET /bench");
        let rounds = 1_000_000u64;
        let started = Instant::now();
        for i in 0..rounds {
            flight::event(flight::FlightKind::Request, black_box(i), route << 16 | 200);
        }
        let flight_ns = started.elapsed().as_nanos() as f64 / rounds as f64;
        println!("  flight event: {flight_ns:.1} ns");
        assert!(
            flight_ns < 100.0,
            "a flight event must stay under 100 ns to be always-on ({flight_ns:.1} ns)"
        );

        let json = format!(
            "{{\"threads\":{threads},\"requestsPerThread\":{requests},\
             \"baselineRps\":{base99:.1},\"hz9Rps\":{hz9:.1},\
             \"hz99Rps\":{hz99:.1},\"hz997Rps\":{hz997:.1},\
             \"hz99OverheadPct\":{:.2},\"flightEventNs\":{flight_ns:.1}}}",
            pct(base99, hz99)
        );
        std::fs::write("BENCH_profile_overhead.json", &json).expect("write bench artifact");
        println!("  wrote BENCH_profile_overhead.json");

        let mut group = c.benchmark_group("profile_overhead");
        group.sample_size(if fast { 10 } else { 50 });
        group.bench_function("flight_event", |b| {
            b.iter(|| {
                flight::event(
                    flight::FlightKind::Request,
                    black_box(7),
                    black_box(route << 16 | 200),
                );
            })
        });
        group.finish();
    }

    criterion_group!(benches, bench_profile_overhead);
}

#[cfg(unix)]
fn main() {
    unix_bench::benches();
}

#[cfg(not(unix))]
fn main() {
    println!("profile_overhead bench requires a Unix poller; skipped");
}
