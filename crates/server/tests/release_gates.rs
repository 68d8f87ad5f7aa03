//! Release-mode gates for the serving path: E11 (result cache and mixed
//! load), E14 (telemetry tick and history query) and E19 (continuous
//! profiler and flight recorder cost).
//!
//! Each gate is `#[ignore]`d because its bound is a timing that only
//! means something in an optimized build. Run them with
//! `cargo test --release -p cpssec-server --test release_gates -- --ignored`.
//! They hold a shared lock, so no two time each other.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cpssec_attackdb::seed::seed_corpus;
use cpssec_attackdb::synth::{generate, SynthSpec};
use cpssec_obs::flight;
use cpssec_server::load::{self, read_response, LoadConfig, Mix};
use cpssec_server::{AppState, Server};

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn state_at(scale: f64) -> Arc<AppState> {
    let mut corpus = seed_corpus();
    corpus
        .merge(generate(&SynthSpec::paper2020(2020, scale)))
        .expect("seed and synthetic id spaces are disjoint");
    AppState::new(corpus)
}

/// An in-process server on an ephemeral port, drained on drop.
struct Running {
    addr: SocketAddr,
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Running {
    fn start(scale: f64) -> Running {
        let server = Server::bind("127.0.0.1:0", 4, state_at(scale)).expect("bind");
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

/// One keep-alive connection, so TCP setup is not timed.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    /// Mean per-request latency of `targets`, in µs.
    fn mean_latency_us(&mut self, targets: &[String]) -> f64 {
        let started = Instant::now();
        for target in targets {
            self.stream
                .write_all(format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes())
                .expect("write");
            let response = read_response(&mut self.reader).expect("response");
            assert_eq!(response.status, 200, "GET {target}");
        }
        started.elapsed().as_micros() as f64 / targets.len() as f64
    }
}

/// E11 at scale 0.01: a cold associate (a distinct filter spec per
/// request, so each misses the cache) costs more than a cache hit, and
/// the `cpssec load` cycle from 8 clients x 16 requests sees no error.
#[test]
#[ignore = "release-mode gate"]
fn e11_a_cache_hit_beats_recomputation_and_mixed_load_sees_no_error() {
    let _serial = serial();
    let server = Running::start(0.01);
    let rounds = 8;
    let cold_targets: Vec<String> = (0..rounds)
        .map(|i| format!("/models/scada/associate?minScore={}.{i}", i + 10))
        .collect();
    let hit_targets = vec!["/models/scada/associate".to_owned(); rounds];
    let mut client = Client::connect(server.addr);
    client.mean_latency_us(&hit_targets[..1]); // primes the cached entry
    let cold = client.mean_latency_us(&cold_targets);
    let hit = client.mean_latency_us(&hit_targets);
    println!("E11: cold {cold:.1} us/request, cache hit {hit:.1} us/request");
    assert!(
        cold > hit,
        "a cache hit must beat recomputation (cold {cold:.1} us vs hit {hit:.1} us)"
    );

    let report = load::run(&LoadConfig::new(server.addr.to_string(), 8, 16)).expect("load");
    println!("E11: 8-client mixed load: {}", report.summary());
    assert_eq!(report.errors(), 0, "load errors: {}", report.summary());
}

/// The routes `cpssec load` cycles through: the live series of a server
/// under load.
const ROUTES: [&str; 4] = [
    "GET /healthz",
    "GET /models/:id/associate",
    "GET /table1",
    "POST /models/:id/whatif",
];

/// E14 at scale 0.01: a telemetry tick with every route active costs
/// under 1% of its 1 s interval (10 ms), and a 12 h history query (720
/// one-minute points, rendered as the endpoint serves it) under 5 ms.
#[test]
#[ignore = "release-mode gate"]
fn e14_a_telemetry_tick_and_a_12h_history_query_stay_in_budget() {
    let _serial = serial();
    let state = state_at(0.01);
    for (i, route) in ROUTES.iter().enumerate() {
        for n in 0..32u64 {
            let us = 50 + n * (i as u64 + 1);
            state.metrics.record(route, 200, Duration::from_micros(us));
        }
    }
    let mut ts_ms: u64 = 1_000_000;
    state.telemetry_tick(ts_ms);

    // Fresh traffic on every route before each tick, so every
    // histogram changed since the previous one.
    let rounds = 200u32;
    let started = Instant::now();
    for _ in 0..rounds {
        for route in ROUTES {
            state.metrics.record(route, 200, Duration::from_micros(300));
        }
        ts_ms += 1_000;
        state.telemetry_tick(ts_ms);
    }
    let tick_us = started.elapsed().as_secs_f64() * 1e6 / f64::from(rounds);

    let store = &state.telemetry.store;
    for slot in 0..720u64 {
        store.push_at("gate:p99_us", 2, slot * 60_000, 1_000.0 + slot as f64);
    }
    let query_rounds = 500u32;
    let started = Instant::now();
    for _ in 0..query_rounds {
        std::hint::black_box(state.telemetry.history_json(&["gate:p99_us"], 2));
    }
    let json_us = started.elapsed().as_secs_f64() * 1e6 / f64::from(query_rounds);
    println!(
        "E14: tick over {} series {tick_us:.1} us, 12 h JSON query {json_us:.1} us",
        store.names().len()
    );
    assert!(
        tick_us < 10_000.0,
        "telemetry tick costs {tick_us:.0} us, over 1% of a 1 s interval"
    );
    assert!(
        json_us < 5_000.0,
        "12 h history query costs {json_us:.0} us, over the 5 ms bound"
    );
}

/// Requests per second of a closed-loop associate workload: 2 keep-alive
/// connections x 1,000 requests, sampled at `hz` when given.
fn closed_loop_rps(addr: SocketAddr, hz: Option<u64>) -> f64 {
    let sampler = hz.map(cpssec_obs::Sampler::start);
    let config = LoadConfig {
        mix: Mix::Associate,
        ..LoadConfig::new(addr.to_string(), 2, 1_000)
    };
    let report = load::run(&config).expect("load");
    assert_eq!(report.errors(), 0, "{}", report.summary());
    if let Some(sampler) = sampler {
        let graph = sampler.stop();
        assert!(graph.samples > 0, "the sampler must sample during the run");
    }
    report.throughput()
}

/// E19 at scale 0.05: with the sampler at 99 Hz the server keeps at
/// least 97% of its unsampled throughput (best of 5 paired rounds each,
/// passing if any of 3 attempts does, since one round on a shared core
/// can lose more than 3% to the scheduler alone), and a flight-recorder
/// event costs under 100 ns.
#[test]
#[ignore = "release-mode gate"]
fn e19_the_99hz_profiler_and_the_flight_recorder_stay_in_budget() {
    let _serial = serial();
    let server = Running::start(0.05);
    // Warm the caches and the pool so the first baseline round pays no
    // first-touch cost the sampled rounds avoid.
    closed_loop_rps(server.addr, None);
    let within_budget = (1..=3).any(|attempt| {
        let (mut off, mut on) = (0.0f64, 0.0f64);
        for _ in 0..5 {
            off = off.max(closed_loop_rps(server.addr, None));
            on = on.max(closed_loop_rps(server.addr, Some(99)));
        }
        println!(
            "E19 attempt {attempt}: 99 Hz {on:.0} vs {off:.0} req/s off ({:+.1}%)",
            100.0 * (off - on) / off.max(1e-9)
        );
        on >= 0.97 * off
    });
    drop(server);
    assert!(
        within_budget,
        "99 Hz overhead stayed over 3% across 3 attempts"
    );

    flight::set_enabled(true);
    let route = flight::label_id("GET /gate");
    let rounds = 1_000_000u64;
    let started = Instant::now();
    for i in 0..rounds {
        flight::event(
            flight::FlightKind::Request,
            std::hint::black_box(i),
            route << 16 | 200,
        );
    }
    let flight_ns = started.elapsed().as_nanos() as f64 / rounds as f64;
    println!("E19: flight event {flight_ns:.1} ns");
    assert!(
        flight_ns < 100.0,
        "a flight event must stay under 100 ns to be always-on ({flight_ns:.1} ns)"
    );
}
