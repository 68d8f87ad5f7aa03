//! Release-mode gate for the serving core: E18's capacity, overload and
//! recovery phases, driven by the open-loop load client.
//!
//! `#[ignore]`d because its bounds only mean something in an optimized
//! build. Run it with
//! `cargo test --release -p cpssec-cli --test release_gates -- --ignored`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;

use cpssec_attackdb::seed::seed_corpus;
use cpssec_attackdb::synth::{generate, SynthSpec};
use cpssec_server::load::{read_response, run, Arrivals, LoadConfig, LoadReport, Mix};
use cpssec_server::{AppState, Server};

/// Connections of the capacity phase. The full E18 run of EXPERIMENTS
/// sets 10,000 (at 5 requests each and 8,000 requests/s).
const CONNECTIONS: usize = 1_000;

/// A `cpssec serve` child on an ephemeral port: the server's descriptors
/// live in another process than the client's. Returns the child, its
/// address and the thread draining its stdout.
fn spawn_server() -> (Child, String, JoinHandle<std::io::Result<u64>>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cpssec"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "8",
            "--scale",
            "0.01",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cpssec serve");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout"));
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("read banner");
    let addr = banner
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_owned();
    // Keep draining stdout so a full pipe can never wedge the child.
    let drain = std::thread::spawn(move || std::io::copy(&mut reader, &mut std::io::sink()));
    (child, addr, drain)
}

fn request(addr: SocketAddr, line: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("send");
    let response = read_response(&mut BufReader::new(stream)).expect("response");
    let body = String::from_utf8_lossy(&response.body).into_owned();
    (response.status, body)
}

fn shed_total(addr: SocketAddr) -> u64 {
    let (status, metrics) = request(addr, "GET /metrics");
    assert_eq!(status, 200);
    metrics
        .lines()
        .filter(|l| l.starts_with("shed_total{"))
        .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
        .sum()
}

fn assert_clean(report: &LoadReport, phase: &str) {
    let summary = report.summary();
    assert_eq!(report.server_errors, 0, "{phase}: never a 5xx ({summary})");
    assert_eq!(
        report.transport_errors, 0,
        "{phase}: no lost connection ({summary})"
    );
}

/// E18 at scale 0.01.
/// - Capacity: 1,000 keep-alive connections x 4 requests of the dashboard
///   mix at 4,000/s against a `cpssec serve` child. Every connection is
///   established; no 5xx, transport error or shed; p99 from the scheduled
///   send time at most 250 ms.
/// - Overload: a 2-deep queue and a 40 ms handler delay under 64 x 8
///   associate requests at 2,000/s. Load is shed with 429, never a 5xx,
///   and `shed_total` grows by at least the sheds the client saw.
/// - Recovery: delay cleared and the default queue depth restored, 64 x 4
///   at 200/s shed nothing, and `shed_total` never moves backwards.
#[test]
#[ignore = "release-mode gate"]
fn e18_the_serving_core_holds_capacity_sheds_overload_and_recovers() {
    let (mut child, addr, drain) = spawn_server();
    let capacity = run(&LoadConfig {
        arrivals: Arrivals::Open(4_000.0),
        mix: Mix::Dashboards,
        ..LoadConfig::new(addr, CONNECTIONS, 4)
    })
    .expect("capacity run");
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
    assert!(child.wait().expect("serve exit").success());
    drain.join().expect("drain thread").expect("drain stdout");
    println!("E18 capacity: {}", capacity.summary());
    assert_eq!(
        capacity.established, CONNECTIONS,
        "every connection must establish"
    );
    assert_clean(&capacity, "capacity");
    assert_eq!(
        capacity.shed, 0,
        "the capacity run is under the default limits"
    );
    let p99 = capacity.latency.quantile_us(0.99);
    assert!(
        p99 <= 250_000,
        "capacity p99 {p99} µs blew the 250,000 µs budget"
    );

    let mut corpus = seed_corpus();
    corpus
        .merge(generate(&SynthSpec::paper2020(2020, 0.01)))
        .expect("seed and synthetic id spaces are disjoint");
    let server = Server::bind("127.0.0.1:0", 4, AppState::new(corpus)).expect("bind");
    let addr = server.local_addr().expect("addr");
    let state = server.state();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let associate = |connections, requests, rate| LoadConfig {
        arrivals: Arrivals::Open(rate),
        mix: Mix::Associate,
        ..LoadConfig::new(addr.to_string(), connections, requests)
    };

    state.admission.set_queue_depth(2);
    assert_eq!(request(addr, "POST /debug/delay?us=40000").0, 200);
    let shed_before = shed_total(addr);
    let overload = run(&associate(64, 8, 2_000.0)).expect("overload run");
    println!("E18 overload: {}", overload.summary());
    assert_clean(&overload, "overload");
    assert!(
        overload.shed > 0,
        "a 2-deep queue at 2,000 req/s against 40 ms handlers must shed ({})",
        overload.summary()
    );
    let shed_after = shed_total(addr);
    assert!(
        shed_after >= shed_before + overload.shed,
        "shed_total counts every shed (before {shed_before}, after {shed_after}, client saw {})",
        overload.shed
    );

    assert_eq!(request(addr, "POST /debug/delay?us=0").0, 200);
    state
        .admission
        .set_queue_depth(cpssec_server::admission::DEFAULT_QUEUE_DEPTH);
    let recovery = run(&associate(64, 4, 200.0)).expect("recovery run");
    println!("E18 recovery: {}", recovery.summary());
    assert_clean(&recovery, "recovery");
    assert_eq!(
        recovery.shed,
        0,
        "with the overload gone, admission must be fully restored ({})",
        recovery.summary()
    );
    assert!(
        shed_total(addr) >= shed_after,
        "shed counters never move backwards"
    );
    flag.store(true, Ordering::Relaxed);
    handle.join().expect("server thread");
}
