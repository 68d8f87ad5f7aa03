//! Shed-path regressions for the admission-controlled reactor:
//!
//! - saturating a 2-deep per-route queue yields 429 + `Retry-After`
//!   (never a hang, never a 5xx), and the 429s are visible in
//!   `/metrics` as an exact `shed_total{...,reason="queue_full"}` delta;
//! - an SLO-tightened route sheds with `reason="slo_burn"` and recovers
//!   the moment the tightening lifts;
//! - a request in flight when shutdown begins (SIGTERM's flag) is
//!   served untruncated while the drain closes the connection after it.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cpssec_attackdb::seed::seed_corpus;
use cpssec_server::load::read_response;
use cpssec_server::{AppState, Server};

struct TestServer {
    addr: SocketAddr,
    state: Arc<AppState>,
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(workers: usize) -> TestServer {
        let server =
            Server::bind("127.0.0.1:0", workers, AppState::new(seed_corpus())).expect("bind");
        let addr = server.local_addr().expect("addr");
        let state = server.state();
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        TestServer {
            addr,
            state,
            flag,
            handle: Some(handle),
        }
    }

    fn get(&self, target: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
        let mut stream = TcpStream::connect(self.addr).expect("connect");
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
            .expect("send");
        let response = read_response(&mut BufReader::new(stream)).expect("response");
        (response.status, response.headers, response.body)
    }

    fn post(&self, target: &str) -> u16 {
        let mut stream = TcpStream::connect(self.addr).expect("connect");
        stream
            .write_all(format!("POST {target} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
            .expect("send");
        read_response(&mut BufReader::new(stream))
            .expect("response")
            .status
    }

    fn metrics(&self) -> String {
        let (status, _, body) = self.get("/metrics");
        assert_eq!(status, 200);
        String::from_utf8(body).expect("utf8 metrics")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.flag.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Sum of one `shed_total` counter family filtered by reason label.
fn shed_count(metrics: &str, reason: &str) -> u64 {
    metrics
        .lines()
        .filter(|l| l.starts_with("shed_total{") && l.contains(&format!("reason=\"{reason}\"")))
        .filter_map(|l| l.split_whitespace().last())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

#[test]
fn saturated_queue_sheds_429_with_retry_after() {
    let server = TestServer::start(1);
    server.state.admission.set_queue_depth(2);
    assert_eq!(server.post("/debug/delay?us=150000"), 200);
    let shed_before = shed_count(&server.metrics(), "queue_full");

    // Six concurrent requests against one 150 ms worker and a 2-deep
    // queue: at most two can be outstanding, the rest must be shed —
    // immediately, with 429 + Retry-After, not queued or hung.
    let outcomes: Vec<(u16, Vec<(String, String)>)> = std::thread::scope(|scope| {
        (0..6)
            .map(|_| {
                scope.spawn(|| {
                    let (status, headers, body) = server.get("/models/scada/associate");
                    assert!(!body.is_empty(), "every response carries a body");
                    (status, headers)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().expect("client"))
            .collect()
    });

    let ok = outcomes.iter().filter(|(s, _)| *s == 200).count();
    let shed = outcomes.iter().filter(|(s, _)| *s == 429).count();
    assert_eq!(ok + shed, 6, "only 200 or 429 leave a saturated server");
    assert!(ok >= 1, "admitted work still completes");
    assert!(shed >= 1, "a 2-deep queue under 6 concurrent must shed");
    for (status, headers) in &outcomes {
        if *status == 429 {
            let retry_after = headers
                .iter()
                .find(|(name, _)| name == "retry-after")
                .map(|(_, value)| value.as_str());
            assert_eq!(retry_after, Some("1"), "429s always carry Retry-After");
        }
    }

    // Exact ledger: the server counted precisely the sheds clients saw.
    assert_eq!(server.post("/debug/delay?us=0"), 200);
    let shed_after = shed_count(&server.metrics(), "queue_full");
    assert_eq!(
        shed_after - shed_before,
        shed as u64,
        "shed_total delta equals the client-observed 429s"
    );
}

#[test]
fn slo_tightening_sheds_then_recovers() {
    let server = TestServer::start(1);
    server.state.admission.set_queue_depth(4);
    // What telemetry_tick does when the burn-rate alert fires for a
    // route: tighten its budget (depth/4, floor 1).
    server
        .state
        .admission
        .set_tightened(vec!["GET /models/:id/associate".to_string()]);
    assert!(server
        .state
        .admission
        .is_tightened("GET /models/:id/associate"));
    assert_eq!(server.post("/debug/delay?us=150000"), 200);

    let outcomes: Vec<u16> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| scope.spawn(|| server.get("/models/scada/associate").0))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().expect("client"))
            .collect()
    });
    assert!(
        outcomes.contains(&429),
        "a tightened route under load sheds: {outcomes:?}"
    );
    let metrics = server.metrics();
    assert!(
        shed_count(&metrics, "slo_burn") > 0,
        "sheds under tightening are attributed to slo_burn: {metrics}"
    );

    // Alert resolves → telemetry_tick clears the tightening → full
    // admission restored: serial requests all succeed again.
    server.state.admission.set_tightened(Vec::new());
    assert!(!server
        .state
        .admission
        .is_tightened("GET /models/:id/associate"));
    assert_eq!(server.post("/debug/delay?us=0"), 200);
    for _ in 0..4 {
        let (status, _, _) = server.get("/models/scada/associate");
        assert_eq!(status, 200, "recovery restores full admission");
    }
}

#[test]
fn in_flight_request_completes_untruncated_through_drain() {
    let server = TestServer::start(2);
    assert_eq!(server.post("/debug/delay?us=200000"), 200);

    // Launch a slow request, then flip the shutdown flag (what SIGTERM
    // does) while it is still in the worker. The drain must let it
    // finish and deliver the complete body before closing.
    let addr = server.addr;
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /models/scada/associate HTTP/1.1\r\n\r\n")
            .expect("send");
        let response = read_response(&mut BufReader::new(stream)).expect("complete response");
        (response.status, response.body)
    });
    std::thread::sleep(std::time::Duration::from_millis(60));
    server.flag.store(true, Ordering::Relaxed);

    let (status, body) = client.join().expect("client");
    assert_eq!(status, 200, "in-flight work is served, not aborted");
    // `read_response` reads exactly Content-Length bytes, so a
    // successful read already proves untruncated delivery; check the
    // payload is the real rendering, not an error stub.
    let text = String::from_utf8(body).expect("utf8");
    assert!(
        text.contains("\"components\""),
        "drained response carries the full association JSON: {text}"
    );
}
