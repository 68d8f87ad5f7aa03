//! Trace-id correlation must survive both the served path and the shed
//! path. A 429 minted by the reactor's admission check happens before
//! any worker runs, but it still must honor an inbound `traceparent`,
//! answer with `X-Trace-Id`, and leave a reconstructable entry at
//! `GET /debug/requests/:id` — the shed is exactly the moment an
//! operator needs the correlation.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cpssec_attackdb::json::{parse as parse_json, JsonValue};
use cpssec_attackdb::seed::seed_corpus;
use cpssec_server::load::{read_response, WireResponse};
use cpssec_server::{AppState, Server};

struct TestServer {
    addr: SocketAddr,
    state: Arc<AppState>,
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(workers: usize) -> TestServer {
        // `run` installs the process-wide panic hook: a failing assert must
        // write its flight dump outside the source tree.
        std::env::set_var("CPSSEC_FLIGHT_DIR", std::env::temp_dir());
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

    fn send(&self, method: &str, target: &str, headers: &[&str]) -> WireResponse {
        let mut stream = TcpStream::connect(self.addr).expect("connect");
        let mut request = format!("{method} {target} HTTP/1.1\r\nConnection: close\r\n");
        for header in headers {
            request.push_str(header);
            request.push_str("\r\n");
        }
        request.push_str("\r\n");
        stream.write_all(request.as_bytes()).expect("send");
        read_response(&mut BufReader::new(stream)).expect("response")
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

fn detail(server: &TestServer, id: &str) -> JsonValue {
    let response = server.send("GET", &format!("/debug/requests/{id}"), &[]);
    assert_eq!(response.status, 200, "/debug/requests/{id} not found");
    parse_json(std::str::from_utf8(&response.body).expect("utf8")).expect("json")
}

#[test]
fn debug_requests_resolves_the_trace_id_of_a_served_request() {
    let server = TestServer::start(2);
    let sent_id = "1af7651916cd43dd8448eb211c80319c";
    let response = server.send(
        "GET",
        "/models/scada/associate",
        &[&format!("traceparent: 00-{sent_id}-b7ad6b7169203331-01")],
    );
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("x-trace-id"),
        Some(sent_id),
        "the caller's trace id must be echoed"
    );
    let entry = detail(&server, sent_id);
    assert_eq!(
        entry.get("route").and_then(JsonValue::as_str),
        Some("GET /models/:id/associate")
    );
    assert_eq!(entry.get("remote_parent"), Some(&JsonValue::Bool(true)));
}

#[test]
fn reactor_shed_429_keeps_the_trace_id_and_logs_the_request() {
    let server = TestServer::start(1);
    // Hold the route's only admission slot from the test itself: every
    // request on the route now sheds deterministically, no racing
    // clients needed.
    server.state.admission.set_queue_depth(1);
    let route = "GET /models/:id/associate";
    let _held = server.state.admission.try_admit(route).expect("hold slot");

    // Caller-supplied traceparent survives the shed.
    let sent_id = "2af7651916cd43dd8448eb211c80319c";
    let response = server.send(
        "GET",
        "/models/scada/associate",
        &[&format!("traceparent: 00-{sent_id}-b7ad6b7169203331-01")],
    );
    assert_eq!(response.status, 429);
    assert_eq!(
        response.header("x-trace-id"),
        Some(sent_id),
        "the 429 minted before any worker ran must echo the caller's id"
    );
    let entry = detail(&server, sent_id);
    assert_eq!(
        entry.get("status"),
        Some(&JsonValue::Number(429.0)),
        "entry: {entry:?}"
    );
    assert_eq!(entry.get("route").and_then(JsonValue::as_str), Some(route));
    assert_eq!(entry.get("remote_parent"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        entry
            .get("annotations")
            .and_then(|a| a.get("shed"))
            .and_then(JsonValue::as_str),
        Some("queue_full"),
        "the shed reason is recorded: {entry:?}"
    );

    // Without a traceparent the shed still mints a retrievable id.
    let response = server.send("GET", "/models/scada/associate", &[]);
    assert_eq!(response.status, 429);
    let minted = response.header("x-trace-id").expect("minted id").to_owned();
    assert_eq!(minted.len(), 32);
    assert_ne!(minted, "0".repeat(32));
    let entry = detail(&server, &minted);
    assert_eq!(entry.get("status"), Some(&JsonValue::Number(429.0)));
    assert_eq!(entry.get("remote_parent"), Some(&JsonValue::Bool(false)));
}
