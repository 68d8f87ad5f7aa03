//! The reactor serves byte-identical responses to the router called
//! in-process — across the router surface, success and error paths,
//! keep-alive and close, under eight concurrent clients doing 200
//! requests each.
//!
//! The in-process reference does for each request what a blocking
//! per-connection loop would, minus the socket: parse the raw bytes with
//! [`http::read_request`], answer with [`router::dispatch`] on a state
//! over the same corpus, write with `Response::write_to(.., false)`, and
//! read the bytes back with [`read_response`]. The only per-request
//! bytes allowed to differ are the `X-Trace-Id` header (the reactor mints
//! a fresh id for every request by design) — the comparison strips it
//! and checks everything else: status line, header set, and body.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cpssec_attackdb::seed::seed_corpus;
use cpssec_server::load::read_response;
use cpssec_server::{http, router, AppState, Server};

struct TestServer {
    addr: SocketAddr,
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(workers: usize) -> TestServer {
        let state = AppState::new(seed_corpus());
        // `run` installs the process-wide panic hook: a failing assert must
        // write its flight dump outside the source tree.
        std::env::set_var("CPSSEC_FLIGHT_DIR", std::env::temp_dir());
        let server = Server::bind("127.0.0.1:0", workers, state).expect("bind");
        let addr = server.local_addr().expect("addr");
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        TestServer {
            addr,
            flag,
            handle: Some(handle),
        }
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

/// A response with the per-request trace id stripped: everything that
/// must match between the reactor and the in-process reference, byte
/// for byte.
#[derive(Debug, PartialEq, Eq)]
struct Comparable {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

fn comparable(status: u16, headers: Vec<(String, String)>, body: Vec<u8>) -> Comparable {
    Comparable {
        status,
        headers: headers
            .into_iter()
            .filter(|(name, _)| name != "x-trace-id")
            .collect(),
        body,
    }
}

const WHATIF_BODY: &str = r#"{"changes":[{"op":"replace","component":"Programming WS","key":"os","kind":"os","value":"hardened thin client image","atFidelity":"implementation"},{"op":"remove","component":"Programming WS","key":"software","value":"Labview"}]}"#;

/// The mixed workload: every deterministic route family, plus error
/// paths (404/400/405/413-free — body-size limits are covered in unit
/// tests). `/metrics` is deliberately absent: its counters depend on
/// request interleaving, not on how a request is served.
fn workload() -> Vec<Vec<u8>> {
    let get = |target: &str| format!("GET {target} HTTP/1.1\r\n\r\n").into_bytes();
    let post = |target: &str, body: &str| {
        format!(
            "POST {target} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    };
    vec![
        get("/healthz"),
        get("/table1"),
        get("/models"),
        get("/models/scada/associate"),
        get("/models/scada/associate?fidelity=conceptual&scoring=bm25&topK=2"),
        post("/models/scada/whatif", WHATIF_BODY),
        get("/vulns?q=buffer%20overflow&limit=3"),
        get("/models/ghost/associate"),
        get("/models/scada/associate?fidelity=quantum"),
        get("/no/such/endpoint"),
        b"DELETE /healthz HTTP/1.1\r\n\r\n".to_vec(),
        post("/models/scada/whatif", "{\"changes\":[{\"op\":\"warp\"}]}"),
    ]
}

/// Runs `count` keep-alive requests (cycling the workload, offset by
/// `lane`) over one connection and returns the comparable responses.
fn run_lane(addr: SocketAddr, lane: usize, count: usize) -> Vec<Comparable> {
    let requests = workload();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut out = Vec::with_capacity(count);
    for round in 0..count {
        let request = &requests[(lane + round) % requests.len()];
        stream.write_all(request).expect("send");
        let response = read_response(&mut reader).expect("response");
        out.push(comparable(response.status, response.headers, response.body));
    }
    out
}

/// The response the router gives `raw` in-process, through the same
/// parse, write and read-back steps a socket exchange takes.
fn in_process(state: &AppState, raw: &[u8]) -> Comparable {
    let request = http::read_request(&mut &raw[..])
        .expect("parse")
        .expect("one request");
    let (_route, response) = router::dispatch(state, &request);
    let mut bytes = Vec::new();
    response.write_to(&mut bytes, false).expect("write");
    let response = read_response(&mut &bytes[..]).expect("read back");
    comparable(response.status, response.headers, response.body)
}

#[test]
fn reactor_matches_in_process_dispatch_across_the_router_surface() {
    let server = TestServer::start(4);
    let served: Vec<Vec<Comparable>> = std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..8)
            .map(|lane| scope.spawn(move || run_lane(server.addr, lane, 200)))
            .collect();
        lanes.into_iter().map(|l| l.join().expect("lane")).collect()
    });
    let state = AppState::new(seed_corpus());
    let requests = workload();
    assert_eq!(served.len(), 8);
    for (lane, responses) in served.iter().enumerate() {
        assert_eq!(responses.len(), 200, "lane {lane} response count");
        for (round, response) in responses.iter().enumerate() {
            let expected = in_process(&state, &requests[(lane + round) % requests.len()]);
            assert_eq!(
                response, &expected,
                "lane {lane} round {round}: reactor and in-process responses diverge"
            );
        }
    }
}

#[test]
fn connection_close_is_honored() {
    // `Connection: close` must terminate the exchange: the response
    // announces the close, and the server, not the client, closes.
    let server = TestServer::start(2);
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader).expect("response");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("connection"), Some("close"));
    let eof = read_response(&mut reader);
    assert!(eof.is_err(), "the connection was left open");
}
