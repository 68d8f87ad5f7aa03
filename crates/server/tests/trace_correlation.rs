//! End-to-end request correlation: a caller-supplied `traceparent` (or a
//! server-minted id) must link the response header, the request log
//! (`/debug/requests/:id` and `/debug/slow`), and the exported Chrome
//! trace — and a pooled worker thread serving request B after a slow
//! request A must not leak A's stage breakdown into B.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cpssec_attackdb::json::{parse as parse_json, JsonValue};
use cpssec_model::{Attribute, AttributeKind, ComponentKind, SystemModelBuilder};
use cpssec_server::load::{read_response, WireResponse};
use cpssec_server::{AppState, Server};

fn start_server(workers: usize) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    // `run` installs the process-wide panic hook: a failing assert must
    // write its flight dump outside the source tree.
    std::env::set_var("CPSSEC_FLIGHT_DIR", std::env::temp_dir());
    let state = AppState::new(cpssec_attackdb::seed::seed_corpus());
    let server = Server::bind("127.0.0.1:0", workers, state).unwrap();
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, flag, handle)
}

/// One request on a fresh connection; extra headers are raw lines.
fn send(addr: SocketAddr, method: &str, target: &str, headers: &[&str]) -> WireResponse {
    send_body(addr, method, target, headers, "")
}

fn send_body(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[&str],
    body: &str,
) -> WireResponse {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut request = format!(
        "{method} {target} HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n",
        body.len()
    );
    for header in headers {
        request.push_str(header);
        request.push_str("\r\n");
    }
    request.push_str("\r\n");
    request.push_str(body);
    stream.write_all(request.as_bytes()).unwrap();
    read_response(&mut BufReader::new(stream)).unwrap()
}

fn stages_of(entry: &JsonValue) -> Vec<String> {
    entry
        .get("stages")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|s| {
            s.get("stage")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_owned()
        })
        .collect()
}

#[test]
fn traceparent_is_honored_and_reconstructable() {
    // Tracing on: the exported Chrome trace must carry the same id.
    let recorder = cpssec_obs::recorder();
    recorder.enable_spans();
    recorder.enable_trace();
    let (addr, flag, handle) = start_server(2);

    let sent_id = "0af7651916cd43dd8448eb211c80319c";
    let response = send(
        addr,
        "GET",
        "/models/scada/associate",
        &[&format!("traceparent: 00-{sent_id}-b7ad6b7169203331-01")],
    );
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-trace-id"), Some(sent_id));

    // /debug/requests/:id reconstructs the full stage breakdown.
    let detail = send(addr, "GET", &format!("/debug/requests/{sent_id}"), &[]);
    assert_eq!(detail.status, 200);
    let entry = parse_json(std::str::from_utf8(&detail.body).unwrap()).unwrap();
    assert_eq!(
        entry.get("trace_id").and_then(JsonValue::as_str),
        Some(sent_id)
    );
    assert_eq!(entry.get("remote_parent"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        entry.get("route").and_then(JsonValue::as_str),
        Some("GET /models/:id/associate")
    );
    let stages = stages_of(&entry);
    assert!(
        stages.iter().any(|s| s == "serve-request"),
        "stages: {stages:?}"
    );
    assert!(
        entry.get("total_us").is_some() && entry.get("annotations").is_some(),
        "entry: {entry:?}"
    );

    // The same id appears in the --trace export.
    let trace = recorder.trace_json();
    assert!(
        trace.contains(sent_id),
        "trace export missing the request's trace id"
    );

    // A malformed traceparent is ignored: the server mints its own.
    let response = send(
        addr,
        "GET",
        "/healthz",
        &["traceparent: 00-zzzz-b7ad6b7169203331-01"],
    );
    let minted = response.header("x-trace-id").unwrap().to_owned();
    assert_eq!(minted.len(), 32);
    assert_ne!(minted, "0".repeat(32));
    assert_ne!(minted, sent_id);
    let detail = send(addr, "GET", &format!("/debug/requests/{minted}"), &[]);
    assert_eq!(detail.status, 200);
    let entry = parse_json(std::str::from_utf8(&detail.body).unwrap()).unwrap();
    assert_eq!(entry.get("remote_parent"), Some(&JsonValue::Bool(false)));

    // Unknown (evicted or never seen) ids are a 404, junk is a 400.
    assert_eq!(
        send(
            addr,
            "GET",
            &format!("/debug/requests/{}", "f".repeat(32)),
            &[]
        )
        .status,
        404
    );
    assert_eq!(send(addr, "GET", "/debug/requests/nothex", &[]).status, 400);

    flag.store(true, Ordering::Relaxed);
    handle.join().unwrap();
}

#[test]
fn worker_reuse_does_not_leak_stage_breakdowns_between_requests() {
    // One worker: every request is served by the same thread, so request
    // B reuses the exact thread that just served slow request A.
    let (addr, flag, handle) = start_server(1);

    assert_eq!(
        send(addr, "POST", "/debug/delay?us=120000", &[]).status,
        200
    );
    let slow = send(addr, "GET", "/models/scada/associate", &[]);
    assert_eq!(slow.status, 200);
    let slow_id = slow.header("x-trace-id").unwrap().to_owned();

    assert_eq!(send(addr, "POST", "/debug/delay?us=0", &[]).status, 200);
    let fast = send(addr, "GET", "/healthz", &[]);
    assert_eq!(fast.status, 200);
    let fast_id = fast.header("x-trace-id").unwrap().to_owned();

    let detail = send(addr, "GET", &format!("/debug/requests/{slow_id}"), &[]);
    let slow_entry = parse_json(std::str::from_utf8(&detail.body).unwrap()).unwrap();
    let slow_stages = stages_of(&slow_entry);
    assert!(
        slow_stages.iter().any(|s| s == "test-delay"),
        "slow request should carry the induced delay stage: {slow_stages:?}"
    );

    let detail = send(addr, "GET", &format!("/debug/requests/{fast_id}"), &[]);
    let fast_entry = parse_json(std::str::from_utf8(&detail.body).unwrap()).unwrap();
    let fast_stages = stages_of(&fast_entry);
    assert!(
        !fast_stages.iter().any(|s| s == "test-delay"),
        "request B leaked request A's stage breakdown: {fast_stages:?}"
    );
    assert!(
        fast_stages.iter().any(|s| s == "serve-request"),
        "fast stages: {fast_stages:?}"
    );

    // The slow request (120 ms > the 100 ms threshold) is also listed
    // at /debug/slow with the same trace id.
    let slow_log = send(addr, "GET", "/debug/slow", &[]);
    let body = std::str::from_utf8(&slow_log.body).unwrap();
    assert!(body.contains(&slow_id), "slow log missing trace id: {body}");

    flag.store(true, Ordering::Relaxed);
    handle.join().unwrap();
}

#[test]
fn breakdown_of_a_wide_model_keeps_its_root_stages() {
    // 25 components: one associate completes more than 64 spans. The
    // parents complete last, so a breakdown that kept the first 64 would
    // lose `associate` and `serve-request`.
    let (addr, flag, handle) = start_server(1);
    let mut builder = SystemModelBuilder::new("wide");
    for i in 0..25 {
        builder = builder.component_with(format!("plc-{i}"), ComponentKind::Controller, |c| {
            c.with_attribute(Attribute::new(AttributeKind::OperatingSystem, "Windows 7"))
        });
    }
    let graphml = cpssec_model::to_graphml(&builder.build().unwrap());
    let upload = send_body(addr, "POST", "/models?id=wide", &[], &graphml);
    assert_eq!(
        upload.status,
        201,
        "{:?}",
        std::str::from_utf8(&upload.body)
    );

    let response = send(addr, "GET", "/models/wide/associate", &[]);
    assert_eq!(response.status, 200);
    let id = response.header("x-trace-id").unwrap().to_owned();
    let detail = send(addr, "GET", &format!("/debug/requests/{id}"), &[]);
    let entry = parse_json(std::str::from_utf8(&detail.body).unwrap()).unwrap();
    let stages = stages_of(&entry);
    for root in ["serve-request", "associate"] {
        assert!(
            stages.iter().any(|s| s == root),
            "{root} missing: {stages:?}"
        );
    }
    assert!(stages.len() <= 64, "{} stages", stages.len());

    flag.store(true, Ordering::Relaxed);
    handle.join().unwrap();
}
