//! The served responses are byte for byte what the single-threaded
//! pipeline produces — sequentially, under eight concurrent clients, and
//! across fidelity/scoring/filter knobs. Determinism is the repo's
//! north-star invariant; a concurrent front-end must not bend it.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cpssec_analysis::render::{association_json, whatif_json};
use cpssec_analysis::{whatif, AssociationMap, SystemPosture};
use cpssec_attackdb::seed::seed_corpus;
use cpssec_attackdb::Severity;
use cpssec_model::{Attribute, AttributeKind, Fidelity};
use cpssec_scada::model::{names, scada_model};
use cpssec_search::{Filter, FilterPipeline, ScoringModel, SearchEngine};
use cpssec_server::load::read_response;
use cpssec_server::{AppState, Server};

struct TestServer {
    addr: SocketAddr,
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(workers: usize) -> TestServer {
        Self::start_with(workers, AppState::new(seed_corpus()))
    }

    /// Boots a server from a `.cpsnap` image (decoded before the boot
    /// returns) instead of building from the corpus.
    fn start_from_snapshot(workers: usize) -> TestServer {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let bytes = cpssec_search::snapshot::encode(&corpus, &engine);
        let state = AppState::from_snapshot_mapped(bytes.into()).expect("open");
        Self::start_with(workers, state)
    }

    fn start_with(workers: usize, state: Arc<AppState>) -> TestServer {
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

    fn get(&self, target: &str) -> (u16, Vec<u8>) {
        self.send(&format!(
            "GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n"
        ))
    }

    fn post(&self, target: &str, body: &str) -> (u16, Vec<u8>) {
        self.send(&format!(
            "POST {target} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ))
    }

    fn send(&self, raw: &str) -> (u16, Vec<u8>) {
        let mut stream = TcpStream::connect(self.addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("write");
        let response = read_response(&mut BufReader::new(stream)).expect("response");
        (response.status, response.body)
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

/// The direct (no-server) association rendering for the scada model.
fn direct_association(
    fidelity: Fidelity,
    scoring: ScoringModel,
    filters: &FilterPipeline,
) -> String {
    let corpus = seed_corpus();
    let engine = SearchEngine::build(&corpus).with_scoring(scoring);
    let model = scada_model();
    let map = AssociationMap::build(&model, &engine, &corpus, fidelity, filters);
    let posture = SystemPosture::compute(&model, &corpus, &map);
    association_json(&model, &map, &posture).to_text()
}

const WHATIF_BODY: &str = r#"{"changes":[{"op":"replace","component":"Programming WS","key":"os","kind":"os","value":"hardened thin client image","atFidelity":"implementation"},{"op":"remove","component":"Programming WS","key":"software","value":"Labview"}]}"#;

/// The direct what-if rendering for the same edit `WHATIF_BODY` encodes.
fn direct_whatif() -> String {
    direct_whatif_with(&FilterPipeline::new())
}

/// [`direct_whatif`] under a filter pipeline.
fn direct_whatif_with(filters: &FilterPipeline) -> String {
    let corpus = seed_corpus();
    let engine = SearchEngine::build(&corpus);
    let model = scada_model();
    let changes = vec![
        cpssec_analysis::ModelChange::ReplaceAttribute {
            component: names::WORKSTATION.into(),
            key: "os".into(),
            with: Attribute::new(AttributeKind::OperatingSystem, "hardened thin client image")
                .at_fidelity(Fidelity::Implementation),
        },
        cpssec_analysis::ModelChange::RemoveAttribute {
            component: names::WORKSTATION.into(),
            key: "software".into(),
            value: "Labview".into(),
        },
    ];
    let report = whatif::evaluate(
        &model,
        &changes,
        &engine,
        &corpus,
        Fidelity::Implementation,
        filters,
    )
    .expect("evaluate");
    whatif_json(model.name(), Fidelity::Implementation, &report).to_text()
}

#[test]
fn associate_is_byte_identical_to_the_direct_pipeline() {
    let server = TestServer::start(2);
    let expected = direct_association(
        Fidelity::Implementation,
        ScoringModel::TfIdf,
        &FilterPipeline::new(),
    );
    // Twice: the second response comes from the result cache and must not
    // differ by a byte either.
    for _ in 0..2 {
        let (status, body) = server.get("/models/scada/associate");
        assert_eq!(status, 200);
        assert_eq!(body, expected.as_bytes());
    }
}

#[test]
fn knobs_stay_byte_identical() {
    let server = TestServer::start(2);
    let filters = FilterPipeline::new().then(Filter::TopKPerFamily(2));
    let expected = direct_association(Fidelity::Conceptual, ScoringModel::Bm25, &filters);
    let (status, body) =
        server.get("/models/scada/associate?fidelity=conceptual&scoring=bm25&topK=2");
    assert_eq!(status, 200);
    assert_eq!(body, expected.as_bytes());
}

#[test]
fn whatif_is_byte_identical_to_the_direct_pipeline() {
    let server = TestServer::start(2);
    let expected = direct_whatif();
    // Cold (computes incrementally from the cached prior) then warm (the
    // response cache): both byte-identical to the batch path.
    for _ in 0..2 {
        let (status, body) = server.post("/models/scada/whatif", WHATIF_BODY);
        assert_eq!(status, 200);
        assert_eq!(body, expected.as_bytes());
    }
}

#[test]
fn eight_concurrent_clients_see_identical_bytes() {
    let server = TestServer::start(4);
    let expected_assoc = direct_association(
        Fidelity::Implementation,
        ScoringModel::TfIdf,
        &FilterPipeline::new(),
    );
    let expected_whatif = direct_whatif();
    std::thread::scope(|scope| {
        for client in 0..8 {
            let server = &server;
            let expected_assoc = &expected_assoc;
            let expected_whatif = &expected_whatif;
            scope.spawn(move || {
                for round in 0..4 {
                    if (client + round) % 2 == 0 {
                        let (status, body) = server.get("/models/scada/associate");
                        assert_eq!(status, 200);
                        assert_eq!(
                            body,
                            expected_assoc.as_bytes(),
                            "client {client} round {round}"
                        );
                    } else {
                        let (status, body) = server.post("/models/scada/whatif", WHATIF_BODY);
                        assert_eq!(status, 200);
                        assert_eq!(
                            body,
                            expected_whatif.as_bytes(),
                            "client {client} round {round}"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn uploaded_model_is_served_from_its_own_content_hash() {
    let server = TestServer::start(2);
    // Upload the same scada model under a different id: same bytes out.
    let graphml = cpssec_model::to_graphml(&scada_model());
    let (status, body) = server.post("/models?id=copy", &graphml);
    assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"id\":\"copy\""), "{text}");
    assert!(text.contains("\"components\":8"), "{text}");

    let expected = direct_association(
        Fidelity::Implementation,
        ScoringModel::TfIdf,
        &FilterPipeline::new(),
    );
    let (status, body) = server.get("/models/copy/associate");
    assert_eq!(status, 200);
    assert_eq!(body, expected.as_bytes());
}

#[test]
fn error_paths_speak_json() {
    let server = TestServer::start(1);
    let (status, body) = server.get("/models/ghost/associate");
    assert_eq!(status, 404);
    assert!(String::from_utf8(body).unwrap().contains("ghost"));

    let (status, body) = server.get("/models/scada/associate?fidelity=quantum");
    assert_eq!(status, 400);
    assert!(String::from_utf8(body).unwrap().contains("quantum"));

    let (status, body) = server.post(
        "/models/scada/whatif",
        "{\"changes\":[{\"op\":\"warp\",\"component\":\"x\"}]}",
    );
    assert_eq!(status, 400);
    assert!(String::from_utf8(body).unwrap().contains("warp"));

    let (status, _) = server.post("/models?id=bad", "<not-graphml");
    assert_eq!(status, 400);
}

#[test]
fn metrics_report_traffic_and_cache_hits() {
    let server = TestServer::start(2);
    for _ in 0..3 {
        let (status, _) = server.get("/models/scada/associate");
        assert_eq!(status, 200);
    }
    let (status, body) = server.get("/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(
        text.contains("requests_total{route=\"GET /models/:id/associate\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("cache_hits_total{cache=\"responses\"} 2"),
        "{text}"
    );
    assert!(text.contains("cache_hit_ratio"), "{text}");
    assert!(text.contains("latency_us_bucket"), "{text}");
}

#[test]
fn snapshot_thawed_server_is_byte_identical_to_the_direct_pipeline() {
    let server = TestServer::start_from_snapshot(2);

    // Default knobs and the bm25/conceptual/topK variant: the decoded
    // index under both scoring models must reproduce the direct pipeline
    // byte for byte.
    let expected = direct_association(
        Fidelity::Implementation,
        ScoringModel::TfIdf,
        &FilterPipeline::new(),
    );
    let (status, body) = server.get("/models/scada/associate");
    assert_eq!(status, 200);
    assert_eq!(body, expected.as_bytes());

    let filters = FilterPipeline::new().then(Filter::TopKPerFamily(2));
    let expected = direct_association(Fidelity::Conceptual, ScoringModel::Bm25, &filters);
    let (status, body) =
        server.get("/models/scada/associate?fidelity=conceptual&scoring=bm25&topK=2");
    assert_eq!(status, 200);
    assert_eq!(body, expected.as_bytes());

    // The severity filters read the severity column of the mapped family
    // sections; the direct pipeline builds its own. The router applies
    // `topK` before `severity`.
    let unfiltered = direct_association(
        Fidelity::Implementation,
        ScoringModel::TfIdf,
        &FilterPipeline::new(),
    );
    for (query, filters) in [
        (
            "severity=high",
            FilterPipeline::new().then(Filter::SeverityAtLeast(Severity::High)),
        ),
        (
            "severity=critical&topK=5",
            FilterPipeline::new()
                .then(Filter::TopKPerFamily(5))
                .then(Filter::SeverityAtLeast(Severity::Critical)),
        ),
    ] {
        let expected = direct_association(Fidelity::Implementation, ScoringModel::TfIdf, &filters);
        assert_ne!(expected, unfiltered, "{query} filters something");
        let (status, body) = server.get(&format!(
            "/models/scada/associate?fidelity=implementation&{query}"
        ));
        assert_eq!(status, 200, "{query}");
        assert_eq!(body, expected.as_bytes(), "{query}");
    }
    let filters = FilterPipeline::new().then(Filter::SeverityAtLeast(Severity::High));
    let expected = direct_whatif_with(&filters);
    assert_ne!(expected, direct_whatif());
    let (status, body) = server.post("/models/scada/whatif?severity=high", WHATIF_BODY);
    assert_eq!(status, 200);
    assert_eq!(body, expected.as_bytes());

    // The warm start is visible in /metrics as a snapshot hit.
    let (status, body) = server.get("/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(
        text.contains("snapshot_loads_total{result=\"hit\"} 1"),
        "{text}"
    );
    assert!(text.contains("index_load_us"), "{text}");
}

#[test]
fn table1_matches_the_dashboard_rendering() {
    let server = TestServer::start(1);
    let mut dashboard = cpssec_core::prelude::Dashboard::new(seed_corpus(), scada_model());
    dashboard.set_fidelity(Fidelity::Implementation);
    let expected = dashboard.table_text();
    let (status, body) = server.get("/table1");
    assert_eq!(status, 200);
    assert_eq!(body, expected.as_bytes());
}

#[test]
fn shutdown_drains_in_flight_work() {
    let server = TestServer::start(2);
    // Issue a request, flip the flag mid-life, then confirm the join in
    // Drop completes (the test would hang otherwise) after one last
    // response is served from a fresh connection before the listener
    // notices the flag.
    let (status, _) = server.get("/models/scada/associate");
    assert_eq!(status, 200);
    drop(server); // Drop sets the flag and joins the accept loop + pool.
}
