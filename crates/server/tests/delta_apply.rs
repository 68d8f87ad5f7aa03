//! Live corpus growth over HTTP: a server booted from a mapped
//! `.cpsnap` image answers immediately, accepts `.cpsdelta` batches on
//! `POST /corpus/delta` without an index rebuild, rejects stale or
//! replayed parents with 409, and compacts (verified byte-identical to
//! a rebuild) every K-th apply.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cpssec_attackdb::seed::seed_corpus;
use cpssec_attackdb::{synth, AttackVectorId, CveId};
use cpssec_model::fnv1a_64_wide;
use cpssec_search::delta::DELTA_MAGIC;
use cpssec_search::{build_delta, ScoringModel, SearchEngine};
use cpssec_server::load::read_response;
use cpssec_server::{AppState, Server, COMPACTION_EVERY};

struct TestServer {
    addr: SocketAddr,
    state: Arc<AppState>,
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(state: Arc<AppState>) -> TestServer {
        let server = Server::bind("127.0.0.1:0", 2, Arc::clone(&state)).expect("bind");
        let addr = server.local_addr().expect("addr");
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        TestServer {
            addr,
            state,
            flag,
            handle: Some(handle),
        }
    }

    fn get(&self, target: &str) -> (u16, Vec<u8>) {
        let head = format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n");
        self.send(head.as_bytes(), &[])
    }

    fn post_bytes(&self, target: &str, body: &[u8]) -> (u16, Vec<u8>) {
        let head = format!(
            "POST {target} HTTP/1.1\r\nContent-Type: application/octet-stream\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        self.send(head.as_bytes(), body)
    }

    fn send(&self, head: &[u8], body: &[u8]) -> (u16, Vec<u8>) {
        let mut stream = TcpStream::connect(self.addr).expect("connect");
        stream.write_all(head).expect("write head");
        stream.write_all(body).expect("write body");
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

/// Recomputes the payload checksum of an edited delta, as any client
/// can, so the edit reaches the decoder.
fn reseal(bytes: &mut [u8]) {
    // Header: magic, version u16, parent id u64, then the checksum.
    let at = DELTA_MAGIC.len() + 2 + 8;
    if bytes.len() >= at + 8 {
        let checksum = fnv1a_64_wide(&bytes[at + 8..]);
        bytes[at..at + 8].copy_from_slice(&checksum.to_le_bytes());
    }
}

/// Sets the `tf` of the first vulnerabilities posting in a `.cpsnap` to 0
/// and recomputes that section's checksum and the `snapshot_id`, so the
/// bytes pass every integrity check and only the index validator can
/// refuse them.
fn zero_first_vulnerability_tf(bytes: &mut [u8]) {
    let u32_at =
        |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap()) as usize;
    let u64_at =
        |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap()) as usize;
    // Header: magic, version, section count, snapshot id; then four
    // 26-byte table entries (id, offset, len, checksum), vulnerabilities
    // last.
    let (table, entry) = (20, 20 + 3 * 26);
    let (start, len) = (u64_at(bytes, entry + 2), u64_at(bytes, entry + 10));
    // Section: ids (6 bytes each), lengths, term heap, 16-byte entries,
    // then the postings arena.
    let docs = u32_at(bytes, start);
    let terms_at = start + 4 + docs * 6 + 4 + docs * 4;
    let (terms, heap_len) = (u32_at(bytes, terms_at), u32_at(bytes, terms_at + 4));
    let first_tf = terms_at + 8 + heap_len + terms * 16 + 4 + 4;
    bytes[first_tf..first_tf + 4].copy_from_slice(&0u32.to_le_bytes());
    let checksum = fnv1a_64_wide(&bytes[start..start + len]);
    bytes[entry + 18..entry + 26].copy_from_slice(&checksum.to_le_bytes());
    let id = fnv1a_64_wide(&bytes[table..table + 4 * 26]);
    bytes[12..20].copy_from_slice(&id.to_le_bytes());
}

fn snapshot_bytes() -> Vec<u8> {
    let corpus = seed_corpus();
    let engine = SearchEngine::build(&corpus);
    cpssec_search::snapshot::encode(&corpus, &engine)
}

#[test]
fn mapped_boot_refuses_an_index_that_only_decode_used_to_check() {
    let mut bytes = snapshot_bytes();
    zero_first_vulnerability_tf(&mut bytes);
    // The engines open before the boot returns, so the bad posting fails
    // the boot itself instead of a background thread later.
    let err = AppState::from_snapshot_mapped(bytes.into()).unwrap_err();
    assert!(err.to_string().contains("posting tf 0 is outside"), "{err}");
    assert!(!err.to_string().contains('\n'), "{err}");
}

#[test]
fn mapped_boot_applies_deltas_and_compacts() {
    let bytes = snapshot_bytes();
    let parent = cpssec_search::snapshot::inspect(&bytes)
        .expect("inspect")
        .snapshot_id;
    let mapped: Arc<[u8]> = bytes.into();
    let state = AppState::from_snapshot_mapped(Arc::clone(&mapped)).expect("mapped boot");
    let server = TestServer::start(state);

    // The mapped boot recorded its fast path before the thaw finished.
    let (status, body) = server.get("/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf8");
    assert!(
        text.contains("snapshot_loads_total{result=\"hit\"} 1"),
        "{text}"
    );
    assert!(text.contains("snapshot_load_us "), "{text}");
    assert!(
        text.contains(&format!("snapshot_mapped_bytes {}", mapped.len())),
        "{text}"
    );

    // Corpus-backed endpoints block on the thaw, then answer normally.
    let (status, _) = server.get("/table1");
    assert_eq!(status, 200);
    assert_eq!(server.state.state_id(), parent);
    let before = server.state.corpus().stats().total();

    // The delta's mention token is absent from every generated corpus,
    // so a hit proves the query path sees the appended records.
    let miss = server
        .state
        .engine(ScoringModel::Bm25)
        .match_text(synth::DELTA_MENTION);
    assert!(miss.vulnerabilities.is_empty(), "mention matched pre-delta");

    let mut parent = parent;
    for serial in 0..COMPACTION_EVERY {
        let batch = synth::delta_batch(7, 50, serial);
        let delta = build_delta(parent, &batch);
        let (status, body) = server.post_bytes("/corpus/delta", &delta);
        let text = String::from_utf8(body).expect("utf8");
        assert_eq!(status, 200, "serial {serial}: {text}");
        assert!(text.contains("\"applied\":true"), "{text}");
        assert!(text.contains("\"records\":50"), "{text}");
        // Only the K-th apply compacts.
        let expect_compacted = serial == COMPACTION_EVERY - 1;
        assert!(
            text.contains(&format!("\"compacted\":{expect_compacted}")),
            "serial {serial}: {text}"
        );
        // Replaying the same delta must 409: the anchor advanced.
        let (replay, replay_body) = server.post_bytes("/corpus/delta", &delta);
        assert_eq!(replay, 409, "{}", String::from_utf8_lossy(&replay_body));
        parent = server.state.state_id();
    }

    // The grown corpus serves the appended records through both engines.
    let total = server.state.corpus().stats().total();
    assert_eq!(total, before + 50 * COMPACTION_EVERY as usize);
    for scoring in [ScoringModel::TfIdf, ScoringModel::Bm25] {
        let hits = server
            .state
            .engine(scoring)
            .match_text(synth::DELTA_MENTION);
        assert!(
            !hits.vulnerabilities.is_empty(),
            "{scoring:?}: delta records unreachable"
        );
    }
    let (status, body) = server.get("/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf8");
    assert!(
        text.contains(&format!("delta_applies_total {}", COMPACTION_EVERY)),
        "{text}"
    );
    assert!(text.contains("compactions_total 1"), "{text}");
    assert!(text.contains(&format!("corpus_records {total}")), "{text}");
}

#[test]
fn corpus_built_state_shares_the_delta_chain() {
    // A server that built the seed corpus from source anchors at the
    // same id the encoded snapshot carries, so the same delta applies.
    let state = AppState::new(seed_corpus());
    let bytes = snapshot_bytes();
    let snapshot_id = cpssec_search::snapshot::inspect(&bytes)
        .expect("inspect")
        .snapshot_id;
    assert_eq!(state.state_id(), snapshot_id);

    let batch = synth::delta_batch(11, 20, 0);
    let delta = build_delta(snapshot_id, &batch);
    let outcome = state.apply_corpus_delta(&delta).expect("apply");
    assert_eq!(outcome.records, 20);
    assert_eq!(outcome.state_id, state.state_id());
    assert!(!outcome.compacted);
}

#[test]
fn a_held_generation_survives_an_apply_and_shares_its_records() {
    let state = AppState::new(seed_corpus());
    let held = state.corpus();
    let before = held.len();
    let probe = held.vulnerabilities().next().expect("seed CVEs").id();

    let batch = synth::delta_batch(13, 40, 0);
    let delta = build_delta(state.state_id(), &batch);
    state.apply_corpus_delta(&delta).expect("apply");
    let grown = state.corpus();

    // The generation a reader held across the apply is unchanged.
    assert_eq!(held.len(), before);
    assert!(held.vulnerability(probe).is_some());
    assert!(batch
        .vulnerabilities()
        .all(|v| !held.contains(v.id().into())));

    // The new generation shares every base record instead of a copy...
    assert_eq!(grown.len(), before + batch.len());
    for p in held.patterns() {
        assert!(std::ptr::eq(p, grown.pattern(p.id()).expect("base")));
    }
    for w in held.weaknesses() {
        assert!(std::ptr::eq(w, grown.weakness(w.id()).expect("base")));
    }
    for v in held.vulnerabilities() {
        assert!(std::ptr::eq(v, grown.vulnerability(v.id()).expect("base")));
    }
    // ...and holds the batch.
    for p in batch.patterns() {
        assert_eq!(grown.pattern(p.id()), Some(p));
    }
    for w in batch.weaknesses() {
        assert_eq!(grown.weakness(w.id()), Some(w));
    }
    for v in batch.vulnerabilities() {
        assert_eq!(grown.vulnerability(v.id()), Some(v));
    }
}

#[test]
fn malformed_and_stale_bodies_are_rejected() {
    let server = TestServer::start(AppState::new(seed_corpus()));
    let (status, _) = server.post_bytes("/corpus/delta", &[]);
    assert_eq!(status, 400);
    let (status, _) = server.post_bytes("/corpus/delta", b"not a delta at all");
    assert_eq!(status, 400);
    // A delta against a bogus parent is a conflict, not a bad request.
    let batch = synth::delta_batch(3, 10, 0);
    let delta = build_delta(0xdead_beef, &batch);
    let (status, body) = server.post_bytes("/corpus/delta", &delta);
    assert_eq!(status, 409, "{}", String::from_utf8_lossy(&body));
    // GET on the endpoint is method-not-allowed, not 404.
    let (status, _) = server.get("/corpus/delta");
    assert_eq!(status, 405);
}

#[test]
fn an_edited_record_text_applies_and_later_deltas_still_compact() {
    let server = TestServer::start(AppState::new(seed_corpus()));
    let mut parent = server.state.state_id();
    for serial in 0..COMPACTION_EVERY {
        let mut delta = build_delta(parent, &synth::delta_batch(7, 50, serial));
        if serial == 0 {
            // The last `FlowNet` is in the last vulnerability's description
            // (its CPE is lower-case); a same-length edit keeps it valid.
            let at = delta
                .windows(7)
                .rposition(|w| w == b"FlowNet")
                .expect("description present");
            delta[at + 6] = b'z';
            reseal(&mut delta);
        }
        let (status, body) = server.post_bytes("/corpus/delta", &delta);
        let text = String::from_utf8(body).expect("utf8");
        assert_eq!(status, 200, "serial {serial}: {text}");
        let expect_compacted = serial == COMPACTION_EVERY - 1;
        assert!(
            text.contains(&format!("\"compacted\":{expect_compacted}")),
            "serial {serial}: {text}"
        );
        parent = server.state.state_id();
    }
    // 50 records: 2 patterns, 5 weaknesses, then CVE-2030-0 ..= 42.
    let edited = AttackVectorId::from(CveId::new(2030, 42));
    for scoring in [ScoringModel::TfIdf, ScoringModel::Bm25] {
        let hits = server.state.engine(scoring).match_text("flownez");
        let ids: Vec<AttackVectorId> = hits.vulnerabilities.iter().map(|h| h.id).collect();
        assert_eq!(ids, [edited], "{scoring:?}");
    }
}

#[test]
fn hostile_delta_bytes_leave_the_state_unchanged_on_error() {
    let state = AppState::new(seed_corpus());
    let records = || state.gauges.corpus_records.load(Ordering::Relaxed);
    let full = build_delta(0, &synth::delta_batch(3, 10, 0)).len();
    let payload_at = DELTA_MAGIC.len() + 2 + 8 + 8;
    // Every truncation, then two flips at every payload byte; the
    // checksum is recomputed each time so the bytes reach the decoder.
    let truncations = (0..full).map(|len| (len, None));
    let flips = (payload_at..full)
        .flat_map(|at| [(at, 0x01u8), (at, 0xFF)])
        .map(|flip| (usize::MAX, Some(flip)));
    let mut applied = 0;
    for (len, flip) in truncations.chain(flips) {
        // Each applied delta advances the chain and the id floor.
        let batch = synth::delta_batch(3, 10, applied);
        let mut delta = build_delta(state.state_id(), &batch);
        delta.truncate(len);
        if let Some((at, mask)) = flip {
            match delta.get_mut(at) {
                Some(byte) => *byte ^= mask,
                None => continue,
            }
        }
        reseal(&mut delta);
        let (before_id, before_records) = (state.state_id(), records());
        match state.apply_corpus_delta(&delta) {
            Ok(outcome) => {
                assert_eq!(outcome.state_id, state.state_id());
                applied += 1;
            }
            Err(err) => {
                assert!(!err.to_string().contains('\n'), "{err}");
                assert_eq!(state.state_id(), before_id, "{err}");
                assert_eq!(records(), before_records, "{err}");
            }
        }
    }
    assert!(applied > 0, "no flip reached the index");
    assert_eq!(
        records() as usize,
        seed_corpus().len() + 10 * applied as usize
    );
}
