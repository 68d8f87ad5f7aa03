//! `corpus-growth`: the only write path, in rounds. Each round boots a
//! server from a mapped 100k-record `.cpsnap` and sends it a seeded chain
//! of four 1,000-record `POST /corpus/delta` requests; the 4th compacts.

use std::sync::Arc;

use cpssec_attackdb::json::{parse as parse_json, JsonValue};
use cpssec_model::{Attribute, AttributeKind, ComponentKind, SystemModelBuilder};
use cpssec_search::{inspect_delta, snapshot, SearchEngine};
use cpssec_server::{AppState, COMPACTION_EVERY};

use crate::layers::{self, delta_bytes, Traced, Untraced};
use crate::net::{self, Boot, Running};
use crate::{common_e2e, serve, stats, Config, Report};

/// Boots before the first round; each round adds one more, and
/// `setup_s` is the median of them all.
const BOOTS: usize = 5;
/// Synthetic scale of the base snapshot: 97,733 records with the seed.
const SCALE: f64 = 3.0;
/// Records per delta.
const DELTA_RECORDS: u64 = 1_000;
/// Vulnerabilities per delta: the feed's 1/20 patterns and 1/10
/// weaknesses leave 850 of 1,000 records; each names the feed's product.
const VULNERABILITIES_PER_DELTA: u64 = 850;
/// The model whose one component names only the delta feed's product, so
/// a query for it matches exactly the delta-fed vulnerabilities.
const PROBE_MODEL: &str = "quantumworks";
const PROBE_TARGET: &str =
    "/models/quantumworks/associate?fidelity=implementation&component=Quantumworks";

/// The 100k-record base snapshot.
fn base_snapshot() -> (Arc<[u8]>, u64) {
    let mut corpus = cpssec_attackdb::seed::seed_corpus();
    cpssec_attackdb::synth::stream_into(
        &mut corpus,
        &cpssec_attackdb::synth::SynthSpec::paper2020(2020, SCALE),
    )
    .expect("synthetic ids are disjoint from the seed corpus");
    let engine = SearchEngine::build(&corpus);
    let records = corpus.stats().total() as u64;
    (snapshot::encode(&corpus, &engine).into(), records)
}

/// A mapped boot, complete once the owned state has thawed.
fn mapped_state(bytes: Arc<[u8]>) -> Arc<AppState> {
    let state = AppState::from_snapshot_mapped(bytes).expect("base snapshot opens");
    drop(state.corpus());
    state
}

fn probe_model() -> cpssec_model::SystemModel {
    SystemModelBuilder::new(PROBE_MODEL)
        .component("Quantumworks", ComponentKind::Other)
        .attribute(
            "Quantumworks",
            Attribute::new(AttributeKind::Product, "Quantumworks"),
        )
        .build()
        .expect("probe model is valid")
}

/// Vulnerabilities the probe query matches, or `None` on a bad reply.
fn probe(conn: &mut net::Conn) -> Option<u64> {
    let reply = conn.send(&net::request("GET", PROBE_TARGET, b"")).ok()?;
    if reply.status != 200 {
        return None;
    }
    let value = parse_json(std::str::from_utf8(&reply.body).ok()?).ok()?;
    match value.get("vulnerabilities") {
        Some(JsonValue::Number(n)) => Some(*n as u64),
        _ => None,
    }
}

/// Seed of round `round`'s delta batches.
fn round_seed(seed: u64, round: u64) -> u64 {
    seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The checks of a round, by index into [`Rounds::failed`].
const CHECKS: [&str; 6] = [
    "the probe model uploads and matches no base vulnerability",
    "every apply returned 200 and the stateId chain advanced",
    "the 4th apply of each round, and only it, reported compacted",
    "after every apply a query reaches exactly 850 new vulnerabilities per delta",
    "a replayed delta is answered 409",
    "corpus_records equals the base plus the absorbed batches",
];
const PROBE: usize = 0;
const CHAIN: usize = 1;
const COMPACTION: usize = 2;
const REACH: usize = 3;
const REPLAY: usize = 4;
const RECORDS: usize = 5;

/// What the rounds of one run observed.
#[derive(Default)]
struct Rounds {
    /// Every delta as `(completion s, latency ms, "apply" or "compact")`.
    timeline: Vec<(f64, f64, &'static str)>,
    /// When the timed window opened.
    started: Option<std::time::Instant>,
    peak_rss_mb: Vec<f64>,
    /// Records absorbed per second of apply time, one per complete round.
    rates: Vec<f64>,
    /// Delta requests of the first round, for the traced replay.
    first_sent: Vec<Vec<u8>>,
    stats: net::ServerStats,
    /// Ops that failed each of [`CHECKS`].
    failed: [u64; CHECKS.len()],
}

impl Rounds {
    /// Counts one op and its checks `(check, passed)`: each failed check
    /// is tallied, and the op counts once as failed if any check failed.
    fn op(&mut self, report: &mut Report, checks: &[(usize, bool)]) {
        report.attempted += 1;
        let mut ok = true;
        for &(check, passed) in checks {
            if !passed {
                self.failed[check] += 1;
                ok = false;
            }
        }
        if !ok {
            report.failed += 1;
        }
    }
}

/// One round on a freshly booted server: upload the probe model, apply
/// [`COMPACTION_EVERY`] deltas (the last compacts), then check the replay
/// answer and the record gauge.
fn round(
    server: &mut Running,
    base_id: u64,
    base_records: u64,
    seed: u64,
    rounds: &mut Rounds,
    report: &mut Report,
) {
    let mut conn = net::Conn::open(server.addr());
    let upload = conn
        .send(&net::request(
            "POST",
            &format!("/models?id={PROBE_MODEL}"),
            cpssec_model::to_graphml(&probe_model()).as_bytes(),
        ))
        .map_or(0, |r| r.status);
    rounds.op(report, &[(PROBE, upload == 201)]);
    let matched = probe(&mut conn);
    rounds.op(report, &[(PROBE, matched == Some(0))]);
    let mut state_id = base_id;
    let mut sent = Vec::new();
    let mut apply_ms = 0.0;
    for serial in 0..COMPACTION_EVERY {
        let bytes = delta_bytes(seed, serial, state_id);
        let raw = net::request("POST", "/corpus/delta", &bytes);
        let (reply, ms) = conn.timed(&raw);
        let reply = match reply {
            Ok(reply) if reply.status == 200 => reply,
            other => {
                eprintln!("delta {serial}: {:?}", other.map(|r| r.status));
                rounds.op(report, &[(CHAIN, false)]);
                return;
            }
        };
        let body = parse_json(&String::from_utf8_lossy(&reply.body)).ok();
        let field = |name: &str| body.as_ref().and_then(|b| b.get(name)).cloned();
        let compacted = field("compacted") == Some(JsonValue::Bool(true));
        let next = field("stateId")
            .and_then(|v| v.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()))
            .unwrap_or(state_id);
        let child = inspect_delta(&bytes).expect("delta inspects").child_id;
        rounds.op(
            report,
            &[
                (COMPACTION, compacted == (serial + 1 == COMPACTION_EVERY)),
                (
                    CHAIN,
                    field("applied") == Some(JsonValue::Bool(true))
                        && next != state_id
                        && (compacted || next == child),
                ),
            ],
        );
        state_id = next;
        apply_ms += ms;
        let completed = rounds.started.map_or(0.0, |s| s.elapsed().as_secs_f64());
        let class = if compacted { "compact" } else { "apply" };
        rounds.timeline.push((completed, ms, class));
        sent.push(raw);
        let reached = probe(&mut conn);
        rounds.op(
            report,
            &[(
                REACH,
                reached == Some(VULNERABILITIES_PER_DELTA * u64::from(serial + 1)),
            )],
        );
    }
    rounds
        .rates
        .push((DELTA_RECORDS * u64::from(COMPACTION_EVERY)) as f64 * 1e3 / apply_ms);
    let replay = sent
        .last()
        .and_then(|last| conn.send(last).ok())
        .map_or(0, |r| r.status);
    rounds.op(report, &[(REPLAY, replay == 409)]);
    let metrics = conn
        .send(&net::request("GET", "/metrics", b""))
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .unwrap_or_default();
    let records = metrics
        .lines()
        .find_map(|line| line.strip_prefix("corpus_records "))
        .and_then(|n| n.trim().parse::<u64>().ok());
    rounds.op(
        report,
        &[(
            RECORDS,
            records == Some(base_records + DELTA_RECORDS * u64::from(COMPACTION_EVERY)),
        )],
    );
    if rounds.first_sent.is_empty() {
        rounds.first_sent = sent;
    }
}

/// Runs the corpus-growth workload: rounds of boot + 4 deltas until the
/// window closes, so every round applies its deltas at the same corpus
/// sizes and every server process does the same work.
pub fn run(config: &Config) -> Report {
    let seed = config.seed;
    let (base, base_records) = base_snapshot();
    let base_id = snapshot::inspect(&base).expect("base snapshot").snapshot_id;
    let boot = Boot::Mapped(Arc::clone(&base));
    let mut report = Report::default();

    let (first, mut setup) = Running::boot_repeatedly(BOOTS, &boot);
    let mut next_server = Some(first);
    let mut rounds = Rounds::default();
    let started = std::time::Instant::now();
    rounds.started = Some(started);
    let host = crate::host::HostSampler::start(started);
    let deadline = started + std::time::Duration::from_secs_f64(config.seconds);
    let mut count = 0u64;
    loop {
        let mut server = next_server.take().unwrap_or_else(|| {
            let (server, seconds) = Running::boot(&boot);
            setup.push(seconds);
            server
        });
        if config.trace {
            server.sample_pool();
        }
        round(
            &mut server,
            base_id,
            base_records,
            round_seed(seed, count),
            &mut rounds,
            &mut report,
        );
        let stats = server.stats();
        server.stop();
        let total = &mut rounds.stats;
        total.responses = (
            total.responses.0 + stats.responses.0,
            total.responses.1 + stats.responses.1,
        );
        total.priors = (
            total.priors.0 + stats.priors.0,
            total.priors.1 + stats.priors.1,
        );
        total.shed_total += stats.shed_total;
        let samples = total.pool.2 + stats.pool.2;
        total.pool = (
            total.pool.0.max(stats.pool.0),
            (total.pool.1 * total.pool.2 as f64 + stats.pool.1 * stats.pool.2 as f64)
                / samples.max(1) as f64,
            samples,
        );
        rounds.peak_rss_mb.push(stats.peak_rss_mb);
        count += 1;
        if std::time::Instant::now() >= deadline {
            break;
        }
    }
    for (what, failed) in CHECKS.iter().zip(rounds.failed) {
        report.check(
            format!("{what} ({count} rounds, {failed} ops failed)"),
            failed == 0,
        );
    }

    let drive = net::Drive {
        elapsed_s: started.elapsed().as_secs_f64(),
        contention: host.stop(),
        timeline: std::mem::take(&mut rounds.timeline),
        ..net::Drive::default()
    };
    let quiet = drive.quiet();
    let applies = quiet.by_class.get("apply").cloned().unwrap_or_default();
    let compacts = quiet.by_class.get("compact").cloned().unwrap_or_default();
    // Throughput is per complete round, so every rate covers the same
    // mix of applies and one compaction.
    common_e2e(
        &mut report,
        &setup,
        &applies,
        (stats::median(&compacts), compacts.len()),
        stats::median(&rounds.rates),
        stats::median(&rounds.peak_rss_mb),
    );
    report.note(format!(
        "throughput_per_s is the median over {} rounds of the round's records absorbed per \
         second of its apply time",
        rounds.rates.len()
    ));
    report.note(format!(
        "rss_mb is the median peak of {} server processes, one per round",
        rounds.peak_rss_mb.len()
    ));
    // p50_ms and p99_ms cover one class here, so no mix boundary applies.
    serve::class_notes(&mut report, &quiet, false);
    let untraced = Untraced {
        p50_ms: stats::median(&applies),
        responses: rounds.stats.responses,
        priors: rounds.stats.priors,
        shed_total: rounds.stats.shed_total,
        pool: rounds.stats.pool,
    };
    report.check(
        format!("shed_total is 0 (was {})", untraced.shed_total),
        untraced.shed_total == 0,
    );

    if config.trace {
        let traced = Traced {
            fresh_state: &|| mapped_state(Arc::clone(&base)),
            warm: Vec::new(),
            primary: rounds.first_sent.clone(),
            primary_hit: false,
            cold_ops: (0..12).map(|i| serve::cold_op(seed, i)).collect(),
            hot_ops: serve::hot_probe_ops(seed),
            corpus_base: Arc::clone(&base),
            delta_seed: round_seed(seed, 0),
            deltas: COMPACTION_EVERY as usize,
            batches: crate::fleet::batch_specs(seed, 2),
            campaigns: crate::fleet::campaign_list(seed, 1),
            untraced,
        };
        layers::run(&traced, &mut report);
    }
    report
}
