//! `cpssec-server`: the analysis pipeline as a concurrent service.
//!
//! The paper's dashboard is interactive — "the systems engineer or
//! security analyst … change\[s\] the model on the fly and immediately
//! see\[s\] the new results" (§3). This crate serves that loop over HTTP:
//! a multithreaded TCP server (hand-rolled HTTP/1.1, no external crates)
//! in front of the exact same pipeline the CLI runs in batch, with three
//! service-shaped additions:
//!
//! * a **session store** of named models (upload GraphML, or use the
//!   built-in `scada` demonstration model) — [`session`];
//! * a **content-addressed result cache** keyed by model content hash +
//!   fidelity + scoring + canonical filter spec — [`cache`]; identical
//!   requests are served from memory, and a model edit changes the hash
//!   so stale entries are simply never hit;
//! * **incremental what-if**: the baseline association is cached as the
//!   *prior* and [`cpssec_analysis::AssociationMap::rebuild`] re-queries
//!   only components whose query text actually changed.
//!
//! Concurrency shape: one [`reactor`] thread owns every socket and hands
//! fully-parsed requests to a fixed [`pool::WorkerPool`] over `mpsc`
//! (serving is Unix-only: the reactor polls with epoll or `poll(2)`);
//! shared state is an `Arc<AppState>`
//! (one swappable [`Generation`] of corpus + search engine, `RwLock`
//! session store, sharded `Mutex` caches). Responses are byte-identical
//! to the single-threaded pipeline because both sides call the same
//! canonical renderers.
//!
//! The state is ready to query before a server binds: it is built from a
//! corpus ([`AppState::new`]) or decoded from a `.cpsnap` image with
//! [`cpssec_search::snapshot::decode`] ([`AppState::from_snapshot_mapped`]),
//! so a snapshot that fails any check fails the boot before `listening`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod campaigns;
pub mod dashboard;
pub mod http;
pub mod load;
pub mod metrics;
pub mod pool;
pub mod reactor;
pub mod requests;
pub mod router;
pub mod scenarios;
pub mod session;
pub mod signal;
pub mod telemetry;

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex, PoisonError, TryLockError, TryLockResult};
use std::time::{Duration, Instant};

use cpssec_analysis::AssociationMap;
use cpssec_attackdb::Corpus;
use cpssec_search::snapshot::SnapshotError;
use cpssec_search::{snapshot, DeltaInfo, ScoringModel, SearchEngine};

use cache::Cache;
use metrics::{CorpusGauges, Metrics, StartupStats};
use session::SessionStore;

/// One immutable generation of queryable corpus state: the corpus, its
/// engine, and the state id that names them. Delta applies and
/// compactions build the *next* generation off-lock and swap it in;
/// in-flight queries keep whatever `Arc` clones they already took, so a
/// swap never invalidates a running request. A request takes one
/// generation ([`AppState::generation`]) and reads corpus, engine and
/// cache tag from it, so it can never pair one generation's engine with
/// another's corpus.
#[derive(Debug, Clone)]
pub struct Generation {
    corpus: Arc<Corpus>,
    /// The index under the default configuration; each scoring model is
    /// a copy of it ([`Generation::engine`]).
    engine: Arc<SearchEngine>,
    /// Chain anchor: the snapshot id this state would encode to. Every
    /// delta must name it as parent; each apply advances it to the
    /// delta's `child_id`, and a compaction re-anchors it to the
    /// compacted base snapshot's id.
    state_id: u64,
    /// Deltas applied since the last compaction (or boot).
    deltas_since_compaction: u32,
}

impl Generation {
    /// A generation over `corpus` and its engine.
    fn new(
        corpus: Corpus,
        engine: SearchEngine,
        state_id: u64,
        deltas_since_compaction: u32,
    ) -> Generation {
        Generation {
            corpus: Arc::new(corpus),
            engine: Arc::new(engine),
            state_id,
            deltas_since_compaction,
        }
    }

    /// The corpus of this generation.
    #[must_use]
    pub fn corpus(&self) -> &Arc<Corpus> {
        &self.corpus
    }

    /// The engine for a scoring model, over this generation's corpus: a
    /// copy of the one index (a few `Arc` bumps).
    #[must_use]
    pub fn engine(&self, scoring: ScoringModel) -> SearchEngine {
        self.engine.with_scoring(scoring)
    }

    /// The state id naming this generation: the chain anchor, and the
    /// tag of every cache entry computed from it.
    #[must_use]
    pub fn state_id(&self) -> u64 {
        self.state_id
    }
}

/// Everything the workers share.
#[derive(Debug)]
pub struct AppState {
    /// The current corpus + engine generation, swapped by delta
    /// applies. Held only to clone the generation out or to install the
    /// next one, never while one is built.
    store: Mutex<Generation>,
    /// Serializes delta applies, so each builds on the generation the
    /// previous one installed.
    applying: Mutex<()>,
    /// Test hook: an apply that finds a pair here reports on the first
    /// channel once its next generation is built, then waits on the
    /// second before installing it.
    #[cfg(test)]
    apply_pause: Mutex<Option<(std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>)>>,
    /// Named models.
    pub sessions: SessionStore,
    /// Rendered response bodies, content-addressed and tagged with the
    /// state id of the generation they were computed under.
    pub responses: Cache<Arc<String>>,
    /// Baseline association maps (the what-if priors), content-addressed
    /// and tagged like `responses`.
    pub priors: Cache<Arc<AssociationMap>>,
    /// Request counters and latency histograms.
    pub metrics: Metrics,
    /// Index-load timing and snapshot hit/miss.
    pub startup: StartupStats,
    /// Live corpus-state gauges (`corpus_records`, `delta_applies_total`,
    /// `compactions_total`, `snapshot_mapped_bytes`).
    pub gauges: CorpusGauges,
    /// Time-series store + SLO monitor, fed by the telemetry tick.
    pub telemetry: telemetry::Telemetry,
    /// Every finished request, recorded once: the recent ones keyed by
    /// trace id (`GET /debug/requests/:id`) and the slow ones
    /// (`GET /debug/slow`).
    pub requests: requests::RequestLog,
    /// Worker-pool saturation gauges, sampled each tick.
    pub pool_stats: Arc<pool::PoolStats>,
    /// Artificial per-request delay in µs (`POST /debug/delay?us=N`) —
    /// a test hook for inducing latency regressions against the SLOs.
    pub test_delay: AtomicU64,
    /// Fleet campaign jobs (`POST /scenarios/batch` + progress polls).
    pub fleet: scenarios::FleetJobs,
    /// Exploit-chain campaign jobs (`POST /models/:id/campaigns`).
    pub campaigns: scenarios::FleetJobs,
    /// Bounded per-route request queues with SLO-wired load shedding
    /// (enforced by the reactor before dispatch).
    pub admission: admission::Admission,
}

/// Default slow-query threshold (µs); `CPSSEC_SLOW_US` overrides it.
const SLOW_THRESHOLD_US: u64 = 100_000;

fn slow_threshold_us() -> u64 {
    std::env::var("CPSSEC_SLOW_US")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SLOW_THRESHOLD_US)
}

/// Longest reason prefix a flight dump's file name carries. `sigusr1`,
/// `manual` and `slo-alert:<route>` for every served route fit whole; a
/// panic reason, which carries the panic message, is cut.
const FLIGHT_TAG_MAX: usize = 64;

/// Deltas between compactions: every K-th `POST /corpus/delta` rebases
/// the grown state into a fresh base snapshot (verified byte-identical
/// to a rebuild-from-scratch) instead of letting the chain grow.
pub const COMPACTION_EVERY: u32 = 4;

/// What a successful delta apply reports back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Parsed header of the applied delta.
    pub info: DeltaInfo,
    /// Records the batch added across all families.
    pub records: usize,
    /// The new chain anchor — the next delta's required parent id.
    pub state_id: u64,
    /// Whether this apply crossed [`COMPACTION_EVERY`] and rebased.
    pub compacted: bool,
}

/// Why a delta apply installed nothing. Each case names whose fault it
/// is, so the router answers it with its own status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta chains onto another state than the installed one: it is
    /// stale, replayed or out of order (409).
    Conflict(SnapshotError),
    /// The bytes are malformed or the batch breaks the append-only id
    /// floor (400).
    Invalid(SnapshotError),
    /// The compaction proof failed: the grown state diverges from a
    /// rebuild over the same corpus. A server invariant broke, not the
    /// client's request (500).
    Diverged(SnapshotError),
}

impl DeltaError {
    /// The HTTP status that answers this error.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            DeltaError::Conflict(_) => 409,
            DeltaError::Invalid(_) => 400,
            DeltaError::Diverged(_) => 500,
        }
    }
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Conflict(e) | DeltaError::Invalid(e) | DeltaError::Diverged(e) => {
                std::fmt::Display::fmt(e, f)
            }
        }
    }
}

impl std::error::Error for DeltaError {}

impl AppState {
    /// Builds the shared state: indexes the corpus once and preloads the
    /// `scada` session. Counts as a snapshot *miss* in `/metrics` — the
    /// index was built, not thawed.
    #[must_use]
    pub fn new(corpus: Corpus) -> Arc<AppState> {
        Self::with_capacities(corpus, 256, 64)
    }

    /// [`AppState::new`] with explicit cache capacities — lets tests
    /// exercise eviction without thousands of fill requests.
    #[must_use]
    pub fn with_capacities(corpus: Corpus, responses: usize, priors: usize) -> Arc<AppState> {
        let started = Instant::now();
        let engine = SearchEngine::build(&corpus);
        // The chain anchor is the id of the snapshot this state encodes
        // to, so corpus-built and snapshot-booted servers share delta-chain
        // semantics: encoding is deterministic, so a delta built against
        // the equivalent `.cpsnap` applies cleanly to a server that built
        // the same corpus from source.
        let state_id = snapshot::encoded_id(&corpus, &engine);
        let startup = StartupStats {
            index_load_us: elapsed_us(started),
            snapshot_hits: 0,
            snapshot_misses: 1,
            snapshot_load_us: 0,
        };
        Self::assemble(
            Generation::new(corpus, engine, state_id, 0),
            startup,
            responses,
            priors,
        )
    }

    /// Boots from a `.cpsnap` image with [`snapshot::decode`], the decode
    /// `cpssec snapshot verify` runs: every section checksum, the corpus
    /// records, the three index families and their document counts are
    /// validated before this returns, and the returned state is ready to
    /// query. A snapshot that fails any check fails the boot with one
    /// error. The decode is what `snapshot_load_us` and `index_load_us`
    /// measure; `snapshot_mapped_bytes` is the image's size.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from [`snapshot::decode`].
    pub fn from_snapshot_mapped(bytes: Arc<[u8]>) -> Result<Arc<AppState>, SnapshotError> {
        let started = Instant::now();
        let (corpus, engine) = snapshot::decode(&bytes)?;
        let snapshot_id = snapshot::inspect(&bytes)?.snapshot_id;
        let load_us = elapsed_us(started);
        let startup = StartupStats {
            index_load_us: load_us,
            snapshot_hits: 1,
            snapshot_misses: 0,
            snapshot_load_us: load_us,
        };
        let store = Generation::new(corpus, engine, snapshot_id, 0);
        let state = Self::assemble(store, startup, 256, 64);
        state
            .gauges
            .snapshot_mapped_bytes
            .store(bytes.len() as u64, Ordering::Relaxed);
        Ok(state)
    }

    /// Wires the shared state; both caches start at the id of `store`.
    fn assemble(
        store: Generation,
        startup: StartupStats,
        responses: usize,
        priors: usize,
    ) -> Arc<AppState> {
        let (state_id, records) = (store.state_id, store.corpus.len());
        let state = Arc::new(AppState {
            store: Mutex::new(store),
            applying: Mutex::new(()),
            #[cfg(test)]
            apply_pause: Mutex::new(None),
            sessions: SessionStore::new(),
            responses: Cache::new(responses),
            priors: Cache::new(priors),
            metrics: Metrics::new(),
            startup,
            gauges: CorpusGauges::default(),
            telemetry: telemetry::Telemetry::new(),
            requests: requests::RequestLog::new(
                requests::DEFAULT_REQUEST_LOG_CAPACITY,
                slow_threshold_us(),
            ),
            pool_stats: Arc::new(pool::PoolStats::new()),
            test_delay: AtomicU64::new(0),
            fleet: scenarios::FleetJobs::new(),
            campaigns: scenarios::FleetJobs::new(),
            admission: admission::Admission::new(),
        });
        state.responses.advance(state_id);
        state.priors.advance(state_id);
        state
            .gauges
            .corpus_records
            .store(records as u64, Ordering::Relaxed);
        state
    }

    /// The current generation: corpus, engine and state id, taken
    /// together (two `Arc` bumps under the store lock). A request takes
    /// this once and reads everything corpus-backed from it.
    #[must_use]
    pub fn generation(&self) -> Generation {
        self.store.lock().expect("corpus store poisoned").clone()
    }

    /// The shared corpus of the current generation.
    #[must_use]
    pub fn corpus(&self) -> Arc<Corpus> {
        self.generation().corpus
    }

    /// The engine for a scoring model (current generation).
    #[must_use]
    pub fn engine(&self, scoring: ScoringModel) -> SearchEngine {
        self.generation().engine(scoring)
    }

    /// The current chain anchor: the snapshot id the installed state
    /// encodes to. A delta must name it as its parent to apply.
    #[must_use]
    pub fn state_id(&self) -> u64 {
        self.generation().state_id
    }

    /// Applies a `.cpsdelta` batch to the current generation and swaps
    /// the grown state in. Applies serialize on their own lock and build
    /// the next generation off the store lock, so queries keep taking the
    /// current generation for the whole apply. Every
    /// [`COMPACTION_EVERY`]-th apply also rebases: each index family's
    /// tail is folded into its base, the folded state is proven
    /// byte-identical to a rebuild-from-scratch, and the folded engine and
    /// the new anchor are installed. Both result caches advance to the new
    /// state id on success — their keys do not encode corpus content,
    /// their generation tags do.
    ///
    /// # Errors
    ///
    /// [`DeltaError::Conflict`] for a parent-id mismatch,
    /// [`DeltaError::Invalid`] for malformed bytes or an append-only id
    /// violation, [`DeltaError::Diverged`] for a failed compaction proof.
    /// On error the installed state is untouched.
    pub fn apply_corpus_delta(&self, bytes: &[u8]) -> Result<DeltaOutcome, DeltaError> {
        let _applying = self.applying.lock().expect("delta apply lock poisoned");
        let current = self.generation();
        // Grow clones; the installed state stays valid if anything fails.
        // The corpus clone shares every record segment and the engine
        // clone every index section, so the clones and the later drop of
        // the old generation cost O(segments); each grown index family
        // writes only a new tail section.
        let mut corpus = (*current.corpus).clone();
        let mut engine = (*current.engine).clone();
        let info = cpssec_search::apply_delta(&mut corpus, &mut engine, bytes, current.state_id)
            .map_err(|e| match e {
                SnapshotError::ParentMismatch { .. } => DeltaError::Conflict(e),
                e => DeltaError::Invalid(e),
            })?;
        let deltas_since_compaction = current.deltas_since_compaction + 1;
        let compacted = deltas_since_compaction >= COMPACTION_EVERY;
        let next = if compacted {
            let folded = engine.compacted();
            let base =
                cpssec_search::compacted_id(&corpus, &folded).map_err(DeltaError::Diverged)?;
            Generation::new(corpus, folded, base, 0)
        } else {
            Generation::new(corpus, engine, info.child_id, deltas_since_compaction)
        };
        if compacted {
            self.gauges
                .compactions_total
                .fetch_add(1, Ordering::Relaxed);
        }
        let outcome = DeltaOutcome {
            info,
            records: info.records(),
            state_id: next.state_id,
            compacted,
        };
        #[cfg(test)]
        self.pause_apply();
        let records = next.corpus.len() as u64;
        let mut store = self.store.lock().expect("corpus store poisoned");
        *store = next;
        // Cached bodies and priors predate the grown corpus: drop them,
        // and refuse any that a request still holding the old generation
        // inserts later. Advancing under the store lock means no request
        // can take the new generation before the caches are at it.
        self.responses.advance(outcome.state_id);
        self.priors.advance(outcome.state_id);
        drop(store);
        self.gauges
            .delta_applies_total
            .fetch_add(1, Ordering::Relaxed);
        self.gauges.corpus_records.store(records, Ordering::Relaxed);
        Ok(outcome)
    }

    /// Runs the `apply_pause` hook, if one is set.
    #[cfg(test)]
    fn pause_apply(&self) {
        let pause = self.apply_pause.lock().expect("pause poisoned").take();
        if let Some((reached, resume)) = pause {
            let _ = reached.send(());
            let _ = resume.recv();
        }
    }

    /// Runs one telemetry tick at wall time `ts_ms`: diffs counters and
    /// histograms, feeds the time-series store, evaluates SLO burn
    /// rates, and logs one stderr line per alert transition.
    pub fn telemetry_tick(&self, ts_ms: u64) {
        // Age out finished background jobs so long-lived servers do not
        // accumulate result bodies (in-flight jobs are never evicted).
        self.fleet.evict_finished(ts_ms, scenarios::JOB_TTL_MS);
        self.campaigns.evict_finished(ts_ms, scenarios::JOB_TTL_MS);
        let (resp_hits, resp_misses) = self.responses.stats();
        let (prior_hits, prior_misses) = self.priors.stats();
        let transitions = self.telemetry.tick(
            ts_ms,
            &self.metrics,
            &[
                ("responses", resp_hits, resp_misses),
                ("priors", prior_hits, prior_misses),
            ],
            &self.pool_stats,
            self.requests.slow_observed(),
        );
        let corpus = self.gauges.sample();
        self.telemetry
            .record_gauge(ts_ms, "corpus:records", corpus.corpus_records as f64);
        self.telemetry.record_gauge(
            ts_ms,
            "corpus:delta_applies",
            corpus.delta_applies_total as f64,
        );
        self.telemetry
            .record_gauge(ts_ms, "corpus:compactions", corpus.compactions_total as f64);
        self.telemetry.record_gauge(
            ts_ms,
            "corpus:mapped_bytes",
            corpus.snapshot_mapped_bytes as f64,
        );
        self.telemetry.record_gauge(
            ts_ms,
            "serving:connections_open",
            self.admission.connections_open() as f64,
        );
        self.telemetry.record_gauge(
            ts_ms,
            "serving:shed_total",
            self.admission.shed_total() as f64,
        );
        // Per-route admission gauges: the scrape-only `/metrics` gauges
        // become history series the dashboard can draw.
        for (route, depth, shed_queue, shed_slo) in self.admission.snapshot() {
            self.telemetry.record_gauge(
                ts_ms,
                &format!("serving:queue_depth:{route}"),
                depth as f64,
            );
            self.telemetry.record_gauge(
                ts_ms,
                &format!("serving:shed:{route}:queue_full"),
                shed_queue as f64,
            );
            self.telemetry.record_gauge(
                ts_ms,
                &format!("serving:shed:{route}:slo_burn"),
                shed_slo as f64,
            );
        }
        self.telemetry.record_gauge(
            ts_ms,
            "fleet:workers_active",
            cpssec_sim::active_workers() as f64,
        );
        // Close the loop: routes whose SLO burn-rate alert is firing get
        // their admission budget tightened; the moment the alert
        // resolves, the next tick restores full admission.
        self.admission.set_tightened(self.telemetry.firing_routes());
        for t in transitions {
            eprintln!(
                "slo {}: {} (burn short {:.2}, long {:.2})",
                t.route,
                t.state.as_str(),
                t.burn_short,
                t.burn_long
            );
            let firing = t.state == cpssec_obs::AlertState::Firing;
            if cpssec_obs::flight::enabled() {
                cpssec_obs::flight::event(
                    cpssec_obs::FlightKind::Alert,
                    cpssec_obs::flight::label_id(&t.route),
                    u64::from(firing),
                );
            }
            // A firing alert is the black-box moment: snapshot the rings
            // while the regression onset is still inside the window.
            if firing {
                match cpssec_obs::flight::trigger_dump(&format!("slo-alert:{}", t.route)) {
                    Some(Ok(path)) => eprintln!("flight recorder: wrote {path}"),
                    Some(Err(e)) => eprintln!("flight recorder: dump failed: {e}"),
                    None => {}
                }
            }
        }
    }

    /// Writes a `.cpsflight` dump of every thread's event ring plus the
    /// recent-request ring, active alerts, and a metrics scrape. The
    /// target directory comes from `CPSSEC_FLIGHT_DIR` (default: the
    /// working directory). Returns the path and the byte count.
    ///
    /// # Errors
    ///
    /// A one-line message if the file cannot be written.
    pub fn flight_dump(&self, reason: &str) -> Result<(String, u64), String> {
        // The panic hook runs this on the panicking thread, which may hold
        // a lock read here: a panic dump waits for none of them and writes
        // one placeholder line for a section whose lock is busy.
        let wait = !reason.starts_with("panic");
        let requests_json = (self.requests.recent_json(128, wait))
            .unwrap_or_else(|| r#"{"busy":"request log"}"#.to_owned());
        let alerts_json = (self.telemetry.slo_json(wait))
            .unwrap_or_else(|| r#"{"busy":"slo monitor"}"#.to_owned());
        let metrics_text = router::metrics_text(self, wait)
            .unwrap_or_else(|| "# busy: metrics registry\n".to_owned());
        let bytes = cpssec_obs::flight::encode_dump(&cpssec_obs::flight::DumpInput {
            reason,
            requests_json: &requests_json,
            alerts_json: &alerts_json,
            metrics_text: &metrics_text,
        });
        let dir = std::env::var("CPSSEC_FLIGHT_DIR").unwrap_or_else(|_| ".".to_owned());
        let tag: String = reason
            .chars()
            .take(FLIGHT_TAG_MAX)
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = format!("{dir}/flight-{}-{tag}.cpsflight", telemetry::now_ms());
        std::fs::write(&path, &bytes).map_err(|e| format!("write {path}: {e}"))?;
        Ok((path, bytes.len() as u64))
    }

    /// Sleeps for the configured test delay (if any) inside a
    /// `test-delay` span. Handlers call this *before* their cache
    /// lookup so even cache hits slow down — that is what lets the SLO
    /// integration test induce a latency regression under load.
    pub fn apply_test_delay(&self) {
        let us = self.test_delay.load(Ordering::Relaxed);
        if us > 0 {
            let _span = cpssec_obs::span!("test-delay");
            std::thread::sleep(Duration::from_micros(us));
        }
    }
}

/// Takes a lock a flight dump reads: with `wait` through `lock`;
/// without, through `try_lock`, which gives `None` while another holder
/// has it, perhaps the panicking thread that runs the dump. Poisoned data
/// is read as it is, since dumps are taken after panics.
pub(crate) fn dump_guard<G>(
    wait: bool,
    lock: impl FnOnce() -> LockResult<G>,
    try_lock: impl FnOnce() -> TryLockResult<G>,
) -> Option<G> {
    if wait {
        return Some(lock().unwrap_or_else(PoisonError::into_inner));
    }
    match try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Elapsed wall time since `started`, saturating into microseconds.
fn elapsed_us(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The server: a bound listener plus shared state, not yet accepting.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    workers: usize,
    shutdown: Arc<AtomicBool>,
    tick_ms: u64,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// prepares `workers` worker threads over `state`.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(addr: &str, workers: usize, state: Arc<AppState>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            state,
            workers,
            shutdown: Arc::new(AtomicBool::new(false)),
            tick_ms: telemetry::DEFAULT_TICK_MS,
        })
    }

    /// Overrides the telemetry tick interval (default 1000 ms). Tests
    /// shrink it so burn-rate windows elapse in milliseconds.
    pub fn set_tick_ms(&mut self, tick_ms: u64) {
        self.tick_ms = tick_ms.max(1);
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS query error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The flag that stops [`run`](Server::run); set it (or deliver
    /// SIGTERM/SIGINT after [`signal::install`]) to begin a graceful
    /// shutdown.
    #[must_use]
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The shared state.
    #[must_use]
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Serves until the shutdown flag is set, then drains: queued and
    /// in-flight requests complete before this returns (the worker pool's
    /// drop joins every worker).
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors (per-connection I/O errors are
    /// absorbed).
    pub fn run(self) -> io::Result<()> {
        // Spans are cheap (atomics only) and feed the request stage
        // breakdowns and /metrics histograms, so serving enables them.
        cpssec_obs::recorder().enable_spans();
        // The flight recorder is always-on while serving: per-thread
        // event rings plus a dump hook that bundles server context
        // (requests, alerts, metrics) into every `.cpsflight` file —
        // fired by SLO alerts, SIGUSR1, panics, or POST /debug/flight/dump.
        cpssec_obs::flight::set_enabled(true);
        cpssec_obs::flight::install_panic_hook();
        let dump_state = Arc::clone(&self.state);
        cpssec_obs::flight::set_dump_hook(move |reason| {
            dump_state.flight_dump(reason).map(|(path, _)| path)
        });
        signal::install_usr1();
        self.listener.set_nonblocking(true)?;
        let pool = pool::WorkerPool::with_stats(self.workers, Arc::clone(&self.state.pool_stats));

        // Telemetry tick thread: sleeps in short slices so shutdown is
        // prompt even with multi-second tick intervals.
        let tick_state = Arc::clone(&self.state);
        let tick_shutdown = Arc::clone(&self.shutdown);
        let tick_ms = self.tick_ms;
        let ticker = std::thread::Builder::new()
            .name("cpssec-tick".to_owned())
            .spawn(move || {
                while !tick_shutdown.load(Ordering::Relaxed) {
                    let next = Instant::now() + Duration::from_millis(tick_ms);
                    while Instant::now() < next && !tick_shutdown.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(tick_ms.min(20)));
                        if signal::take_usr1() {
                            match cpssec_obs::flight::trigger_dump("sigusr1") {
                                Some(Ok(path)) => eprintln!("flight recorder: wrote {path}"),
                                Some(Err(e)) => eprintln!("flight recorder: dump failed: {e}"),
                                None => {}
                            }
                        }
                    }
                    tick_state.telemetry_tick(telemetry::now_ms());
                }
            })
            .expect("spawn tick thread");

        let result = reactor::serve(&self.listener, &self.state, &pool, &self.shutdown);
        // Even on a fatal listener error the ticker must see the flag,
        // or the join below would hang.
        self.shutdown.store(true, Ordering::Relaxed);
        drop(pool); // Drain the queue, join the workers.
        let _ = ticker.join();
        // Final tick after the drain so the last partial second of
        // traffic is in the time-series store before we exit.
        self.state.telemetry_tick(telemetry::now_ms());
        result
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .field("workers", &self.workers)
            .finish()
    }
}

/// Stages a request's breakdown keeps: the newest completions, so the
/// root spans, which complete last, are always in it.
const MAX_BREAKDOWN: usize = 64;

/// Runs one fully-parsed request through the router with all of its
/// per-request bookkeeping: trace-id propagation, the stage breakdown,
/// and [`record_request`]. The reactor calls this on a worker thread
/// (the flight ring and trace id are thread-local).
pub(crate) fn process_request(state: &AppState, request: &http::Request) -> http::Response {
    // The id rides the thread-local through every span this request
    // opens, so `--trace` output, the request log, and flight dumps all
    // correlate on it.
    let trace = requests::trace_of(request);
    cpssec_obs::set_trace_id(trace.0);
    let started = Instant::now();
    let mark = cpssec_obs::flight::mark();
    let (route, mut response) = {
        let _span = cpssec_obs::span!("serve-request");
        router::dispatch(state, request)
    };
    let stages = cpssec_obs::flight::spans_since(mark, MAX_BREAKDOWN);
    let elapsed = started.elapsed();
    record_request(state, trace, route, response.status, elapsed, stages, None);
    // Clear before any pooled-thread reuse: the next request on
    // this thread must not inherit this id.
    cpssec_obs::set_trace_id(0);
    response.add_header("X-Trace-Id", format!("{:032x}", trace.0));
    response
}

/// Records one finished request, served or shed (`shed` names why):
/// its route metrics, one entry in the request log carrying this
/// thread's annotations and model note, and one flight event — a
/// `Request`, or a `Shed` with its reason.
pub(crate) fn record_request(
    state: &AppState,
    (trace_id, remote_parent): (u128, bool),
    route: &'static str,
    status: u16,
    elapsed: Duration,
    stages: Vec<(cpssec_obs::StageId, u64)>,
    shed: Option<admission::ShedReason>,
) {
    use cpssec_obs::flight;
    state.metrics.record(route, status, elapsed);
    let mut annotations = cpssec_obs::take_annotations();
    if let Some(reason) = shed {
        annotations.push(("shed".to_owned(), reason.as_str().to_owned()));
    }
    if flight::enabled() {
        let route_label = flight::label_id(route);
        match shed {
            Some(reason) => flight::event(
                cpssec_obs::FlightKind::Shed,
                route_label,
                flight::label_id(reason.as_str()),
            ),
            // Low 64 bits of the trace id are enough to correlate a ring
            // event with the request ring and `.cpsflight` requests section.
            None => flight::event(
                cpssec_obs::FlightKind::Request,
                trace_id as u64,
                (route_label << 16) | u64::from(status),
            ),
        }
    }
    let (model_hash, fidelity) = cpssec_obs::take_note().unzip();
    state.requests.record(requests::RequestEntry {
        trace_id,
        route,
        status,
        ts_ms: telemetry::now_ms(),
        total_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        remote_parent,
        stages,
        annotations,
        model_hash,
        fidelity,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read as _, Write as _};
    use std::net::TcpStream;

    fn start_server() -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        // `run` installs the process-wide panic hook: a failing assert must
        // write its flight dump outside the source tree.
        std::env::set_var("CPSSEC_FLIGHT_DIR", std::env::temp_dir());
        let state = AppState::new(cpssec_attackdb::seed::seed_corpus());
        let server = Server::bind("127.0.0.1:0", 2, state).unwrap();
        let addr = server.local_addr().unwrap();
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, flag, handle)
    }

    #[test]
    fn healthz_round_trip_and_clean_shutdown() {
        let (addr, flag, handle) = start_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.ends_with("ok\n"), "{response}");
        flag.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn a_long_dump_reason_keeps_a_bounded_file_name() {
        std::env::set_var("CPSSEC_FLIGHT_DIR", std::env::temp_dir());
        let state = AppState::new(cpssec_attackdb::seed::seed_corpus());
        let panic = format!("panic at src/lib.rs:7:9: {}", "long message ".repeat(40));
        for (reason, tag) in [
            ("manual", "manual"),
            ("sigusr1", "sigusr1"),
            (
                "slo-alert:GET /models/:id/campaigns/:job",
                "slo-alert-GET--models--id-campaigns--job",
            ),
            (
                panic.as_str(),
                "panic-at-src-lib-rs-7-9--long-message-long-message-long-message-",
            ),
        ] {
            let (path, _) = state.flight_dump(reason).expect("dump written");
            let name = std::path::Path::new(&path).file_name().unwrap();
            let name = name.to_str().unwrap();
            assert!(name.ends_with(&format!("-{tag}.cpsflight")), "{name}");
            let dump = cpssec_obs::flight::decode(&std::fs::read(&path).unwrap()).unwrap();
            assert_eq!(dump.reason, reason);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn generation_serves_the_old_state_while_a_delta_apply_builds() {
        let state = AppState::new(cpssec_attackdb::seed::seed_corpus());
        let before = state.state_id();
        let batch = cpssec_attackdb::synth::delta_batch(5, 30, 0);
        let delta = cpssec_search::build_delta(before, &batch);
        let (reached_tx, reached) = std::sync::mpsc::channel();
        let (resume, resume_rx) = std::sync::mpsc::channel();
        *state.apply_pause.lock().unwrap() = Some((reached_tx, resume_rx));
        let applier = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || state.apply_corpus_delta(&delta))
        };
        reached.recv().unwrap();
        // The next generation is built and the apply is paused before
        // installing it: a reader on another thread gets the current
        // generation instead of waiting for the apply.
        let (read_tx, read) = std::sync::mpsc::channel();
        let reader = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || read_tx.send(state.generation()).unwrap())
        };
        let current = read
            .recv_timeout(Duration::from_secs(10))
            .expect("generation() waited for the apply");
        assert_eq!(current.state_id(), before);
        assert_eq!(current.corpus().len(), state.corpus().len());
        reader.join().unwrap();
        resume.send(()).unwrap();
        let outcome = applier.join().unwrap().expect("apply");
        assert_ne!(outcome.state_id, before);
        assert_eq!(state.state_id(), outcome.state_id);
        assert_eq!(state.corpus().len(), current.corpus().len() + batch.len());
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let (addr, flag, handle) = start_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for _ in 0..3 {
            stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let response = load::read_response(&mut reader).unwrap();
            assert_eq!(response.status, 200);
            assert_eq!(response.body, b"ok\n");
        }
        drop(stream);
        flag.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn a_deeply_nested_body_is_a_400_and_the_server_lives_on() {
        let (addr, flag, handle) = start_server();
        let body = "[".repeat(64 << 10);
        for target in ["/models/scada/whatif", "/scenarios/batch"] {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(
                stream,
                "POST {target} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .unwrap();
            let response = load::read_response(&mut BufReader::new(stream)).unwrap();
            assert_eq!(response.status, 400, "{target}");
            let text = String::from_utf8(response.body).unwrap();
            assert!(text.contains("nesting deeper than"), "{target}: {text}");
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let response = load::read_response(&mut BufReader::new(stream)).unwrap();
        assert_eq!(response.status, 200);
        flag.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    /// Every truncation of `body`, then every single-byte XOR of it with
    /// 0x01, 0x80 and 0xFF.
    fn hostile_variants(body: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let truncations = (0..body.len()).map(|end| body[..end].to_vec());
        let flips = (0..body.len()).flat_map(move |at| {
            [0x01, 0x80, 0xFF].into_iter().map(move |mask| {
                let mut bytes = body.to_vec();
                bytes[at] ^= mask;
                bytes
            })
        });
        truncations.chain(flips)
    }

    #[test]
    fn hostile_bytes_in_every_json_body_are_a_one_line_error() {
        type BodyParser = fn(&[u8]) -> Result<(), String>;
        let bodies: [(&[u8], BodyParser); 3] = [
            (
                br#"{"changes":[{"op":"replace","component":"Programming WS","key":"os","kind":"os","value":"hardened thin client image","atFidelity":"implementation"},{"op":"remove","component":"Programming WS","key":"software","value":"Labview"}]}"#,
                |body| router::parse_changes(body).map(drop),
            ),
            (
                br#"{"scenarios":20,"seed":7,"maxTicks":2000,"threads":2,"classes":["nominal","command-injection"]}"#,
                |body| scenarios::parse_campaign(body).map(drop),
            ),
            (br#"{"seed":42,"threads":2}"#, |body| {
                campaigns::parse_run(cpssec_campaign::Testbed::Centrifuge, body).map(drop)
            }),
        ];
        for (body, parse_body) in bodies {
            assert!(parse_body(body).is_ok());
            let mut variants = 0;
            for bytes in hostile_variants(body) {
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    if let Err(err) = cpssec_attackdb::json::parse(text) {
                        assert!(!err.to_string().contains('\n'), "{err}");
                    }
                }
                if let Err(err) = parse_body(&bytes) {
                    assert!(!err.contains('\n'), "{err}");
                }
                variants += 1;
            }
            assert_eq!(variants, 4 * body.len());
        }
    }
}
