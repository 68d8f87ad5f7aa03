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
//! Concurrency shape: one nonblocking accept loop feeding a fixed
//! [`pool::WorkerPool`] over `mpsc`; shared state is an `Arc<AppState>`
//! (immutable corpus + search engines, `RwLock` session store, sharded
//! `Mutex` caches). Responses are byte-identical to the single-threaded
//! pipeline because both sides call the same canonical renderers.

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
#[cfg(unix)]
pub mod reactor;
pub mod requests;
pub mod router;
pub mod scenarios;
pub mod session;
pub mod signal;
pub mod telemetry;

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cpssec_analysis::AssociationMap;
use cpssec_attackdb::Corpus;
use cpssec_search::snapshot::SnapshotError;
use cpssec_search::{snapshot, view, DeltaInfo, MatchConfig, ScoringModel, SearchEngine};

use cache::Cache;
use metrics::{CorpusGauges, Metrics, StartupStats};
use session::SessionStore;

/// One immutable generation of queryable corpus state. Delta applies and
/// compactions build the *next* generation off-lock and swap it in;
/// in-flight queries keep whatever `Arc` clones they already took, so a
/// swap never invalidates a running request.
#[derive(Debug, Clone)]
struct CorpusStore {
    corpus: Arc<Corpus>,
    tfidf: Arc<SearchEngine>,
    bm25: Arc<SearchEngine>,
    /// Chain anchor: the snapshot id this state would encode to. Every
    /// delta must name it as parent; each apply advances it to the
    /// delta's `child_id`, and a compaction re-anchors it to the
    /// compacted base snapshot's id.
    state_id: u64,
    /// Deltas applied since the last compaction (or boot).
    deltas_since_compaction: u32,
}

/// The swappable slot holding the current [`CorpusStore`]. `None` while a
/// mapped-snapshot boot is still thawing the owned state in the
/// background; readers block on the condvar, so `/healthz` and
/// `/metrics` (which never touch the slot) answer immediately while
/// corpus-backed endpoints wait for the thaw.
#[derive(Debug, Default)]
struct StoreSlot {
    slot: Mutex<Option<CorpusStore>>,
    ready: Condvar,
}

impl StoreSlot {
    /// Blocks until a store is installed, then returns a clone (four
    /// `Arc` bumps) of the current generation.
    fn wait(&self) -> CorpusStore {
        let mut slot = self.slot.lock().expect("corpus store poisoned");
        loop {
            if let Some(store) = slot.as_ref() {
                return store.clone();
            }
            slot = self.ready.wait(slot).expect("corpus store poisoned");
        }
    }

    fn install(&self, store: CorpusStore) {
        *self.slot.lock().expect("corpus store poisoned") = Some(store);
        self.ready.notify_all();
    }
}

/// Everything the workers share.
#[derive(Debug)]
pub struct AppState {
    /// The current corpus + engines generation (swapped by delta applies).
    store: StoreSlot,
    /// Named models.
    pub sessions: SessionStore,
    /// Rendered response bodies, content-addressed.
    pub responses: Cache<Arc<String>>,
    /// Baseline association maps (the what-if priors), content-addressed.
    pub priors: Cache<Arc<AssociationMap>>,
    /// Request counters and latency histograms.
    pub metrics: Metrics,
    /// Ring of requests that crossed the slow-query threshold, served at
    /// `GET /debug/slow`.
    pub slow: cpssec_obs::SlowLog,
    /// Index-load timing and snapshot hit/miss. Behind a mutex because a
    /// mapped boot fills `index_load_us` in once the background thaw
    /// lands; read it through [`AppState::startup`].
    startup: Mutex<StartupStats>,
    /// Live corpus-state gauges (`corpus_records`, `delta_applies_total`,
    /// `compactions_total`, `snapshot_mapped_bytes`).
    pub gauges: CorpusGauges,
    /// Time-series store + SLO monitor, fed by the telemetry tick.
    pub telemetry: telemetry::Telemetry,
    /// Ring of recently served requests, keyed by trace id
    /// (`GET /debug/requests/:id`).
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
    /// (enforced by the reactor backend).
    pub admission: admission::Admission,
}

/// Retained slow-query entries.
const SLOW_LOG_CAPACITY: usize = 64;
/// Default slow-query threshold (µs); `CPSSEC_SLOW_US` overrides it.
const SLOW_THRESHOLD_US: u64 = 100_000;

fn slow_threshold_us() -> u64 {
    std::env::var("CPSSEC_SLOW_US")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SLOW_THRESHOLD_US)
}

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

/// The chain anchor for a corpus-built state: the id of the snapshot this
/// state would encode to. One extra encode at boot buys corpus-built and
/// snapshot-booted servers the same delta-chain semantics — encoding is
/// deterministic, so a delta built against the equivalent `.cpsnap`
/// applies cleanly to a server that built the same corpus from source.
fn content_state_id(corpus: &Corpus, engine: &SearchEngine) -> u64 {
    let bytes = snapshot::encode(corpus, engine);
    snapshot::inspect(&bytes).map_or(0, |info| info.snapshot_id)
}

impl AppState {
    /// Builds the shared state: indexes the corpus once (the BM25 engine
    /// shares the TF-IDF engine's indices) and preloads the `scada`
    /// session. Counts as a snapshot *miss* in `/metrics` — the engines
    /// were built, not thawed.
    #[must_use]
    pub fn new(corpus: Corpus) -> Arc<AppState> {
        Self::with_capacities(corpus, 256, 64)
    }

    /// [`AppState::new`] with explicit cache capacities — lets tests
    /// exercise eviction without thousands of fill requests.
    #[must_use]
    pub fn with_capacities(corpus: Corpus, responses: usize, priors: usize) -> Arc<AppState> {
        let started = Instant::now();
        let tfidf = SearchEngine::build(&corpus);
        let bm25 = Arc::new(tfidf.with_scoring(ScoringModel::Bm25));
        let tfidf = Arc::new(tfidf);
        let state_id = content_state_id(&corpus, &tfidf);
        let startup = StartupStats {
            index_load_us: elapsed_us(started),
            snapshot_hits: 0,
            snapshot_misses: 1,
            snapshot_load_us: 0,
        };
        let store = CorpusStore {
            corpus: Arc::new(corpus),
            tfidf,
            bm25,
            state_id,
            deltas_since_compaction: 0,
        };
        Self::assemble(Some(store), startup, responses, priors)
    }

    /// Boots from a mapped `.cpsnap` image. The view is opened and
    /// checksum-verified, and the engine is opened over it and validated
    /// in full (its BM25 twin shares the families), before this returns —
    /// so a corrupt snapshot fails the boot with one error, and that open
    /// is what `snapshot_load_us` measures. Only the owned corpus, which
    /// the analysis layer needs, thaws on a background thread; `/healthz`
    /// and `/metrics` serve immediately, corpus-backed endpoints block
    /// until the thaw lands.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from [`view::open_verified`] or
    /// [`SearchEngine::from_view`].
    pub fn from_snapshot_mapped(bytes: Arc<[u8]>) -> Result<Arc<AppState>, SnapshotError> {
        let started = Instant::now();
        let mapped = view::open_verified(Arc::clone(&bytes))?;
        let tfidf = SearchEngine::from_view(&mapped, MatchConfig::default())?;
        let bm25 = tfidf.with_scoring(ScoringModel::Bm25);
        let startup = StartupStats {
            index_load_us: 0,
            snapshot_hits: 1,
            snapshot_misses: 0,
            snapshot_load_us: elapsed_us(started),
        };
        let snapshot_id = mapped.snapshot_id();
        let records = mapped.corpus().record_count();
        let state = Self::assemble(None, startup, 256, 64);
        state
            .gauges
            .snapshot_mapped_bytes
            .store(bytes.len() as u64, Ordering::Relaxed);
        state
            .gauges
            .corpus_records
            .store(records as u64, Ordering::Relaxed);
        let thaw_state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("cpssec-thaw".to_owned())
            .spawn(move || {
                let started = Instant::now();
                // The checksums hold and the engines opened, but the
                // corpus section is only validated by decoding it: a
                // section corrupted under valid checksums lands here, and
                // exiting beats blocking every query forever.
                let corpus = mapped.thaw_corpus().unwrap_or_else(|e| {
                    eprintln!("fatal: snapshot corpus thaw failed: {e}");
                    std::process::exit(1);
                });
                drop(mapped);
                thaw_state.store.install(CorpusStore {
                    corpus: Arc::new(corpus),
                    tfidf: Arc::new(tfidf),
                    bm25: Arc::new(bm25),
                    state_id: snapshot_id,
                    deltas_since_compaction: 0,
                });
                thaw_state
                    .startup
                    .lock()
                    .expect("startup poisoned")
                    .index_load_us = elapsed_us(started);
            })
            .expect("spawn thaw thread");
        Ok(state)
    }

    fn assemble(
        store: Option<CorpusStore>,
        startup: StartupStats,
        responses: usize,
        priors: usize,
    ) -> Arc<AppState> {
        let records = store.as_ref().map(|s| s.corpus.len());
        let state = Arc::new(AppState {
            store: StoreSlot {
                slot: Mutex::new(store),
                ready: Condvar::new(),
            },
            sessions: SessionStore::new(),
            responses: Cache::new(responses),
            priors: Cache::new(priors),
            metrics: Metrics::new(),
            slow: cpssec_obs::SlowLog::new(SLOW_LOG_CAPACITY, slow_threshold_us()),
            startup: Mutex::new(startup),
            gauges: CorpusGauges::default(),
            telemetry: telemetry::Telemetry::new(),
            requests: requests::RequestLog::new(requests::DEFAULT_REQUEST_LOG_CAPACITY),
            pool_stats: Arc::new(pool::PoolStats::new()),
            test_delay: AtomicU64::new(0),
            fleet: scenarios::FleetJobs::new(),
            campaigns: scenarios::FleetJobs::new(),
            admission: admission::Admission::new(),
        });
        if let Some(n) = records {
            state
                .gauges
                .corpus_records
                .store(n as u64, Ordering::Relaxed);
        }
        state
    }

    /// The shared corpus (current generation). Blocks during a mapped
    /// boot until the background thaw installs the owned state.
    #[must_use]
    pub fn corpus(&self) -> Arc<Corpus> {
        self.store.wait().corpus
    }

    /// The shared engine for a scoring model (current generation);
    /// blocks like [`AppState::corpus`].
    #[must_use]
    pub fn engine(&self, scoring: ScoringModel) -> Arc<SearchEngine> {
        let store = self.store.wait();
        match scoring {
            ScoringModel::TfIdf => store.tfidf,
            ScoringModel::Bm25 => store.bm25,
        }
    }

    /// The current chain anchor: the snapshot id the installed state
    /// encodes to. A delta must name it as its parent to apply.
    #[must_use]
    pub fn state_id(&self) -> u64 {
        self.store.wait().state_id
    }

    /// Point-in-time copy of the startup facts.
    #[must_use]
    pub fn startup(&self) -> StartupStats {
        *self.startup.lock().expect("startup poisoned")
    }

    /// Applies a `.cpsdelta` batch to the current generation and swaps
    /// the grown state in. The store lock is held for the whole apply so
    /// concurrent deltas serialize; queries only clone `Arc`s under that
    /// lock, so they stall briefly rather than observe a half-applied
    /// state. Every [`COMPACTION_EVERY`]-th apply also rebases: the
    /// grown state is proven byte-identical to a rebuild-from-scratch
    /// before the new anchor is adopted. Both result caches are cleared
    /// on success — their keys do not encode corpus content.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] for malformed bytes, a parent-id mismatch (the
    /// router maps that one to 409), an append-only id violation, or a
    /// compaction divergence. On error the installed state is untouched.
    pub fn apply_corpus_delta(&self, bytes: &[u8]) -> Result<DeltaOutcome, SnapshotError> {
        let mut slot = self.store.slot.lock().expect("corpus store poisoned");
        while slot.is_none() {
            slot = self.store.ready.wait(slot).expect("corpus store poisoned");
        }
        let current = slot.as_ref().expect("store installed").clone();
        // Grow clones; the installed state stays valid if anything fails.
        // The corpus clone shares every record segment, so it and the
        // later drop of the old generation cost O(segments); each grown
        // index family is written once, with the batch merged in.
        let mut corpus = (*current.corpus).clone();
        let mut tfidf = (*current.tfidf).clone();
        let info = cpssec_search::apply_delta(&mut corpus, &mut tfidf, bytes, current.state_id)?;
        let bm25 = tfidf.with_scoring(ScoringModel::Bm25);
        let mut next = CorpusStore {
            corpus: Arc::new(corpus),
            tfidf: Arc::new(tfidf),
            bm25: Arc::new(bm25),
            state_id: info.child_id,
            deltas_since_compaction: current.deltas_since_compaction + 1,
        };
        let mut compacted = false;
        if next.deltas_since_compaction >= COMPACTION_EVERY {
            let base = cpssec_search::compact_verified(&next.corpus, &next.tfidf)?;
            next.state_id = snapshot::inspect(&base)?.snapshot_id;
            next.deltas_since_compaction = 0;
            self.gauges
                .compactions_total
                .fetch_add(1, Ordering::Relaxed);
            compacted = true;
        }
        let outcome = DeltaOutcome {
            info,
            records: info.records(),
            state_id: next.state_id,
            compacted,
        };
        self.gauges
            .delta_applies_total
            .fetch_add(1, Ordering::Relaxed);
        self.gauges
            .corpus_records
            .store(next.corpus.len() as u64, Ordering::Relaxed);
        *slot = Some(next);
        drop(slot);
        // Cached bodies and priors predate the grown corpus — drop them.
        self.responses.clear();
        self.priors.clear();
        Ok(outcome)
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
            &self.slow,
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
        let requests_json = self.requests.recent_json(128);
        let alerts_json = self.telemetry.alerts_json();
        let metrics_text = router::metrics_text(self);
        let bytes = cpssec_obs::flight::encode_dump(&cpssec_obs::flight::DumpInput {
            reason,
            requests_json: &requests_json,
            alerts_json: &alerts_json,
            metrics_text: &metrics_text,
        });
        let dir = std::env::var("CPSSEC_FLIGHT_DIR").unwrap_or_else(|_| ".".to_owned());
        let tag: String = reason
            .chars()
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

/// Elapsed wall time since `started`, saturating into microseconds.
fn elapsed_us(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// How long an idle keep-alive connection may sit between requests.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Accept-loop poll interval while no connection is pending. Short enough
/// that connection setup never dominates request latency; the idle loop is
/// still >99% asleep.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Which I/O engine drives the accepted sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Readiness loop: one reactor thread owns every connection's state
    /// machine and only fully-parsed requests occupy workers. Default
    /// on Unix.
    Reactor,
    /// Thread-per-connection accept loop (one worker blocks on each
    /// connection for its whole life). Kept selectable for equivalence
    /// testing and as the non-Unix fallback.
    Legacy,
}

impl Backend {
    fn default_for_target() -> Backend {
        if cfg!(unix) {
            Backend::Reactor
        } else {
            Backend::Legacy
        }
    }
}

/// The server: a bound listener plus shared state, not yet accepting.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    workers: usize,
    shutdown: Arc<AtomicBool>,
    tick_ms: u64,
    backend: Backend,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// prepares `workers` worker threads over `state`. The backend is
    /// [`Backend::Reactor`] on Unix and [`Backend::Legacy`] elsewhere;
    /// [`Server::set_backend`] overrides it.
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
            backend: Backend::default_for_target(),
        })
    }

    /// Selects the serving backend (reactor or legacy accept loop).
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// The selected backend.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
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
        // Spans are cheap (atomics only) and feed the slow-query stage
        // breakdown and /metrics histograms, so serving enables them.
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

        let result = match self.backend {
            Backend::Legacy => self.run_legacy(&pool),
            Backend::Reactor => self.run_reactor(&pool),
        };
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

    #[cfg(unix)]
    fn run_reactor(&self, pool: &pool::WorkerPool) -> io::Result<()> {
        reactor::serve(&self.listener, &self.state, pool, &self.shutdown)
    }

    #[cfg(not(unix))]
    fn run_reactor(&self, pool: &pool::WorkerPool) -> io::Result<()> {
        self.run_legacy(pool)
    }

    fn run_legacy(&self, pool: &pool::WorkerPool) -> io::Result<()> {
        while !self.shutdown.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&self.state);
                    let shutdown = Arc::clone(&self.shutdown);
                    pool.execute(move || handle_connection(stream, &state, &shutdown));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
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

/// Serves one connection: keep-alive request loop until the peer closes,
/// asks to close, errors, times out, or the server begins shutdown.
fn handle_connection(stream: TcpStream, state: &AppState, shutdown: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);

    loop {
        let request = match http::read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return,                    // Peer closed cleanly.
            Err(http::HttpError::Io(_)) => return, // Timeout or reset.
            Err(http::HttpError::TooLarge) => {
                let _ = http::Response::error(413, "request body too large")
                    .write_to(&mut writer, true);
                return;
            }
            Err(http::HttpError::Malformed(detail)) => {
                let _ = http::Response::error(400, &detail).write_to(&mut writer, true);
                return;
            }
        };

        let response = process_request(state, &request);

        // Close after this response if the client asked, or if the server
        // is draining (keeps shutdown prompt under keep-alive load).
        let close = request.wants_close() || shutdown.load(Ordering::Relaxed);
        if response.write_to(&mut writer, close).is_err() || close {
            return;
        }
    }
}

/// Runs one fully-parsed request through the router with all of its
/// per-request bookkeeping: trace-id propagation, span capture, metrics,
/// the slow-query log, and the request ring. Both backends call this on
/// a worker thread (the span capture and trace id are thread-local), so
/// reactor and legacy responses are byte-identical by construction.
pub(crate) fn process_request(state: &AppState, request: &http::Request) -> http::Response {
    // Honor an inbound W3C `traceparent`, else mint a fresh trace
    // id. The id rides the thread-local through every span this
    // request opens, so `--trace` output, the slow-query log, and
    // `/debug/requests/:id` all correlate on it.
    let remote_parent = request
        .header("traceparent")
        .and_then(requests::parse_traceparent);
    let trace_id = remote_parent.unwrap_or_else(cpssec_obs::mint_trace_id);
    cpssec_obs::set_trace_id(trace_id);

    let started = Instant::now();
    let capture = cpssec_obs::Capture::begin();
    let (route, mut response) = {
        let _span = cpssec_obs::span!("serve-request");
        router::dispatch(state, request)
    };
    let stages = capture.finish(cpssec_obs::recorder());
    // Clear before any pooled-thread reuse: the next request on
    // this thread must not inherit this id.
    cpssec_obs::set_trace_id(0);
    let annotations = cpssec_obs::take_annotations();
    let elapsed = started.elapsed();
    state.metrics.record(route, response.status, elapsed);
    let note = cpssec_obs::take_note();
    let total_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
    if total_us >= state.slow.threshold_us() {
        state.slow.observe(cpssec_obs::SlowEntry {
            route: route.to_owned(),
            status: response.status,
            total_us,
            trace_id,
            model_hash: note.as_ref().map(|(hash, _)| *hash),
            fidelity: note.clone().map(|(_, fidelity)| fidelity),
            stages: stages.clone(),
        });
    }
    state.requests.record(requests::RequestEntry {
        trace_id,
        route: route.to_owned(),
        status: response.status,
        ts_ms: telemetry::now_ms(),
        total_us,
        remote_parent: remote_parent.is_some(),
        stages,
        annotations,
        model_hash: note.as_ref().map(|(hash, _)| *hash),
        fidelity: note.map(|(_, fidelity)| fidelity),
    });
    if cpssec_obs::flight::enabled() {
        // Low 64 bits of the trace id are enough to correlate a ring
        // event with the request ring and `.cpsflight` requests section.
        cpssec_obs::flight::event(
            cpssec_obs::FlightKind::Request,
            trace_id as u64,
            (cpssec_obs::flight::label_id(route) << 16) | u64::from(response.status),
        );
    }
    response.add_header("X-Trace-Id", format!("{trace_id:032x}"));
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};

    fn start_server() -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
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
}
