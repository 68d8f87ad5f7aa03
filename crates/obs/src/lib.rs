//! `cpssec-obs` — std-only observability for the cpssec pipeline.
//!
//! A process-global, lock-free [`Recorder`] collects hierarchical
//! spans ([`span!`]) from every pipeline stage (tokenize → score →
//! filter → chain-build → render, plus associate/whatif/serve). Each
//! completed span feeds a per-stage aggregate — count, total wall
//! time, item count, and a log-linear latency [`hist::Histogram`] —
//! and, while the flight recorder is on, its thread's [`flight`] ring,
//! the one store every span view reads: the Chrome `trace_event`
//! export ([`trace`]) and a served request's stage breakdown.
//!
//! Disabled is the default and costs one relaxed atomic load per span
//! site (no `Instant::now()`, no allocation). The E13 release-mode gate
//! (`crates/search/tests/release_gates.rs`) bounds a disabled site under
//! 200 ns, and EXPERIMENTS E13 puts it under 2% of the whole-model match
//! path.
//! All of this is safe Rust: the "lock-free" structures are arrays of
//! `AtomicU64` plus a per-slot seqlock, and the only mutexes
//! (stage-name interning, ring registration) sit on cold paths.

#![forbid(unsafe_code)]

pub mod container;
pub mod flight;
pub mod hist;
pub mod profile;
pub mod slo;
pub mod timeseries;
pub mod trace;

pub use flight::{FlightDump, FlightError, FlightKind};
pub use hist::Histogram;
pub use profile::{FlameGraph, ProfileGuard, Sampler};
pub use slo::{AlertState, RouteSlo, SloConfig, SloMonitor};
pub use timeseries::{Agg, Resolution, TimeSeriesStore, RESOLUTIONS};
pub use trace::{chrome_trace_json, TraceEvent};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans feed per-stage aggregates (and, with [`flight`] on, the rings).
const FLAG_SPANS: u8 = 1;
/// Span boundaries additionally publish the thread's current stack
/// for the sampling profiler ([`profile`]).
const FLAG_PROFILE: u8 = 2;

/// Fixed number of stage slots; registration beyond this aliases into
/// the last slot rather than failing.
pub const MAX_STAGES: usize = 64;

/// Interned identifier for a stage name. Cheap to copy; resolved back
/// to its name via [`Recorder::stage_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageId(u16);

impl StageId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

struct StageAgg {
    count: std::sync::atomic::AtomicU64,
    total_us: std::sync::atomic::AtomicU64,
    items: std::sync::atomic::AtomicU64,
    hist: Histogram,
}

/// Aggregate view of one stage, as returned by [`Recorder::stage_stats`].
#[derive(Debug, Clone)]
pub struct StageStats {
    /// The registered index flight events carry.
    pub id: StageId,
    pub name: &'static str,
    pub count: u64,
    pub total_us: u64,
    pub items: u64,
    pub p50_us: u64,
    pub p99_us: u64,
}

pub struct Recorder {
    flags: AtomicU8,
    names: Mutex<Vec<&'static str>>,
    stages: Vec<StageAgg>,
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-global recorder used by [`span!`].
pub fn recorder() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Small dense per-thread ordinal for trace tracks
    /// (`std::thread::ThreadId` has no stable integer accessor).
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u16> = const { Cell::new(0) };
    /// Model identity noted by route handlers for the request log.
    static NOTE: RefCell<Option<(u64, String)>> = const { RefCell::new(None) };
    /// Trace id of the request currently being served on this thread
    /// (0 = none). Stamped onto every flight event.
    static CURRENT_TRACE: Cell<u128> = const { Cell::new(0) };
    /// Free-form key/value annotations attached to the current request
    /// (e.g. cache hit/miss), drained once per request.
    static ANNOTATIONS: RefCell<Vec<(String, String)>> = const { RefCell::new(Vec::new()) };
}

fn thread_ordinal() -> u32 {
    TID.with(|t| *t)
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            flags: AtomicU8::new(0),
            names: Mutex::new(Vec::new()),
            stages: (0..MAX_STAGES)
                .map(|_| StageAgg {
                    count: std::sync::atomic::AtomicU64::new(0),
                    total_us: std::sync::atomic::AtomicU64::new(0),
                    items: std::sync::atomic::AtomicU64::new(0),
                    hist: Histogram::new(),
                })
                .collect(),
        }
    }

    pub fn spans_enabled(&self) -> bool {
        self.flags.load(Ordering::Relaxed) & FLAG_SPANS != 0
    }

    /// Turn on span aggregation (idempotent).
    pub fn enable_spans(&self) {
        self.flags.fetch_or(FLAG_SPANS, Ordering::Relaxed);
    }

    /// Turn on tracing: spans plus the [`flight`] rings they are
    /// exported from.
    pub fn enable_trace(&self) {
        self.enable_spans();
        flight::set_enabled(true);
    }

    /// Turn everything off, the flight rings included. In-flight spans
    /// still record their aggregates (they captured the enabled flags at
    /// entry).
    pub fn disable(&self) {
        self.flags.store(0, Ordering::Relaxed);
        flight::set_enabled(false);
    }

    pub fn profile_enabled(&self) -> bool {
        self.flags.load(Ordering::Relaxed) & FLAG_PROFILE != 0
    }

    /// Toggle current-stack publishing for the sampling profiler.
    /// Prefer [`profile::ProfileGuard`], which refcounts overlapping
    /// profile windows; enabling implies spans.
    pub fn set_profile(&self, on: bool) {
        if on {
            self.flags
                .fetch_or(FLAG_SPANS | FLAG_PROFILE, Ordering::Relaxed);
        } else {
            self.flags.fetch_and(!FLAG_PROFILE, Ordering::Relaxed);
        }
    }

    /// Intern a stage name. Cold path (a mutex) — call sites cache the
    /// result in a `static OnceLock`, which [`span!`] does for you.
    pub fn register(&self, name: &'static str) -> StageId {
        let mut names = self.names.lock().unwrap();
        if let Some(i) = names.iter().position(|n| *n == name) {
            return StageId(i as u16);
        }
        if names.len() < MAX_STAGES {
            names.push(name);
            StageId((names.len() - 1) as u16)
        } else {
            StageId((MAX_STAGES - 1) as u16)
        }
    }

    pub fn stage_name(&self, id: StageId) -> &'static str {
        self.names
            .lock()
            .unwrap()
            .get(id.index())
            .copied()
            .unwrap_or("?")
    }

    /// Open a span for an interned stage. When the recorder is
    /// disabled this is one atomic load and returns an inert guard.
    pub fn span(&self, id: StageId) -> Span<'_> {
        let flags = self.flags.load(Ordering::Relaxed);
        if flags & FLAG_SPANS == 0 {
            return Span { inner: None };
        }
        let start = Instant::now();
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v.saturating_add(1));
            v
        });
        if flags & FLAG_PROFILE != 0 {
            profile::publish_push(id.0);
        }
        flight::span_enter(id, start);
        Span {
            inner: Some(SpanInner {
                rec: self,
                id,
                start,
                depth,
                items: 0,
                flags,
            }),
        }
    }

    /// Per-stage aggregates for every registered stage with activity.
    pub fn stage_stats(&self) -> Vec<StageStats> {
        let names = self.names.lock().unwrap().clone();
        names
            .iter()
            .enumerate()
            .filter_map(|(i, name)| {
                let agg = &self.stages[i];
                let count = agg.count.load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                let snap = agg.hist.snapshot();
                Some(StageStats {
                    id: StageId(i as u16),
                    name,
                    count,
                    total_us: agg.total_us.load(Ordering::Relaxed),
                    items: agg.items.load(Ordering::Relaxed),
                    p50_us: snap.quantile_us(0.50),
                    p99_us: snap.quantile_us(0.99),
                })
            })
            .collect()
    }

    /// Latency histogram for one stage (live view).
    pub fn stage_histogram(&self, id: StageId) -> &Histogram {
        &self.stages[id.index()].hist
    }

    /// Completed spans the [`flight`] rings still hold, ordered by start
    /// time: each thread's newest events, live threads and a bounded set
    /// of exited ones (empty while the rings were never on).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        flight::span_events()
    }

    /// Chrome `trace_event` JSON for [`Recorder::trace_events`].
    pub fn trace_json(&self) -> String {
        let names = self.names.lock().unwrap().clone();
        chrome_trace_json(&self.trace_events(), |stage| {
            names
                .get(stage as usize)
                .map(|n| n.to_string())
                .unwrap_or_else(|| format!("stage-{stage}"))
        })
    }
}

struct SpanInner<'a> {
    rec: &'a Recorder,
    id: StageId,
    start: Instant,
    depth: u16,
    items: u64,
    flags: u8,
}

/// RAII guard: records wall time (and optional item count) for its
/// stage when dropped. Inert when the recorder is disabled.
pub struct Span<'a> {
    inner: Option<SpanInner<'a>>,
}

impl Span<'_> {
    /// Attach a processed-item count (e.g. hits scored, chains built).
    pub fn add_items(&mut self, n: u64) {
        if let Some(inner) = &mut self.inner {
            inner.items += n;
        }
    }

    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_us = inner.start.elapsed().as_micros() as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if inner.flags & FLAG_PROFILE != 0 {
            profile::publish_pop();
        }
        flight::span_exit(inner.id, inner.start, dur_us, inner.depth, inner.items);
        let agg = &inner.rec.stages[inner.id.index()];
        agg.count.fetch_add(1, Ordering::Relaxed);
        agg.total_us.fetch_add(dur_us, Ordering::Relaxed);
        agg.items.fetch_add(inner.items, Ordering::Relaxed);
        agg.hist.record(dur_us);
    }
}

/// Open a span on the global recorder, interning the stage name once
/// per call site:
///
/// ```
/// let mut span = cpssec_obs::span!("tokenize");
/// // ... work ...
/// span.add_items(42);
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static STAGE: ::std::sync::OnceLock<$crate::StageId> = ::std::sync::OnceLock::new();
        let rec = $crate::recorder();
        let id = *STAGE.get_or_init(|| rec.register($name));
        rec.span(id)
    }};
}

/// Note the model a request is operating on, for the request log.
/// Called by route handlers; consumed once per request via
/// [`take_note`].
pub fn note_model(hash: u64, fidelity: &str) {
    NOTE.with(|n| *n.borrow_mut() = Some((hash, fidelity.to_string())));
}

/// Take (and clear) the model note for the current request.
pub fn take_note() -> Option<(u64, String)> {
    NOTE.with(|n| n.borrow_mut().take())
}

/// Set the trace id for the request being served on this thread.
/// Pass 0 to clear between requests (a worker that skips the clear
/// would stamp the next request's spans with a stale id).
pub fn set_trace_id(id: u128) {
    CURRENT_TRACE.with(|t| t.set(id));
}

/// Trace id of the request currently active on this thread (0 = none).
pub fn current_trace_id() -> u128 {
    CURRENT_TRACE.with(|t| t.get())
}

/// Attach a key/value annotation to the current request (e.g.
/// `annotate("cache", "hit")`); drained by [`take_annotations`].
pub fn annotate(key: &str, value: &str) {
    ANNOTATIONS.with(|a| a.borrow_mut().push((key.to_string(), value.to_string())));
}

/// Take (and clear) the annotations for the current request.
pub fn take_annotations() -> Vec<(String, String)> {
    ANNOTATIONS.with(|a| std::mem::take(&mut *a.borrow_mut()))
}

/// Resolve a raw stage index (as carried by profiler stacks and flight
/// events) to its registered name on the global recorder. The
/// profiler's reserved idle sentinel renders as `(idle)`.
pub fn stage_label(index: u16) -> String {
    if index == profile::IDLE_STAGE {
        return "(idle)".to_string();
    }
    recorder()
        .names
        .lock()
        .unwrap()
        .get(index as usize)
        .map(|n| (*n).to_string())
        .unwrap_or_else(|| format!("stage-{index}"))
}

static MINT_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mint a fresh nonzero 16-byte trace id. Not cryptographic — the ids
/// only need to be unique within a process's recent history; wall
/// clock + a process counter + thread ordinal keep collisions out of
/// any realistic request window.
pub fn mint_trace_id() -> u128 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let n = MINT_COUNTER.fetch_add(1, Ordering::Relaxed);
    let hi = splitmix64(nanos ^ n.rotate_left(32));
    let lo = splitmix64(hi ^ thread_ordinal() as u64);
    let id = ((hi as u128) << 64) | lo as u128;
    if id == 0 {
        1
    } else {
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global recorder is shared across tests in this binary, so
    /// each test uses its own stage names.
    #[test]
    fn disabled_span_records_nothing() {
        let rec = Recorder::new();
        let id = rec.register("t-disabled");
        drop(rec.span(id));
        assert!(rec.stage_stats().is_empty());
    }

    #[test]
    fn enabled_span_aggregates() {
        let rec = Recorder::new();
        rec.enable_spans();
        let id = rec.register("t-agg");
        for _ in 0..3 {
            let mut span = rec.span(id);
            span.add_items(5);
        }
        let stats = rec.stage_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "t-agg");
        assert_eq!(stats[0].count, 3);
        assert_eq!(stats[0].items, 15);
    }

    #[test]
    fn register_is_idempotent_and_bounded() {
        let rec = Recorder::new();
        let a = rec.register("t-a");
        assert_eq!(rec.register("t-a"), a);
        assert_eq!(rec.stage_name(a), "t-a");
        // Exhausting the table aliases into the last slot, never panics.
        for i in 0..2 * MAX_STAGES {
            let leaked: &'static str = Box::leak(format!("t-flood-{i}").into_boxed_str());
            let id = rec.register(leaked);
            assert!(id.index() < MAX_STAGES);
        }
    }

    /// This thread's exported spans of stage `name`. The flight rings are
    /// process-global, so tests filter by their own thread and stage.
    fn exported(name: &str) -> Vec<TraceEvent> {
        let rec = recorder();
        let tid = thread_ordinal();
        rec.trace_events()
            .into_iter()
            .filter(|e| e.tid == tid && rec.stage_name(StageId(e.stage)) == name)
            .collect()
    }

    #[test]
    fn trace_export_keeps_depth_items_and_start() {
        let _flight = flight::test_flag(true);
        recorder().enable_spans();
        {
            let _outer = span!("t-outer");
            let mut inner = span!("t-inner");
            inner.add_items(3);
        }
        let outer = exported("t-outer");
        let inner = exported("t-inner");
        assert_eq!((outer.len(), inner.len()), (1, 1));
        assert_eq!((outer[0].depth, inner[0].depth), (0, 1));
        assert_eq!((outer[0].items, inner[0].items), (0, 3));
        assert!(inner[0].ts_us >= outer[0].ts_us);
        assert!(inner[0].ts_us + inner[0].dur_us <= outer[0].ts_us + outer[0].dur_us + 1);
        let json = recorder().trace_json();
        assert!(json.contains("\"name\":\"t-inner\""));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn spans_carry_the_active_trace_id() {
        let _flight = flight::test_flag(true);
        recorder().enable_spans();
        let trace = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210;
        set_trace_id(trace);
        drop(span!("t-traceid"));
        set_trace_id(0);
        drop(span!("t-traceid"));
        let events = exported("t-traceid");
        assert_eq!(events.len(), 2);
        assert!(events.iter().any(|e| e.trace == trace));
        assert!(events.iter().any(|e| e.trace == 0));
        let json = chrome_trace_json(&events, |_| "serve".to_string());
        assert!(json.contains("\"trace_id\":\"0123456789abcdeffedcba9876543210\""));
        // Spans with no active trace omit the key entirely.
        assert_eq!(json.matches("trace_id").count(), 1);
    }

    #[test]
    fn spans_since_keeps_the_newest_completions() {
        let _flight = flight::test_flag(true);
        recorder().enable_spans();
        drop(span!("t-before-mark"));
        let mark = flight::mark();
        {
            let _root = span!("t-root");
            for _ in 0..70 {
                drop(span!("t-leaf"));
            }
        }
        let spans = flight::spans_since(mark, 64);
        let names: Vec<&str> = spans
            .iter()
            .map(|&(id, _)| recorder().stage_name(id))
            .collect();
        assert_eq!(names.len(), 64);
        // Children complete before parents, so the root is last.
        assert_eq!(names.last(), Some(&"t-root"));
        assert!(names[..63].iter().all(|n| *n == "t-leaf"), "{names:?}");
    }

    #[test]
    fn exited_threads_stay_in_the_export() {
        let _flight = flight::test_flag(true);
        recorder().enable_spans();
        let tid = std::thread::spawn(|| {
            drop(span!("t-exited"));
            thread_ordinal()
        })
        .join()
        .unwrap();
        let rec = recorder();
        assert!(rec
            .trace_events()
            .iter()
            .any(|e| e.tid == tid && rec.stage_name(StageId(e.stage)) == "t-exited"));
    }

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn annotations_drain_once() {
        annotate("cache", "hit");
        annotate("k", "v");
        let got = take_annotations();
        assert_eq!(
            got,
            vec![
                ("cache".to_string(), "hit".to_string()),
                ("k".to_string(), "v".to_string())
            ]
        );
        assert!(take_annotations().is_empty());
    }

    #[test]
    fn span_macro_works_via_global() {
        recorder().enable_spans();
        {
            let mut span = span!("t-macro");
            span.add_items(2);
            assert!(span.is_active());
        }
        let stats = recorder().stage_stats();
        let s = stats.iter().find(|s| s.name == "t-macro").unwrap();
        assert!(s.count >= 1);
    }
}
