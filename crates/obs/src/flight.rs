//! Black-box flight recorder: always-on per-thread event rings plus
//! `.cpsflight` dump files.
//!
//! Every thread that emits events owns a fixed-size ring of packed
//! events (span enter/exit, request trace ids, admission sheds, alert
//! transitions, reactor readiness stalls), each stamped with the trace
//! id active on the thread. The rings are the only store of completed
//! spans: the Chrome trace export ([`crate::Recorder::trace_json`]) and
//! a served request's stage breakdown ([`spans_since`]) are views over
//! them. Pushing is single-writer — only the owning thread touches its
//! ring — guarded by a per-slot seqlock so other threads read stable
//! slots without ever blocking the writer; steady-state cost is a
//! handful of uncontended atomic stores (gated under 100 ns by E19 in
//! `crates/server/tests/release_gates.rs`).
//!
//! A dump ([`encode_dump`]) atomically snapshots every ring plus the
//! recorder's stage aggregates, the interned label table, and
//! caller-supplied context (recent-request ring, active alerts, a
//! metrics scrape) into a `.cpsflight` file: the section-table container
//! of [`crate::container`] (shared with `.cpsnap`) with byte-wise FNV-1a
//! checksums. Dumps are triggered by an SLO alert firing, a panic (via
//! [`install_panic_hook`]), SIGUSR1, or `POST /debug/flight/dump`; the
//! trigger paths all route through the process-wide hook installed with
//! [`set_dump_hook`].

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::Instant;

use crate::container::{put_u16, put_u32, put_u64, ContainerError, Format, Reader, SectionInfo};
use crate::{StageId, TraceEvent};

/// The six magic bytes every `.cpsflight` file starts with.
pub const MAGIC: [u8; 6] = *b"CPSFLT";

/// The format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 1;

/// Events retained per thread ring (oldest overwritten on wrap).
pub const DEFAULT_RING_EVENTS: usize = 2048;

const SEC_META: u16 = 1;
const SEC_LABELS: u16 = 2;
const SEC_STAGES: u16 = 3;
const SEC_EVENTS: u16 = 4;
const SEC_REQUESTS: u16 = 5;
const SEC_ALERTS: u16 = 6;
const SEC_METRICS: u16 = 7;

/// The `.cpsflight` container.
static FORMAT: Format = Format {
    magic: MAGIC,
    version: FORMAT_VERSION,
    checksum: fnv1a_64,
    sections: &[
        (SEC_META, "meta"),
        (SEC_LABELS, "labels"),
        (SEC_STAGES, "stages"),
        (SEC_EVENTS, "events"),
        (SEC_REQUESTS, "requests"),
        (SEC_ALERTS, "alerts"),
        (SEC_METRICS, "metrics"),
    ],
};

/// What happened, encoded in an event's `kind` byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// `a` = stage id.
    SpanEnter = 1,
    /// `a` = stage id, `b` = duration µs.
    SpanExit = 2,
    /// `a` = low 64 bits of the trace id, `b` = route label id << 16 | status.
    Request = 3,
    /// `a` = route label id, `b` = reason label id.
    Shed = 4,
    /// `a` = route label id, `b` = 1 firing / 0 resolved.
    Alert = 5,
    /// `a` = stall µs (reactor thread away from its poller).
    ReactorStall = 6,
}

impl FlightKind {
    pub fn from_u8(v: u8) -> Option<FlightKind> {
        match v {
            1 => Some(FlightKind::SpanEnter),
            2 => Some(FlightKind::SpanExit),
            3 => Some(FlightKind::Request),
            4 => Some(FlightKind::Shed),
            5 => Some(FlightKind::Alert),
            6 => Some(FlightKind::ReactorStall),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::SpanEnter => "span-enter",
            FlightKind::SpanExit => "span-exit",
            FlightKind::Request => "request",
            FlightKind::Shed => "shed",
            FlightKind::Alert => "alert",
            FlightKind::ReactorStall => "reactor-stall",
        }
    }
}

struct EventSlot {
    seq: AtomicU64,
    ts_us: AtomicU64,
    /// kind (8 bits) | span depth (16 bits) | span items (40 bits,
    /// saturating). Only a `SpanExit` fills the upper bits; a dump keeps
    /// the kind byte.
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    /// Trace id active on the thread when the event was pushed (0 = none).
    trace_hi: AtomicU64,
    trace_lo: AtomicU64,
}

/// Largest item count a `SpanExit` slot holds.
const ITEMS_MAX: u64 = (1 << 40) - 1;

/// One stable slot as the live readers see it: the dump's four fields
/// plus the span depth, item count and trace id, which a dump leaves out.
#[derive(Debug, Clone, Copy)]
struct LiveEvent {
    event: FlightEvent,
    depth: u16,
    items: u64,
    trace: u128,
}

/// One thread's event ring. Single writer (the owning thread); other
/// threads read stable slots through the per-slot seqlock.
struct EventRing {
    tid: u32,
    head: AtomicU64,
    slots: Box<[EventSlot]>,
}

impl EventRing {
    fn new(tid: u32, capacity: usize) -> Self {
        EventRing {
            tid,
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1))
                .map(|_| EventSlot {
                    seq: AtomicU64::new(0),
                    ts_us: AtomicU64::new(0),
                    kind: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                    trace_hi: AtomicU64::new(0),
                    trace_lo: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Append one event. Only the owning thread calls this, so the head
    /// and the slot sequence are plain loads and stores, not
    /// read-modify-writes.
    fn push(&self, ts_us: u64, kind: u64, a: u64, b: u64, trace: u128) {
        let n = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq + 1, Ordering::Relaxed); // odd: write in progress
        fence(Ordering::Release);
        slot.ts_us.store(ts_us, Ordering::Relaxed);
        slot.kind.store(kind, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.trace_hi.store((trace >> 64) as u64, Ordering::Relaxed);
        slot.trace_lo.store(trace as u64, Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release); // even: stable
        self.head.store(n + 1, Ordering::Release);
    }

    /// Events pushed at or after position `from`, in push order. Only the
    /// newest `capacity` are still held. A slot is read only while its
    /// sequence says it holds exactly event `n`, so a slot being written,
    /// or one already lapped by the writer, is skipped rather than torn
    /// or read out of order.
    fn read(&self, from: u64) -> impl Iterator<Item = LiveEvent> + '_ {
        let cap = self.slots.len() as u64;
        let head = self.head.load(Ordering::Acquire);
        (from.max(head.saturating_sub(cap))..head).filter_map(move |n| {
            let slot = &self.slots[(n % cap) as usize];
            // The k-th write to a slot leaves its sequence at 2(k + 1).
            let want = 2 * (n / cap + 1);
            if slot.seq.load(Ordering::Acquire) != want {
                return None;
            }
            let ts_us = slot.ts_us.load(Ordering::Relaxed);
            let word = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let hi = slot.trace_hi.load(Ordering::Relaxed);
            let lo = slot.trace_lo.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != want {
                return None;
            }
            let kind = FlightKind::from_u8(word as u8)?;
            Some(LiveEvent {
                event: FlightEvent { ts_us, kind, a, b },
                depth: (word >> 8) as u16,
                items: word >> 24,
                trace: (u128::from(hi) << 64) | u128::from(lo),
            })
        })
    }
}

/// Exited threads whose rings stay readable, oldest dropped first: a
/// `--trace` export after a fan-out or a pool drain still shows the
/// threads that did the work.
const EXITED_RINGS: usize = 32;

/// Process-global flight recorder state.
pub struct Flight {
    epoch: Instant,
    enabled: AtomicBool,
    /// Every live ring plus up to [`EXITED_RINGS`] of exited threads, in
    /// registration order. A ring only the registry holds is an exited
    /// thread's.
    rings: Mutex<Vec<Arc<EventRing>>>,
    labels: RwLock<Vec<String>>,
}

static FLIGHT: OnceLock<Flight> = OnceLock::new();

/// The process-global flight recorder.
pub fn flight() -> &'static Flight {
    FLIGHT.get_or_init(|| Flight {
        epoch: Instant::now(),
        enabled: AtomicBool::new(false),
        rings: Mutex::new(Vec::new()),
        labels: RwLock::new(Vec::new()),
    })
}

impl Flight {
    fn rings(&self) -> Vec<Arc<EventRing>> {
        self.rings.lock().unwrap().clone()
    }
}

thread_local! {
    static RING: Arc<EventRing> = {
        let f = flight();
        let ring = Arc::new(EventRing::new(crate::thread_ordinal(), DEFAULT_RING_EVENTS));
        let mut rings = f.rings.lock().unwrap();
        let exited = rings.iter().filter(|r| Arc::strong_count(r) == 1).count();
        let mut excess = exited.saturating_sub(EXITED_RINGS);
        rings.retain(|r| {
            let drop = excess > 0 && Arc::strong_count(r) == 1;
            excess -= usize::from(drop);
            !drop
        });
        rings.push(Arc::clone(&ring));
        ring
    };
}

/// Whether event recording is on (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    flight().enabled.load(Ordering::Relaxed)
}

/// Turn event recording on or off process-wide.
pub fn set_enabled(on: bool) {
    flight().enabled.store(on, Ordering::Relaxed);
}

/// Record one event on this thread's ring, stamped with the thread's
/// current trace id. No-op while disabled.
#[inline]
pub fn event(kind: FlightKind, a: u64, b: u64) {
    let f = flight();
    if f.enabled.load(Ordering::Relaxed) {
        push(f.epoch.elapsed().as_micros() as u64, kind as u64, a, b);
    }
}

/// Record a span opening at `start` (`a` = stage).
pub(crate) fn span_enter(stage: StageId, start: Instant) {
    let f = flight();
    if f.enabled.load(Ordering::Relaxed) {
        let ts_us = start.saturating_duration_since(f.epoch).as_micros() as u64;
        push(ts_us, FlightKind::SpanEnter as u64, u64::from(stage.0), 0);
    }
}

/// Record a completed span: `a` = stage, `b` = duration, and the depth
/// and item count in the kind word. Its timestamp is the span's start
/// plus its duration, so a reader recovers the start exactly.
pub(crate) fn span_exit(stage: StageId, start: Instant, dur_us: u64, depth: u16, items: u64) {
    let f = flight();
    if f.enabled.load(Ordering::Relaxed) {
        let ts_us = start.saturating_duration_since(f.epoch).as_micros() as u64 + dur_us;
        let kind = FlightKind::SpanExit as u64 | u64::from(depth) << 8 | items.min(ITEMS_MAX) << 24;
        push(ts_us, kind, u64::from(stage.0), dur_us);
    }
}

#[inline]
fn push(ts_us: u64, kind: u64, a: u64, b: u64) {
    let trace = crate::current_trace_id();
    RING.with(|ring| ring.push(ts_us, kind, a, b, trace));
}

/// This thread's ring position: [`spans_since`] with it reads what the
/// thread records afterwards.
pub fn mark() -> u64 {
    RING.with(|ring| ring.head.load(Ordering::Relaxed))
}

/// The spans this thread completed since `mark`, as (stage, µs) in
/// completion order (children before parents), newest `max` kept. The
/// ring has one writer, this thread, so the read takes no lock.
pub fn spans_since(mark: u64, max: usize) -> Vec<(StageId, u64)> {
    let mut spans: Vec<(StageId, u64)> = RING.with(|ring| {
        ring.read(mark)
            .filter(|e| e.event.kind == FlightKind::SpanExit)
            .map(|e| (StageId(e.event.a as u16), e.event.b))
            .collect()
    });
    spans.drain(..spans.len().saturating_sub(max));
    spans
}

/// Every completed span the rings hold, live threads and retained
/// exited ones, ordered by start time.
pub(crate) fn span_events() -> Vec<TraceEvent> {
    let rings = flight().rings();
    let mut out: Vec<TraceEvent> = rings
        .iter()
        .flat_map(|ring| {
            ring.read(0)
                .filter(|e| e.event.kind == FlightKind::SpanExit)
                .map(|e| TraceEvent {
                    stage: e.event.a as u16,
                    depth: e.depth,
                    tid: ring.tid,
                    ts_us: e.event.ts_us.saturating_sub(e.event.b),
                    dur_us: e.event.b,
                    items: e.items,
                    trace: e.trace,
                })
        })
        .collect();
    out.sort_by_key(|e| (e.ts_us, std::cmp::Reverse(e.dur_us)));
    out
}

/// Intern a label (route name, shed reason, …) into the dump's string
/// table, returning its id. Idempotent; ids are stable for the life of
/// the process.
pub fn label_id(text: &str) -> u64 {
    let f = flight();
    {
        let labels = f.labels.read().unwrap();
        if let Some(i) = labels.iter().position(|l| l == text) {
            return i as u64;
        }
    }
    let mut labels = f.labels.write().unwrap();
    if let Some(i) = labels.iter().position(|l| l == text) {
        return i as u64;
    }
    labels.push(text.to_owned());
    (labels.len() - 1) as u64
}

/// Resolve a label id back to its text (for live rendering).
pub fn label_text(id: u64) -> String {
    flight()
        .labels
        .read()
        .unwrap()
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| format!("label-{id}"))
}

/// Microseconds since the flight epoch (the timestamp base every
/// event uses).
pub fn now_us() -> u64 {
    flight().epoch.elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------------
// Dump triggers.

type DumpHook = Arc<dyn Fn(&str) -> Result<String, String> + Send + Sync>;

static DUMP_HOOK: OnceLock<Mutex<Option<DumpHook>>> = OnceLock::new();

thread_local! {
    /// Set while this thread runs the dump hook: a panic inside the hook
    /// reaches the panic hook's `trigger_dump`, which must not dump again.
    static DUMPING: Cell<bool> = const { Cell::new(false) };
}

/// The hook slot. A poisoned lock still holds a valid hook: the slot is
/// only ever replaced whole, and the hook never runs under the lock.
fn hook_slot() -> MutexGuard<'static, Option<DumpHook>> {
    DUMP_HOOK
        .get_or_init(|| Mutex::new(None))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Install the process-wide dump hook: given a reason, write a
/// `.cpsflight` file and return its path. The server installs one that
/// bundles its request ring, alerts, and metrics into the dump.
pub fn set_dump_hook(hook: impl Fn(&str) -> Result<String, String> + Send + Sync + 'static) {
    *hook_slot() = Some(Arc::new(hook));
}

/// Fire the installed dump hook. `None` when no hook is installed, or when
/// this thread is already inside it (a panic raised by the hook itself):
/// the dump in progress is the one that counts, and the panic unwinds.
pub fn trigger_dump(reason: &str) -> Option<Result<String, String>> {
    /// Clears the thread's `DUMPING` flag on return and on unwind.
    struct Dumping;
    impl Drop for Dumping {
        fn drop(&mut self) {
            DUMPING.with(|flag| flag.set(false));
        }
    }
    if DUMPING.with(|flag| flag.replace(true)) {
        return None;
    }
    let _dumping = Dumping;
    // Cloned out, so the slot's lock is released before the hook runs.
    let hook = hook_slot().clone();
    hook.map(|hook| hook(reason))
}

/// Chain a panic hook that writes a flight dump (via the installed
/// dump hook) before the previous handler runs. The dump's reason is
/// `panic at FILE:LINE:COL: MESSAGE`. Idempotent.
pub fn install_panic_hook() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("Box<dyn Any>");
        let reason = match info.location() {
            Some(at) => format!("panic at {at}: {message}"),
            None => format!("panic: {message}"),
        };
        if let Some(Ok(path)) = trigger_dump(&reason) {
            eprintln!("flight recorder: wrote {path}");
        }
        previous(info);
    }));
}

// ---------------------------------------------------------------------------
// Wire helpers (little-endian, as the container writes).

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).expect("string fits u32"));
    out.extend_from_slice(s.as_bytes());
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over bytes (dump payloads are small; no word folding needed).
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Errors while reading a `.cpsflight` dump; every variant renders as
/// one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightError {
    Truncated,
    BadMagic,
    UnsupportedVersion(u16),
    ChecksumMismatch(&'static str),
    Corrupt(String),
}

impl std::fmt::Display for FlightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightError::Truncated => f.write_str("flight dump is truncated"),
            FlightError::BadMagic => f.write_str("not a cpsflight dump (bad magic)"),
            FlightError::UnsupportedVersion(v) => {
                write!(f, "unsupported flight format version {v}")
            }
            FlightError::ChecksumMismatch(name) => {
                write!(f, "checksum mismatch in section `{name}`")
            }
            FlightError::Corrupt(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for FlightError {}

impl From<ContainerError> for FlightError {
    fn from(e: ContainerError) -> Self {
        match e {
            ContainerError::Truncated => FlightError::Truncated,
            ContainerError::BadMagic => FlightError::BadMagic,
            ContainerError::UnsupportedVersion(v) => FlightError::UnsupportedVersion(v),
            ContainerError::ChecksumMismatch(name) => FlightError::ChecksumMismatch(name),
            ContainerError::Corrupt(msg) => FlightError::Corrupt(msg),
        }
    }
}

fn read_str(r: &mut Reader<'_>) -> Result<String, FlightError> {
    let len = r.u32()? as usize;
    String::from_utf8(r.take(len)?.to_vec())
        .map_err(|_| FlightError::Corrupt("invalid UTF-8 in flight dump string".into()))
}

// ---------------------------------------------------------------------------
// Dump encode / decode.

/// Caller-supplied context bundled into a dump alongside the rings.
#[derive(Debug, Clone, Default)]
pub struct DumpInput<'a> {
    /// Why the dump fired (`slo-alert:<route>`, `panic at <location>:
    /// <message>`, `sigusr1`, `manual`).
    pub reason: &'a str,
    /// Recent-request ring as JSON (server-provided; may be empty).
    pub requests_json: &'a str,
    /// Active alerts as JSON (server-provided; may be empty).
    pub alerts_json: &'a str,
    /// A metrics scrape in Prometheus text format (may be empty).
    pub metrics_text: &'a str,
}

/// One decoded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// µs since the flight epoch.
    pub ts_us: u64,
    pub kind: FlightKind,
    pub a: u64,
    pub b: u64,
}

/// One thread's decoded event timeline.
#[derive(Debug, Clone)]
pub struct ThreadEvents {
    pub tid: u32,
    pub events: Vec<FlightEvent>,
}

/// Stage aggregate line carried in the `stages` section.
#[derive(Debug, Clone)]
pub struct StageLine {
    pub id: u16,
    pub name: String,
    pub count: u64,
    pub total_us: u64,
    pub p50_us: u64,
    pub p99_us: u64,
}

/// Fully decoded `.cpsflight` dump.
#[derive(Debug, Clone)]
pub struct FlightDump {
    pub reason: String,
    /// Wall clock at dump time, ms since the UNIX epoch.
    pub wall_ms: u64,
    /// Flight-epoch age at dump time, µs (upper bound on event ts).
    pub dumped_at_us: u64,
    pub labels: Vec<String>,
    pub stages: Vec<StageLine>,
    pub threads: Vec<ThreadEvents>,
    pub requests_json: String,
    pub alerts_json: String,
    pub metrics_text: String,
}

impl FlightDump {
    /// Total events across all threads.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    fn label(&self, id: u64) -> &str {
        self.labels.get(id as usize).map_or("?", |s| s.as_str())
    }

    fn stage_name(&self, id: u64) -> &str {
        self.stages
            .iter()
            .find(|s| u64::from(s.id) == id)
            .map_or("?", |s| s.name.as_str())
    }

    /// Human-readable one-line rendering of one event.
    pub fn describe(&self, e: &FlightEvent) -> String {
        match e.kind {
            FlightKind::SpanEnter => format!("span-enter {}", self.stage_name(e.a)),
            FlightKind::SpanExit => {
                format!("span-exit  {} ({} µs)", self.stage_name(e.a), e.b)
            }
            FlightKind::Request => format!(
                "request    {} -> {} (trace ..{:016x})",
                self.label(e.b >> 16),
                e.b & 0xffff,
                e.a
            ),
            FlightKind::Shed => format!("shed       {} ({})", self.label(e.a), self.label(e.b)),
            FlightKind::Alert => format!(
                "alert      {} {}",
                self.label(e.a),
                if e.b == 1 { "FIRING" } else { "resolved" }
            ),
            FlightKind::ReactorStall => format!("stall      reactor busy {} µs", e.a),
        }
    }

    /// Per-thread timeline for `cpssec flight inspect`.
    pub fn timeline(&self) -> String {
        let mut out = format!(
            "reason: {}  wall: {} ms  window: 0..{} µs  {} events on {} threads\n",
            self.reason,
            self.wall_ms,
            self.dumped_at_us,
            self.event_count(),
            self.threads.len()
        );
        for thread in &self.threads {
            out.push_str(&format!(
                "thread {} ({} events):\n",
                thread.tid,
                thread.events.len()
            ));
            for e in &thread.events {
                out.push_str(&format!("  {:>12} µs  {}\n", e.ts_us, self.describe(e)));
            }
        }
        if !self.stages.is_empty() {
            out.push_str("stages:\n");
            for s in &self.stages {
                out.push_str(&format!(
                    "  {:<24} count {:>8}  total {:>10} µs  p50 {:>8}  p99 {:>8}\n",
                    s.name, s.count, s.total_us, s.p50_us, s.p99_us
                ));
            }
        }
        out
    }
}

/// Snapshot every ring (live and retained exited threads) + recorder
/// aggregates + caller context into `.cpsflight` bytes.
pub fn encode_dump(input: &DumpInput<'_>) -> Vec<u8> {
    let f = flight();

    let mut meta = Vec::new();
    let wall_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    put_u64(&mut meta, wall_ms);
    put_u64(&mut meta, now_us());
    put_str(&mut meta, input.reason);

    let mut labels_payload = Vec::new();
    {
        let labels = f.labels.read().unwrap();
        put_u32(&mut labels_payload, labels.len() as u32);
        for label in labels.iter() {
            put_str(&mut labels_payload, label);
        }
    }

    let mut stages_payload = Vec::new();
    {
        let rec = crate::recorder();
        let stats = rec.stage_stats();
        put_u32(&mut stages_payload, stats.len() as u32);
        for s in &stats {
            put_u16(&mut stages_payload, s.id.0);
            put_str(&mut stages_payload, s.name);
            put_u64(&mut stages_payload, s.count);
            put_u64(&mut stages_payload, s.total_us);
            put_u64(&mut stages_payload, s.p50_us);
            put_u64(&mut stages_payload, s.p99_us);
        }
    }

    let mut events_payload = Vec::new();
    {
        let rings = f.rings();
        put_u32(&mut events_payload, rings.len() as u32);
        for ring in rings {
            let events: Vec<FlightEvent> = ring.read(0).map(|e| e.event).collect();
            put_u32(&mut events_payload, ring.tid);
            put_u32(&mut events_payload, events.len() as u32);
            for e in events {
                put_u64(&mut events_payload, e.ts_us);
                events_payload.push(e.kind as u8);
                put_u64(&mut events_payload, e.a);
                put_u64(&mut events_payload, e.b);
            }
        }
    }

    FORMAT.assemble(&[
        &meta,
        &labels_payload,
        &stages_payload,
        &events_payload,
        input.requests_json.as_bytes(),
        input.alerts_json.as_bytes(),
        input.metrics_text.as_bytes(),
    ])
}

/// Header-level description of a dump (no payload decoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightInfo {
    pub version: u16,
    pub dump_id: u64,
    pub sections: Vec<SectionInfo>,
}

/// Parse the header and section table (checksums verified) without
/// decoding payloads.
pub fn inspect(bytes: &[u8]) -> Result<FlightInfo, FlightError> {
    let table = FORMAT.split(bytes)?;
    table.verify()?;
    Ok(FlightInfo {
        version: FORMAT_VERSION,
        dump_id: table.id,
        sections: table.sections,
    })
}

/// Fully decode a dump, verifying every section checksum. Item counts
/// come from the file, so nothing is reserved from them: a hostile count
/// runs the reader out of bytes and fails as truncated.
pub fn decode(bytes: &[u8]) -> Result<FlightDump, FlightError> {
    let table = FORMAT.split(bytes)?;
    table.verify()?;

    let mut r = Reader::new(table.payload(SEC_META)?);
    let wall_ms = r.u64()?;
    let dumped_at_us = r.u64()?;
    let reason = read_str(&mut r)?;

    let mut r = Reader::new(table.payload(SEC_LABELS)?);
    let count = r.u32()?;
    let mut labels = Vec::new();
    for _ in 0..count {
        labels.push(read_str(&mut r)?);
    }

    let mut r = Reader::new(table.payload(SEC_STAGES)?);
    let count = r.u32()?;
    let mut stages = Vec::new();
    for _ in 0..count {
        stages.push(StageLine {
            id: r.u16()?,
            name: read_str(&mut r)?,
            count: r.u64()?,
            total_us: r.u64()?,
            p50_us: r.u64()?,
            p99_us: r.u64()?,
        });
    }

    let mut r = Reader::new(table.payload(SEC_EVENTS)?);
    let thread_count = r.u32()?;
    let mut threads = Vec::new();
    for _ in 0..thread_count {
        let tid = r.u32()?;
        let event_count = r.u32()?;
        let mut events = Vec::new();
        for _ in 0..event_count {
            let ts_us = r.u64()?;
            let kind_byte = r.take(1)?[0];
            let a = r.u64()?;
            let b = r.u64()?;
            let kind = FlightKind::from_u8(kind_byte).ok_or_else(|| {
                FlightError::Corrupt(format!("unknown event kind {kind_byte} in flight dump"))
            })?;
            events.push(FlightEvent { ts_us, kind, a, b });
        }
        threads.push(ThreadEvents { tid, events });
    }

    let text = |id: u16| -> Result<String, FlightError> {
        String::from_utf8(table.payload(id)?.to_vec())
            .map_err(|_| FlightError::Corrupt("invalid UTF-8 in flight dump section".into()))
    };

    Ok(FlightDump {
        reason,
        wall_ms,
        dumped_at_us,
        labels,
        stages,
        threads,
        requests_json: text(SEC_REQUESTS)?,
        alerts_json: text(SEC_ALERTS)?,
        metrics_text: text(SEC_METRICS)?,
    })
}

/// Serializes tests that depend on the process-wide enabled flag and
/// sets it: the flag is global, and tests run in parallel.
#[cfg(test)]
pub(crate) fn test_flag(on: bool) -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    set_enabled(on);
    guard
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pushed(ring: &EventRing) -> Vec<u64> {
        ring.read(0).map(|e| e.event.a).collect()
    }

    #[test]
    fn ring_push_wraps_keeping_latest() {
        let ring = EventRing::new(1, 4);
        for i in 0..10u64 {
            ring.push(i, FlightKind::SpanEnter as u64, i, 0, 0);
        }
        assert_eq!(pushed(&ring), [6, 7, 8, 9]);
        assert_eq!(ring.read(8).count(), 2);
    }

    #[test]
    fn ring_reads_in_push_order_across_the_wrap() {
        // Equal timestamps on both sides of the wrap point: a 0 µs span
        // must still read enter before exit.
        let ring = EventRing::new(1, 4);
        for i in 0..6u64 {
            let kind = if i % 2 == 0 {
                FlightKind::SpanEnter
            } else {
                FlightKind::SpanExit
            };
            ring.push(7, kind as u64, i, 0, 0);
        }
        assert_eq!(pushed(&ring), [2, 3, 4, 5]);
        let kinds: Vec<FlightKind> = ring.read(0).map(|e| e.event.kind).collect();
        assert_eq!(kinds[0], FlightKind::SpanEnter);
        assert_eq!(kinds[1], FlightKind::SpanExit);
    }

    #[test]
    fn span_exit_slots_carry_depth_items_and_trace() {
        let ring = EventRing::new(1, 4);
        let word = FlightKind::SpanExit as u64 | 3 << 8 | (ITEMS_MAX + 5).min(ITEMS_MAX) << 24;
        ring.push(10, word, 2, 5, 0xabc);
        let e = ring.read(0).next().unwrap();
        assert_eq!(
            e.event,
            FlightEvent {
                ts_us: 10,
                kind: FlightKind::SpanExit,
                a: 2,
                b: 5
            }
        );
        assert_eq!((e.depth, e.items, e.trace), (3, ITEMS_MAX, 0xabc));
    }

    #[test]
    fn disabled_event_records_nothing() {
        let _flight = test_flag(false);
        let mark = mark();
        event(FlightKind::Shed, 0, 0);
        assert_eq!(super::mark(), mark);
    }

    #[test]
    fn labels_intern_idempotently() {
        let a = label_id("t-flight-route");
        let b = label_id("t-flight-route");
        assert_eq!(a, b);
        assert_eq!(label_text(a), "t-flight-route");
        let c = label_id("t-flight-other");
        assert_ne!(a, c);
    }

    #[test]
    fn dump_round_trips_events_labels_and_context() {
        let _flight = test_flag(true);
        let route = label_id("t-dump-route");
        let reason = label_id("queue-full");
        event(FlightKind::Shed, route, reason);
        event(FlightKind::Request, 0xdead_beef, (route << 16) | 200);
        event(FlightKind::ReactorStall, 12_345, 0);

        let bytes = encode_dump(&DumpInput {
            reason: "manual",
            requests_json: "[{\"x\":1}]",
            alerts_json: "[]",
            metrics_text: "up 1\n",
        });
        let info = inspect(&bytes).expect("inspect");
        assert_eq!(info.version, FORMAT_VERSION);
        assert_eq!(info.sections.len(), 7);
        assert!(info.sections.iter().all(|s| s.offset % 8 == 0));

        let dump = decode(&bytes).expect("decode");
        assert_eq!(dump.reason, "manual");
        assert_eq!(dump.requests_json, "[{\"x\":1}]");
        assert_eq!(dump.alerts_json, "[]");
        assert_eq!(dump.metrics_text, "up 1\n");
        assert!(dump.event_count() >= 3, "{dump:?}");
        let all: Vec<FlightEvent> = dump
            .threads
            .iter()
            .flat_map(|t| t.events.iter().copied())
            .collect();
        let shed = all.iter().find(|e| e.kind == FlightKind::Shed).unwrap();
        assert_eq!(dump.labels[shed.a as usize], "t-dump-route");
        assert_eq!(dump.labels[shed.b as usize], "queue-full");
        let timeline = dump.timeline();
        assert!(timeline.contains("shed"), "{timeline}");
        assert!(timeline.contains("t-dump-route"), "{timeline}");
        assert!(timeline.contains("reactor busy 12345 µs"), "{timeline}");
    }

    #[test]
    fn dump_names_stages_by_registered_index() {
        let _flight = test_flag(true);
        let rec = crate::recorder();
        rec.enable_spans();
        // A stage that never completes is left out of the stage lines,
        // but every later stage keeps its registered index on the wire.
        rec.register("t-dump-never");
        let done = rec.register("t-dump-done");
        drop(rec.span(done));
        let dump = decode(&encode_dump(&DumpInput::default())).expect("decode");
        let tid = crate::thread_ordinal();
        let thread = dump.threads.iter().find(|t| t.tid == tid).unwrap();
        let exit = thread
            .events
            .iter()
            .rev()
            .find(|e| e.kind == FlightKind::SpanExit && e.a == u64::from(done.0))
            .unwrap();
        assert!(
            dump.describe(exit).contains("t-dump-done"),
            "{}",
            dump.describe(exit)
        );
    }

    #[test]
    fn corruption_yields_distinct_one_line_errors() {
        let bytes = encode_dump(&DumpInput {
            reason: "corruption-test",
            ..DumpInput::default()
        });

        // Truncation.
        let err = decode(&bytes[..bytes.len() / 2]).unwrap_err();
        assert_eq!(err.to_string(), "flight dump is truncated");

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'Z';
        assert_eq!(
            decode(&bad).unwrap_err().to_string(),
            "not a cpsflight dump (bad magic)"
        );

        // Unsupported version.
        let mut bad = bytes.clone();
        bad[6] = 0xFE;
        let msg = decode(&bad).unwrap_err().to_string();
        assert!(msg.contains("unsupported flight format version"), "{msg}");

        // Payload bit flip -> checksum mismatch naming the section.
        let info = inspect(&bytes).expect("inspect");
        let meta = info.sections.iter().find(|s| s.name == "meta").unwrap();
        let mut bad = bytes.clone();
        bad[meta.offset as usize] ^= 0x01;
        let msg = decode(&bad).unwrap_err().to_string();
        assert_eq!(msg, "checksum mismatch in section `meta`");
        for err in [
            FlightError::Truncated,
            FlightError::BadMagic,
            FlightError::UnsupportedVersion(9),
            FlightError::ChecksumMismatch("events"),
        ] {
            assert_eq!(err.to_string().lines().count(), 1);
        }
    }

    #[test]
    fn trigger_dump_without_hook_is_none() {
        // The hook is process-global; only assert the no-hook path when
        // nothing installed one yet.
        if hook_slot().is_none() {
            assert!(trigger_dump("manual").is_none());
        }
    }
}
