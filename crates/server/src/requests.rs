//! The request log: every request the server finishes — served or
//! shed, fast or slow — recorded once, indexed by trace id.
//!
//! Each finished request becomes one `Arc<RequestEntry>` with its trace
//! id, stage breakdown and annotations. The recent ring holds it so
//! `GET /debug/requests/:id` can reconstruct exactly where one request
//! spent its time; when it took at least the slow threshold the slow
//! ring holds the same `Arc` for `GET /debug/slow`. Both rings are
//! bounded and drop their oldest first; an evicted id answers 404
//! (history endpoints are for the recent past, `--trace` files for
//! archaeology). The slow ring cannot be a window over the flight
//! rings: a slow request is kept for as long as 64 slower ones allow,
//! however many fast requests follow it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cpssec_attackdb::json::write_escaped;
use cpssec_obs::StageId;

/// Retained requests. At the bench's ~400 req/s this covers the last
/// second or two — enough for "why was *that* curl slow?".
pub const DEFAULT_REQUEST_LOG_CAPACITY: usize = 512;

/// Retained slow requests.
const SLOW_CAPACITY: usize = 64;

/// One finished request.
#[derive(Debug, Clone)]
pub struct RequestEntry {
    /// The request's trace id (never 0 — the server mints one when the
    /// caller didn't send `traceparent`).
    pub trace_id: u128,
    /// Matched route pattern.
    pub route: &'static str,
    /// Response status.
    pub status: u16,
    /// Unix milliseconds when the request finished.
    pub ts_ms: u64,
    /// Total wall time in microseconds.
    pub total_us: u64,
    /// Whether the trace id came from an inbound `traceparent` header.
    pub remote_parent: bool,
    /// Stage breakdown in span completion order (children first); stage
    /// ids resolve to names when rendered.
    pub stages: Vec<(StageId, u64)>,
    /// Key/value annotations (e.g. `cache=hit`, `shed=queue_full`).
    pub annotations: Vec<(String, String)>,
    /// Model content hash, when the route touched a model.
    pub model_hash: Option<u64>,
    /// Fidelity the request ran at, when the route touched a model.
    pub fidelity: Option<String>,
}

impl RequestEntry {
    /// JSON object for one entry.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192 + self.stages.len() * 40);
        out.push_str(&format!(
            "{{\"trace_id\":\"{:032x}\",\"route\":",
            self.trace_id
        ));
        write_escaped(&mut out, self.route);
        out.push_str(&format!(
            ",\"status\":{},\"ts_ms\":{},\"total_us\":{},\"remote_parent\":{}",
            self.status, self.ts_ms, self.total_us, self.remote_parent
        ));
        match self.model_hash {
            Some(h) => out.push_str(&format!(",\"model_hash\":\"{h:016x}\"")),
            None => out.push_str(",\"model_hash\":null"),
        }
        match &self.fidelity {
            Some(f) => {
                out.push_str(",\"fidelity\":");
                write_escaped(&mut out, f);
            }
            None => out.push_str(",\"fidelity\":null"),
        }
        out.push_str(",\"stages\":[");
        let recorder = cpssec_obs::recorder();
        for (i, &(stage, us)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"stage\":");
            write_escaped(&mut out, recorder.stage_name(stage));
            out.push_str(&format!(",\"us\":{us}}}"));
        }
        out.push_str("],\"annotations\":{");
        for (i, (k, v)) in self.annotations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, k);
            out.push(':');
            write_escaped(&mut out, v);
        }
        out.push_str("}}");
        out
    }
}

#[derive(Debug, Default)]
struct Rings {
    recent: VecDeque<Arc<RequestEntry>>,
    slow: VecDeque<Arc<RequestEntry>>,
}

/// Bounded rings of [`RequestEntry`]: the recent requests, looked up by
/// trace id, and the slow ones.
#[derive(Debug)]
pub struct RequestLog {
    capacity: usize,
    slow_threshold_us: u64,
    recorded: AtomicU64,
    slow_observed: AtomicU64,
    rings: Mutex<Rings>,
}

impl RequestLog {
    /// An empty log retaining at most `capacity` recent entries (min 1)
    /// and the 64 newest entries that took at least `slow_threshold_us`.
    #[must_use]
    pub fn new(capacity: usize, slow_threshold_us: u64) -> RequestLog {
        RequestLog {
            capacity: capacity.max(1),
            slow_threshold_us,
            recorded: AtomicU64::new(0),
            slow_observed: AtomicU64::new(0),
            rings: Mutex::new(Rings::default()),
        }
    }

    /// Total requests ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Total slow requests ever recorded (including evicted ones).
    pub fn slow_observed(&self) -> u64 {
        self.slow_observed.load(Ordering::Relaxed)
    }

    /// Append one finished request.
    pub fn record(&self, entry: RequestEntry) {
        let slow = entry.total_us >= self.slow_threshold_us;
        let entry = Arc::new(entry);
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut rings = self.rings.lock().expect("request log poisoned");
        if slow {
            self.slow_observed.fetch_add(1, Ordering::Relaxed);
            push_bounded(&mut rings.slow, Arc::clone(&entry), SLOW_CAPACITY);
        }
        push_bounded(&mut rings.recent, entry, self.capacity);
    }

    /// Look up a request by trace id (newest match wins, in case a
    /// caller reused a `traceparent`).
    pub fn find(&self, trace_id: u128) -> Option<Arc<RequestEntry>> {
        let rings = self.rings.lock().expect("request log poisoned");
        rings
            .recent
            .iter()
            .rev()
            .find(|e| e.trace_id == trace_id)
            .cloned()
    }

    /// The newest `n` entries as a JSON document, newest first. The
    /// flight recorder bundles this into every `.cpsflight` dump so the
    /// requests leading up to a regression are preserved alongside the
    /// event rings. Without `wait` the log is only tried, and a busy one
    /// gives `None`; a poisoned one is read as it is.
    #[must_use]
    pub fn recent_json(&self, n: usize, wait: bool) -> Option<String> {
        let rings = crate::dump_guard(wait, || self.rings.lock(), || self.rings.try_lock())?;
        let mut out = String::from("{\"requests\":[");
        for (i, entry) in rings.recent.iter().rev().take(n).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&entry.to_json());
        }
        out.push_str("]}");
        Some(out)
    }

    /// JSON document for `GET /debug/slow`: the threshold, the slow
    /// count, and the retained slow entries, newest last.
    #[must_use]
    pub fn slow_json(&self) -> String {
        let rings = self.rings.lock().expect("request log poisoned");
        let mut out = format!(
            "{{\"threshold_us\":{},\"observed\":{},\"entries\":[",
            self.slow_threshold_us,
            self.slow_observed()
        );
        for (i, entry) in rings.slow.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&entry.to_json());
        }
        out.push_str("]}");
        out
    }
}

fn push_bounded(ring: &mut VecDeque<Arc<RequestEntry>>, entry: Arc<RequestEntry>, capacity: usize) {
    if ring.len() == capacity {
        ring.pop_front();
    }
    ring.push_back(entry);
}

/// A request's trace id and whether the caller sent it: an inbound W3C
/// `traceparent` is honored, anything else gets a freshly minted id.
pub(crate) fn trace_of(request: &crate::http::Request) -> (u128, bool) {
    match request.header("traceparent").and_then(parse_traceparent) {
        Some(id) => (id, true),
        None => (cpssec_obs::mint_trace_id(), false),
    }
}

/// Parses a W3C `traceparent` header value
/// (`00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>`) into its
/// trace id. Returns `None` for anything malformed or the all-zero id,
/// per the spec's instruction to ignore invalid headers.
#[must_use]
pub fn parse_traceparent(value: &str) -> Option<u128> {
    let mut parts = value.trim().split('-');
    let version = parts.next()?;
    if version.len() != 2 || version.chars().any(|c| !c.is_ascii_hexdigit()) || version == "ff" {
        return None;
    }
    let trace = parts.next()?;
    if trace.len() != 32 || trace.chars().any(|c| !c.is_ascii_hexdigit()) {
        return None;
    }
    let parent = parts.next()?;
    if parent.len() != 16 || parent.chars().any(|c| !c.is_ascii_hexdigit()) {
        return None;
    }
    let flags = parts.next()?;
    if flags.len() != 2 || flags.chars().any(|c| !c.is_ascii_hexdigit()) {
        return None;
    }
    let id = u128::from_str_radix(trace, 16).ok()?;
    if id == 0 {
        None
    } else {
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(trace_id: u128, route: &'static str) -> RequestEntry {
        timed(trace_id, route, 42)
    }

    fn timed(trace_id: u128, route: &'static str, total_us: u64) -> RequestEntry {
        RequestEntry {
            trace_id,
            route,
            status: 200,
            ts_ms: 1_000,
            total_us,
            remote_parent: false,
            stages: vec![
                (cpssec_obs::recorder().register("tokenize"), 10),
                (cpssec_obs::recorder().register("serve-request"), 40),
            ],
            annotations: vec![("cache".to_string(), "miss".to_string())],
            model_hash: Some(0xfeed),
            fidelity: Some("implementation".to_string()),
        }
    }

    #[test]
    fn find_returns_newest_match_and_evicts_oldest() {
        let log = RequestLog::new(2, u64::MAX);
        log.record(entry(1, "GET /a"));
        log.record(entry(2, "GET /b"));
        log.record(entry(2, "GET /c")); // reused id: newest wins
        assert!(log.find(1).is_none(), "capacity 2 must evict id 1");
        assert_eq!(log.find(2).unwrap().route, "GET /c");
        assert_eq!(log.recorded(), 3);
    }

    #[test]
    fn recent_json_is_newest_first_and_bounded() {
        let log = RequestLog::new(8, u64::MAX);
        log.record(entry(1, "GET /a"));
        log.record(entry(2, "GET /b"));
        log.record(entry(3, "GET /c"));
        let json = log.recent_json(2, true).expect("waited for the log");
        assert!(json.starts_with("{\"requests\":["));
        assert!(!json.contains("GET /a"), "bounded to newest 2: {json}");
        let b = json.find("GET /b").unwrap();
        let c = json.find("GET /c").unwrap();
        assert!(c < b, "newest first: {json}");
    }

    #[test]
    fn entry_json_shape() {
        let json = entry(0xab, "GET /models/:id/associate").to_json();
        assert!(json.contains("\"trace_id\":\"000000000000000000000000000000ab\""));
        assert!(json.contains("\"route\":\"GET /models/:id/associate\""));
        assert!(json.contains("{\"stage\":\"tokenize\",\"us\":10}"));
        assert!(json.contains("{\"stage\":\"serve-request\",\"us\":40}"));
        assert!(json.contains("\"annotations\":{\"cache\":\"miss\"}"));
        assert!(json.contains("\"model_hash\":\"000000000000feed\""));
        assert!(json.contains("\"fidelity\":\"implementation\""));
    }

    #[test]
    fn slow_ring_keeps_requests_at_or_over_the_threshold() {
        let log = RequestLog::new(8, 100);
        log.record(timed(1, "GET /a", 99));
        log.record(timed(2, "GET /a", 100));
        assert_eq!(log.recorded(), 2);
        assert_eq!(log.slow_observed(), 1);
        let json = log.slow_json();
        assert!(json.starts_with("{\"threshold_us\":100,\"observed\":1,\"entries\":["));
        assert!(!json.contains(&format!("{:032x}", 1)), "{json}");
        assert!(json.contains(&format!("{:032x}", 2)), "{json}");
        // The slow ring shares the entry the recent ring holds.
        assert!(log.find(2).is_some());
    }

    #[test]
    fn slow_ring_drops_oldest_and_outlives_the_recent_ring() {
        let log = RequestLog::new(2, 0);
        for i in 0..SLOW_CAPACITY as u128 + 3 {
            log.record(timed(i, "GET /x", 10));
        }
        let json = log.slow_json();
        assert_eq!(json.matches("\"trace_id\"").count(), SLOW_CAPACITY);
        assert_eq!(log.slow_observed(), SLOW_CAPACITY as u64 + 3);
        // Oldest dropped first, newest last.
        assert!(!json.contains(&format!("\"{:032x}\"", 2)), "{json}");
        let first = json.find(&format!("\"{:032x}\"", 3)).unwrap();
        let last = json
            .find(&format!("\"{:032x}\"", SLOW_CAPACITY + 2))
            .unwrap();
        assert!(first < last);
        // Evicted from the recent ring, still in the slow one.
        assert!(log.find(3).is_none());
    }

    #[test]
    fn traceparent_accepts_valid_and_rejects_junk() {
        let id = parse_traceparent("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01");
        assert_eq!(id, Some(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef));
        for bad in [
            "",
            "00",
            "00-short-00f067aa0ba902b7-01",
            "00-0123456789abcdef0123456789abcdeZ-00f067aa0ba902b7-01",
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
            "ff-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01",
            "00-0123456789abcdef0123456789abcdef-badparent-01",
            "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-zz",
        ] {
            assert_eq!(parse_traceparent(bad), None, "{bad:?}");
        }
    }

    /// Decodes the dump `flight_dump` wrote and removes the file.
    fn take_dump(written: Result<(String, u64), String>) -> cpssec_obs::flight::FlightDump {
        let (path, len) = written.expect("dump written");
        let bytes = std::fs::read(&path).expect("dump readable");
        std::fs::remove_file(&path).expect("dump removable");
        assert_eq!(bytes.len() as u64, len);
        cpssec_obs::flight::decode(&bytes).expect("dump decodes")
    }

    #[test]
    fn a_panic_dump_passes_a_held_or_poisoned_request_log() {
        std::env::set_var("CPSSEC_FLIGHT_DIR", std::env::temp_dir());
        let state = crate::AppState::new(cpssec_attackdb::seed::seed_corpus());
        state.requests.record(entry(1, "GET /a"));
        let reason = "panic at src/x.rs:1:1: held";

        // The panicking thread holds the log: its section is a placeholder.
        let held = state.requests.rings.lock().expect("fresh lock");
        let dump = take_dump(state.flight_dump(reason));
        drop(held);
        assert_eq!(dump.reason, reason);
        assert_eq!(dump.requests_json, r#"{"busy":"request log"}"#);
        assert!(
            dump.metrics_text.contains("requests_total"),
            "{}",
            dump.metrics_text
        );

        // A panic that held the log poisoned it: the dump reads it anyway.
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = state.requests.rings.lock();
            panic!("poison");
        }));
        assert!(poisoned.is_err() && state.requests.rings.is_poisoned());
        // A server test in this binary may have installed the panic hook,
        // which dumped that panic into the same directory: remove it.
        for file in std::fs::read_dir(std::env::temp_dir())
            .into_iter()
            .flatten()
        {
            let path = file.expect("dir entry").path();
            if path.to_string_lossy().ends_with("--poison.cpsflight") {
                let _ = std::fs::remove_file(path);
            }
        }
        let dump = take_dump(state.flight_dump(reason));
        assert!(
            dump.requests_json.contains("GET /a"),
            "{}",
            dump.requests_json
        );
        assert!(dump.alerts_json.starts_with('{'), "{}", dump.alerts_json);
    }
}
