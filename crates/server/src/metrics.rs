//! Request counters and latency histograms, rendered as Prometheus-style
//! plain text.
//!
//! Latencies go into a per-route log-linear [`cpssec_obs::Histogram`]
//! (1 µs .. ~16.7 s, ≤6.25% relative error), so `/metrics` can report
//! both cumulative `le` buckets and p50/p90/p99/p999 extractions. The
//! hot path takes a read lock on the route table plus a handful of
//! relaxed atomic increments; the write lock is only taken the first
//! time a route is seen.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use cpssec_obs::hist::Snapshot;
use cpssec_obs::Histogram;

/// `Content-Type` of the exposition format this module renders.
pub const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Rendered histogram bucket bounds (µs): powers of four spanning the
/// whole tracked range. These align with the underlying octave
/// boundaries, so cumulative counts carry at most one sub-bucket
/// (6.25%) of edge fuzz.
const RENDER_LE_US: [u64; 13] = [
    1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
];

/// Reported latency quantiles.
const QUANTILES: [(&str, f64); 4] = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

struct RouteStats {
    count: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

impl RouteStats {
    fn new() -> RouteStats {
        RouteStats {
            count: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: Histogram::new(),
        }
    }
}

/// Startup facts recorded once when the shared state is built: how long
/// the index came up and whether it was decoded from a snapshot (hit) or
/// built from the corpus (miss).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StartupStats {
    /// Wall time to produce the ready-to-query state, in microseconds:
    /// the index build, or on a snapshot boot the snapshot decode.
    pub index_load_us: u64,
    /// Engines decoded from a `.cpsnap` snapshot.
    pub snapshot_hits: u64,
    /// Engines built from the corpus (no usable snapshot).
    pub snapshot_misses: u64,
    /// Wall time from snapshot bytes to a query-ready state, in
    /// microseconds: the full snapshot decode (checksum pass, corpus,
    /// engines), the number the cold-start budget is asserted against;
    /// 0 when no snapshot was involved.
    pub snapshot_load_us: u64,
}

/// Live corpus-state gauges: owned by the app state, bumped on delta
/// applies and compactions, sampled into both `/metrics` and the
/// time-series store each telemetry tick.
#[derive(Debug, Default)]
pub struct CorpusGauges {
    /// Records across all three families (patterns + weaknesses +
    /// vulnerabilities) in the currently installed corpus generation.
    pub corpus_records: AtomicU64,
    /// `.cpsdelta` batches applied since boot.
    pub delta_applies_total: AtomicU64,
    /// Delta compactions (rebase into a fresh base snapshot) since boot.
    pub compactions_total: AtomicU64,
    /// Bytes of the mapped snapshot image backing the zero-copy view
    /// (0 when the state was built from a corpus, not a snapshot).
    pub snapshot_mapped_bytes: AtomicU64,
}

/// Point-in-time copy of [`CorpusGauges`], as consumed by
/// [`Metrics::render`] and the telemetry tick.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSample {
    /// See [`CorpusGauges::corpus_records`].
    pub corpus_records: u64,
    /// See [`CorpusGauges::delta_applies_total`].
    pub delta_applies_total: u64,
    /// See [`CorpusGauges::compactions_total`].
    pub compactions_total: u64,
    /// See [`CorpusGauges::snapshot_mapped_bytes`].
    pub snapshot_mapped_bytes: u64,
}

impl CorpusGauges {
    /// Reads every gauge once (relaxed; the gauges are monotonic or
    /// last-write-wins, so a torn multi-gauge read is harmless).
    #[must_use]
    pub fn sample(&self) -> CorpusSample {
        CorpusSample {
            corpus_records: self.corpus_records.load(Ordering::Relaxed),
            delta_applies_total: self.delta_applies_total.load(Ordering::Relaxed),
            compactions_total: self.compactions_total.load(Ordering::Relaxed),
            snapshot_mapped_bytes: self.snapshot_mapped_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Per-route request counters plus latency histograms.
#[derive(Default)]
pub struct Metrics {
    routes: RwLock<HashMap<String, Arc<RouteStats>>>,
}

/// Point-in-time copy of one route's counters, as returned by
/// [`Metrics::snapshot_all`]; the telemetry tick diffs consecutive
/// copies to get per-tick windows.
#[derive(Debug, Clone)]
pub struct RouteObservation {
    /// Cumulative request count.
    pub count: u64,
    /// Cumulative error (status >= 400) count.
    pub errors: u64,
    /// Cumulative latency histogram.
    pub latency: Snapshot,
}

/// Escapes a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n` (the exposition format's full escape set for label values).
#[must_use]
pub fn escape_label(value: &str) -> Cow<'_, str> {
    if !value.contains(['\\', '"', '\n']) {
        return Cow::Borrowed(value);
    }
    let mut out = String::with_capacity(value.len() + 2);
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Collapses raw model ids in a route label to the `:id` pattern, so the
/// label set stays bounded no matter how many sessions exist. `dispatch`
/// already reports patterns, but `record` is public — normalizing here
/// keeps a caller passing a concrete path (`GET /models/a1b2/associate`)
/// from minting one label per model hash.
fn normalize_route(route: &str) -> Cow<'_, str> {
    const MARK: &str = "/models/";
    let Some(pos) = route.find(MARK) else {
        return Cow::Borrowed(route);
    };
    let id_start = pos + MARK.len();
    let rest = &route[id_start..];
    if rest.is_empty() {
        return Cow::Borrowed(route);
    }
    let id_end = rest.find('/').map_or(route.len(), |i| id_start + i);
    if &route[id_start..id_end] == ":id" {
        return Cow::Borrowed(route);
    }
    Cow::Owned(format!("{}:id{}", &route[..id_start], &route[id_end..]))
}

impl Metrics {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn route_stats(&self, route: &str) -> Arc<RouteStats> {
        if let Some(stats) = self.routes.read().expect("metrics poisoned").get(route) {
            return Arc::clone(stats);
        }
        let mut routes = self.routes.write().expect("metrics poisoned");
        Arc::clone(
            routes
                .entry(route.to_owned())
                .or_insert_with(|| Arc::new(RouteStats::new())),
        )
    }

    /// Records one request against `route` (the matched pattern, e.g.
    /// `GET /models/:id/associate`; raw model ids are normalized to the
    /// pattern first).
    pub fn record(&self, route: &str, status: u16, elapsed: Duration) {
        let elapsed_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let stats = self.route_stats(normalize_route(route).as_ref());
        stats.count.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        stats.latency.record(elapsed_us);
    }

    /// Total requests recorded across all routes.
    pub fn total_requests(&self) -> u64 {
        let routes = self.routes.read().expect("metrics poisoned");
        routes
            .values()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Point-in-time copies of every route's counters, sorted by route.
    pub fn snapshot_all(&self) -> Vec<(String, RouteObservation)> {
        self.observe(true).unwrap_or_default()
    }

    /// [`Self::snapshot_all`]; `None` only without `wait` ([`crate::dump_guard`]).
    fn observe(&self, wait: bool) -> Option<Vec<(String, RouteObservation)>> {
        let routes: Vec<(String, Arc<RouteStats>)> = {
            let map = crate::dump_guard(wait, || self.routes.read(), || self.routes.try_read())?;
            map.iter()
                .map(|(route, stats)| (route.clone(), Arc::clone(stats)))
                .collect()
        };
        let mut out: Vec<(String, RouteObservation)> = routes
            .into_iter()
            .map(|(route, stats)| {
                (
                    route,
                    RouteObservation {
                        count: stats.count.load(Ordering::Relaxed),
                        errors: stats.errors.load(Ordering::Relaxed),
                        latency: stats.latency.snapshot(),
                    },
                )
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Some(out)
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4): one `# HELP`/`# TYPE` pair per metric family,
    /// family-major sample ordering, escaped label values. `caches`
    /// supplies `(name, hits, misses)` triples from the result caches;
    /// `startup` supplies the one-time index-load facts; `corpus` the
    /// live corpus-state gauges. Without `wait` the route table is only
    /// tried, and a busy one gives `None`; a poisoned one is read as it is.
    pub fn render(
        &self,
        wait: bool,
        caches: &[(&str, u64, u64)],
        startup: &StartupStats,
        corpus: &CorpusSample,
    ) -> Option<String> {
        use std::fmt::Write as _;
        fn family(out: &mut String, name: &str, kind: &str, help: &str) {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
        }
        let mut out = String::new();
        let routes = self.observe(wait)?;

        family(
            &mut out,
            "requests_total",
            "counter",
            "Requests served, by route.",
        );
        for (route, obs) in &routes {
            let _ = writeln!(
                out,
                "requests_total{{route=\"{}\"}} {}",
                escape_label(route),
                obs.count
            );
        }
        family(
            &mut out,
            "errors_total",
            "counter",
            "Requests answered with status >= 400, by route.",
        );
        for (route, obs) in &routes {
            let _ = writeln!(
                out,
                "errors_total{{route=\"{}\"}} {}",
                escape_label(route),
                obs.errors
            );
        }
        family(
            &mut out,
            "latency_us",
            "histogram",
            "Request latency in microseconds, by route.",
        );
        for (route, obs) in &routes {
            let route = escape_label(route);
            for le in RENDER_LE_US {
                let _ = writeln!(
                    out,
                    "latency_us_bucket{{route=\"{route}\",le=\"{le}\"}} {}",
                    obs.latency.count_le(le)
                );
            }
            let _ = writeln!(
                out,
                "latency_us_bucket{{route=\"{route}\",le=\"+Inf\"}} {}",
                obs.latency.count
            );
            let _ = writeln!(
                out,
                "latency_us_sum{{route=\"{route}\"}} {}",
                obs.latency.sum_us
            );
            let _ = writeln!(
                out,
                "latency_us_count{{route=\"{route}\"}} {}",
                obs.latency.count
            );
        }
        family(
            &mut out,
            "latency_us_quantile",
            "gauge",
            "Latency quantile extractions (<=6.25% bucket error), by route.",
        );
        for (route, obs) in &routes {
            for (name, q) in QUANTILES {
                let _ = writeln!(
                    out,
                    "latency_us_quantile{{route=\"{}\",quantile=\"{name}\"}} {}",
                    escape_label(route),
                    obs.latency.quantile_us(q)
                );
            }
        }
        family(
            &mut out,
            "cache_hits_total",
            "counter",
            "Result-cache hits.",
        );
        for &(name, hits, _) in caches {
            let _ = writeln!(
                out,
                "cache_hits_total{{cache=\"{}\"}} {hits}",
                escape_label(name)
            );
        }
        family(
            &mut out,
            "cache_misses_total",
            "counter",
            "Result-cache misses.",
        );
        for &(name, _, misses) in caches {
            let _ = writeln!(
                out,
                "cache_misses_total{{cache=\"{}\"}} {misses}",
                escape_label(name)
            );
        }
        family(
            &mut out,
            "cache_hit_ratio",
            "gauge",
            "Lifetime cache hit ratio (0 when unused).",
        );
        for &(name, hits, misses) in caches {
            let total = hits + misses;
            let ratio = if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            };
            let _ = writeln!(
                out,
                "cache_hit_ratio{{cache=\"{}\"}} {ratio:.4}",
                escape_label(name)
            );
        }
        family(
            &mut out,
            "index_load_us",
            "gauge",
            "Wall time to produce query-ready engines at startup.",
        );
        let _ = writeln!(out, "index_load_us {}", startup.index_load_us);
        family(
            &mut out,
            "snapshot_loads_total",
            "counter",
            "Engine startups by source: snapshot hit or corpus build.",
        );
        let _ = writeln!(
            out,
            "snapshot_loads_total{{result=\"hit\"}} {}",
            startup.snapshot_hits
        );
        let _ = writeln!(
            out,
            "snapshot_loads_total{{result=\"miss\"}} {}",
            startup.snapshot_misses
        );
        family(
            &mut out,
            "snapshot_load_us",
            "gauge",
            "Wall time from snapshot bytes to a query-ready state (0 without a snapshot).",
        );
        let _ = writeln!(out, "snapshot_load_us {}", startup.snapshot_load_us);
        family(
            &mut out,
            "corpus_records",
            "gauge",
            "Records in the installed corpus across all families.",
        );
        let _ = writeln!(out, "corpus_records {}", corpus.corpus_records);
        family(
            &mut out,
            "delta_applies_total",
            "counter",
            "Incremental .cpsdelta batches applied since boot.",
        );
        let _ = writeln!(out, "delta_applies_total {}", corpus.delta_applies_total);
        family(
            &mut out,
            "compactions_total",
            "counter",
            "Delta compactions (rebase into a fresh base snapshot) since boot.",
        );
        let _ = writeln!(out, "compactions_total {}", corpus.compactions_total);
        family(
            &mut out,
            "snapshot_mapped_bytes",
            "gauge",
            "Bytes of the mapped snapshot backing the zero-copy view (0 when corpus-built).",
        );
        let _ = writeln!(
            out,
            "snapshot_mapped_bytes {}",
            corpus.snapshot_mapped_bytes
        );
        Some(out)
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("total_requests", &self.total_requests())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders_a_route() {
        let metrics = Metrics::new();
        metrics.record("GET /healthz", 200, Duration::from_micros(50));
        metrics.record("GET /healthz", 200, Duration::from_micros(5_000));
        metrics.record("GET /healthz", 404, Duration::from_micros(150));
        let startup = StartupStats {
            index_load_us: 1234,
            snapshot_hits: 1,
            snapshot_misses: 0,
            snapshot_load_us: 321,
        };
        let corpus = CorpusSample {
            corpus_records: 42,
            delta_applies_total: 5,
            compactions_total: 1,
            snapshot_mapped_bytes: 4096,
        };
        let text = metrics
            .render(true, &[("responses", 3, 1)], &startup, &corpus)
            .expect("waited");
        assert!(text.contains("requests_total{route=\"GET /healthz\"} 3"));
        assert!(text.contains("errors_total{route=\"GET /healthz\"} 1"));
        assert!(text.contains("latency_us_count{route=\"GET /healthz\"} 3"));
        // 50 µs lands by le=64, 150 µs by le=256, 5 ms by le=16384.
        assert!(text.contains("latency_us_bucket{route=\"GET /healthz\",le=\"64\"} 1"));
        assert!(text.contains("latency_us_bucket{route=\"GET /healthz\",le=\"256\"} 2"));
        assert!(text.contains("latency_us_bucket{route=\"GET /healthz\",le=\"16384\"} 3"));
        assert!(text.contains("latency_us_bucket{route=\"GET /healthz\",le=\"+Inf\"} 3"));
        assert!(text.contains("latency_us_quantile{route=\"GET /healthz\",quantile=\"p50\"}"));
        assert!(text.contains("latency_us_quantile{route=\"GET /healthz\",quantile=\"p99\"}"));
        assert!(text.contains("cache_hits_total{cache=\"responses\"} 3"));
        assert!(text.contains("cache_hit_ratio{cache=\"responses\"} 0.7500"));
        assert!(text.contains("index_load_us 1234"));
        assert!(text.contains("snapshot_loads_total{result=\"hit\"} 1"));
        assert!(text.contains("snapshot_loads_total{result=\"miss\"} 0"));
        assert!(text.contains("snapshot_load_us 321"));
        assert!(text.contains("corpus_records 42"));
        assert!(text.contains("delta_applies_total 5"));
        assert!(text.contains("compactions_total 1"));
        assert!(text.contains("snapshot_mapped_bytes 4096"));
        assert_eq!(metrics.total_requests(), 3);
    }

    #[test]
    fn empty_cache_ratio_is_zero() {
        let metrics = Metrics::new();
        let text = metrics
            .render(
                true,
                &[("responses", 0, 0)],
                &StartupStats::default(),
                &CorpusSample::default(),
            )
            .expect("waited");
        assert!(text.contains("cache_hit_ratio{cache=\"responses\"} 0.0000"));
    }

    #[test]
    fn quantiles_bracket_the_samples() {
        let metrics = Metrics::new();
        for us in [100u64, 200, 300, 400, 50_000] {
            metrics.record("GET /x", 200, Duration::from_micros(us));
        }
        let text = metrics
            .render(
                true,
                &[],
                &StartupStats::default(),
                &CorpusSample::default(),
            )
            .expect("waited");
        let value = |needle: &str| -> u64 {
            let line = text
                .lines()
                .find(|l| l.starts_with(needle))
                .unwrap_or_else(|| panic!("missing {needle}"));
            line.rsplit(' ').next().unwrap().parse().unwrap()
        };
        let p50 = value("latency_us_quantile{route=\"GET /x\",quantile=\"p50\"}");
        let p99 = value("latency_us_quantile{route=\"GET /x\",quantile=\"p99\"}");
        // p50 sits in 300's bucket, p99 in 50000's — within 6.25%.
        assert!((282..=320).contains(&p50), "p50 {p50}");
        assert!((46_875..=53_125).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
        let metrics = Metrics::new();
        metrics.record("GET /weird\"\\\nroute", 200, Duration::from_micros(10));
        let text = metrics
            .render(
                true,
                &[],
                &StartupStats::default(),
                &CorpusSample::default(),
            )
            .expect("waited");
        assert!(
            text.contains("requests_total{route=\"GET /weird\\\"\\\\\\nroute\"} 1"),
            "{text}"
        );
        // No raw newline may survive inside any sample line's label.
        assert!(text.lines().all(|l| !l.contains("weird\"")));
    }

    #[test]
    fn every_family_is_declared_before_its_samples() {
        let metrics = Metrics::new();
        metrics.record("GET /healthz", 200, Duration::from_micros(50));
        let text = metrics
            .render(
                true,
                &[("responses", 1, 1)],
                &StartupStats::default(),
                &CorpusSample::default(),
            )
            .expect("waited");
        for fam in [
            "requests_total",
            "errors_total",
            "latency_us",
            "latency_us_quantile",
            "cache_hits_total",
            "cache_misses_total",
            "cache_hit_ratio",
            "index_load_us",
            "snapshot_loads_total",
            "snapshot_load_us",
            "snapshot_mapped_bytes",
            "corpus_records",
            "delta_applies_total",
            "compactions_total",
        ] {
            let type_pos = text
                .find(&format!("# TYPE {fam} "))
                .unwrap_or_else(|| panic!("missing TYPE for {fam}"));
            assert!(
                text.contains(&format!("# HELP {fam} ")),
                "missing HELP {fam}"
            );
            let sample_pos = text
                .lines()
                .scan(0, |acc, l| {
                    let start = *acc;
                    *acc += l.len() + 1;
                    Some((start, l))
                })
                .find(|(_, l)| l.starts_with(fam) && !l.starts_with('#'))
                .map(|(pos, _)| pos)
                .unwrap_or_else(|| panic!("no samples for {fam}"));
            assert!(type_pos < sample_pos, "{fam} declared after its samples");
        }
    }

    #[test]
    fn raw_model_ids_collapse_to_the_pattern() {
        let metrics = Metrics::new();
        // A buggy or external caller reporting concrete ids must not
        // mint one label per model hash.
        metrics.record(
            "GET /models/16c0d3aa91f2b7e4/associate",
            200,
            Duration::from_micros(10),
        );
        metrics.record(
            "GET /models/deadbeefdeadbeef/associate",
            200,
            Duration::from_micros(20),
        );
        metrics.record("POST /models/abc123/whatif", 200, Duration::from_micros(5));
        metrics.record("GET /models/:id/associate", 200, Duration::from_micros(30));
        let text = metrics
            .render(
                true,
                &[],
                &StartupStats::default(),
                &CorpusSample::default(),
            )
            .expect("waited");
        assert!(text.contains("requests_total{route=\"GET /models/:id/associate\"} 3"));
        assert!(text.contains("requests_total{route=\"POST /models/:id/whatif\"} 1"));
        assert!(!text.contains("deadbeef"), "raw id leaked into labels");
        // Routes without an id segment pass through untouched.
        metrics.record("POST /models", 200, Duration::from_micros(1));
        let text = metrics
            .render(
                true,
                &[],
                &StartupStats::default(),
                &CorpusSample::default(),
            )
            .expect("waited");
        assert!(text.contains("requests_total{route=\"POST /models\"} 1"));
    }
}
