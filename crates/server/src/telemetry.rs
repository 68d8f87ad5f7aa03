//! The telemetry tick: every `--tick-ms` (default 1 s) the server
//! snapshots its counters and histograms, diffs them against the
//! previous tick, and feeds the deltas into the time-series store and
//! the SLO burn-rate monitor.
//!
//! Latency quantiles are downsampled by *merging histograms*, never by
//! averaging quantiles: each (route, resolution) keeps a window
//! accumulator [`Snapshot`] that per-tick deltas merge into
//! ([`Snapshot::merge`]); the coarse point is the quantile of the
//! merged window, re-pushed (same-slot replace) every tick so partial
//! slots are already visible to the dashboard.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use cpssec_obs::hist::Snapshot;
use cpssec_obs::slo::Transition;
use cpssec_obs::timeseries::RESOLUTIONS;
use cpssec_obs::{Agg, SloConfig, SloMonitor, TimeSeriesStore};

use crate::metrics::{Metrics, RouteObservation};
use crate::pool::PoolStats;

/// Default tick interval in milliseconds.
pub const DEFAULT_TICK_MS: u64 = 1_000;

/// Wall clock as unix milliseconds.
#[must_use]
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// One (route, resolution) latency window being accumulated.
struct WinAcc {
    slot_ts: u64,
    acc: Snapshot,
}

#[derive(Default)]
struct TickInner {
    prev_ts_ms: Option<u64>,
    prev_routes: HashMap<String, RouteObservation>,
    windows: HashMap<String, [Option<WinAcc>; 3]>,
    prev_caches: HashMap<String, (u64, u64)>,
    prev_slow: u64,
}

/// Everything the tick thread owns: the series store, the SLO monitor,
/// and the diffing state between ticks.
pub struct Telemetry {
    /// The multi-resolution series store behind `/metrics/history`.
    pub store: TimeSeriesStore,
    slo: Mutex<SloMonitor>,
    inner: Mutex<TickInner>,
    ticks: AtomicU64,
    last_tick_us: AtomicU64,
    total_tick_us: AtomicU64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("ticks", &self.ticks.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Empty store, no SLOs, no tick history.
    #[must_use]
    pub fn new() -> Telemetry {
        Telemetry {
            store: TimeSeriesStore::new(),
            slo: Mutex::new(SloMonitor::default()),
            inner: Mutex::new(TickInner::default()),
            ticks: AtomicU64::new(0),
            last_tick_us: AtomicU64::new(0),
            total_tick_us: AtomicU64::new(0),
        }
    }

    /// Replace the SLO monitor with one built from `config`.
    pub fn install_slo(&self, config: SloConfig) {
        *self.slo.lock().expect("slo poisoned") = SloMonitor::new(config);
    }

    /// Ticks run so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Cost of the most recent tick, µs.
    pub fn last_tick_us(&self) -> u64 {
        self.last_tick_us.load(Ordering::Relaxed)
    }

    /// Cumulative tick cost, µs — `total / ticks` is the mean.
    pub fn total_tick_us(&self) -> u64 {
        self.total_tick_us.load(Ordering::Relaxed)
    }

    /// JSON for `GET /alerts`.
    pub fn alerts_json(&self) -> String {
        self.slo_json(true).unwrap_or_default()
    }

    /// [`Self::alerts_json`]; `None` only without `wait` ([`crate::dump_guard`]).
    pub(crate) fn slo_json(&self, wait: bool) -> Option<String> {
        crate::dump_guard(wait, || self.slo.lock(), || self.slo.try_lock()).map(|s| s.to_json())
    }

    /// Routes whose burn-rate alert is currently firing (the admission
    /// controller tightens exactly these).
    #[must_use]
    pub fn firing_routes(&self) -> Vec<String> {
        self.slo.lock().expect("slo poisoned").firing_routes()
    }

    /// Run one tick at wall time `now_ms`; `slow_observed` is the
    /// request log's running count of slow requests. Returns SLO
    /// transitions so the caller can log them.
    pub fn tick(
        &self,
        ts_ms: u64,
        metrics: &Metrics,
        caches: &[(&str, u64, u64)],
        pool: &PoolStats,
        slow_observed: u64,
    ) -> Vec<Transition> {
        let started = Instant::now();
        let routes = metrics.snapshot_all();
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        let elapsed_ms = inner
            .prev_ts_ms
            .map_or(DEFAULT_TICK_MS, |prev| ts_ms.saturating_sub(prev))
            .max(1);
        inner.prev_ts_ms = Some(ts_ms);

        // Per-route deltas since the previous tick.
        let mut deltas: HashMap<String, RouteObservation> = HashMap::new();
        for (route, obs) in &routes {
            let delta = match inner.prev_routes.get(route) {
                Some(prev) => RouteObservation {
                    count: obs.count.saturating_sub(prev.count),
                    errors: obs.errors.saturating_sub(prev.errors),
                    latency: obs.latency.diff(&prev.latency),
                },
                None => obs.clone(),
            };
            self.store.record(
                &format!("route:{route}:rate"),
                Agg::Mean,
                ts_ms,
                delta.count as f64 * 1_000.0 / elapsed_ms as f64,
            );
            self.store.record(
                &format!("route:{route}:error_rate"),
                Agg::Mean,
                ts_ms,
                delta.errors as f64 * 1_000.0 / elapsed_ms as f64,
            );
            if delta.latency.count > 0 {
                let windows = inner.windows.entry(route.clone()).or_default();
                for (i, res) in RESOLUTIONS.iter().enumerate() {
                    let slot_ts = ts_ms - ts_ms % res.slot_ms;
                    let win = match &mut windows[i] {
                        Some(win) if win.slot_ts == slot_ts => win,
                        slot => slot.insert(WinAcc {
                            slot_ts,
                            acc: cpssec_obs::Histogram::new().snapshot(),
                        }),
                    };
                    win.acc.merge(&delta.latency);
                    self.store.push_at(
                        &format!("route:{route}:p50_us"),
                        i,
                        slot_ts,
                        win.acc.quantile_us(0.50) as f64,
                    );
                    self.store.push_at(
                        &format!("route:{route}:p99_us"),
                        i,
                        slot_ts,
                        win.acc.quantile_us(0.99) as f64,
                    );
                }
            }
            deltas.insert(route.clone(), delta);
        }
        inner.prev_routes = routes.into_iter().collect();

        // Cache hit rates over the tick window.
        for &(name, hits, misses) in caches {
            let (ph, pm) = inner
                .prev_caches
                .insert(name.to_string(), (hits, misses))
                .unwrap_or((0, 0));
            let (dh, dm) = (hits.saturating_sub(ph), misses.saturating_sub(pm));
            if dh + dm > 0 {
                self.store.record(
                    &format!("cache:{name}:hit_rate"),
                    Agg::Mean,
                    ts_ms,
                    dh as f64 / (dh + dm) as f64,
                );
            }
        }

        // Worker-pool saturation gauges.
        self.store
            .record("pool:busy", Agg::Max, ts_ms, pool.busy() as f64);
        self.store
            .record("pool:queued", Agg::Max, ts_ms, pool.queued() as f64);
        self.store
            .record("pool:utilization", Agg::Mean, ts_ms, pool.utilization());

        // Slow-query arrivals this tick.
        let slow_delta = slow_observed.saturating_sub(inner.prev_slow);
        inner.prev_slow = slow_observed;
        self.store
            .record("slow:observed", Agg::Sum, ts_ms, slow_delta as f64);
        drop(inner);

        // SLO burn-rate evaluation on the same per-route deltas.
        let transitions = {
            let mut slo = self.slo.lock().expect("slo poisoned");
            slo.tick(|cfg| {
                let Some(delta) = deltas.get(&cfg.route) else {
                    return (0, 0);
                };
                let over_target = delta
                    .latency
                    .count
                    .saturating_sub(delta.latency.count_le(cfg.target_us));
                let bad = (over_target + delta.errors).min(delta.count);
                (delta.count - bad, bad)
            })
        };

        let cost_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.ticks.fetch_add(1, Ordering::Relaxed);
        self.last_tick_us.store(cost_us, Ordering::Relaxed);
        self.total_tick_us.fetch_add(cost_us, Ordering::Relaxed);
        transitions
    }

    /// Records a point-in-time gauge sample into the series store (Max
    /// aggregation: coarse slots keep the high-water mark). Used by the
    /// tick for the corpus-state gauges, which have no per-route shape.
    pub fn record_gauge(&self, ts_ms: u64, name: &str, value: f64) {
        self.store.record(name, Agg::Max, ts_ms, value);
    }

    /// Prometheus exposition lines for the tick itself, appended to
    /// `/metrics` by the router (own HELP/TYPE, conformance holds).
    pub fn render_prom(&self) -> String {
        let ticks = self.ticks();
        let mean = self.total_tick_us().checked_div(ticks).unwrap_or(0);
        format!(
            "# HELP telemetry_ticks_total Telemetry ticks run.\n\
             # TYPE telemetry_ticks_total counter\n\
             telemetry_ticks_total {ticks}\n\
             # HELP telemetry_tick_cost_us Telemetry tick cost in microseconds.\n\
             # TYPE telemetry_tick_cost_us gauge\n\
             telemetry_tick_cost_us{{window=\"last\"}} {}\n\
             telemetry_tick_cost_us{{window=\"mean\"}} {mean}\n",
            self.last_tick_us(),
        )
    }

    /// JSON for `GET /metrics/history`: the requested series at one
    /// resolution, points as `[unix_ms, value]` pairs oldest-first.
    pub fn history_json(&self, series: &[&str], res: usize) -> String {
        let resolution = RESOLUTIONS[res];
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"res\":\"{}\",\"slot_ms\":{},\"series\":{{",
            resolution.name, resolution.slot_ms
        ));
        for (i, name) in series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            cpssec_attackdb::json::write_escaped(&mut out, name);
            out.push_str(":[");
            for (j, (ts, value)) in self.store.query(name, res).iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                // Values are finite by construction; {} renders them as
                // valid JSON numbers.
                out.push_str(&format!("[{ts},{value}]"));
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }

    /// JSON list of every known series name.
    pub fn series_names_json(&self) -> String {
        let mut out = String::from("{\"series\":[");
        for (i, name) in self.store.names().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            cpssec_attackdb::json::write_escaped(&mut out, name);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tick_at(tel: &Telemetry, metrics: &Metrics, ts_ms: u64) -> Vec<Transition> {
        tel.tick(ts_ms, metrics, &[("responses", 0, 0)], &PoolStats::new(), 0)
    }

    #[test]
    fn deltas_feed_rate_and_quantile_series() {
        let tel = Telemetry::new();
        let metrics = Metrics::new();
        metrics.record("GET /healthz", 200, Duration::from_micros(100));
        tick_at(&tel, &metrics, 10_000);
        metrics.record("GET /healthz", 200, Duration::from_micros(300));
        metrics.record("GET /healthz", 500, Duration::from_micros(300));
        tick_at(&tel, &metrics, 11_000);
        let rate = tel.store.query("route:GET /healthz:rate", 0);
        assert_eq!(rate.len(), 2);
        assert!((rate[0].1 - 1.0).abs() < 1e-9, "first tick: 1 req/s");
        assert!((rate[1].1 - 2.0).abs() < 1e-9, "second tick: 2 req/s");
        let errors = tel.store.query("route:GET /healthz:error_rate", 0);
        assert!((errors[1].1 - 1.0).abs() < 1e-9);
        // p99 of the second tick's window covers only that tick's two
        // samples (~300 µs), not the first tick's 100 µs.
        let p99 = tel.store.query("route:GET /healthz:p99_us", 0);
        assert_eq!(p99.len(), 2);
        assert!(p99[1].1 >= 282.0 && p99[1].1 <= 320.0, "{}", p99[1].1);
        // Coarse resolutions answer too (same-slot replace semantics).
        assert_eq!(tel.store.query("route:GET /healthz:p99_us", 2).len(), 1);
        assert_eq!(tel.ticks(), 2);
    }

    #[test]
    fn coarse_windows_merge_histograms_not_quantiles() {
        let tel = Telemetry::new();
        let metrics = Metrics::new();
        // Two ticks inside one 10 s slot: 9 fast then 1 slow request.
        for _ in 0..9 {
            metrics.record("GET /x", 200, Duration::from_micros(100));
        }
        tick_at(&tel, &metrics, 20_000);
        metrics.record("GET /x", 200, Duration::from_micros(100_000));
        tick_at(&tel, &metrics, 21_000);
        let p99 = tel.store.query("route:GET /x:p99_us", 1);
        assert_eq!(p99.len(), 1);
        // Merged window: p99 of [100×9, 100000] sits in the 100 ms
        // bucket. Averaging per-tick p99s would report ~50 ms.
        assert!(p99[0].1 >= 93_750.0, "p99 {}", p99[0].1);
    }

    #[test]
    fn slo_transitions_fire_and_log_through_tick() {
        let tel = Telemetry::new();
        tel.install_slo(
            SloConfig::parse(
                "[[slo]]\nroute = \"GET /x\"\ntarget_us = 1000\nobjective = 0.9\n\
                 short_ticks = 2\nlong_ticks = 4",
            )
            .unwrap(),
        );
        let metrics = Metrics::new();
        let mut fired = false;
        for i in 0..6u64 {
            metrics.record("GET /x", 200, Duration::from_micros(50_000));
            let transitions = tick_at(&tel, &metrics, 30_000 + i * 1_000);
            if transitions
                .iter()
                .any(|t| t.state == cpssec_obs::AlertState::Firing)
            {
                fired = true;
                break;
            }
        }
        assert!(fired, "alert never fired: {}", tel.alerts_json());
        assert!(tel.alerts_json().contains("\"state\":\"firing\""));
    }

    #[test]
    fn history_json_shape() {
        let tel = Telemetry::new();
        let metrics = Metrics::new();
        metrics.record("GET /healthz", 200, Duration::from_micros(10));
        tick_at(&tel, &metrics, 5_000);
        let json = tel.history_json(&["route:GET /healthz:rate", "nope"], 0);
        assert!(json.starts_with("{\"res\":\"1s\",\"slot_ms\":1000,\"series\":{"));
        assert!(json.contains("\"route:GET /healthz:rate\":[[5000,"));
        assert!(json.contains("\"nope\":[]"));
        assert!(tel.series_names_json().contains("\"pool:busy\""));
        assert!(tel.render_prom().contains("telemetry_ticks_total 1"));
        tel.record_gauge(5_000, "corpus:records", 42.0);
        assert!(tel
            .history_json(&["corpus:records"], 0)
            .contains("\"corpus:records\":[[5000,42]]"));
    }
}
