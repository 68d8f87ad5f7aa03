//! SLO-wired admission control: bounded per-route request queues with
//! load shedding.
//!
//! The reactor asks [`Admission::try_admit`] before handing a parsed
//! request to the worker pool. Each route gets a bounded budget of
//! *outstanding* requests (queued or executing); past the limit the
//! reactor answers `429 Too Many Requests` with a `Retry-After` header
//! instead of letting the queue grow without bound — shedding is cheap
//! by construction because it never touches the saturated worker pool.
//!
//! The limits are not static: every telemetry tick feeds the SLO
//! burn-rate monitor's firing routes back in via
//! [`Admission::set_tightened`]. A route whose error budget is burning
//! gets its budget cut by [`TIGHTEN_DIVISOR`] — shed early, recover the
//! tail — and the full budget is restored the moment the alert
//! resolves. Everything is observable at `/metrics`:
//! `connections_open`, `queue_depth{route}`, and
//! `shed_total{route,reason}`.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::metrics::escape_label;

/// Default per-route outstanding-request budget (`serve --queue-depth`).
pub const DEFAULT_QUEUE_DEPTH: u64 = 128;
/// Default concurrent-connection cap (`serve --max-conns`).
pub const DEFAULT_MAX_CONNS: u64 = 16_384;
/// A firing SLO divides the route's budget by this (floor 1).
pub const TIGHTEN_DIVISOR: u64 = 4;

/// Why a request (or connection) was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The route's outstanding-request budget is exhausted.
    QueueFull,
    /// The budget was exhausted *while tightened* by a firing SLO.
    SloBurn,
    /// The connection cap was reached before any request was read.
    MaxConns,
}

impl ShedReason {
    /// The `reason` label value in `shed_total{route,reason}`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::SloBurn => "slo_burn",
            ShedReason::MaxConns => "max_conns",
        }
    }
}

/// Per-route admission state: the live depth gauge plus shed counters.
#[derive(Debug, Default)]
struct RouteGate {
    depth: AtomicU64,
    shed_queue: AtomicU64,
    shed_slo: AtomicU64,
}

/// Decrements the route's outstanding count when the request completes
/// (response serialized, success or failure alike).
#[derive(Debug)]
pub struct AdmitGuard {
    gate: Arc<RouteGate>,
}

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.gate.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The admission controller shared between the reactor, the telemetry
/// tick (SLO feedback), and `/metrics`.
#[derive(Debug)]
pub struct Admission {
    queue_depth: AtomicU64,
    max_conns: AtomicU64,
    connections_open: AtomicU64,
    shed_conns: AtomicU64,
    routes: RwLock<HashMap<String, Arc<RouteGate>>>,
    tightened: RwLock<HashSet<String>>,
}

impl Default for Admission {
    fn default() -> Self {
        Admission {
            queue_depth: AtomicU64::new(DEFAULT_QUEUE_DEPTH),
            max_conns: AtomicU64::new(DEFAULT_MAX_CONNS),
            connections_open: AtomicU64::new(0),
            shed_conns: AtomicU64::new(0),
            routes: RwLock::new(HashMap::new()),
            tightened: RwLock::new(HashSet::new()),
        }
    }
}

impl Admission {
    /// Fresh controller with the default limits.
    #[must_use]
    pub fn new() -> Admission {
        Admission::default()
    }

    /// Sets the per-route outstanding-request budget (min 1).
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth.max(1), Ordering::Relaxed);
    }

    /// Sets the concurrent-connection cap (min 1).
    pub fn set_max_conns(&self, conns: u64) {
        self.max_conns.store(conns.max(1), Ordering::Relaxed);
    }

    /// The configured per-route budget.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// The configured connection cap.
    #[must_use]
    pub fn max_conns(&self) -> u64 {
        self.max_conns.load(Ordering::Relaxed)
    }

    /// Connections the reactor currently owns.
    #[must_use]
    pub fn connections_open(&self) -> u64 {
        self.connections_open.load(Ordering::Relaxed)
    }

    fn gate(&self, route: &str) -> Arc<RouteGate> {
        if let Some(gate) = self.routes.read().expect("admission poisoned").get(route) {
            return Arc::clone(gate);
        }
        let mut routes = self.routes.write().expect("admission poisoned");
        Arc::clone(routes.entry(route.to_owned()).or_default())
    }

    /// The effective budget for `route` right now: the configured depth,
    /// divided by [`TIGHTEN_DIVISOR`] while the route's SLO is firing.
    #[must_use]
    pub fn effective_limit(&self, route: &str) -> u64 {
        let base = self.queue_depth();
        if self
            .tightened
            .read()
            .expect("admission poisoned")
            .contains(route)
        {
            (base / TIGHTEN_DIVISOR).max(1)
        } else {
            base
        }
    }

    /// Admits one request on `route` (the normalized pattern) or says
    /// why it must be shed. On success the returned guard holds one unit
    /// of the route's budget until dropped.
    ///
    /// # Errors
    ///
    /// [`ShedReason::QueueFull`] when the budget is exhausted, or
    /// [`ShedReason::SloBurn`] when it is exhausted while tightened by a
    /// firing SLO; either way the matching shed counter is bumped.
    pub fn try_admit(&self, route: &str) -> Result<AdmitGuard, ShedReason> {
        let gate = self.gate(route);
        let tightened = self
            .tightened
            .read()
            .expect("admission poisoned")
            .contains(route);
        let base = self.queue_depth();
        let limit = if tightened {
            (base / TIGHTEN_DIVISOR).max(1)
        } else {
            base
        };
        // CAS loop: never overshoot the budget, even with the reactor
        // and tests admitting concurrently.
        let mut current = gate.depth.load(Ordering::Relaxed);
        loop {
            if current >= limit {
                return if tightened {
                    gate.shed_slo.fetch_add(1, Ordering::Relaxed);
                    Err(ShedReason::SloBurn)
                } else {
                    gate.shed_queue.fetch_add(1, Ordering::Relaxed);
                    Err(ShedReason::QueueFull)
                };
            }
            match gate.depth.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(AdmitGuard { gate }),
                Err(actual) => current = actual,
            }
        }
    }

    /// Claims one connection slot, or counts a `max_conns` shed. The
    /// caller must balance a `true` return with [`Admission::close_conn`].
    #[must_use]
    pub fn try_open_conn(&self) -> bool {
        let limit = self.max_conns();
        let mut current = self.connections_open.load(Ordering::Relaxed);
        loop {
            if current >= limit {
                self.shed_conns.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.connections_open.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    /// Releases one connection slot.
    pub fn close_conn(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Replaces the set of SLO-tightened routes (the telemetry tick
    /// passes the burn-rate monitor's currently firing routes, so
    /// tightening recovers automatically when an alert resolves).
    pub fn set_tightened(&self, routes: Vec<String>) {
        *self.tightened.write().expect("admission poisoned") = routes.into_iter().collect();
    }

    /// Whether `route` is currently tightened by a firing SLO.
    #[must_use]
    pub fn is_tightened(&self, route: &str) -> bool {
        self.tightened
            .read()
            .expect("admission poisoned")
            .contains(route)
    }

    /// Total sheds across every route and reason (monotone counter).
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        let routes = self.routes.read().expect("admission poisoned");
        routes
            .values()
            .map(|g| g.shed_queue.load(Ordering::Relaxed) + g.shed_slo.load(Ordering::Relaxed))
            .sum::<u64>()
            + self.shed_conns.load(Ordering::Relaxed)
    }

    /// Point-in-time `(route, depth, shed_queue, shed_slo)` rows, sorted
    /// by route.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, u64, u64, u64)> {
        self.rows(true).unwrap_or_default()
    }

    /// [`Self::snapshot`]; `None` only without `wait` ([`crate::dump_guard`]).
    fn rows(&self, wait: bool) -> Option<Vec<(String, u64, u64, u64)>> {
        let routes = crate::dump_guard(wait, || self.routes.read(), || self.routes.try_read())?;
        let mut out: Vec<(String, u64, u64, u64)> = routes
            .iter()
            .map(|(route, g)| {
                (
                    route.clone(),
                    g.depth.load(Ordering::Relaxed),
                    g.shed_queue.load(Ordering::Relaxed),
                    g.shed_slo.load(Ordering::Relaxed),
                )
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Some(out)
    }

    /// Prometheus exposition lines for the serving gauges, appended to
    /// `/metrics` by the router (own HELP/TYPE pairs, conformance holds).
    /// Without `wait` the route table is only tried, and a busy one gives
    /// `None`; a poisoned one is read as it is.
    #[must_use]
    pub fn render_prom(&self, wait: bool) -> Option<String> {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(512);
        let _ = writeln!(
            out,
            "# HELP connections_open Connections currently owned by the reactor.\n\
             # TYPE connections_open gauge\n\
             connections_open {}",
            self.connections_open()
        );
        let rows = self.rows(wait)?;
        let _ = writeln!(
            out,
            "# HELP queue_depth Outstanding admitted requests, by route.\n\
             # TYPE queue_depth gauge"
        );
        for (route, depth, _, _) in &rows {
            let _ = writeln!(
                out,
                "queue_depth{{route=\"{}\"}} {depth}",
                escape_label(route)
            );
        }
        let _ = writeln!(
            out,
            "# HELP shed_total Requests shed by admission control, by route and reason.\n\
             # TYPE shed_total counter"
        );
        for (route, _, shed_queue, shed_slo) in &rows {
            let route = escape_label(route);
            let _ = writeln!(
                out,
                "shed_total{{route=\"{route}\",reason=\"queue_full\"}} {shed_queue}"
            );
            let _ = writeln!(
                out,
                "shed_total{{route=\"{route}\",reason=\"slo_burn\"}} {shed_slo}"
            );
        }
        let _ = writeln!(
            out,
            "shed_total{{route=\"*\",reason=\"max_conns\"}} {}",
            self.shed_conns.load(Ordering::Relaxed)
        );
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_the_budget_then_sheds() {
        let adm = Admission::new();
        adm.set_queue_depth(2);
        let route = "GET /table1";
        let g1 = adm.try_admit(route).expect("first");
        let g2 = adm.try_admit(route).expect("second");
        assert!(matches!(adm.try_admit(route), Err(ShedReason::QueueFull)));
        assert_eq!(adm.shed_total(), 1);
        drop(g1);
        let g3 = adm.try_admit(route).expect("slot freed");
        drop(g2);
        drop(g3);
        assert_eq!(adm.snapshot()[0].1, 0, "depth drains to zero");
    }

    #[test]
    fn firing_slo_tightens_then_recovers() {
        let adm = Admission::new();
        adm.set_queue_depth(8);
        let route = "GET /models/:id/associate";
        assert_eq!(adm.effective_limit(route), 8);
        adm.set_tightened(vec![route.to_owned()]);
        assert!(adm.is_tightened(route));
        assert_eq!(adm.effective_limit(route), 2, "8 / TIGHTEN_DIVISOR");
        let _g1 = adm.try_admit(route).expect("one");
        let _g2 = adm.try_admit(route).expect("two");
        assert!(matches!(adm.try_admit(route), Err(ShedReason::SloBurn)));
        // Alert resolves: the very next tick restores full admission.
        adm.set_tightened(Vec::new());
        assert_eq!(adm.effective_limit(route), 8);
        let _g3 = adm.try_admit(route).expect("restored");
        let rows = adm.snapshot();
        assert_eq!(rows[0].3, 1, "slo_burn shed counted once");
        assert_eq!(rows[0].2, 0, "no queue_full sheds");
    }

    #[test]
    fn tightened_budget_never_drops_below_one() {
        let adm = Admission::new();
        adm.set_queue_depth(2);
        adm.set_tightened(vec!["GET /x".to_owned()]);
        assert_eq!(adm.effective_limit("GET /x"), 1);
        let _g = adm.try_admit("GET /x").expect("floor of one");
        assert!(adm.try_admit("GET /x").is_err());
    }

    #[test]
    fn connection_slots_cap_and_release() {
        let adm = Admission::new();
        adm.set_max_conns(2);
        assert!(adm.try_open_conn());
        assert!(adm.try_open_conn());
        assert!(!adm.try_open_conn());
        assert_eq!(adm.connections_open(), 2);
        adm.close_conn();
        assert!(adm.try_open_conn());
        assert_eq!(adm.shed_total(), 1, "max_conns shed counted");
    }

    #[test]
    fn prom_rendering_declares_every_family() {
        let adm = Admission::new();
        adm.set_queue_depth(1);
        let _g = adm.try_admit("GET /table1").expect("admit");
        let _ = adm.try_admit("GET /table1");
        let text = adm.render_prom(true).expect("waited");
        for family in ["connections_open", "queue_depth", "shed_total"] {
            assert!(text.contains(&format!("# HELP {family} ")), "{text}");
            assert!(text.contains(&format!("# TYPE {family} ")), "{text}");
        }
        assert!(
            text.contains("queue_depth{route=\"GET /table1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("shed_total{route=\"GET /table1\",reason=\"queue_full\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("shed_total{route=\"*\",reason=\"max_conns\"} 0"),
            "{text}"
        );
    }
}
