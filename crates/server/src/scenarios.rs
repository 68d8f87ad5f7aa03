//! `POST /scenarios/batch`: fleet campaigns as a service.
//!
//! A batch request body describes a [`CampaignSpec`]; the server runs the
//! Monte-Carlo fleet ([`cpssec_scada::run_campaign_with_progress`]) and
//! serves the aggregate artifact ([`cpssec_analysis::aggregate_json`]).
//! By default the campaign runs on a background thread and the response
//! is `202 Accepted` with a job id from the trace-id mint — the same
//! namespace `/debug/requests/:id` uses — so progress polls correlate
//! with the request log. `?wait=true` runs inline and returns the
//! finished aggregate in one round trip (tests and small fleets).
//!
//! Determinism carries through the service layer: the aggregate embeds
//! `recordsHash`, so two deployments given the same body can prove they
//! computed identical statistics.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cpssec_analysis::{aggregate, aggregate_json};
use cpssec_attackdb::json::{parse as parse_json, JsonValue};
use cpssec_scada::campaign::family;
use cpssec_scada::{run_campaign_with_progress, CampaignSpec};

use crate::http::{Request, Response};
use crate::AppState;

/// Upper bound on scenarios per request — keeps one request from pinning
/// the machine for hours.
pub const MAX_SCENARIOS: u64 = 100_000;
/// Finished/in-flight jobs retained for polling; the oldest is evicted.
const JOB_CAPACITY: usize = 32;
/// Completed jobs older than this are evicted by the telemetry tick.
pub const JOB_TTL_MS: u64 = 10 * 60 * 1000;
/// Completed jobs retained at most, regardless of age — the TTL bounds
/// staleness, this bounds memory under burst load.
pub const MAX_FINISHED_JOBS: usize = 16;

/// One fleet campaign, in flight or finished.
#[derive(Debug)]
pub struct FleetJob {
    /// Job id, from the trace-id mint (hex in URLs).
    pub id: u128,
    /// Scenarios requested.
    pub total: u64,
    /// Scenarios completed so far (written by the campaign workers).
    pub progress: AtomicU64,
    /// Set (release) after `result` is populated.
    done: AtomicBool,
    /// Wall time (ms) at which the job finished; 0 while in flight.
    /// Read by the TTL eviction sweep.
    finished_at_ms: AtomicU64,
    /// The aggregate JSON artifact, once done.
    result: Mutex<Option<Arc<String>>>,
}

impl FleetJob {
    pub(crate) fn new(id: u128, total: u64) -> FleetJob {
        FleetJob {
            id,
            total,
            progress: AtomicU64::new(0),
            done: AtomicBool::new(false),
            finished_at_ms: AtomicU64::new(0),
            result: Mutex::new(None),
        }
    }

    /// Publishes the finished artifact; after this the job reads as done
    /// and becomes eligible for TTL eviction.
    pub(crate) fn publish(&self, body: String) {
        *self.result.lock().expect("fleet job lock") = Some(Arc::new(body));
        self.finished_at_ms
            .store(crate::telemetry::now_ms().max(1), Ordering::Relaxed);
        self.done.store(true, Ordering::Release);
    }

    /// Whether the campaign has finished and the result is readable.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// The polling body: id, progress, and — once done — the embedded
    /// aggregate artifact.
    #[must_use]
    pub fn status_json(&self) -> String {
        let done = self.is_done();
        let completed = self.progress.load(Ordering::Relaxed);
        let mut out = format!(
            "{{\"id\":\"{:032x}\",\"total\":{},\"completed\":{},\"done\":{}",
            self.id, self.total, completed, done
        );
        let result = self.result.lock().expect("fleet job lock").clone();
        if let Some(result) = result {
            out.push_str(",\"result\":");
            out.push_str(&result);
        }
        out.push('}');
        out
    }
}

/// The registry of recent fleet jobs.
#[derive(Debug, Default)]
pub struct FleetJobs {
    jobs: Mutex<VecDeque<Arc<FleetJob>>>,
}

impl FleetJobs {
    /// An empty registry.
    #[must_use]
    pub fn new() -> FleetJobs {
        FleetJobs::default()
    }

    pub(crate) fn register(&self, job: Arc<FleetJob>) {
        let mut jobs = self.jobs.lock().expect("fleet registry lock");
        if jobs.len() >= JOB_CAPACITY {
            jobs.pop_front();
        }
        jobs.push_back(job);
    }

    /// Evicts completed jobs: any finished more than `ttl_ms` before
    /// `now_ms`, plus the oldest finished beyond [`MAX_FINISHED_JOBS`].
    /// In-flight jobs are never evicted — a poller must always be able
    /// to find a job it started. Returns the number evicted.
    pub fn evict_finished(&self, now_ms: u64, ttl_ms: u64) -> usize {
        let mut jobs = self.jobs.lock().expect("fleet registry lock");
        let before = jobs.len();
        jobs.retain(|job| {
            let finished = job.finished_at_ms.load(Ordering::Relaxed);
            finished == 0 || now_ms.saturating_sub(finished) <= ttl_ms
        });
        let mut finished: usize = jobs.iter().filter(|j| j.is_done()).count();
        if finished > MAX_FINISHED_JOBS {
            // The deque is registration-ordered, so the front holds the
            // oldest finished jobs.
            jobs.retain(|job| {
                if finished > MAX_FINISHED_JOBS && job.is_done() {
                    finished -= 1;
                    false
                } else {
                    true
                }
            });
        }
        before - jobs.len()
    }

    /// Jobs currently retained (any state).
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.lock().expect("fleet registry lock").len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a job by id.
    #[must_use]
    pub fn find(&self, id: u128) -> Option<Arc<FleetJob>> {
        self.jobs
            .lock()
            .expect("fleet registry lock")
            .iter()
            .find(|job| job.id == id)
            .map(Arc::clone)
    }
}

/// Parses the batch body:
/// `{"scenarios": N, "seed": S, "maxTicks"?, "threads"?, "classes"?}`.
pub(crate) fn parse_campaign(body: &[u8]) -> Result<CampaignSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let value = parse_json(text).map_err(|e| format!("bad JSON body: {e}"))?;

    let u64_field = |name: &str| -> Result<Option<u64>, String> {
        match value.get(name) {
            None | Some(JsonValue::Null) => Ok(None),
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(JsonValue::Number(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= 1e18 => {
                Ok(Some(*n as u64))
            }
            Some(_) => Err(format!("'{name}' must be a non-negative integer")),
        }
    };

    let scenarios = u64_field("scenarios")?
        .ok_or_else(|| "body must set 'scenarios' (number of runs)".to_owned())?;
    if scenarios == 0 {
        return Err("'scenarios' must be at least 1".to_owned());
    }
    if scenarios > MAX_SCENARIOS {
        return Err(format!("'scenarios' is capped at {MAX_SCENARIOS}"));
    }
    let seed = u64_field("seed")?.unwrap_or(0);
    let mut spec = CampaignSpec::new(scenarios, seed);

    if let Some(ticks) = u64_field("maxTicks")? {
        if ticks == 0 {
            return Err("'maxTicks' must be at least 1".to_owned());
        }
        spec.max_ticks = ticks;
    }
    if let Some(threads) = u64_field("threads")? {
        if threads == 0 {
            return Err("'threads' must be at least 1".to_owned());
        }
        spec.threads = usize::try_from(threads.min(64)).expect("threads <= 64");
    }
    if let Some(classes) = value.get("classes") {
        let items = classes
            .as_array()
            .ok_or_else(|| "'classes' must be an array of class names".to_owned())?;
        let mut parsed = Vec::with_capacity(items.len());
        for item in items {
            let name = item
                .as_str()
                .ok_or_else(|| "'classes' entries must be strings".to_owned())?;
            let family = family(name).ok_or_else(|| format!("unknown attack class '{name}'"))?;
            parsed.push(family.name);
        }
        if parsed.is_empty() {
            return Err("'classes' must name at least one class".to_owned());
        }
        spec.classes = parsed;
    }
    Ok(spec)
}

/// Runs the campaign and publishes the aggregate into the job.
fn execute(job: &FleetJob, spec: &CampaignSpec) {
    let records = run_campaign_with_progress(spec, Some(&job.progress));
    job.publish(aggregate_json(&aggregate(&records)).to_text());
}

/// `POST /scenarios/batch[?wait=true]`.
#[must_use]
pub fn batch(state: &AppState, req: &Request) -> Response {
    let spec = match parse_campaign(&req.body) {
        Ok(spec) => spec,
        Err(message) => return Response::error(400, &message),
    };
    let job = Arc::new(FleetJob::new(cpssec_obs::mint_trace_id(), spec.scenarios));
    state.fleet.register(Arc::clone(&job));

    if matches!(req.query_param("wait"), Some("true" | "1")) {
        execute(&job, &spec);
        return Response::json(200, job.status_json());
    }
    let worker = Arc::clone(&job);
    let spawned = std::thread::Builder::new()
        .name("cpssec-fleet".to_owned())
        .spawn(move || execute(&worker, &spec));
    if spawned.is_err() {
        return Response::error(500, "could not spawn fleet worker");
    }
    Response::json(202, job.status_json())
}

/// `GET /scenarios/batch/:id` — progress poll.
#[must_use]
pub fn status(state: &AppState, id: &str) -> Response {
    let Ok(id) = u128::from_str_radix(id, 16) else {
        return Response::error(400, "job id must be hex");
    };
    match state.fleet.find(id) {
        Some(job) => Response::json(200, job.status_json()),
        None => Response::error(
            404,
            &format!("no fleet job '{id:032x}' (evicted or never started)"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::dispatch;

    fn state() -> Arc<AppState> {
        AppState::new(cpssec_attackdb::seed::seed_corpus())
    }

    fn post(body: &str, wait: bool) -> Request {
        let target = if wait {
            "/scenarios/batch?wait=true"
        } else {
            "/scenarios/batch"
        };
        let raw = format!(
            "POST {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        crate::http::read_request(&mut std::io::BufReader::new(raw.as_bytes()))
            .unwrap()
            .unwrap()
    }

    fn get(path: &str) -> Request {
        let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
        crate::http::read_request(&mut std::io::BufReader::new(raw.as_bytes()))
            .unwrap()
            .unwrap()
    }

    #[test]
    fn spec_parses_every_field() {
        let spec = parse_campaign(
            br#"{"scenarios":12,"seed":9,"maxTicks":2500,"threads":2,
                 "classes":["nominal","command-injection"]}"#,
        )
        .unwrap();
        assert_eq!(spec.scenarios, 12);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.max_ticks, 2500);
        assert_eq!(spec.threads, 2);
        assert_eq!(spec.classes, vec!["nominal", "command-injection"]);
    }

    #[test]
    fn spec_errors_are_descriptive() {
        for (body, needle) in [
            (&b"not json"[..], "JSON"),
            (b"{}", "scenarios"),
            (br#"{"scenarios":0}"#, "at least 1"),
            (br#"{"scenarios":200001}"#, "capped"),
            (br#"{"scenarios":4,"maxTicks":0}"#, "maxTicks"),
            (br#"{"scenarios":4,"threads":0}"#, "threads"),
            (br#"{"scenarios":4,"classes":[]}"#, "at least one class"),
            (br#"{"scenarios":4,"classes":["quantum"]}"#, "quantum"),
            (br#"{"scenarios":1.5}"#, "integer"),
        ] {
            let err = parse_campaign(body).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn over_cap_is_rejected() {
        let err = parse_campaign(br#"{"scenarios":100001}"#).unwrap_err();
        assert!(err.contains("100000"), "{err}");
    }

    #[test]
    fn wait_mode_returns_the_finished_aggregate() {
        let state = state();
        let req = post(
            r#"{"scenarios":8,"seed":77,"maxTicks":2000,"threads":2}"#,
            true,
        );
        let (route, response) = dispatch(&state, &req);
        assert_eq!(route, "POST /scenarios/batch");
        assert_eq!(
            response.status,
            200,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        let text = String::from_utf8(response.body).unwrap();
        let value = parse_json(&text).expect("status body parses");
        assert_eq!(value.get("done"), Some(&JsonValue::Bool(true)));
        assert_eq!(value.get("completed"), Some(&JsonValue::Number(8.0)));
        let result = value.get("result").expect("finished job embeds result");
        assert!(result.get("recordsHash").is_some());

        // The id is pollable afterwards and serves the same result.
        let id = value.get("id").and_then(JsonValue::as_str).unwrap();
        let (route, response) = dispatch(&state, &get(&format!("/scenarios/batch/{id}")));
        assert_eq!(route, "GET /scenarios/batch/:id");
        assert_eq!(response.status, 200);
        let polled = parse_json(&String::from_utf8(response.body).unwrap()).unwrap();
        assert_eq!(polled.get("result"), value.get("result"));
    }

    #[test]
    fn async_mode_accepts_then_finishes() {
        let state = state();
        let req = post(
            r#"{"scenarios":4,"seed":3,"maxTicks":1500,"threads":1}"#,
            false,
        );
        let (_, response) = dispatch(&state, &req);
        assert_eq!(response.status, 202);
        let value = parse_json(&String::from_utf8(response.body).unwrap()).unwrap();
        let id = value
            .get("id")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_owned();

        // Poll until the background thread publishes the aggregate.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            let (_, response) = dispatch(&state, &get(&format!("/scenarios/batch/{id}")));
            assert_eq!(response.status, 200);
            let polled = parse_json(&String::from_utf8(response.body).unwrap()).unwrap();
            if polled.get("done") == Some(&JsonValue::Bool(true)) {
                assert_eq!(polled.get("completed"), Some(&JsonValue::Number(4.0)));
                assert!(polled.get("result").is_some());
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "fleet job never finished"
            );
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }

    #[test]
    fn same_body_yields_the_same_records_hash() {
        let state = state();
        let body = r#"{"scenarios":6,"seed":11,"maxTicks":1500,"threads":2}"#;
        let hash_of = |threads: &str| {
            let body = body.replace("\"threads\":2", threads);
            let (_, response) = dispatch(&state, &post(&body, true));
            assert_eq!(response.status, 200);
            let value = parse_json(&String::from_utf8(response.body).unwrap()).unwrap();
            value
                .get("result")
                .and_then(|r| r.get("recordsHash"))
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_owned()
        };
        assert_eq!(hash_of("\"threads\":2"), hash_of("\"threads\":1"));
    }

    #[test]
    fn unknown_and_malformed_ids_fail_cleanly() {
        let state = state();
        let (_, response) = dispatch(
            &state,
            &get("/scenarios/batch/00000000000000000000000000000000"),
        );
        assert_eq!(response.status, 404);
        let (_, response) = dispatch(&state, &get("/scenarios/batch/not-hex"));
        assert_eq!(response.status, 400);
        let (_, response) = dispatch(&state, &get("/scenarios/batch"));
        assert_eq!(response.status, 405, "GET on the batch root is 405");
    }

    #[test]
    fn registry_evicts_the_oldest_job() {
        let jobs = FleetJobs::new();
        for id in 0..(JOB_CAPACITY as u128 + 3) {
            jobs.register(Arc::new(FleetJob::new(id, 1)));
        }
        assert!(jobs.find(0).is_none(), "oldest evicted");
        assert!(jobs.find(JOB_CAPACITY as u128 + 2).is_some());
    }

    fn finished_at(id: u128, finished_ms: u64) -> Arc<FleetJob> {
        let job = Arc::new(FleetJob::new(id, 1));
        job.publish("{}".to_owned());
        job.finished_at_ms.store(finished_ms, Ordering::Relaxed);
        job
    }

    #[test]
    fn eviction_expires_completed_jobs_after_the_ttl() {
        let jobs = FleetJobs::new();
        let now = 2 * JOB_TTL_MS;
        jobs.register(finished_at(1, now - JOB_TTL_MS - 1)); // stale
        jobs.register(finished_at(2, now - 10)); // fresh
        jobs.register(Arc::new(FleetJob::new(3, 1))); // in flight
        assert_eq!(jobs.evict_finished(now, JOB_TTL_MS), 1);
        assert!(jobs.find(1).is_none(), "stale completed job evicted");
        assert!(jobs.find(2).is_some(), "fresh completed job retained");
        assert!(jobs.find(3).is_some(), "in-flight job retained");
        assert_eq!(jobs.len(), 2);
    }

    #[test]
    fn eviction_caps_completed_jobs_but_never_touches_in_flight_ones() {
        let jobs = FleetJobs::new();
        let now = JOB_TTL_MS;
        // More fresh-but-finished jobs than the cap, plus live ones.
        for id in 0..(MAX_FINISHED_JOBS as u128 + 4) {
            jobs.register(finished_at(id, now));
        }
        for id in 100..103 {
            jobs.register(Arc::new(FleetJob::new(id, 1)));
        }
        let evicted = jobs.evict_finished(now, JOB_TTL_MS);
        assert_eq!(evicted, 4, "only the overflow beyond the cap goes");
        assert!(jobs.find(0).is_none(), "oldest finished evicted first");
        assert!(jobs.find(3).is_none());
        assert!(jobs.find(4).is_some(), "newest finished retained");
        for id in 100..103 {
            assert!(jobs.find(id).is_some(), "in-flight job {id} retained");
        }
        // Idempotent once within bounds.
        assert_eq!(jobs.evict_finished(now, JOB_TTL_MS), 0);
    }
}
