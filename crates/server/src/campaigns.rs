//! `POST /models/:id/campaigns`: exploit-chain campaigns as a service.
//!
//! The request body tunes a [`CampaignRun`] over the built-in testbed
//! named by the model id (`scada` or `water`); the server compiles the
//! matched exploit chains, executes them as staged injections
//! ([`cpssec_campaign::run_campaign_with_progress`]), and serves the
//! verdict report ([`cpssec_analysis::campaign_json`]). The job
//! lifecycle mirrors `POST /scenarios/batch`: `202 Accepted` with a
//! pollable job id by default, `?wait=true` for the finished report in
//! one round trip. Jobs live in their own [`crate::scenarios::FleetJobs`] registry and
//! age out through the same TTL sweep.
//!
//! Campaigns only run on the built-in testbeds — an uploaded model has
//! no attack scenario library or simulator behind it, so the request is
//! rejected with a `400` naming the valid ids (a missing model is still
//! a `404`).

use std::sync::Arc;

use cpssec_analysis::{campaign_aggregate, campaign_json};
use cpssec_attackdb::json::{parse as parse_json, JsonValue};
use cpssec_campaign::{compile_chains, run_campaign_with_progress, CampaignRun, Testbed};

use crate::http::{Request, Response};
use crate::scenarios::FleetJob;
use crate::AppState;

/// Worker-thread cap per campaign request.
const MAX_THREADS: u64 = 64;

/// Parses the campaign body: `{"seed"?, "threads"?}` (both optional; an
/// empty body is a default run).
fn parse_run(testbed: Testbed, body: &[u8]) -> Result<CampaignRun, String> {
    let mut run = CampaignRun::new(testbed, 42);
    if body.is_empty() {
        return Ok(run);
    }
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
    if let Some(seed) = u64_field("seed")? {
        run.seed = seed;
    }
    if let Some(threads) = u64_field("threads")? {
        if threads == 0 {
            return Err("'threads' must be at least 1".to_owned());
        }
        run.threads = usize::try_from(threads.min(MAX_THREADS)).expect("threads <= 64");
    }
    Ok(run)
}

/// Runs the campaign and publishes the verdict report into the job.
fn execute(job: &FleetJob, run: &CampaignRun) {
    let records = run_campaign_with_progress(run, Some(&job.progress));
    let aggregate = campaign_aggregate(run.testbed.as_str(), &records);
    job.publish(campaign_json(&aggregate).to_text());
}

/// `POST /models/:id/campaigns[?wait=true]`.
#[must_use]
pub fn start(state: &AppState, req: &Request, id: &str) -> Response {
    if state.sessions.get(id).is_none() {
        return Response::error(404, &format!("unknown model '{id}'"));
    }
    let Some(testbed) = Testbed::parse(id) else {
        return Response::error(
            400,
            &format!("campaigns need a built-in testbed model (scada or water), not '{id}'"),
        );
    };
    let run = match parse_run(testbed, &req.body) {
        Ok(run) => run,
        Err(message) => return Response::error(400, &message),
    };
    // A cheap pre-compile sizes the job so progress polls can report
    // completed/total; the executor recompiles identically. Campaigns
    // always run over the pinned seed corpus (not the server's scaled
    // corpus) so the verdict report is machine-independent.
    let total = compile_chains(
        &testbed.model(),
        &cpssec_attackdb::seed::seed_corpus(),
        &testbed.scenario_library(),
        run.chain_limit,
    )
    .len() as u64;
    let job = Arc::new(FleetJob::new(cpssec_obs::mint_trace_id(), total));
    state.campaigns.register(Arc::clone(&job));

    if matches!(req.query_param("wait"), Some("true" | "1")) {
        execute(&job, &run);
        return Response::json(200, job.status_json());
    }
    let worker = Arc::clone(&job);
    let spawned = std::thread::Builder::new()
        .name("cpssec-campaign".to_owned())
        .spawn(move || execute(&worker, &run));
    if spawned.is_err() {
        return Response::error(500, "could not spawn campaign worker");
    }
    Response::json(202, job.status_json())
}

/// `GET /models/:id/campaigns/:job` — progress poll.
#[must_use]
pub fn status(state: &AppState, id: &str) -> Response {
    let Ok(id) = u128::from_str_radix(id, 16) else {
        return Response::error(400, "job id must be hex");
    };
    match state.campaigns.find(id) {
        Some(job) => Response::json(200, job.status_json()),
        None => Response::error(
            404,
            &format!("no campaign job '{id:032x}' (evicted or never started)"),
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

    fn post(path: &str, body: &str) -> Request {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
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
    fn wait_mode_returns_the_finished_verdict_report() {
        let state = state();
        let req = post("/models/water/campaigns?wait=true", r#"{"threads":2}"#);
        let (route, response) = dispatch(&state, &req);
        assert_eq!(route, "POST /models/:id/campaigns");
        assert_eq!(
            response.status,
            200,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        let text = String::from_utf8(response.body).unwrap();
        let value = parse_json(&text).expect("status body parses");
        assert_eq!(value.get("done"), Some(&JsonValue::Bool(true)));
        let result = value.get("result").expect("finished job embeds result");
        assert_eq!(
            result.get("testbed").and_then(JsonValue::as_str),
            Some("water")
        );
        assert!(result.get("recordsHash").is_some());
        assert!(result.get("reachedHazard").is_some());

        // The id is pollable afterwards and serves the same result.
        let id = value.get("id").and_then(JsonValue::as_str).unwrap();
        let (route, response) = dispatch(&state, &get(&format!("/models/water/campaigns/{id}")));
        assert_eq!(route, "GET /models/:id/campaigns/:job");
        assert_eq!(response.status, 200);
        let polled = parse_json(&String::from_utf8(response.body).unwrap()).unwrap();
        assert_eq!(polled.get("result"), value.get("result"));
    }

    #[test]
    fn same_seed_yields_the_same_records_hash_at_any_thread_count() {
        let state = state();
        let hash_of = |threads: u64| {
            let body = format!("{{\"seed\":7,\"threads\":{threads}}}");
            let (_, response) = dispatch(&state, &post("/models/scada/campaigns?wait=true", &body));
            assert_eq!(response.status, 200);
            let value = parse_json(&String::from_utf8(response.body).unwrap()).unwrap();
            value
                .get("result")
                .and_then(|r| r.get("recordsHash"))
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_owned()
        };
        assert_eq!(hash_of(4), hash_of(1));
    }

    #[test]
    fn async_mode_accepts_then_finishes() {
        let state = state();
        let (_, response) = dispatch(&state, &post("/models/water/campaigns", r#"{"threads":2}"#));
        assert_eq!(response.status, 202);
        let value = parse_json(&String::from_utf8(response.body).unwrap()).unwrap();
        assert_eq!(value.get("total"), Some(&JsonValue::Number(42.0)));
        let id = value
            .get("id")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_owned();

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        loop {
            let (_, response) = dispatch(&state, &get(&format!("/models/water/campaigns/{id}")));
            assert_eq!(response.status, 200);
            let polled = parse_json(&String::from_utf8(response.body).unwrap()).unwrap();
            if polled.get("done") == Some(&JsonValue::Bool(true)) {
                assert_eq!(polled.get("completed"), Some(&JsonValue::Number(42.0)));
                assert!(polled.get("result").is_some());
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "campaign job never finished"
            );
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }

    #[test]
    fn bad_models_and_bodies_fail_cleanly() {
        let state = state();
        let (_, response) = dispatch(&state, &post("/models/ghost/campaigns", ""));
        assert_eq!(response.status, 404);

        // A stored model that is not a testbed is rejected with guidance.
        state.sessions.insert(
            "custom",
            cpssec_model::SystemModelBuilder::new("custom")
                .component("only", cpssec_model::ComponentKind::Other)
                .build()
                .unwrap(),
        );
        let (_, response) = dispatch(&state, &post("/models/custom/campaigns", ""));
        assert_eq!(response.status, 400);
        let body = String::from_utf8(response.body).unwrap();
        assert!(body.contains("scada or water"), "{body}");

        let (_, response) = dispatch(&state, &post("/models/water/campaigns", "not json"));
        assert_eq!(response.status, 400);
        let (_, response) = dispatch(&state, &post("/models/water/campaigns", r#"{"threads":0}"#));
        assert_eq!(response.status, 400);

        let (_, response) = dispatch(&state, &get("/models/water/campaigns/not-hex"));
        assert_eq!(response.status, 400);
        let (_, response) = dispatch(
            &state,
            &get("/models/water/campaigns/00000000000000000000000000000000"),
        );
        assert_eq!(response.status, 404);
        let (_, response) = dispatch(&state, &get("/models/water/campaigns"));
        assert_eq!(response.status, 405, "GET on the campaigns root is 405");
    }
}
