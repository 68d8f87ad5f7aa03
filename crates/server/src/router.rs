//! Request routing: URL + query → analysis pipeline → canonical JSON.
//!
//! Every analysis response is produced by the *same* renderers the batch
//! pipeline uses ([`cpssec_analysis::render`]), so a served body is byte
//! for byte what the single-threaded pipeline would print. Responses are
//! memoized in the content-addressed cache: the key concatenates the model
//! content hash, fidelity, scoring model, the canonical filter spec, and
//! any endpoint-specific discriminator (component name, what-if body
//! hash) — all inputs that can influence the bytes.

use std::sync::Arc;

use cpssec_analysis::render::{self, Json};
use cpssec_analysis::{attribute_rows, whatif, AssociationMap, ModelChange, SystemPosture};
use cpssec_attackdb::json::{parse as parse_json, JsonValue};
use cpssec_attackdb::Severity;
use cpssec_model::{fnv1a_64, Attribute, AttributeKind, Fidelity};
use cpssec_search::{Filter, FilterPipeline, ScoringModel};

use crate::http::{Request, Response};
use crate::{AppState, DeltaError, Generation};

/// The analysis knobs every read endpoint accepts, plus their canonical
/// cache-key rendering.
#[derive(Debug)]
pub struct RequestSpec {
    /// Fidelity level of the projection (default implementation).
    pub fidelity: Fidelity,
    /// Scoring model (default tf-idf).
    pub scoring: ScoringModel,
    /// The filter pipeline, assembled in a fixed order.
    pub filters: FilterPipeline,
    /// Canonical filter-spec string: every knob, defaults included, fixed
    /// order — identical requests produce identical strings.
    pub filter_spec: String,
}

fn parse_severity(raw: &str) -> Option<Severity> {
    match raw {
        "none" => Some(Severity::None),
        "low" => Some(Severity::Low),
        "medium" => Some(Severity::Medium),
        "high" => Some(Severity::High),
        "critical" => Some(Severity::Critical),
        _ => None,
    }
}

/// Parses fidelity/scoring/filter query parameters.
///
/// # Errors
///
/// A client-facing message naming the offending parameter.
pub fn parse_spec(req: &Request) -> Result<RequestSpec, String> {
    let fidelity = match req.query_param("fidelity") {
        Some(raw) => raw
            .parse::<Fidelity>()
            .map_err(|_| format!("unknown fidelity '{raw}'"))?,
        None => Fidelity::Implementation,
    };
    let scoring = match req.query_param("scoring") {
        Some(raw) => raw
            .parse::<ScoringModel>()
            .map_err(|_| format!("unknown scoring model '{raw}'"))?,
        None => ScoringModel::TfIdf,
    };

    let mut filters = FilterPipeline::new();
    let mut spec_parts: Vec<String> = Vec::with_capacity(5);
    // Fixed assembly order: the pipeline stages and the spec string line
    // up, so equal specs mean equal pipelines.
    let min_score = req
        .query_param("minScore")
        .map(|raw| {
            raw.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("bad minScore '{raw}'"))
        })
        .transpose()?;
    if let Some(v) = min_score {
        filters = filters.then(Filter::MinScore(v));
    }
    spec_parts.push(format!(
        "minScore={}",
        min_score.map_or("-".into(), |v| v.to_string())
    ));

    let min_terms = req
        .query_param("minTerms")
        .map(|raw| {
            raw.parse::<usize>()
                .map_err(|_| format!("bad minTerms '{raw}'"))
        })
        .transpose()?;
    if let Some(v) = min_terms {
        filters = filters.then(Filter::MinMatchedTerms(v));
    }
    spec_parts.push(format!(
        "minTerms={}",
        min_terms.map_or("-".into(), |v| v.to_string())
    ));

    let top_k = req
        .query_param("topK")
        .map(|raw| {
            raw.parse::<usize>()
                .map_err(|_| format!("bad topK '{raw}'"))
        })
        .transpose()?;
    if let Some(v) = top_k {
        filters = filters.then(Filter::TopKPerFamily(v));
    }
    spec_parts.push(format!(
        "topK={}",
        top_k.map_or("-".into(), |v| v.to_string())
    ));

    let severity = req
        .query_param("severity")
        .map(|raw| parse_severity(raw).ok_or_else(|| format!("unknown severity '{raw}'")))
        .transpose()?;
    if let Some(v) = severity {
        filters = filters.then(Filter::SeverityAtLeast(v));
    }
    spec_parts.push(format!(
        "severity={}",
        severity.map_or("-".to_owned(), |v| v.as_str().to_ascii_lowercase())
    ));

    let drop_vulns = match req.query_param("dropVulns") {
        Some("true" | "1") => true,
        Some("false" | "0") | None => false,
        Some(raw) => return Err(format!("bad dropVulns '{raw}' (expected true/false)")),
    };
    if drop_vulns {
        filters = filters.then(Filter::DropVulnerabilities);
    }
    spec_parts.push(format!("dropVulns={drop_vulns}"));

    Ok(RequestSpec {
        fidelity,
        scoring,
        filters,
        filter_spec: spec_parts.join(";"),
    })
}

impl RequestSpec {
    /// The shared cache-key prefix: `{model-hash}/{fidelity}/{scoring}/{filters}`.
    #[must_use]
    pub fn key_prefix(&self, model_hash: u64) -> String {
        format!(
            "{model_hash:016x}/{}/{}/{}",
            self.fidelity.as_str(),
            self.scoring.as_str(),
            self.filter_spec
        )
    }
}

/// Parses the what-if request body:
/// `{"changes": [{"op": "add|replace|remove", "component": …, …}]}`.
///
/// # Errors
///
/// A client-facing message for malformed JSON or unknown fields.
pub fn parse_changes(body: &[u8]) -> Result<Vec<ModelChange>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let value = parse_json(text).map_err(|e| format!("bad JSON body: {e}"))?;
    let changes = value
        .get("changes")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "body must be {\"changes\": [...]}".to_owned())?;

    let str_field = |change: &JsonValue, name: &str| -> Result<String, String> {
        change
            .get(name)
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("change is missing string field '{name}'"))
    };
    let attribute_of = |change: &JsonValue| -> Result<Attribute, String> {
        let kind_raw = str_field(change, "kind")?;
        let kind = kind_raw
            .parse::<AttributeKind>()
            .map_err(|_| format!("unknown attribute kind '{kind_raw}'"))?;
        let value = str_field(change, "value")?;
        let mut attribute = if kind == AttributeKind::Custom {
            Attribute::custom(str_field(change, "key")?, value)
        } else {
            Attribute::new(kind, value)
        };
        if let Some(raw) = change.get("atFidelity").and_then(JsonValue::as_str) {
            let fidelity = raw
                .parse::<Fidelity>()
                .map_err(|_| format!("unknown fidelity '{raw}'"))?;
            attribute = attribute.at_fidelity(fidelity);
        }
        Ok(attribute)
    };

    changes
        .iter()
        .map(|change| {
            let op = str_field(change, "op")?;
            let component = str_field(change, "component")?;
            match op.as_str() {
                "add" => Ok(ModelChange::AddAttribute {
                    component,
                    attribute: attribute_of(change)?,
                }),
                "replace" => Ok(ModelChange::ReplaceAttribute {
                    component,
                    key: str_field(change, "key")?,
                    with: attribute_of(change)?,
                }),
                "remove" => Ok(ModelChange::RemoveAttribute {
                    component,
                    key: str_field(change, "key")?,
                    value: str_field(change, "value")?,
                }),
                other => Err(format!(
                    "unknown op '{other}' (expected add/replace/remove)"
                )),
            }
        })
        .collect()
}

/// Classifies a request into the router's static route pattern without
/// running any handler. The reactor uses this to pick an admission queue
/// *before* a request is allowed to occupy a worker, so the admission
/// key space is exactly the bounded label set `dispatch` reports to
/// metrics (`dispatch` takes its pattern from here too).
#[must_use]
pub fn route_pattern(method: &str, path: &str) -> &'static str {
    pattern_of(method, &path_segments(path))
}

fn path_segments(path: &str) -> Vec<&str> {
    path.split('/').filter(|s| !s.is_empty()).collect()
}

/// The route table: every served route; `method-not-allowed` for a
/// path served under another method, `not-found` for any other.
fn pattern_of(method: &str, segments: &[&str]) -> &'static str {
    let served = |method| match (method, segments) {
        ("GET", ["healthz"]) => Some("GET /healthz"),
        ("GET", ["metrics"]) => Some("GET /metrics"),
        ("GET", ["metrics", "history"]) => Some("GET /metrics/history"),
        ("GET", ["alerts"]) => Some("GET /alerts"),
        ("GET", ["dashboard"]) => Some("GET /dashboard"),
        ("GET", ["debug", "slow"]) => Some("GET /debug/slow"),
        ("GET", ["debug", "requests", _]) => Some("GET /debug/requests/:id"),
        ("GET", ["debug", "profile"]) => Some("GET /debug/profile"),
        ("POST", ["debug", "delay"]) => Some("POST /debug/delay"),
        ("POST", ["debug", "flight", "dump"]) => Some("POST /debug/flight/dump"),
        ("GET", ["table1"]) => Some("GET /table1"),
        ("POST", ["scenarios", "batch"]) => Some("POST /scenarios/batch"),
        ("GET", ["scenarios", "batch", _]) => Some("GET /scenarios/batch/:id"),
        ("POST", ["corpus", "delta"]) => Some("POST /corpus/delta"),
        ("POST", ["models"]) => Some("POST /models"),
        ("GET", ["models", _, "associate"]) => Some("GET /models/:id/associate"),
        ("POST", ["models", _, "whatif"]) => Some("POST /models/:id/whatif"),
        ("POST", ["models", _, "campaigns"]) => Some("POST /models/:id/campaigns"),
        ("GET", ["models", _, "campaigns", _]) => Some("GET /models/:id/campaigns/:job"),
        _ => None,
    };
    match served(method) {
        Some(pattern) => pattern,
        None if served("GET").or(served("POST")).is_some() => "method-not-allowed",
        None => "not-found",
    }
}

/// Dispatches one request. Returns the matched route pattern (for metrics)
/// and the response.
#[must_use]
pub fn dispatch(state: &AppState, req: &Request) -> (&'static str, Response) {
    let segments = path_segments(&req.path);
    let pattern = pattern_of(&req.method, &segments);
    // The pattern fixes the segment count, so the id segments are there.
    let response = match pattern {
        "GET /healthz" => Response::text(200, "ok\n"),
        "GET /metrics" => metrics(state),
        "GET /metrics/history" => history(state, req),
        "GET /alerts" => Response::json(200, state.telemetry.alerts_json()),
        "GET /dashboard" => Response::with_type(
            200,
            "text/html; charset=utf-8",
            crate::dashboard::DASHBOARD_HTML,
        ),
        "GET /debug/slow" => Response::json(200, state.requests.slow_json()),
        "GET /debug/requests/:id" => debug_request(state, segments[2]),
        "GET /debug/profile" => debug_profile(req),
        "POST /debug/delay" => set_delay(state, req),
        "POST /debug/flight/dump" => flight_dump_route(state),
        "GET /table1" => table1(state, req),
        "POST /scenarios/batch" => crate::scenarios::batch(state, req),
        "GET /scenarios/batch/:id" => crate::scenarios::status(state, segments[2]),
        "POST /corpus/delta" => corpus_delta(state, req),
        "POST /models" => upload_model(state, req),
        "GET /models/:id/associate" => associate(state, req, segments[1]),
        "POST /models/:id/whatif" => whatif_route(state, req, segments[1]),
        "POST /models/:id/campaigns" => crate::campaigns::start(state, req, segments[1]),
        "GET /models/:id/campaigns/:job" => crate::campaigns::status(state, segments[3]),
        "method-not-allowed" => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    };
    (pattern, response)
}

/// The full `/metrics` exposition body. Shared by the scrape endpoint
/// and the flight recorder, which bundles a scrape into every dump.
/// `None` only without `wait` ([`crate::dump_guard`]).
pub(crate) fn metrics_text(state: &AppState, wait: bool) -> Option<String> {
    let (resp_hits, resp_misses) = state.responses.stats();
    let (prior_hits, prior_misses) = state.priors.stats();
    let mut body = state.metrics.render(
        wait,
        &[
            ("responses", resp_hits, resp_misses),
            ("priors", prior_hits, prior_misses),
        ],
        &state.startup,
        &state.gauges.sample(),
    )?;
    body.push_str(&state.telemetry.render_prom());
    body.push_str(&state.admission.render_prom(wait)?);
    Some(body)
}

fn metrics(state: &AppState) -> Response {
    Response::with_type(
        200,
        crate::metrics::EXPOSITION_CONTENT_TYPE,
        metrics_text(state, true).unwrap_or_default(),
    )
}

/// `GET /debug/profile?seconds=N&hz=H&format=json|collapsed` — block
/// this worker for the window while the sampler aggregates every
/// registered thread's span stack, then render the flame tree.
fn debug_profile(req: &Request) -> Response {
    let seconds = match req.query_param("seconds") {
        None => 2,
        Some(raw) => match raw.parse::<u64>() {
            Ok(s @ 1..=30) => s,
            _ => return Response::error(400, &format!("bad seconds '{raw}' (expected 1..=30)")),
        },
    };
    let hz = match req.query_param("hz") {
        None => 99,
        Some(raw) => match raw.parse::<u64>() {
            Ok(h @ 1..=10_000) => h,
            _ => return Response::error(400, &format!("bad hz '{raw}' (expected 1..=10000)")),
        },
    };
    let graph = cpssec_obs::profile::sample_for(std::time::Duration::from_secs(seconds), hz);
    let mut response = match req.query_param("format") {
        None | Some("json") => Response::json(200, graph.flame_json(cpssec_obs::stage_label)),
        Some("collapsed") => Response::text(200, graph.collapsed(cpssec_obs::stage_label)),
        Some(other) => {
            return Response::error(400, &format!("unknown format '{other}' (json, collapsed)"))
        }
    };
    response.add_header("X-Profile-Samples", graph.samples.to_string());
    response.add_header("X-Profile-Root-Us", graph.root_us().to_string());
    response
}

/// `POST /debug/flight/dump` — write a `.cpsflight` dump on demand.
fn flight_dump_route(state: &AppState) -> Response {
    match state.flight_dump("manual") {
        Ok((path, bytes)) => {
            let mut body = String::from("{\"path\":");
            cpssec_attackdb::json::write_escaped(&mut body, &path);
            body.push_str(&format!(",\"bytes\":{bytes}}}"));
            Response::json(200, body)
        }
        Err(e) => Response::error(500, &e),
    }
}

/// `GET /metrics/history?series=a,b&res=1s`. Without `series`, lists
/// every known series name.
fn history(state: &AppState, req: &Request) -> Response {
    let res_name = req.query_param("res").unwrap_or("1s");
    let Some(res) = cpssec_obs::timeseries::resolution_index(res_name) else {
        return Response::error(
            400,
            &format!("unknown resolution '{res_name}' (1s, 10s, 1m)"),
        );
    };
    match req.query_param("series") {
        None => Response::json(200, state.telemetry.series_names_json()),
        Some(list) => {
            let names: Vec<&str> = list.split(',').filter(|s| !s.is_empty()).collect();
            Response::json(200, state.telemetry.history_json(&names, res))
        }
    }
}

/// `GET /debug/requests/:id` — one request's full stage breakdown by
/// (hex) trace id.
fn debug_request(state: &AppState, id: &str) -> Response {
    let Ok(trace_id) = u128::from_str_radix(id, 16) else {
        return Response::error(400, "trace id must be hex");
    };
    match state.requests.find(trace_id) {
        Some(entry) => Response::json(200, entry.to_json()),
        None => Response::error(
            404,
            &format!("no recorded request with trace id '{id}' (evicted or never served)"),
        ),
    }
}

/// `POST /debug/delay?us=N` — the latency-regression test hook.
fn set_delay(state: &AppState, req: &Request) -> Response {
    let Some(raw) = req.query_param("us") else {
        return Response::error(400, "missing ?us=<microseconds> query parameter");
    };
    let Ok(us) = raw.parse::<u64>() else {
        return Response::error(400, &format!("bad us '{raw}'"));
    };
    state
        .test_delay
        .store(us, std::sync::atomic::Ordering::Relaxed);
    Response::json(200, format!("{{\"delay_us\":{us}}}"))
}

/// `POST /corpus/delta` — applies a binary `.cpsdelta` body to the live
/// corpus without a rebuild. A parent-id mismatch (stale or replayed
/// delta) is `409 Conflict`: the client must re-fetch the current
/// `stateId` and rebuild its delta against it. A malformed batch or an
/// id-floor violation is a 400, and a failed compaction proof a 500 (see
/// [`delta_rejected`]). On success the response carries the new chain
/// anchor.
fn corpus_delta(state: &AppState, req: &Request) -> Response {
    if req.body.is_empty() {
        return Response::error(400, "missing .cpsdelta request body");
    }
    match state.apply_corpus_delta(&req.body) {
        Ok(outcome) => {
            let body = Json::Object(vec![
                ("applied".into(), true.into()),
                ("records".into(), outcome.records.into()),
                (
                    "stateId".into(),
                    format!("{:016x}", outcome.state_id).as_str().into(),
                ),
                ("compacted".into(), outcome.compacted.into()),
            ]);
            Response::json(200, body.to_text())
        }
        Err(e) => delta_rejected(&e),
    }
}

/// The answer to a delta apply that installed nothing, with the status
/// of whoever is at fault. A divergent compaction is the server's own
/// invariant breaking, so it also leaves one line on stderr.
fn delta_rejected(error: &DeltaError) -> Response {
    if matches!(error, DeltaError::Diverged(_)) {
        eprintln!("delta apply: compaction proof failed, nothing installed: {error}");
    }
    Response::error(error.status(), &format!("delta rejected: {error}"))
}

fn upload_model(state: &AppState, req: &Request) -> Response {
    let Some(id) = req.query_param("id").filter(|id| !id.is_empty()) else {
        return Response::error(400, "missing ?id=<name> query parameter");
    };
    if id.contains('/') {
        return Response::error(400, "model id must not contain '/'");
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let model = match cpssec_model::from_graphml(text) {
        Ok(model) => model,
        Err(e) => return Response::error(400, &format!("bad GraphML: {e}")),
    };
    let components = model.components().count();
    let channels = model.channels().count();
    let hash = state.sessions.insert(id, model);
    let body = Json::Object(vec![
        ("id".into(), id.into()),
        ("hash".into(), format!("{hash:016x}").as_str().into()),
        ("components".into(), components.into()),
        ("channels".into(), channels.into()),
    ]);
    Response::json(201, body.to_text())
}

/// Computes (or fetches) the association map for `stored` under `spec`
/// from `generation`. The map doubles as the *prior* for incremental
/// what-if requests, so it is cached separately from rendered responses.
fn prior_map(
    state: &AppState,
    generation: &Generation,
    stored: &crate::session::StoredModel,
    spec: &RequestSpec,
) -> Arc<AssociationMap> {
    let key = format!("prior/{}", spec.key_prefix(stored.hash));
    if let Some(map) = state.priors.get_at(&key, generation.state_id()) {
        return map;
    }
    let map = Arc::new(AssociationMap::build(
        &stored.model,
        &generation.engine(spec.scoring),
        generation.corpus(),
        spec.fidelity,
        &spec.filters,
    ));
    state
        .priors
        .insert(key, generation.state_id(), Arc::clone(&map));
    map
}

fn associate(state: &AppState, req: &Request, id: &str) -> Response {
    let spec = match parse_spec(req) {
        Ok(spec) => spec,
        Err(message) => return Response::error(400, &message),
    };
    let Some(stored) = state.sessions.get(id) else {
        return Response::error(404, &format!("unknown model '{id}'"));
    };
    cpssec_obs::note_model(stored.hash, spec.fidelity.as_str());
    state.apply_test_delay();
    let generation = state.generation();
    let component = req.query_param("component");
    let key = format!(
        "assoc/{}/{}",
        spec.key_prefix(stored.hash),
        component.unwrap_or("-")
    );
    if let Some(body) = state.responses.get_at(&key, generation.state_id()) {
        cpssec_obs::annotate("cache", "hit");
        return Response::json(200, body.as_str());
    }
    cpssec_obs::annotate("cache", "miss");

    let map = prior_map(state, &generation, &stored, &spec);
    let posture = SystemPosture::compute(&stored.model, generation.corpus(), &map);
    let body = match component {
        None => render::association_json(&stored.model, &map, &posture).to_text(),
        Some(name) => {
            let Some(set) = map.matches(name) else {
                return Response::error(404, &format!("unknown component '{name}'"));
            };
            let (patterns, weaknesses, vulnerabilities) = set.counts();
            let mut fields: Vec<(String, Json)> = vec![
                ("model".into(), stored.model.name().into()),
                ("fidelity".into(), map.fidelity().as_str().into()),
                ("name".into(), name.into()),
                ("patterns".into(), patterns.into()),
                ("weaknesses".into(), weaknesses.into()),
                ("vulnerabilities".into(), vulnerabilities.into()),
            ];
            if let Some(p) = posture.component(name) {
                fields.push(("score".into(), p.score.into()));
            }
            Json::Object(fields).to_text()
        }
    };
    state
        .responses
        .insert(key, generation.state_id(), Arc::new(body.clone()));
    Response::json(200, body)
}

fn whatif_route(state: &AppState, req: &Request, id: &str) -> Response {
    let spec = match parse_spec(req) {
        Ok(spec) => spec,
        Err(message) => return Response::error(400, &message),
    };
    let Some(stored) = state.sessions.get(id) else {
        return Response::error(404, &format!("unknown model '{id}'"));
    };
    cpssec_obs::note_model(stored.hash, spec.fidelity.as_str());
    state.apply_test_delay();
    let generation = state.generation();
    let key = format!(
        "whatif/{}/{:016x}",
        spec.key_prefix(stored.hash),
        fnv1a_64(&req.body)
    );
    if let Some(body) = state.responses.get_at(&key, generation.state_id()) {
        cpssec_obs::annotate("cache", "hit");
        return Response::json(200, body.as_str());
    }
    cpssec_obs::annotate("cache", "miss");

    let changes = match parse_changes(&req.body) {
        Ok(changes) => changes,
        Err(message) => return Response::error(400, &message),
    };
    let prior = prior_map(state, &generation, &stored, &spec);
    let report = match whatif::evaluate_with_prior(
        &stored.model,
        &changes,
        &prior,
        &generation.engine(spec.scoring),
        generation.corpus(),
        &spec.filters,
    ) {
        Ok(report) => report,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let body = render::whatif_json(stored.model.name(), spec.fidelity, &report).to_text();
    state
        .responses
        .insert(key, generation.state_id(), Arc::new(body.clone()));
    Response::json(200, body)
}

fn table1(state: &AppState, req: &Request) -> Response {
    let spec = match parse_spec(req) {
        Ok(spec) => spec,
        Err(message) => return Response::error(400, &message),
    };
    let model_id = req.query_param("model").unwrap_or("scada");
    let Some(stored) = state.sessions.get(model_id) else {
        return Response::error(404, &format!("unknown model '{model_id}'"));
    };
    cpssec_obs::note_model(stored.hash, spec.fidelity.as_str());
    state.apply_test_delay();
    let generation = state.generation();
    let key = format!("table1/{}", spec.key_prefix(stored.hash));
    if let Some(body) = state.responses.get_at(&key, generation.state_id()) {
        cpssec_obs::annotate("cache", "hit");
        return Response::text(200, body.as_str());
    }
    cpssec_obs::annotate("cache", "miss");

    let rows = attribute_rows(
        &stored.model,
        &generation.engine(spec.scoring),
        generation.corpus(),
        spec.fidelity,
        &spec.filters,
    );
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.attribute.clone(),
                r.patterns.to_string(),
                r.weaknesses.to_string(),
                r.vulnerabilities.to_string(),
            ]
        })
        .collect();
    let body = render::text_table(
        &[
            "Attribute",
            "Attack Patterns",
            "Weaknesses",
            "Vulnerabilities",
        ],
        &cells,
    );
    state
        .responses
        .insert(key, generation.state_id(), Arc::new(body.clone()));
    Response::text(200, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, target: &str) -> Request {
        let raw = format!("{method} {target} HTTP/1.1\r\n\r\n");
        crate::http::read_request(&mut std::io::BufReader::new(raw.as_bytes()))
            .unwrap()
            .unwrap()
    }

    #[test]
    fn route_pattern_matches_dispatch() {
        // Every surface the router serves, plus method/path fallbacks:
        // the admission key must equal the label dispatch records.
        // (The flight-dump entry really writes a dump; point it at tmp.)
        std::env::set_var("CPSSEC_FLIGHT_DIR", std::env::temp_dir());
        let state = AppState::new(cpssec_attackdb::seed::seed_corpus());
        for (method, target) in [
            ("GET", "/healthz"),
            ("GET", "/metrics"),
            ("GET", "/metrics/history"),
            ("GET", "/alerts"),
            ("GET", "/dashboard"),
            ("GET", "/debug/slow"),
            ("GET", "/debug/requests/abc"),
            ("POST", "/debug/delay?us=0"),
            ("GET", "/debug/profile?seconds=1&hz=9"),
            ("POST", "/debug/flight/dump"),
            ("PUT", "/debug/profile"),
            ("DELETE", "/debug/flight/dump"),
            ("GET", "/table1"),
            ("POST", "/scenarios/batch"),
            ("GET", "/scenarios/batch/7"),
            ("POST", "/corpus/delta"),
            ("POST", "/models"),
            ("GET", "/models/scada/associate"),
            ("POST", "/models/scada/whatif"),
            ("POST", "/models/scada/campaigns"),
            ("GET", "/models/scada/campaigns/3"),
            ("DELETE", "/healthz"),
            ("PUT", "/models/scada/associate"),
            ("GET", "/no/such/endpoint"),
        ] {
            let req = request(method, target);
            let (label, response) = dispatch(&state, &req);
            assert_eq!(
                route_pattern(&req.method, &req.path),
                label,
                "{method} {target}"
            );
            // Only an unknown path falls through to the 404 arm, and only
            // a known path under another method to the 405 one.
            let unrouted = response.body == br#"{"error":"no such endpoint"}"#;
            assert_eq!(unrouted, label == "not-found", "{method} {target}");
            let refused = response.status == 405;
            assert_eq!(refused, label == "method-not-allowed", "{method} {target}");
        }
    }

    #[test]
    fn spec_defaults_are_canonical() {
        let spec = parse_spec(&request("GET", "/models/scada/associate")).unwrap();
        assert_eq!(spec.fidelity, Fidelity::Implementation);
        assert_eq!(spec.scoring, ScoringModel::TfIdf);
        assert!(spec.filters.is_empty());
        assert_eq!(
            spec.filter_spec,
            "minScore=-;minTerms=-;topK=-;severity=-;dropVulns=false"
        );
    }

    #[test]
    fn spec_reflects_every_knob() {
        let spec = parse_spec(&request(
            "GET",
            "/x?fidelity=conceptual&scoring=bm25&minScore=0.5&minTerms=2&topK=3&severity=high&dropVulns=true",
        ))
        .unwrap();
        assert_eq!(spec.fidelity, Fidelity::Conceptual);
        assert_eq!(spec.scoring, ScoringModel::Bm25);
        assert_eq!(spec.filters.len(), 5);
        assert_eq!(
            spec.filter_spec,
            "minScore=0.5;minTerms=2;topK=3;severity=high;dropVulns=true"
        );
    }

    #[test]
    fn bad_knobs_are_named_in_the_error() {
        for (target, needle) in [
            ("/x?fidelity=quantum", "fidelity"),
            ("/x?scoring=magic", "scoring"),
            ("/x?minScore=NaN", "minScore"),
            ("/x?minTerms=-1", "minTerms"),
            ("/x?topK=many", "topK"),
            ("/x?severity=extreme", "severity"),
            ("/x?dropVulns=maybe", "dropVulns"),
        ] {
            let err = parse_spec(&request("GET", target)).unwrap_err();
            assert!(err.contains(needle), "{target}: {err}");
        }
    }

    #[test]
    fn changes_parse_all_three_ops() {
        let body = br#"{"changes":[
            {"op":"add","component":"c","kind":"os","value":"Windows 7","atFidelity":"implementation"},
            {"op":"replace","component":"c","key":"os","kind":"os","value":"Linux"},
            {"op":"remove","component":"c","key":"software","value":"Labview"}
        ]}"#;
        let changes = parse_changes(body).unwrap();
        assert_eq!(changes.len(), 3);
        assert!(
            matches!(&changes[0], ModelChange::AddAttribute { component, attribute }
            if component == "c" && attribute.value() == "Windows 7"
               && attribute.fidelity() == Fidelity::Implementation)
        );
        assert!(matches!(&changes[1], ModelChange::ReplaceAttribute { key, .. } if key == "os"));
        assert!(
            matches!(&changes[2], ModelChange::RemoveAttribute { value, .. } if value == "Labview")
        );
    }

    #[test]
    fn change_errors_are_descriptive() {
        assert!(parse_changes(b"not json").unwrap_err().contains("JSON"));
        assert!(parse_changes(b"{}").unwrap_err().contains("changes"));
        assert!(
            parse_changes(br#"{"changes":[{"op":"warp","component":"c"}]}"#)
                .unwrap_err()
                .contains("warp")
        );
        assert!(parse_changes(
            br#"{"changes":[{"op":"add","component":"c","kind":"exotic","value":"x"}]}"#
        )
        .unwrap_err()
        .contains("exotic"));
    }

    #[test]
    fn delta_rejections_carry_the_status_of_whoever_is_at_fault() {
        use cpssec_search::snapshot::SnapshotError;
        let state = AppState::new(cpssec_attackdb::seed::seed_corpus());
        let before = state.state_id();
        let post = |body: Vec<u8>| {
            let mut req = request("POST", "/corpus/delta");
            req.body = body;
            corpus_delta(&state, &req)
        };
        let batch = cpssec_attackdb::synth::delta_batch(3, 10, 0);
        // A delta chained onto another state is stale: 409.
        let stale = cpssec_search::build_delta(before ^ 1, &batch);
        assert_eq!(post(stale).status, 409);
        // Malformed bytes are the client's fault: 400.
        let mut truncated = cpssec_search::build_delta(before, &batch);
        truncated.truncate(truncated.len() / 2);
        assert_eq!(post(truncated).status, 400);
        assert_eq!(state.state_id(), before, "nothing installed");
        // A failed compaction proof is the server's: 500, never a 400.
        for (error, status) in [
            (
                DeltaError::Conflict(SnapshotError::ParentMismatch { delta: 1, state: 2 }),
                409,
            ),
            (DeltaError::Invalid(SnapshotError::Truncated), 400),
            (
                DeltaError::Diverged(SnapshotError::Corrupt(
                    "compacted snapshot diverges from rebuild-from-scratch".into(),
                )),
                500,
            ),
        ] {
            let response = delta_rejected(&error);
            assert_eq!(response.status, status, "{error}");
            let body = String::from_utf8(response.body).unwrap();
            assert!(body.contains(&error.to_string()), "{body}");
        }
        // The message is the cause's own one line.
        let truncated = DeltaError::Invalid(SnapshotError::Truncated);
        assert_eq!(truncated.to_string(), "snapshot is truncated");
        // The real path still applies a well-formed delta: 200.
        assert_eq!(post(cpssec_search::build_delta(before, &batch)).status, 200);
        assert_ne!(state.state_id(), before);
    }
}
