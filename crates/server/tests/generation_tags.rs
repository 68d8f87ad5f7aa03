//! Cached bodies and priors carry the corpus generation they were computed
//! under. A request that read the pre-apply generation and inserts its
//! answer after a delta apply leaves an entry no later lookup serves: the
//! next request recomputes from the grown corpus.

use std::io::BufReader;
use std::sync::Arc;

use cpssec_analysis::AssociationMap;
use cpssec_attackdb::json::{parse, JsonValue};
use cpssec_attackdb::seed::seed_corpus;
use cpssec_attackdb::synth;
use cpssec_model::{
    Attribute, AttributeKind, Component, ComponentKind, Criticality, Fidelity, SystemModel,
};
use cpssec_search::{build_delta, FilterPipeline, ScoringModel};
use cpssec_server::http::{read_request, Request};
use cpssec_server::router::{dispatch, parse_spec};
use cpssec_server::AppState;

fn request(method: &str, target: &str, body: &str) -> Request {
    let raw = format!(
        "{method} {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    read_request(&mut BufReader::new(raw.as_bytes()))
        .expect("well-formed request")
        .expect("one request")
}

/// A one-component model that names the product every delta record
/// mentions, so it associates nothing before a delta and something after.
fn probe_model() -> SystemModel {
    let mut model = SystemModel::new("flownet-probe").expect("valid name");
    model
        .add_component(
            Component::new("Gateway", ComponentKind::Controller)
                .with_criticality(Criticality::High)
                .with_attribute(Attribute::new(AttributeKind::Product, synth::DELTA_MENTION)),
        )
        .expect("unique component");
    model
}

fn json(state: &AppState, req: &Request) -> (String, JsonValue) {
    let (_, response) = dispatch(state, req);
    assert_eq!(response.status, 200);
    let text = String::from_utf8(response.body).expect("utf8");
    let value = parse(&text).expect("JSON body");
    (text, value)
}

fn number(value: &JsonValue, field: &str) -> f64 {
    match value.get(field) {
        Some(JsonValue::Number(n)) => *n,
        other => panic!("{field}: {other:?}"),
    }
}

#[test]
fn a_pre_apply_value_inserted_after_the_apply_is_never_served() {
    let state = AppState::new(seed_corpus());
    let hash = state.sessions.insert("probe", probe_model());
    let associate = request("GET", "/models/probe/associate", "");
    let whatif = request(
        "POST",
        "/models/probe/whatif",
        r#"{"changes":[{"op":"add","component":"Gateway","kind":"software","value":"Labview"}]}"#,
    );
    let prefix = parse_spec(&associate).expect("spec").key_prefix(hash);
    let body_key = format!("assoc/{prefix}/-");
    let prior_key = format!("prior/{prefix}");

    // A slow request takes the pre-apply generation and computes its
    // answers from it...
    let held = state.generation();
    let (stale_body, stale) = json(&state, &associate);
    let stale_prior = AssociationMap::build(
        &state.sessions.get("probe").expect("stored").model,
        &held.engine(ScoringModel::TfIdf),
        held.corpus(),
        Fidelity::Implementation,
        &FilterPipeline::new(),
    );

    // ...a delta grows the corpus meanwhile...
    let delta = build_delta(held.state_id(), &synth::delta_batch(7, 50, 0));
    let outcome = state.apply_corpus_delta(&delta).expect("apply");
    assert_ne!(outcome.state_id, held.state_id());

    // ...and only then does the slow request insert what it computed.
    state.responses.insert(
        body_key.clone(),
        held.state_id(),
        Arc::new(stale_body.clone()),
    );
    state
        .priors
        .insert(prior_key.clone(), held.state_id(), Arc::new(stale_prior));
    assert!(state.responses.get(&body_key).is_none());
    assert!(state.priors.get(&prior_key).is_none());

    // The next requests recompute from the grown corpus: the what-if
    // first, so its prior lookup meets the stale prior, not a fresh one.
    let (_, report) = json(&state, &whatif);
    let (fresh_body, fresh) = json(&state, &associate);
    assert_ne!(fresh_body, stale_body, "the pre-apply body was served");
    let vulnerabilities = |doc: &JsonValue| {
        let components = doc.get("components").and_then(JsonValue::as_array);
        number(&components.expect("components")[0], "vulnerabilities")
    };
    assert_eq!(vulnerabilities(&stale), 0.0);
    assert!(vulnerabilities(&fresh) > 0.0);
    assert_eq!(
        number(&report, "scoreBefore"),
        number(&fresh, "systemScore"),
        "the what-if weighed a pre-apply prior"
    );
    assert_ne!(
        number(&report, "scoreBefore"),
        number(&stale, "systemScore")
    );
}
