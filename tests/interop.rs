//! Interchange integration: GraphML and JSON Lines across the whole stack.

use cpssec::attackdb::jsonl::{from_jsonl, to_jsonl};
use cpssec::attackdb::seed::seed_corpus;
use cpssec::attackdb::synth::{generate, SynthSpec};
use cpssec::prelude::*;
use cpssec::Pipeline;

#[test]
fn corpus_jsonl_round_trip_preserves_analysis_results() {
    let mut corpus = seed_corpus();
    corpus
        .merge(generate(&SynthSpec::paper2020(2020, 0.01)))
        .unwrap();
    let text = to_jsonl(&corpus);
    let reloaded = from_jsonl(&text).expect("own export parses");

    let model = cpssec::scada::model::scada_model();
    let original = Pipeline::new(corpus, model.clone()).associate();
    let from_reloaded = Pipeline::new(reloaded, model).associate();
    assert_eq!(original, from_reloaded);
}

#[test]
fn corpus_can_be_extended_through_jsonl() {
    // A user appends an organization-specific vulnerability record to the
    // exported corpus and reloads it.
    let corpus = seed_corpus();
    let mut text = to_jsonl(&corpus);
    text.push_str(
        r#"{"type":"vulnerability","id":"CVE-2026-9999","description":"site-specific issue in the Acme batching extension for National Instruments LabVIEW","cvss":"CVSS:3.1/AV:N/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:N","weaknesses":["CWE-20"],"affected":[{"vendor":"acme","product":"batching extension"}]}"#,
    );
    text.push('\n');
    let extended = from_jsonl(&text).expect("extended corpus parses");
    assert_eq!(
        extended.stats().vulnerabilities,
        corpus.stats().vulnerabilities + 1
    );

    // The new record is immediately searchable. (A multi-term query: on a
    // corpus this tiny the single-token idf criterion sits at a knife edge,
    // which is exactly the attribute-sensitivity the paper warns about.)
    let engine = SearchEngine::build(&extended);
    let hits = engine.match_text("National Instruments LabVIEW");
    assert!(hits.vulnerabilities.len() >= 4); // 3 seed + 1 appended
    assert!(hits
        .vulnerability_ids()
        .iter()
        .any(|id| id.to_string() == "CVE-2026-9999"));
}

#[test]
fn graphml_export_feeds_foreign_shaped_models_back() {
    // A minimal hand-written GraphML file — the shape a non-cpssec exporter
    // would produce (no name entries, unknown keys) — flows through the
    // full pipeline.
    let xml = r#"<?xml version="1.0"?>
    <graphml xmlns="http://graphml.graphdrawing.org/xmlns">
      <key id="d_kind" for="node" attr.name="kind" attr.type="string"/>
      <graph id="imported-plant" edgedefault="undirected">
        <node id="hmi"><data key="d_kind">hmi</data><data key="d_color">blue</data></node>
        <node id="plc"><data key="d_kind">controller</data></node>
        <node id="pump"><data key="d_kind">actuator</data></node>
        <edge id="e0" source="hmi" target="plc"><data key="d_ckind">ethernet</data></edge>
        <edge id="e1" source="plc" target="pump"><data key="d_ckind">analog</data></edge>
      </graph>
    </graphml>"#;
    let model = cpssec::model::from_graphml(xml).expect("foreign file imports");
    assert_eq!(model.component_count(), 3);
    assert_eq!(model.name(), "imported-plant");

    let map = Pipeline::new(seed_corpus(), model).associate();
    assert_eq!(map.iter().count(), 3);
}

#[test]
fn fidelity_projection_survives_graphml() {
    let model = cpssec::scada::model::scada_model();
    let projected = model.at_fidelity(Fidelity::Architectural);
    let round_tripped =
        cpssec::model::from_graphml(&cpssec::model::to_graphml(&projected)).unwrap();
    assert_eq!(round_tripped, projected);
    // The projected model never mentions implementation-level products.
    let ws = round_tripped.component_by_name("Programming WS").unwrap();
    assert!(ws.attributes().iter().all(|a| a.value() != "Windows 7"));
}

#[test]
fn jsonl_corpus_drives_the_fault_attack_comparison() {
    // A reloaded corpus and the simulation side compose end to end.
    let corpus = from_jsonl(&to_jsonl(&seed_corpus())).unwrap();
    let engine = SearchEngine::build(&corpus);
    let map = AssociationMap::build(
        &cpssec::scada::model::scada_model(),
        &engine,
        &corpus,
        Fidelity::Implementation,
        &FilterPipeline::new(),
    );
    let records = cpssec::analysis::consequence::analyze_all(&map, 4_010);
    assert!(!records.is_empty());
}
