//! The `severity-mass` span counts the hits an association weighs: all of
//! them for a build, only the re-queried components' for a served what-if.
//!
//! Stage aggregates are process-global, so this file holds one test and
//! runs in its own binary.

use cpssec_analysis::whatif::{self, ModelChange};
use cpssec_analysis::AssociationMap;
use cpssec_attackdb::seed::seed_corpus;
use cpssec_attackdb::synth::{stream_into, SynthSpec};
use cpssec_model::{Attribute, AttributeKind, Fidelity};
use cpssec_scada::model::{names, scada_model};
use cpssec_search::{FilterPipeline, SearchEngine};

/// Hits weighed so far, summed over every `severity-mass` span.
fn weighed() -> u64 {
    cpssec_obs::recorder()
        .stage_stats()
        .iter()
        .find(|s| s.name == "severity-mass")
        .map_or(0, |s| s.items)
}

#[test]
fn a_served_what_if_weighs_only_the_requeried_components_hits() {
    cpssec_obs::recorder().enable_spans();
    let mut corpus = seed_corpus();
    stream_into(&mut corpus, &SynthSpec::paper2020(2020, 0.05)).expect("disjoint id spaces");
    let engine = SearchEngine::build(&corpus);
    let model = scada_model();
    let filters = FilterPipeline::new();
    let edit = |at: Fidelity| {
        [ModelChange::AddAttribute {
            component: names::BPCS.into(),
            attribute: Attribute::new(AttributeKind::Software, "Windows 7 build 481516")
                .at_fidelity(at),
        }]
    };

    // A build weighs every component's hits.
    let start = weighed();
    let prior = AssociationMap::build(&model, &engine, &corpus, Fidelity::Implementation, &filters);
    assert_eq!(weighed() - start, prior.total_vectors() as u64);

    // A served what-if weighs the edited component's hits and nothing else.
    let start = weighed();
    let report = whatif::evaluate_with_prior(
        &model,
        &edit(Fidelity::Implementation),
        &prior,
        &engine,
        &corpus,
        &filters,
    )
    .expect("BPCS exists");
    let requeried = report
        .after
        .component(names::BPCS)
        .expect("BPCS has a posture")
        .total_vectors() as u64;
    let whole: u64 = report
        .after
        .components
        .iter()
        .map(|c| c.total_vectors() as u64)
        .sum();
    assert_eq!(weighed() - start, requeried);
    assert!(requeried < whole, "{requeried} of {whole} hits");
    assert!(report.score_delta > 0.0);

    // An edit the map's fidelity cannot see re-queries and weighs nothing.
    let conceptual =
        AssociationMap::build(&model, &engine, &corpus, Fidelity::Conceptual, &filters);
    let start = weighed();
    let report = whatif::evaluate_with_prior(
        &model,
        &edit(Fidelity::Implementation),
        &conceptual,
        &engine,
        &corpus,
        &filters,
    )
    .expect("BPCS exists");
    assert_eq!(weighed() - start, 0);
    assert_eq!(report.score_delta, 0.0);
    assert_eq!(report.after, report.before);
}
