//! E4: filtering. "Filtering functionality is implemented to manage these
//! attack vectors" (§3): how much of the SCADA model's full result space
//! each representative filter cascade keeps.
//!
//! Run with `cargo run --release --example filtering [scale]` (scale
//! defaults to 0.05).

use cpssec::attackdb::seed::seed_corpus;
use cpssec::attackdb::synth::{generate, SynthSpec};
use cpssec::attackdb::{Abstraction, Severity};
use cpssec::model::Fidelity;
use cpssec::scada::model::scada_model;
use cpssec::search::{Filter, FilterPipeline, SearchEngine};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let mut corpus = seed_corpus();
    corpus
        .merge(generate(&SynthSpec::paper2020(2020, scale)))
        .expect("seed and synthetic id spaces are disjoint");
    let engine = SearchEngine::build(&corpus);
    let model = scada_model();

    // The raw result space: every component matched at implementation level.
    let raw: Vec<_> = model
        .components()
        .map(|(_, comp)| engine.match_component(comp, Fidelity::Implementation))
        .collect();
    let raw_total: usize = raw.iter().map(|s| s.total()).sum();

    let cascades = [
        ("none", FilterPipeline::new()),
        (
            "severity>=high",
            FilterPipeline::new().then(Filter::SeverityAtLeast(Severity::High)),
        ),
        (
            "severity>=critical",
            FilterPipeline::new().then(Filter::SeverityAtLeast(Severity::Critical)),
        ),
        (
            "standard-patterns+top20",
            FilterPipeline::new()
                .then(Filter::AbstractionIn(vec![Abstraction::Standard]))
                .then(Filter::TopKPerFamily(20)),
        ),
        (
            "early-lifecycle-drop-vulns",
            FilterPipeline::new().then(Filter::DropVulnerabilities),
        ),
        (
            "triage-high-2terms-top10",
            FilterPipeline::new()
                .then(Filter::SeverityAtLeast(Severity::High))
                .then(Filter::MinMatchedTerms(2))
                .then(Filter::TopKPerFamily(10)),
        ),
    ];
    println!("\nFilter cascade volume (raw result space: {raw_total} vectors):");
    println!("{:<36} {:>10} {:>12}", "Cascade", "kept", "reduction");
    for (name, pipeline) in cascades {
        let kept: usize = raw
            .iter()
            .map(|set| pipeline.apply(set, &corpus).total())
            .sum();
        println!(
            "{name:<36} {kept:>10} {:>11.1}%",
            100.0 * (1.0 - kept as f64 / raw_total.max(1) as f64)
        );
    }
}
