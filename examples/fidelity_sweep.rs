//! E3: fidelity sensitivity. "The result space … is highly sensitive to
//! the fidelity of the model" (§3): the size and composition of the
//! SCADA model's result space at each fidelity level.
//!
//! Run with `cargo run --release --example fidelity_sweep [scale]`
//! (scale defaults to 0.05).

use cpssec::analysis::AssociationMap;
use cpssec::attackdb::seed::seed_corpus;
use cpssec::attackdb::synth::{generate, SynthSpec};
use cpssec::model::Fidelity;
use cpssec::scada::model::scada_model;
use cpssec::search::{FilterPipeline, SearchEngine};

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
    let filters = FilterPipeline::new();

    println!("\nFidelity sweep — result-space size and composition:");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}",
        "Fidelity", "patterns", "weaknesses", "vulns", "total"
    );
    for level in Fidelity::ALL {
        let map = AssociationMap::build(&model, &engine, &corpus, level, &filters);
        let (mut p, mut w, mut v) = (0, 0, 0);
        for (_, set) in map.iter() {
            let (sp, sw, sv) = set.counts();
            p += sp;
            w += sw;
            v += sv;
        }
        println!(
            "{:<16} {p:>10} {w:>10} {v:>10} {:>10}",
            level.to_string(),
            p + w + v
        );
    }
    println!(
        "expected shape: totals grow with fidelity; the vulnerability share grows fastest\n\
         (abstract models relate to patterns/weaknesses, concrete models to vulnerabilities)."
    );
}
