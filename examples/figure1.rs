//! E2: regenerates Figure 1, the merged system-model + attack-vector view
//! of the particle separation centrifuge, as Graphviz DOT on stdout and a
//! per-component summary on stderr.
//!
//! Run with `cargo run --release --example figure1 [scale] > figure1.dot`
//! (scale defaults to 0.05) and render with
//! `dot -Tpng figure1.dot -o figure1.png` if Graphviz is available.

use cpssec::analysis::{render, AssociationMap};
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
    let map = AssociationMap::build(&model, &engine, &corpus, Fidelity::Implementation, &filters);
    // The DOT graph is the machine-readable figure: topology plus
    // per-node attack vector counts. The summary goes to stderr so
    // stdout stays valid DOT.
    let dot = render::model_dot(&model, Some(&map));
    println!("{dot}");
    eprintln!("\nFigure 1 — merged view (component: AP/CWE/CVE):");
    for (component, matches) in map.iter() {
        let (p, w, v) = matches.counts();
        eprintln!("  {component:<24} {p:>4} / {w:>4} / {v:>6}");
    }
    eprintln!("DOT: {} bytes, {} lines", dot.len(), dot.lines().count());
}
