//! E1: regenerates Table 1 of the paper, the per-attribute counts of
//! associated attack patterns, weaknesses and vulnerabilities for the
//! SCADA model, next to the paper's values.
//!
//! Run with `cargo run --release --example table1 [scale]`. `scale`
//! (default 0.05) scales the synthetic corpus's vulnerability counts; 1.0
//! reproduces the paper's magnitudes at the cost of indexing a
//! ~32k-record corpus. The shape (which attributes match many vectors and
//! which few) does not depend on the scale.

use cpssec::attackdb::seed::seed_corpus;
use cpssec::attackdb::synth::{generate, SynthSpec};
use cpssec::search::SearchEngine;

/// The paper's Table 1: `(attribute, patterns, weaknesses, vulnerabilities)`.
const PAPER: [(&str, usize, usize, usize); 6] = [
    ("Cisco ASA", 2, 1, 3776),
    ("NI RT Linux OS", 54, 75, 9673),
    ("Windows 7", 41, 73, 6627),
    ("Labview", 0, 0, 6),
    ("NI cRIO 9063", 0, 0, 7),
    ("NI cRIO 9064", 0, 0, 7),
];

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let mut corpus = seed_corpus();
    corpus
        .merge(generate(&SynthSpec::paper2020(2020, scale)))
        .expect("seed and synthetic id spaces are disjoint");
    let stats = corpus.stats();
    println!(
        "corpus: {} patterns / {} weaknesses / {} vulnerabilities (scale {scale})",
        stats.patterns, stats.weaknesses, stats.vulnerabilities
    );

    let engine = SearchEngine::build(&corpus);
    println!("\nTable 1 — measured (paper):");
    println!(
        "{:<16} {:>18} {:>14} {:>18}",
        "Attribute", "Attack Patterns", "Weaknesses", "Vulnerabilities"
    );
    for (attribute, p, w, v) in PAPER {
        let counts = engine.match_text(attribute).counts();
        println!(
            "{attribute:<16} {:>18} {:>14} {:>18}",
            format!("{} ({p})", counts.0),
            format!("{} ({w})", counts.1),
            format!("{} ({v})", counts.2),
        );
    }
}
