//! E7: search scale behaviour, behind the paper's "the total number of
//! attack vectors returned by the search process is large": corpus size
//! and match counts as the corpus grows.
//!
//! Run with `cargo run --release --example search_scale [scale]`. The
//! sweep runs at 0.4x, 2x and 6x `scale` (default 0.05, so 0.02, 0.1 and
//! 0.3).

use cpssec::attackdb::seed::seed_corpus;
use cpssec::attackdb::synth::{generate, SynthSpec};
use cpssec::search::SearchEngine;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    println!("\nSearch scale sweep:");
    println!(
        "{:<8} {:>10} {:>16} {:>14}",
        "scale", "records", "win7 matches", "linux matches"
    );
    for factor in [0.4, 2.0, 6.0] {
        // Rounded so the default sweep is exactly 0.02, 0.1 and 0.3.
        let scale = (scale * factor * 1e6).round() / 1e6;
        let mut corpus = seed_corpus();
        corpus
            .merge(generate(&SynthSpec::paper2020(2020, scale)))
            .expect("seed and synthetic id spaces are disjoint");
        let engine = SearchEngine::build(&corpus);
        println!(
            "{scale:<8} {:>10} {:>16} {:>14}",
            corpus.stats().total(),
            engine.match_text("Windows 7").total(),
            engine.match_text("NI RT Linux OS").total(),
        );
    }
}
