//! E9: matcher ablation, scoring model and query expansion.
//!
//! The paper's prototype uses plain keyword matching and notes the result
//! space is "very sensitive … depending on minor changes in attribute
//! descriptions". This compares TF-IDF against BM25 ranking and synonym
//! expansion on against off. Hit counts are identical by construction
//! (the criteria do not depend on the model, and expansion only
//! re-scores), which the example asserts; the outputs of interest are the
//! rank agreement and the IDF-floor sensitivity of the Table 1 rows.
//!
//! Run with `cargo run --release --example scoring [scale]` (scale
//! defaults to 0.05).

use cpssec::attackdb::seed::seed_corpus;
use cpssec::attackdb::synth::{generate, SynthSpec};
use cpssec::attackdb::CveId;
use cpssec::search::{MatchConfig, ScoringModel, SearchEngine};

const QUERIES: [&str; 4] = [
    "Windows 7",
    "NI RT Linux OS",
    "Cisco ASA firewall",
    "operating system command injection on the controller platform",
];

/// Share of `a`'s top `k` that is also in `b`'s top `k`.
fn rank_overlap(a: &[CveId], b: &[CveId], k: usize) -> f64 {
    let top_a: Vec<_> = a.iter().take(k).collect();
    let top_b: Vec<_> = b.iter().take(k).collect();
    if top_a.is_empty() {
        return 1.0;
    }
    let shared = top_a.iter().filter(|id| top_b.contains(id)).count();
    shared as f64 / top_a.len() as f64
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let mut corpus = seed_corpus();
    corpus
        .merge(generate(&SynthSpec::paper2020(2020, scale)))
        .expect("seed and synthetic id spaces are disjoint");
    // One index; every setting below is a copy of it under another config.
    let tfidf = SearchEngine::build(&corpus);
    let bm25 = tfidf.with_scoring(ScoringModel::Bm25);
    let no_expand = tfidf.with_config(MatchConfig {
        expand_synonyms: false,
        ..MatchConfig::default()
    });

    println!("\nScoring ablation (hit counts identical by construction):");
    println!(
        "{:<56} {:>8} {:>14} {:>16}",
        "Query", "hits", "top10 overlap", "expansion moved"
    );
    for query in QUERIES {
        let a = tfidf.match_text(query);
        let b = bm25.match_text(query);
        let plain = no_expand.match_text(query);
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.counts(), plain.counts());
        let overlap = rank_overlap(&a.vulnerability_ids(), &b.vulnerability_ids(), 10);
        let moved = a.vulnerability_ids() != plain.vulnerability_ids();
        println!(
            "{query:<56} {:>8} {:>13.0}% {:>16}",
            a.total(),
            overlap * 100.0,
            if moved { "yes" } else { "no" }
        );
    }

    // IDF-floor sensitivity: how the Table 1 rows react to the single-term
    // distinctiveness threshold. Too low and weak shared tokens ("ni")
    // cross-match product lines; too high and rare single-token attributes
    // ("Labview") stop matching at small corpus scales.
    println!("\nIDF-floor sensitivity (Table 1 row totals):");
    println!(
        "{:<8} {:>10} {:>10} {:>14} {:>12}",
        "floor", "labview", "crio9063", "rtlinux", "windows7"
    );
    for floor in [0.8, 1.2, 1.8, 2.5, 4.0] {
        let engine = tfidf.with_config(MatchConfig {
            idf_floor: floor,
            ..MatchConfig::default()
        });
        println!(
            "{floor:<8} {:>10} {:>10} {:>14} {:>12}",
            engine.match_text("Labview").total(),
            engine.match_text("NI cRIO 9063").total(),
            engine.match_text("NI RT Linux OS").total(),
            engine.match_text("Windows 7").total(),
        );
    }
    println!(
        "expected shape: the default (1.8) keeps niche rows small and stable; a low floor\n\
         inflates the cRIO row with every record sharing the vendor token — the paper's\n\
         sensitivity-to-attribute-description observation, quantified."
    );
}
