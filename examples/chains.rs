//! E8: exploit chains across the interlinked corpora. The datasets'
//! "interconnections with one another" (§2) capture both the attacker's
//! and the system owner's perspectives: vulnerability → weakness →
//! pattern chains per Table 1 attribute.
//!
//! Run with `cargo run --release --example chains [scale]` (scale
//! defaults to 0.05).

use cpssec::attackdb::seed::{seed_corpus, table1_attributes};
use cpssec::attackdb::synth::{generate, SynthSpec};
use cpssec::attackdb::CweId;
use cpssec::search::{chains_for_weakness, exploit_chains, SearchEngine};

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

    println!("\nExploit chains per Table 1 attribute (vuln -> weakness -> pattern):");
    for attribute in table1_attributes() {
        let matches = engine.match_text(attribute);
        let chains = exploit_chains(&matches, &corpus, usize::MAX);
        println!("  {attribute:<16} {:>8} chains", chains.len());
    }
    println!(
        "  corpus-wide chains through CWE-78: {}",
        chains_for_weakness(&corpus, CweId::new(78), usize::MAX).len()
    );
}
