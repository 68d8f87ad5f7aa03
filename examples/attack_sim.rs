//! E6: attack vectors to physical consequences (the §3 narrative and
//! Triton). Runs every built-in attack scenario against the simulated
//! centrifuge and maps the outcomes to STPA-Sec hazards and losses.
//!
//! Run with `cargo run --release --example attack_sim [scale]` (scale
//! defaults to 0.05).

use cpssec::analysis::consequence::analyze_scenario;
use cpssec::analysis::AssociationMap;
use cpssec::attackdb::seed::seed_corpus;
use cpssec::attackdb::synth::{generate, SynthSpec};
use cpssec::model::Fidelity;
use cpssec::scada::attacks;
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
    let model = cpssec::scada::model::scada_model();
    let association = AssociationMap::build(
        &model,
        &engine,
        &corpus,
        Fidelity::Implementation,
        &FilterPipeline::new(),
    );

    println!("\nAttack consequence table:");
    println!(
        "{:<32} {:<16} {:>8} {:>8} {:<10} {:<14}",
        "Scenario", "product", "SIStrip", "exploded", "hazards", "losses"
    );
    let yes_no = |flag: bool| if flag { "yes" } else { "no" };
    for scenario in attacks::all_scenarios() {
        let record = analyze_scenario(&scenario, &association, 12_000);
        println!(
            "{:<32} {:<16} {:>8} {:>8} {:<10} {:<14}",
            record.scenario,
            record.product.to_string(),
            yes_no(record.emergency_stopped),
            yes_no(record.exploded),
            record.hazard_ids.join(","),
            record.loss_ids.join(","),
        );
    }
}
