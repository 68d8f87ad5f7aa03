//! End-to-end attack-to-consequence integration: the paper's §3 narrative
//! executed against the full stack.

use cpssec::analysis::consequence::{analyze_all, analyze_scenario};
use cpssec::analysis::stpa::centrifuge_analysis;
use cpssec::analysis::AssociationMap;
use cpssec::attackdb::seed::seed_corpus;
use cpssec::prelude::*;
use cpssec::scada::attacks;
use cpssec::sim::Tick;

fn association() -> (Corpus, AssociationMap) {
    let corpus = seed_corpus();
    let engine = SearchEngine::build(&corpus);
    let map = AssociationMap::build(
        &cpssec::scada::model::scada_model(),
        &engine,
        &corpus,
        Fidelity::Implementation,
        &FilterPipeline::new(),
    );
    (corpus, map)
}

#[test]
fn paper_narrative_cwe78_is_proposed_for_both_platforms() {
    // "both the BPCS and SIS platforms were proposed of being vulnerable to
    // CWE-78 – OS Command Injection" — our association must surface CWE-78
    // for both platforms at implementation fidelity.
    let (_, map) = association();
    for platform in ["BPCS platform", "SIS platform"] {
        let weaknesses = map.matches(platform).unwrap().weakness_ids();
        assert!(
            weaknesses.iter().any(|w| w.to_string() == "CWE-78"),
            "{platform}: {weaknesses:?}"
        );
    }
}

#[test]
fn paper_narrative_command_injection_destroys_product_or_centrifuge() {
    // "This attack may result in compromised control of the centrifuge,
    // manifesting in destruction of the manufactured product or damage to
    // the centrifuge itself."
    let (_, map) = association();

    // With the SIS armed: the manufactured product is destroyed (batch lost).
    let armed = analyze_scenario(
        &attacks::command_injection_bpcs(Tick::new(3000)),
        &map,
        4_010,
    );
    assert_ne!(armed.product, ProductQuality::Nominal);
    assert!(armed.loss_ids.contains(&"L-1".to_owned()));

    // With the SIS disabled (Triton): damage to the centrifuge itself.
    let disabled = analyze_scenario(
        &attacks::command_injection_with_sis_disabled(Tick::new(100), Tick::new(3000)),
        &map,
        4_010,
    );
    assert_eq!(disabled.product, ProductQuality::Destroyed);
    assert!(disabled.loss_ids.contains(&"L-2".to_owned()));
}

#[test]
fn sis_is_the_difference_between_product_loss_and_catastrophe() {
    let (_, map) = association();
    let records = analyze_all(&map, 12_000);
    let by_name = |name: &str| records.iter().find(|r| r.scenario == name).unwrap();

    // Scenarios stopped by the SIS never reach L-3 (injury).
    for safe in ["bpcs-command-injection", "cooling-dos"] {
        let record = by_name(safe);
        assert!(record.emergency_stopped, "{safe}");
        assert!(!record.loss_ids.contains(&"L-3".to_owned()), "{safe}");
    }
    // Scenarios that blind or disable the SIS reach the worst losses.
    for catastrophic in ["sis-disable-overtemperature", "temperature-sensor-spoof"] {
        let record = by_name(catastrophic);
        assert!(record.exploded, "{catastrophic}");
        assert!(
            record.loss_ids.contains(&"L-3".to_owned()),
            "{catastrophic}"
        );
    }
}

#[test]
fn every_scenario_weakness_maps_to_an_unsafe_control_action() {
    // The STPA-Sec structure must explain *how* each scenario's weaknesses
    // become unsafe control: every claimed CWE maps to at least one UCA.
    let stpa = centrifuge_analysis();
    for scenario in attacks::all_scenarios() {
        let explained = scenario
            .weakness_ids
            .iter()
            .any(|w| !stpa.ucas_for_weakness(w).is_empty());
        assert!(explained, "{}: {:?}", scenario.name, scenario.weakness_ids);
    }
}

#[test]
fn nominal_run_remains_nominal_under_every_seed() {
    for seed in [1, 7, 42, 1234, 99999] {
        let mut harness = ScadaHarness::new(ScadaConfig {
            sensor_seed: seed,
            ..ScadaConfig::default()
        });
        let report = harness.run_batch();
        assert_eq!(
            report.product,
            ProductQuality::Nominal,
            "seed {seed}: {report:?}"
        );
        assert!(report.hazards.is_empty(), "seed {seed}");
    }
}

#[test]
fn attack_consequences_are_deterministic_end_to_end() {
    let run = || {
        let (_, map) = association();
        analyze_scenario(&attacks::sensor_spoof(Tick::new(100)), &map, 12_000)
    };
    assert_eq!(run(), run());
}
