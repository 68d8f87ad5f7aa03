//! From attack vectors to simulated physical consequences.
//!
//! This module closes the loop the paper says no tool closes: for an
//! attack scenario it (1) checks that the scenario's claimed attack
//! vectors are actually associated with the targeted component by the
//! search process, (2) runs the attack in the plant simulation, and
//! (3) maps the observed hazards and product outcome to losses through the
//! STPA-Sec structure of [`centrifuge_analysis`]: the fired monitors and
//! the product-quality name are the signals each hazard's `detected_by`
//! lists.

use cpssec_scada::{AttackScenario, ProductQuality, ScadaConfig, ScadaHarness};
use cpssec_search::MatchSet;

use crate::stpa::centrifuge_analysis;
use crate::AssociationMap;

/// The consequence record of one attack scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsequenceRecord {
    /// Scenario name.
    pub scenario: String,
    /// The model component attacked.
    pub target_component: String,
    /// Weakness ids the scenario claims to instantiate.
    pub claimed_weaknesses: Vec<String>,
    /// The subset of claimed weaknesses that the search process associated
    /// with the target component (design-phase confirmation).
    pub confirmed_weaknesses: Vec<String>,
    /// Pattern ids the scenario claims to instantiate.
    pub claimed_patterns: Vec<String>,
    /// Product quality after the simulated batch.
    pub product: ProductQuality,
    /// Names of the simulation hazard monitors that fired.
    pub hazards: Vec<String>,
    /// STPA hazard ids detected by the fired monitors or the product
    /// outcome, in id order.
    pub hazard_ids: Vec<String>,
    /// Loss ids reached through the hazards.
    pub loss_ids: Vec<String>,
    /// Whether the SIS/emergency stop engaged.
    pub emergency_stopped: bool,
    /// Whether the solution went unstable.
    pub exploded: bool,
}

impl ConsequenceRecord {
    /// Whether the simulated run ended in any loss.
    #[must_use]
    pub fn has_loss(&self) -> bool {
        !self.loss_ids.is_empty()
    }
}

fn confirmed_weaknesses(set: &MatchSet, claimed: &[String]) -> Vec<String> {
    let matched: Vec<String> = set.weakness_ids().iter().map(ToString::to_string).collect();
    claimed
        .iter()
        .filter(|c| matched.contains(c))
        .cloned()
        .collect()
}

/// Analyzes one scenario: association check + simulation of the default
/// centrifuge configuration + loss mapping.
///
/// `ticks` must give the scenario enough simulated time to reach its
/// consequence (the built-in scenarios all conclude within 12,000 ticks).
#[must_use]
pub fn analyze_scenario(
    scenario: &AttackScenario,
    association: &AssociationMap,
    ticks: u64,
) -> ConsequenceRecord {
    let confirmed = association
        .matches(&scenario.target_component)
        .map(|set| confirmed_weaknesses(set, &scenario.weakness_ids))
        .unwrap_or_default();

    let mut harness = ScadaHarness::with_attack(ScadaConfig::default(), scenario);
    let report = harness.run_batch_for(ticks);

    let hazards: Vec<String> = report.hazards.iter().map(|h| h.hazard.clone()).collect();
    let mut signals: Vec<&str> = hazards.iter().map(String::as_str).collect();
    signals.push(report.product.as_str());
    let stpa = centrifuge_analysis();
    let hazard_ids: Vec<String> = stpa
        .hazards_detected_by(&signals)
        .iter()
        .map(|h| h.id.clone())
        .collect();
    let loss_ids = stpa
        .losses_for_hazards(&hazard_ids)
        .iter()
        .map(|l| l.id.clone())
        .collect();

    ConsequenceRecord {
        scenario: scenario.name.clone(),
        target_component: scenario.target_component.clone(),
        claimed_weaknesses: scenario.weakness_ids.clone(),
        confirmed_weaknesses: confirmed,
        claimed_patterns: scenario.pattern_ids.clone(),
        product: report.product,
        hazards,
        hazard_ids,
        loss_ids,
        emergency_stopped: report.emergency_stopped,
        exploded: report.exploded,
    }
}

/// Analyzes every built-in scenario against `association` (the callers
/// build it at implementation fidelity).
#[must_use]
pub fn analyze_all(association: &AssociationMap, ticks: u64) -> Vec<ConsequenceRecord> {
    cpssec_scada::attacks::all_scenarios()
        .iter()
        .map(|scenario| analyze_scenario(scenario, association, ticks))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::seed::seed_corpus;
    use cpssec_model::Fidelity;
    use cpssec_scada::attacks;
    use cpssec_search::{FilterPipeline, SearchEngine};
    use cpssec_sim::Tick;

    fn association() -> AssociationMap {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        AssociationMap::build(
            &cpssec_scada::model::scada_model(),
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        )
    }

    #[test]
    fn triton_scenario_reaches_all_three_losses() {
        let record = analyze_scenario(
            &attacks::sis_disable_overtemp(Tick::new(100), Tick::new(1500)),
            &association(),
            12_000,
        );
        assert!(record.exploded);
        assert!(record.hazard_ids.contains(&"H-1".to_owned()));
        assert_eq!(record.loss_ids, ["L-1", "L-2", "L-3"]);
        assert!(record.has_loss());
    }

    #[test]
    fn setpoint_tamper_causes_only_product_loss() {
        let record = analyze_scenario(
            &attacks::setpoint_tamper(Tick::new(100)),
            &association(),
            4_010,
        );
        assert_eq!(record.product, ProductQuality::RuinedSpeed);
        assert_eq!(record.hazard_ids, ["H-4"]);
        assert_eq!(record.loss_ids, ["L-1"]);
        assert!(!record.exploded);
    }

    #[test]
    fn design_phase_association_confirms_cwe78_on_the_bpcs() {
        // The paper's headline example: CWE-78 proposed for the BPCS/SIS
        // platforms by the search process, then shown consequential.
        let record = analyze_scenario(
            &attacks::command_injection_bpcs(Tick::new(3000)),
            &association(),
            4_010,
        );
        assert!(
            record.confirmed_weaknesses.contains(&"CWE-78".to_owned()),
            "association should surface CWE-78 for the BPCS: {:?}",
            record.confirmed_weaknesses
        );
        assert!(record.emergency_stopped);
        assert_eq!(record.loss_ids, ["L-1"]);
    }

    #[test]
    fn all_scenarios_produce_records_with_losses() {
        let records = analyze_all(&association(), 12_000);
        assert_eq!(records.len(), attacks::all_scenarios().len());
        // Every built-in attack scenario should end in some loss — that is
        // what makes them attack scenarios.
        for record in &records {
            assert!(record.has_loss(), "{record:?}");
        }
    }

    #[test]
    fn sis_armed_vs_disabled_changes_the_loss_set() {
        let assoc = association();
        let armed = analyze_scenario(
            &attacks::command_injection_bpcs(Tick::new(3000)),
            &assoc,
            4_010,
        );
        let disabled = analyze_scenario(
            &attacks::command_injection_with_sis_disabled(Tick::new(100), Tick::new(3000)),
            &assoc,
            4_010,
        );
        assert_eq!(armed.loss_ids, ["L-1"]);
        assert!(disabled.loss_ids.contains(&"L-2".to_owned()));
        assert!(armed.emergency_stopped);
        assert!(!disabled.emergency_stopped);
    }
}
