//! Security posture scoring.
//!
//! The paper's comparison rule is deliberately qualitative: "a component or
//! subsystem that relates with less attack vectors than a functionally
//! equivalent system has a better security posture". The scores here are
//! ordinal instruments for exactly that comparison — lower is better, and
//! only differences between alternatives mean anything. They are *not*
//! risk numbers (the paper is explicit that CVSS measures severity, not
//! risk).

use cpssec_attackdb::{AttackVectorId, Corpus, Severity};
use cpssec_model::{Criticality, SystemModel};
use cpssec_search::MatchSet;

use crate::AssociationMap;

/// Posture of one component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentPosture {
    /// Component name.
    pub component: String,
    /// Component criticality (weights the system roll-up).
    pub criticality: Criticality,
    /// Matched attack patterns.
    pub patterns: usize,
    /// Matched weaknesses.
    pub weaknesses: usize,
    /// Matched vulnerabilities.
    pub vulnerabilities: usize,
    /// Severity-weighted vector mass: each vulnerability contributes its
    /// CVSS base score / 10, each pattern its typical-severity band weight,
    /// each weakness 0.5.
    pub severity_weighted: f64,
    /// The component score: severity-weighted mass × criticality weight.
    pub score: f64,
}

impl ComponentPosture {
    /// Total matched vectors.
    #[must_use]
    pub fn total_vectors(&self) -> usize {
        self.patterns + self.weaknesses + self.vulnerabilities
    }
}

/// Posture of the whole model: per-component postures plus the roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemPosture {
    /// Per-component postures, in component name order.
    pub components: Vec<ComponentPosture>,
    /// Sum of component scores. Lower is better.
    pub total_score: f64,
}

impl SystemPosture {
    /// Computes the posture of `model` from an association map, in
    /// O(components): each component's severity mass was weighed when the
    /// map was built (or rebuilt), so this only scales it by criticality
    /// and sums in map order.
    ///
    /// Components present in the model but absent from the map (or vice
    /// versa) are skipped — the map should have been built from the same
    /// model. `corpus` is unused: the masses were weighed against the
    /// corpus the map was built from. The parameter is kept so that
    /// existing callers stay source-compatible.
    #[must_use]
    pub fn compute(model: &SystemModel, _corpus: &Corpus, map: &AssociationMap) -> SystemPosture {
        let mut components = Vec::new();
        for (name, set) in map.iter() {
            let Some(component) = model.component_by_name(name) else {
                continue;
            };
            let severity_weighted = map.severity_mass(name).expect("every component is weighed");
            let (patterns, weaknesses, vulnerabilities) = set.counts();
            let score = severity_weighted * f64::from(component.criticality().weight());
            components.push(ComponentPosture {
                component: name.to_owned(),
                criticality: component.criticality(),
                patterns,
                weaknesses,
                vulnerabilities,
                severity_weighted,
                score,
            });
        }
        let total_score = components.iter().map(|c| c.score).sum();
        SystemPosture {
            components,
            total_score,
        }
    }

    /// The posture of one component.
    #[must_use]
    pub fn component(&self, name: &str) -> Option<&ComponentPosture> {
        self.components.iter().find(|c| c.component == name)
    }

    /// Whether this posture is better (strictly lower score) than `other`.
    #[must_use]
    pub fn is_better_than(&self, other: &SystemPosture) -> bool {
        self.total_score < other.total_score
    }
}

fn severity_band_weight(severity: Severity) -> f64 {
    match severity {
        Severity::None => 0.0,
        Severity::Low => 0.25,
        Severity::Medium => 0.5,
        Severity::High => 0.75,
        Severity::Critical => 1.0,
    }
}

/// The severity mass of one match set, summed in hit order. Weighed once
/// per component by [`AssociationMap`] and stored beside its match set.
pub(crate) fn severity_mass(set: &MatchSet, corpus: &Corpus) -> f64 {
    let mut mass = 0.0;
    for hit in set.iter() {
        mass += match hit.id {
            AttackVectorId::Vulnerability(id) => corpus
                .vulnerability(id)
                .and_then(|v| v.cvss())
                .map_or(0.5, |c| c.base_score() / 10.0),
            AttackVectorId::Pattern(id) => corpus
                .pattern(id)
                .and_then(|p| p.typical_severity())
                .map_or(0.5, severity_band_weight),
            AttackVectorId::Weakness(_) => 0.5,
        };
    }
    mass
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::seed::seed_corpus;
    use cpssec_model::Fidelity;
    use cpssec_scada::model::{names, scada_model};
    use cpssec_search::{FilterPipeline, SearchEngine};

    fn posture_at(level: Fidelity) -> SystemPosture {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let model = scada_model();
        let map = AssociationMap::build(&model, &engine, &corpus, level, &FilterPipeline::new());
        SystemPosture::compute(&model, &corpus, &map)
    }

    #[test]
    fn scores_are_nonnegative_and_additive() {
        let posture = posture_at(Fidelity::Implementation);
        assert!(posture.components.iter().all(|c| c.score >= 0.0));
        let sum: f64 = posture.components.iter().map(|c| c.score).sum();
        assert!((sum - posture.total_score).abs() < 1e-9);
    }

    #[test]
    fn concrete_models_score_worse_than_abstract_ones() {
        // More design detail → more matched vectors → higher (worse) score.
        let concrete = posture_at(Fidelity::Implementation);
        let abstract_ = posture_at(Fidelity::Conceptual);
        assert!(abstract_.is_better_than(&concrete));
    }

    #[test]
    fn workstation_has_matched_vectors_at_implementation() {
        let posture = posture_at(Fidelity::Implementation);
        let ws = posture.component(names::WORKSTATION).unwrap();
        assert!(ws.total_vectors() > 0);
        assert!(ws.severity_weighted > 0.0);
    }

    #[test]
    fn criticality_multiplies_the_component_score() {
        let posture = posture_at(Fidelity::Implementation);
        for c in &posture.components {
            if c.severity_weighted > 0.0 {
                let ratio = c.score / c.severity_weighted;
                assert!((ratio - f64::from(c.criticality.weight())).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn component_lookup_by_name() {
        let posture = posture_at(Fidelity::Implementation);
        assert!(posture.component(names::SIS).is_some());
        assert!(posture.component("ghost").is_none());
    }
}
