//! Security posture scoring.
//!
//! The paper's comparison rule is deliberately qualitative: "a component or
//! subsystem that relates with less attack vectors than a functionally
//! equivalent system has a better security posture". The scores here are
//! ordinal instruments for exactly that comparison — lower is better, and
//! only differences between alternatives mean anything. They are *not*
//! risk numbers (the paper is explicit that CVSS measures severity, not
//! risk).

use cpssec_attackdb::{Corpus, Severity};
use cpssec_model::{Criticality, SystemModel};
use cpssec_search::{MatchSet, SeverityCode};

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

/// The weight of each severity code, indexed by its byte:
/// - a CVSS code `t` weighs `(t / 10) / 10`, the base score / 10 (the
///   score is `t / 10` bit for bit, see [`SeverityCode`]);
/// - a typical-severity band weighs 0, 0.25, 0.5, 0.75 or 1 (`None` to
///   `Critical`);
/// - an unscored record (and every weakness) weighs 0.5.
static WEIGHTS: [f64; 256] = weights();

const fn weights() -> [f64; 256] {
    let mut table = [0.5; 256];
    let mut t = 0;
    while t <= SeverityCode::MAX_TENTHS {
        table[t as usize] = (t as f64 / 10.0) / 10.0;
        t += 1;
    }
    let bands = [
        (Severity::None, 0.0),
        (Severity::Low, 0.25),
        (Severity::Medium, 0.5),
        (Severity::High, 0.75),
        (Severity::Critical, 1.0),
    ];
    let mut i = 0;
    while i < bands.len() {
        table[SeverityCode::of_band(bands[i].0).byte() as usize] = bands[i].1;
        i += 1;
    }
    table
}

/// The weight of one severity code.
fn weight(code: SeverityCode) -> f64 {
    WEIGHTS[usize::from(code.byte())]
}

/// The severity mass of one match set, summed in hit order from each hit's
/// severity code: one table read per hit, no corpus. Weighed once per
/// component by [`AssociationMap`] and stored beside its match set.
pub(crate) fn severity_mass(set: &MatchSet) -> f64 {
    let mut mass = 0.0;
    for hit in set.iter() {
        mass += weight(hit.severity);
    }
    mass
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::seed::seed_corpus;
    use cpssec_attackdb::synth::{stream_into, SynthSpec};
    use cpssec_attackdb::{CveId, CvssVector, Vulnerability};
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

    /// Every CVSS v3.1 base metric combination (4·2·3·2·2·27 = 2,592), as
    /// parsed vectors: combination `n` is `n` in mixed radix.
    fn every_cvss_vector() -> Vec<CvssVector> {
        let metrics: [(&str, &[&str]); 8] = [
            ("AV", &["N", "A", "L", "P"]),
            ("AC", &["L", "H"]),
            ("PR", &["N", "L", "H"]),
            ("UI", &["N", "R"]),
            ("S", &["U", "C"]),
            ("C", &["N", "L", "H"]),
            ("I", &["N", "L", "H"]),
            ("A", &["N", "L", "H"]),
        ];
        let count: usize = metrics.iter().map(|(_, values)| values.len()).product();
        (0..count)
            .map(|mut n| {
                let mut text = String::from("CVSS:3.1");
                for (name, values) in metrics {
                    text += &format!("/{name}:{}", values[n % values.len()]);
                    n /= values.len();
                }
                text.parse().expect("valid vector")
            })
            .collect()
    }

    #[test]
    fn weight_table_reproduces_every_cvss_weight_bit_for_bit() {
        let vectors = every_cvss_vector();
        assert_eq!(vectors.len(), 2592);
        for cvss in vectors {
            let record = Vulnerability::new(CveId::new(2021, 1), "v").with_cvss(cvss);
            let code = SeverityCode::of_vulnerability(&record);
            let score = code.score().expect("a vector scores");
            assert_eq!(score.to_bits(), cvss.base_score().to_bits(), "{cvss}");
            assert_eq!(
                weight(code).to_bits(),
                (cvss.base_score() / 10.0).to_bits(),
                "{cvss}"
            );
            assert_eq!(Severity::from_score(score), cvss.severity(), "{cvss}");
            assert_eq!(code.severity(), Some(cvss.severity()), "{cvss}");
        }
    }

    #[test]
    fn bands_and_unscored_records_keep_their_weights() {
        for (band, expected) in [
            (Severity::None, 0.0),
            (Severity::Low, 0.25),
            (Severity::Medium, 0.5),
            (Severity::High, 0.75),
            (Severity::Critical, 1.0),
        ] {
            assert_eq!(weight(SeverityCode::of_band(band)), expected, "{band}");
        }
        assert_eq!(weight(SeverityCode::UNSCORED), 0.5);
    }

    #[test]
    fn masses_equal_weighing_each_hit_from_the_corpus() {
        // The corpus-reading weighing that the severity codes replaced,
        // kept here as the oracle.
        fn from_corpus(set: &MatchSet, corpus: &Corpus) -> f64 {
            use cpssec_attackdb::AttackVectorId;
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
                        .map_or(0.5, |band| match band {
                            Severity::None => 0.0,
                            Severity::Low => 0.25,
                            Severity::Medium => 0.5,
                            Severity::High => 0.75,
                            Severity::Critical => 1.0,
                        }),
                    AttackVectorId::Weakness(_) => 0.5,
                };
            }
            mass
        }
        let mut corpus = seed_corpus();
        stream_into(&mut corpus, &SynthSpec::paper2020(2020, 0.02)).expect("disjoint ids");
        let engine = SearchEngine::build(&corpus);
        let model = scada_model();
        for level in [Fidelity::Conceptual, Fidelity::Implementation] {
            let map =
                AssociationMap::build(&model, &engine, &corpus, level, &FilterPipeline::new());
            for (name, set) in map.iter() {
                assert_eq!(
                    map.severity_mass(name).map(f64::to_bits),
                    Some(from_corpus(set, &corpus).to_bits()),
                    "{name} at {level:?}"
                );
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
