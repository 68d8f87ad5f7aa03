//! What-if architecture comparison.
//!
//! "In the dashboard we allow for the systems engineer or security analyst
//! to change the model on the fly and immediately see the new results. The
//! dashboard acts as a what-if analysis, where different architectures are
//! evaluated by experts iteratively to lead to an acceptably secured
//! system" (§3).

use cpssec_attackdb::Corpus;
use cpssec_model::{Attribute, Fidelity, ModelDiff, ModelError, SystemModel};
use cpssec_search::{FilterPipeline, SearchEngine};

use crate::{AssociationMap, SystemPosture};

/// One model edit.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelChange {
    /// Remove every value of `key` on `component`, then add `with`.
    ReplaceAttribute {
        /// Component name.
        component: String,
        /// Attribute key whose values are removed.
        key: String,
        /// The replacement attribute.
        with: Attribute,
    },
    /// Add one attribute to `component`.
    AddAttribute {
        /// Component name.
        component: String,
        /// The attribute to add.
        attribute: Attribute,
    },
    /// Remove one `(key, value)` attribute from `component`.
    RemoveAttribute {
        /// Component name.
        component: String,
        /// Attribute key.
        key: String,
        /// Attribute value.
        value: String,
    },
}

/// Applies edits to a copy of `model`.
///
/// # Errors
///
/// [`ModelError::UnknownComponent`] when an edit names a component that
/// does not exist.
pub fn apply_changes(
    model: &SystemModel,
    changes: &[ModelChange],
) -> Result<SystemModel, ModelError> {
    let mut edited = model.clone();
    for change in changes {
        match change {
            ModelChange::ReplaceAttribute {
                component,
                key,
                with,
            } => {
                let comp = edited
                    .component_by_name_mut(component)
                    .ok_or_else(|| ModelError::UnknownComponent(component.clone()))?;
                let values: Vec<String> =
                    comp.attributes().get_all(key).map(str::to_owned).collect();
                for value in values {
                    comp.attributes_mut().remove(key, &value);
                }
                comp.attributes_mut().insert(with.clone());
            }
            ModelChange::AddAttribute {
                component,
                attribute,
            } => {
                edited
                    .component_by_name_mut(component)
                    .ok_or_else(|| ModelError::UnknownComponent(component.clone()))?
                    .attributes_mut()
                    .insert(attribute.clone());
            }
            ModelChange::RemoveAttribute {
                component,
                key,
                value,
            } => {
                edited
                    .component_by_name_mut(component)
                    .ok_or_else(|| ModelError::UnknownComponent(component.clone()))?
                    .attributes_mut()
                    .remove(key, value);
            }
        }
    }
    Ok(edited)
}

/// The result of comparing a baseline architecture against an edited one.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfReport {
    /// Structural difference, baseline → edited.
    pub diff: ModelDiff,
    /// Posture of the baseline.
    pub before: SystemPosture,
    /// Posture of the edited architecture.
    pub after: SystemPosture,
    /// Change in total score (negative = the edit improved the posture).
    pub score_delta: f64,
}

impl WhatIfReport {
    /// Whether the edited architecture has the better posture.
    #[must_use]
    pub fn is_improvement(&self) -> bool {
        self.score_delta < 0.0
    }
}

/// Evaluates `changes` against `model`: re-associates the edited model and
/// compares postures.
///
/// # Errors
///
/// Propagates [`apply_changes`] errors.
pub fn evaluate(
    model: &SystemModel,
    changes: &[ModelChange],
    engine: &SearchEngine,
    corpus: &Corpus,
    level: Fidelity,
    filters: &FilterPipeline,
) -> Result<WhatIfReport, ModelError> {
    let mut span = cpssec_obs::span!("whatif");
    span.add_items(changes.len() as u64);
    let edited = apply_changes(model, changes)?;
    let before_map = AssociationMap::build(model, engine, corpus, level, filters);
    let after_map = AssociationMap::build(&edited, engine, corpus, level, filters);
    let before = SystemPosture::compute(model, corpus, &before_map);
    let after = SystemPosture::compute(&edited, corpus, &after_map);
    let score_delta = after.total_score - before.total_score;
    Ok(WhatIfReport {
        diff: ModelDiff::between(model, &edited),
        before,
        after,
        score_delta,
    })
}

/// [`evaluate`] with a precomputed association of the baseline model: the
/// baseline is not re-associated at all, and the edited model is
/// re-associated *incrementally* ([`AssociationMap::rebuild`]) — only
/// components whose query text changed are re-queried and weighed. Both
/// postures read the per-component severity masses the maps carry, so
/// the cost follows the edit, not the model. This is the hot path behind
/// the analysis service's what-if endpoint.
///
/// `prior` must have been built from `model` with the same `engine`,
/// `corpus`, and `filters`; the report is then identical to
/// [`evaluate`] at `prior.fidelity()`.
///
/// # Errors
///
/// Propagates [`apply_changes`] errors.
pub fn evaluate_with_prior(
    model: &SystemModel,
    changes: &[ModelChange],
    prior: &AssociationMap,
    engine: &SearchEngine,
    corpus: &Corpus,
    filters: &FilterPipeline,
) -> Result<WhatIfReport, ModelError> {
    let mut span = cpssec_obs::span!("whatif");
    span.add_items(changes.len() as u64);
    let edited = apply_changes(model, changes)?;
    let diff = ModelDiff::between(model, &edited);
    let after_map = AssociationMap::rebuild(prior, model, &edited, &diff, engine, corpus, filters);
    let before = SystemPosture::compute(model, corpus, prior);
    let after = SystemPosture::compute(&edited, corpus, &after_map);
    let score_delta = after.total_score - before.total_score;
    Ok(WhatIfReport {
        diff,
        before,
        after,
        score_delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::seed::seed_corpus;
    use cpssec_model::AttributeKind;
    use cpssec_scada::model::{names, scada_model};

    fn setup() -> (SystemModel, SearchEngine, Corpus) {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        (scada_model(), engine, corpus)
    }

    fn harden_workstation() -> Vec<ModelChange> {
        // Swap the Windows 7 workstation for a hardened thin client with no
        // LabVIEW install: fewer matching vectors.
        vec![
            ModelChange::ReplaceAttribute {
                component: names::WORKSTATION.into(),
                key: "os".into(),
                with: Attribute::new(AttributeKind::OperatingSystem, "hardened thin client image")
                    .at_fidelity(Fidelity::Implementation),
            },
            ModelChange::RemoveAttribute {
                component: names::WORKSTATION.into(),
                key: "software".into(),
                value: "Labview".into(),
            },
        ]
    }

    #[test]
    fn hardening_the_workstation_improves_posture() {
        let (model, engine, corpus) = setup();
        let report = evaluate(
            &model,
            &harden_workstation(),
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        )
        .unwrap();
        assert!(report.is_improvement(), "delta {}", report.score_delta);
        let ws_before = report.before.component(names::WORKSTATION).unwrap();
        let ws_after = report.after.component(names::WORKSTATION).unwrap();
        assert!(ws_after.total_vectors() < ws_before.total_vectors());
    }

    #[test]
    fn adding_risky_software_worsens_posture() {
        let (model, engine, corpus) = setup();
        let changes = vec![ModelChange::AddAttribute {
            component: names::TEMP_SENSOR.into(),
            attribute: Attribute::new(AttributeKind::OperatingSystem, "Windows 7")
                .at_fidelity(Fidelity::Implementation),
        }];
        let report = evaluate(
            &model,
            &changes,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        )
        .unwrap();
        assert!(!report.is_improvement());
        assert!(report.score_delta > 0.0);
    }

    #[test]
    fn diff_records_the_edit() {
        let (model, engine, corpus) = setup();
        let report = evaluate(
            &model,
            &harden_workstation(),
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        )
        .unwrap();
        assert_eq!(report.diff.changed_components.len(), 1);
        assert_eq!(report.diff.changed_components[0].name, names::WORKSTATION);
    }

    #[test]
    fn unknown_component_is_an_error() {
        let (model, engine, corpus) = setup();
        let changes = vec![ModelChange::RemoveAttribute {
            component: "ghost".into(),
            key: "os".into(),
            value: "x".into(),
        }];
        let err = evaluate(
            &model,
            &changes,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        )
        .unwrap_err();
        assert_eq!(err, ModelError::UnknownComponent("ghost".into()));
    }

    #[test]
    fn prior_based_evaluation_matches_the_full_path() {
        let (model, engine, corpus) = setup();
        let filters = FilterPipeline::new();
        let prior =
            AssociationMap::build(&model, &engine, &corpus, Fidelity::Implementation, &filters);
        let full = evaluate(
            &model,
            &harden_workstation(),
            &engine,
            &corpus,
            Fidelity::Implementation,
            &filters,
        )
        .unwrap();
        let incremental = evaluate_with_prior(
            &model,
            &harden_workstation(),
            &prior,
            &engine,
            &corpus,
            &filters,
        )
        .unwrap();
        assert_eq!(incremental, full);
    }

    #[test]
    fn no_changes_is_a_zero_delta() {
        let (model, engine, corpus) = setup();
        let report = evaluate(
            &model,
            &[],
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        )
        .unwrap();
        assert_eq!(report.score_delta, 0.0);
        assert!(report.diff.is_empty());
    }

    #[test]
    fn replace_attribute_removes_all_old_values() {
        let (model, _, _) = setup();
        let edited = apply_changes(
            &model,
            &[ModelChange::ReplaceAttribute {
                component: names::SIS.into(),
                key: "hardware".into(),
                with: Attribute::new(AttributeKind::Hardware, "custom safety PLC"),
            }],
        )
        .unwrap();
        let sis = edited.component_by_name(names::SIS).unwrap();
        let values: Vec<&str> = sis.attributes().get_all("hardware").collect();
        assert_eq!(values, ["custom safety PLC"]);
    }
}
