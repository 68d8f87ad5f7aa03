//! The interactive dashboard session.
//!
//! Owns a corpus snapshot, its search engine, the current model, the
//! selected fidelity and filter pipeline, and a lazily recomputed
//! association — so that "the systems engineer or security analyst
//! \[can\] change the model on the fly and immediately see the new
//! results" (§3).

use cpssec_attackdb::Corpus;
use cpssec_model::{Attribute, Fidelity, ModelError, SystemModel};
use cpssec_search::{FilterPipeline, SearchEngine};

use crate::whatif::{self, ModelChange, WhatIfReport};
use crate::{associate, render, AssociationMap, AttributeRow, SystemPosture};

/// One analyst session over a model and a corpus.
#[derive(Debug)]
pub struct Dashboard {
    corpus: Corpus,
    engine: SearchEngine,
    model: SystemModel,
    fidelity: Fidelity,
    filters: FilterPipeline,
    association: Option<AssociationMap>,
}

impl Dashboard {
    /// Opens a session: indexes the corpus and loads the model. The initial
    /// view is at [`Fidelity::Implementation`] with no filters.
    #[must_use]
    pub fn new(corpus: Corpus, model: SystemModel) -> Self {
        let engine = SearchEngine::build(&corpus);
        Dashboard {
            corpus,
            engine,
            model,
            fidelity: Fidelity::Implementation,
            filters: FilterPipeline::new(),
            association: None,
        }
    }

    /// The current model.
    #[must_use]
    pub fn model(&self) -> &SystemModel {
        &self.model
    }

    /// The corpus snapshot.
    #[must_use]
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The current fidelity.
    #[must_use]
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Switches the fidelity view; the association recomputes on next read.
    pub fn set_fidelity(&mut self, fidelity: Fidelity) {
        if self.fidelity != fidelity {
            self.fidelity = fidelity;
            self.association = None;
        }
    }

    /// Replaces the filter pipeline; the association recomputes on next read.
    pub fn set_filters(&mut self, filters: FilterPipeline) {
        self.filters = filters;
        self.association = None;
    }

    /// Applies model edits in place; the association recomputes on next
    /// read.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownComponent`] when an edit names a missing
    /// component; the model is left unchanged.
    pub fn edit_model(&mut self, changes: &[ModelChange]) -> Result<(), ModelError> {
        self.model = whatif::apply_changes(&self.model, changes)?;
        self.association = None;
        Ok(())
    }

    /// Adds one attribute to a component (the dashboard's quickest edit).
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownComponent`] when the component does not exist.
    pub fn add_attribute(
        &mut self,
        component: &str,
        attribute: Attribute,
    ) -> Result<(), ModelError> {
        self.edit_model(&[ModelChange::AddAttribute {
            component: component.to_owned(),
            attribute,
        }])
    }

    /// The current association (recomputed if a knob changed since the
    /// last read).
    pub fn association(&mut self) -> &AssociationMap {
        if self.association.is_none() {
            self.association = Some(AssociationMap::build(
                &self.model,
                &self.engine,
                &self.corpus,
                self.fidelity,
                &self.filters,
            ));
        }
        self.association.as_ref().expect("just computed")
    }

    /// Table 1-style rows for the current view.
    #[must_use]
    pub fn attribute_rows(&self) -> Vec<AttributeRow> {
        associate::attribute_rows(
            &self.model,
            &self.engine,
            &self.corpus,
            self.fidelity,
            &self.filters,
        )
    }

    /// The current system posture.
    pub fn posture(&mut self) -> SystemPosture {
        // Split borrows: compute the association first.
        self.association();
        let map = self.association.as_ref().expect("just computed");
        SystemPosture::compute(&self.model, &self.corpus, map)
    }

    /// Evaluates edits without applying them. The current association is
    /// the prior, so only the components the edits touch are re-queried.
    ///
    /// # Errors
    ///
    /// Propagates [`whatif::evaluate_with_prior`] errors.
    pub fn what_if(&mut self, changes: &[ModelChange]) -> Result<WhatIfReport, ModelError> {
        self.association();
        let prior = self.association.as_ref().expect("just computed");
        whatif::evaluate_with_prior(
            &self.model,
            changes,
            prior,
            &self.engine,
            &self.corpus,
            &self.filters,
        )
    }

    /// The merged model + association view as Graphviz DOT (Figure 1).
    pub fn figure_dot(&mut self) -> String {
        self.association();
        render::model_dot(&self.model, self.association.as_ref())
    }

    /// The Table 1 text rendering for the current view.
    #[must_use]
    pub fn table_text(&self) -> String {
        let rows = self.attribute_rows();
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.attribute.clone(),
                    r.patterns.to_string(),
                    r.weaknesses.to_string(),
                    r.vulnerabilities.to_string(),
                ]
            })
            .collect();
        render::text_table(
            &[
                "Attribute",
                "Attack Patterns",
                "Weaknesses",
                "Vulnerabilities",
            ],
            &cells,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::seed::seed_corpus;
    use cpssec_model::AttributeKind;
    use cpssec_scada::model::{names, scada_model};
    use cpssec_search::Filter;

    fn dashboard() -> Dashboard {
        Dashboard::new(seed_corpus(), scada_model())
    }

    #[test]
    fn association_is_cached_until_a_knob_changes() {
        let mut d = dashboard();
        let total1 = d.association().total_vectors();
        let total2 = d.association().total_vectors();
        assert_eq!(total1, total2);
        d.set_fidelity(Fidelity::Conceptual);
        let total3 = d.association().total_vectors();
        assert!(total3 < total1);
    }

    #[test]
    fn setting_same_fidelity_keeps_cache() {
        let mut d = dashboard();
        d.association();
        d.set_fidelity(Fidelity::Implementation);
        // No panic, association still present (white-box: recompute is fine
        // too, but the view must be identical).
        assert!(d.association().total_vectors() > 0);
    }

    #[test]
    fn edits_immediately_change_the_results() {
        let mut d = dashboard();
        let before = d.association().matches(names::TEMP_SENSOR).unwrap().total();
        d.add_attribute(
            names::TEMP_SENSOR,
            Attribute::new(AttributeKind::OperatingSystem, "Windows 7"),
        )
        .unwrap();
        let after = d.association().matches(names::TEMP_SENSOR).unwrap().total();
        assert!(after > before, "{after} vs {before}");
    }

    #[test]
    fn filters_change_the_view() {
        let mut d = dashboard();
        let unfiltered = d.association().total_vectors();
        d.set_filters(FilterPipeline::new().then(Filter::TopKPerFamily(1)));
        let filtered = d.association().total_vectors();
        assert!(filtered < unfiltered);
    }

    #[test]
    fn table_text_contains_table1_attributes() {
        let d = dashboard();
        let text = d.table_text();
        assert!(text.contains("Cisco ASA"));
        assert!(text.contains("NI cRIO 9063"));
        assert!(text.contains("Vulnerabilities"));
    }

    #[test]
    fn what_if_does_not_mutate_the_session_model() {
        let mut d = dashboard();
        let changes = [ModelChange::RemoveAttribute {
            component: names::WORKSTATION.into(),
            key: "software".into(),
            value: "Labview".into(),
        }];
        let baseline = d.association().clone();
        let report = d.what_if(&changes).unwrap();
        assert!(report.score_delta <= 0.0);
        // Served from the held association, it equals the full path, and
        // the held association is still the baseline's.
        let full = whatif::evaluate(
            d.model(),
            &changes,
            &d.engine,
            d.corpus(),
            d.fidelity(),
            &d.filters,
        )
        .unwrap();
        assert_eq!(report, full);
        assert_eq!(d.association(), &baseline);
        // The session model still has LabVIEW.
        assert!(d
            .model()
            .component_by_name(names::WORKSTATION)
            .unwrap()
            .attributes()
            .iter()
            .any(|a| a.value() == "Labview"));
    }

    #[test]
    fn figure_dot_reflects_current_association() {
        let mut d = dashboard();
        let dot = d.figure_dot();
        assert!(dot.contains("CVE"));
    }

    #[test]
    fn unknown_component_edit_is_rejected_and_state_preserved() {
        let mut d = dashboard();
        let before = d.association().total_vectors();
        let err = d
            .add_attribute("ghost", Attribute::new(AttributeKind::Vendor, "x"))
            .unwrap_err();
        assert_eq!(err, ModelError::UnknownComponent("ghost".into()));
        assert_eq!(d.association().total_vectors(), before);
    }

    #[test]
    fn posture_uses_current_view() {
        let mut d = dashboard();
        let concrete = d.posture().total_score;
        d.set_fidelity(Fidelity::Conceptual);
        let abstract_ = d.posture().total_score;
        assert!(abstract_ < concrete);
    }
}
