//! Facade crate: the end-to-end model-based security analysis pipeline.
//!
//! Re-exports the whole `cpssec` workspace under topical modules and wires
//! the three capabilities of *"Fundamental Challenges of Cyber-Physical
//! Systems Security Modeling"* (DSN 2020) into one [`Pipeline`]:
//!
//! 1. **export** — a system model in the general architectural form
//!    (build one with [`model::SystemModelBuilder`], or import GraphML);
//! 2. **associate** — attack vector data matched to the model
//!    ([`search::SearchEngine`] over an [`attackdb::Corpus`]);
//! 3. **analyze & decide** — the dashboard operations
//!    ([`analysis::Dashboard`]), posture comparison, attack surface,
//!    filtering, and — beyond the paper's prototype — simulated physical
//!    consequences ([`scada`], [`analysis::consequence`]).
//!
//! # Examples
//!
//! The complete §3 demonstration in a few lines:
//!
//! ```
//! use cpssec_core::prelude::*;
//!
//! // Attack vector data (seed corpus; merge a synthetic corpus for scale).
//! let corpus = cpssec_core::attackdb::seed::seed_corpus();
//! // The particle separation centrifuge model of Fig 1.
//! let model = cpssec_core::scada::model::scada_model();
//! // The dashboard merges the two.
//! let mut dashboard = Dashboard::new(corpus, model);
//! let table = dashboard.table_text();
//! assert!(table.contains("Cisco ASA"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The general architectural model (re-export of [`cpssec_model`]).
pub mod model {
    pub use cpssec_model::*;
}

/// Attack vector corpora (re-export of [`cpssec_attackdb`]).
pub mod attackdb {
    pub use cpssec_attackdb::*;
}

/// The matching engine (re-export of [`cpssec_search`]).
pub mod search {
    pub use cpssec_search::*;
}

/// The simulation kernel (re-export of [`cpssec_sim`]).
pub mod sim {
    pub use cpssec_sim::*;
}

/// The centrifuge demonstration (re-export of [`cpssec_scada`]).
pub mod scada {
    pub use cpssec_scada::*;
}

/// The exploit-chain campaign engine (re-export of [`cpssec_campaign`]).
pub mod campaign {
    pub use cpssec_campaign::*;
}

/// The dashboard engine (re-export of [`cpssec_analysis`]).
pub mod analysis {
    pub use cpssec_analysis::*;
}

/// The most commonly used items in one import.
pub mod prelude {
    pub use cpssec_analysis::{AssociationMap, Dashboard, SystemPosture};
    pub use cpssec_attackdb::{Corpus, Severity};
    pub use cpssec_model::{
        Attribute, AttributeKind, ChannelKind, ComponentKind, Criticality, Fidelity, SystemModel,
        SystemModelBuilder,
    };
    pub use cpssec_scada::{ProductQuality, ScadaConfig, ScadaHarness};
    pub use cpssec_search::{Filter, FilterPipeline, MatchSet, ScoringModel, SearchEngine};
}

use std::sync::OnceLock;

use cpssec_analysis::{AssociationMap, Dashboard};
use cpssec_attackdb::Corpus;
use cpssec_model::{Fidelity, SystemModel};
use cpssec_search::{FilterPipeline, MatchConfig, ScoringModel, SearchEngine};

/// A one-call pipeline: corpus + model → association → dashboard.
///
/// For fine-grained control use the constituent crates directly; the
/// pipeline exists so the common path is one expression. The search engine
/// is built lazily on first use and cached, so repeated
/// [`associate`](Pipeline::associate) calls — or a long-lived service holding one
/// pipeline per corpus — pay the indexing cost once.
#[derive(Debug)]
pub struct Pipeline {
    corpus: Corpus,
    model: SystemModel,
    fidelity: Fidelity,
    filters: FilterPipeline,
    scoring: ScoringModel,
    engine: OnceLock<SearchEngine>,
}

impl Pipeline {
    /// Starts a pipeline over a corpus and a model.
    #[must_use]
    pub fn new(corpus: Corpus, model: SystemModel) -> Self {
        Pipeline {
            corpus,
            model,
            fidelity: Fidelity::Implementation,
            filters: FilterPipeline::new(),
            scoring: ScoringModel::TfIdf,
            engine: OnceLock::new(),
        }
    }

    /// Sets the fidelity level (builder style).
    #[must_use]
    pub fn at_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Sets the filter pipeline (builder style).
    #[must_use]
    pub fn with_filters(mut self, filters: FilterPipeline) -> Self {
        self.filters = filters;
        self
    }

    /// Sets the scoring model (builder style). Discards any cached engine.
    #[must_use]
    pub fn with_scoring(mut self, scoring: ScoringModel) -> Self {
        self.scoring = scoring;
        self.engine = OnceLock::new();
        self
    }

    /// The cached search engine over this pipeline's corpus, built on first
    /// access.
    pub fn engine(&self) -> &SearchEngine {
        self.engine.get_or_init(|| {
            SearchEngine::with_config(
                &self.corpus,
                MatchConfig {
                    scoring: self.scoring,
                    ..MatchConfig::default()
                },
            )
        })
    }

    /// Runs capability 2: the association of attack vectors to the model.
    #[must_use]
    pub fn associate(&self) -> AssociationMap {
        AssociationMap::build(
            &self.model,
            self.engine(),
            &self.corpus,
            self.fidelity,
            &self.filters,
        )
    }

    /// Opens capability 3: an interactive dashboard session (consumes the
    /// pipeline; the dashboard owns corpus and model).
    #[must_use]
    pub fn into_dashboard(self) -> Dashboard {
        let mut dashboard = Dashboard::new(self.corpus, self.model);
        dashboard.set_fidelity(self.fidelity);
        dashboard.set_filters(self.filters);
        dashboard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::seed::seed_corpus;
    use cpssec_scada::model::scada_model;

    #[test]
    fn pipeline_association_matches_dashboard_view() {
        let pipeline = Pipeline::new(seed_corpus(), scada_model());
        let map = pipeline.associate();
        let mut dashboard = pipeline.into_dashboard();
        assert_eq!(dashboard.association(), &map);
    }

    #[test]
    fn fidelity_knob_propagates() {
        let concrete = Pipeline::new(seed_corpus(), scada_model()).associate();
        let abstract_ = Pipeline::new(seed_corpus(), scada_model())
            .at_fidelity(Fidelity::Conceptual)
            .associate();
        assert!(abstract_.total_vectors() < concrete.total_vectors());
    }

    #[test]
    fn engine_is_cached_across_associate_calls() {
        let pipeline = Pipeline::new(seed_corpus(), scada_model());
        let first = pipeline.associate();
        let queries_after_first = pipeline.engine().queries_run();
        let second = pipeline.associate();
        assert_eq!(first, second);
        assert!(std::ptr::eq(pipeline.engine(), pipeline.engine()));
        // The second associate ran its queries on the same cached engine.
        assert_eq!(pipeline.engine().queries_run(), 2 * queries_after_first);
    }

    #[test]
    fn scoring_knob_changes_scores_not_hit_sets() {
        let tfidf = Pipeline::new(seed_corpus(), scada_model()).associate();
        let bm25 = Pipeline::new(seed_corpus(), scada_model())
            .with_scoring(ScoringModel::Bm25)
            .associate();
        assert_eq!(tfidf.total_vectors(), bm25.total_vectors());
        assert_ne!(tfidf, bm25, "scores should differ between models");
    }

    #[test]
    fn filters_propagate() {
        use cpssec_search::Filter;
        let filtered = Pipeline::new(seed_corpus(), scada_model())
            .with_filters(FilterPipeline::new().then(Filter::TopKPerFamily(1)))
            .associate();
        let unfiltered = Pipeline::new(seed_corpus(), scada_model()).associate();
        assert!(filtered.total_vectors() < unfiltered.total_vectors());
    }
}
