//! Association of attack vectors to the system model — the paper's
//! "main output".

use std::collections::{BTreeMap, BTreeSet};

use cpssec_attackdb::Corpus;
use cpssec_model::{fnv1a_64, Fidelity, ModelDiff, SystemModel};
use cpssec_search::{FilterPipeline, MatchSet, SearchEngine};

use crate::posture::severity_mass;

/// One row of a Table 1-style report: an attribute value and how many
/// attack vectors of each family associate with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeRow {
    /// The component carrying the attribute.
    pub component: String,
    /// The attribute value queried.
    pub attribute: String,
    /// Matched attack patterns.
    pub patterns: usize,
    /// Matched weaknesses.
    pub weaknesses: usize,
    /// Matched vulnerabilities.
    pub vulnerabilities: usize,
}

impl AttributeRow {
    /// Total matched vectors.
    #[must_use]
    pub fn total(&self) -> usize {
        self.patterns + self.weaknesses + self.vulnerabilities
    }
}

/// The association of attack vectors to every component of a model, at one
/// fidelity level, after one filter pipeline.
///
/// Each component's entry carries the severity mass of its hits beside the
/// match set, weighed once from the hits' severity codes when the entry is
/// computed, so posture reads it instead of re-weighing every hit.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationMap {
    fidelity: Fidelity,
    by_component: BTreeMap<String, Weighed>,
    by_channel: BTreeMap<String, MatchSet>,
}

/// One component's filtered match set and the severity mass of its hits.
#[derive(Debug, Clone, PartialEq)]
struct Weighed {
    set: MatchSet,
    mass: f64,
}

/// Weighs each `(component, match set)` pair from its hits' severity codes
/// under one `severity-mass` span whose items are the hits weighed.
fn weigh(sets: Vec<(String, MatchSet)>) -> Vec<(String, Weighed)> {
    let mut span = cpssec_obs::span!("severity-mass");
    span.add_items(sets.iter().map(|(_, set)| set.total() as u64).sum());
    sets.into_iter()
        .map(|(name, set)| {
            let mass = severity_mass(&set);
            (name, Weighed { set, mass })
        })
        .collect()
}

impl AssociationMap {
    /// Associates the corpus to every component of `model` at `level`,
    /// filtering each component's match set through `filters`. The
    /// filters' scorer-evaluable prefix (leading `MinScore`s and the first
    /// `TopKPerFamily`) runs inside the scorer
    /// ([`FilterPipeline::split_for_scorer`]); the map is the same.
    ///
    /// # Examples
    ///
    /// ```
    /// use cpssec_attackdb::seed::seed_corpus;
    /// use cpssec_search::{FilterPipeline, SearchEngine};
    /// use cpssec_model::Fidelity;
    /// use cpssec_analysis::AssociationMap;
    ///
    /// let corpus = seed_corpus();
    /// let engine = SearchEngine::build(&corpus);
    /// let model = cpssec_scada::model::scada_model();
    /// let map = AssociationMap::build(
    ///     &model, &engine, &corpus, Fidelity::Implementation, &FilterPipeline::new(),
    /// );
    /// assert!(map.matches("SIS platform").is_some());
    /// ```
    #[must_use]
    pub fn build(
        model: &SystemModel,
        engine: &SearchEngine,
        corpus: &Corpus,
        level: Fidelity,
        filters: &FilterPipeline,
    ) -> AssociationMap {
        let mut span = cpssec_obs::span!("associate");
        span.add_items(model.component_count() as u64);
        let (engine, residual) = filters.split_for_scorer(engine);
        // The per-element matching fans out across scoped threads; results
        // come back in model insertion order, so the map is deterministic.
        let sets = engine
            .par_match_model(model, level)
            .into_iter()
            .map(|(name, raw)| (name, residual.apply_owned(raw, corpus)))
            .collect();
        AssociationMap {
            fidelity: level,
            by_component: weigh(sets).into_iter().collect(),
            by_channel: build_channels(model, &engine, corpus, level, &residual),
        }
    }

    /// Incrementally re-associates after a model edit, reusing `prior`.
    ///
    /// Per-element matching is a pure function of the element's query text
    /// (given one engine, corpus snapshot, and filter pipeline), so only
    /// components whose text at the prior's fidelity actually changed are
    /// re-queried; every other entry is spliced from `prior`. Channels are
    /// spliced wholesale when the channel lists and component name order
    /// are unchanged (the usual what-if case of attribute edits), and
    /// rebuilt otherwise. A spliced component keeps its severity mass from
    /// `prior`; only re-queried components are weighed, so the cost of a
    /// rebuild follows the edit, not the model.
    ///
    /// # Contract
    ///
    /// `prior` must have been built from `old` with the same `engine`,
    /// `corpus`, and `filters`, and `diff` must be
    /// `ModelDiff::between(old, new)`. Under that contract the result is
    /// exactly `AssociationMap::build(new, engine, corpus,
    /// prior.fidelity(), filters)` — bit-identical scores, order and
    /// severity masses.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn rebuild(
        prior: &AssociationMap,
        old: &SystemModel,
        new: &SystemModel,
        diff: &ModelDiff,
        engine: &SearchEngine,
        corpus: &Corpus,
        filters: &FilterPipeline,
    ) -> AssociationMap {
        let _span = cpssec_obs::span!("associate-rebuild");
        let level = prior.fidelity;
        // The same split as `build`'s, so re-queried entries match the
        // prior's spliced ones.
        let (engine, residual) = filters.split_for_scorer(engine);
        // Names whose query text may differ: the diff narrows the candidate
        // set, the text hash decides (an attribute edit at another fidelity
        // level is invisible to this map and splices through).
        let mut requery: BTreeSet<&str> =
            diff.added_components.iter().map(String::as_str).collect();
        for change in &diff.changed_components {
            let unchanged_text = old
                .component_by_name(&change.name)
                .zip(new.component_by_name(&change.name))
                .is_some_and(|(oc, nc)| {
                    fnv1a_64(oc.search_text(level).as_bytes())
                        == fnv1a_64(nc.search_text(level).as_bytes())
                });
            if !unchanged_text {
                requery.insert(&change.name);
            }
        }
        let mut by_component = BTreeMap::new();
        let mut requeried = Vec::new();
        for (_, component) in new.components() {
            let name = component.name();
            match prior.by_component.get(name) {
                Some(entry) if !requery.contains(name) => {
                    by_component.insert(name.to_owned(), entry.clone());
                }
                _ => requeried.push((
                    name.to_owned(),
                    residual.apply_owned(engine.match_component(component, level), corpus),
                )),
            }
        }
        by_component.extend(weigh(requeried));
        let same_names = old
            .components()
            .map(|(_, c)| c.name())
            .eq(new.components().map(|(_, c)| c.name()));
        let same_channels = same_names && old.channels().eq(new.channels());
        let by_channel = if same_channels {
            prior.by_channel.clone()
        } else {
            build_channels(new, &engine, corpus, level, &residual)
        };
        AssociationMap {
            fidelity: level,
            by_component,
            by_channel,
        }
    }

    /// The fidelity the map was built at.
    #[must_use]
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// The match set for one component name.
    #[must_use]
    pub fn matches(&self, component: &str) -> Option<&MatchSet> {
        self.by_component.get(component).map(|entry| &entry.set)
    }

    /// The severity mass of one component's hits: each vulnerability
    /// weighs its CVSS base score / 10, each pattern its typical-severity
    /// band weight, each weakness 0.5 (see
    /// [`ComponentPosture::severity_weighted`](crate::ComponentPosture::severity_weighted)).
    #[must_use]
    pub fn severity_mass(&self, component: &str) -> Option<f64> {
        self.by_component.get(component).map(|entry| entry.mass)
    }

    /// Iterates `(component name, match set)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MatchSet)> {
        self.by_component
            .iter()
            .map(|(k, entry)| (k.as_str(), &entry.set))
    }

    /// Iterates `(channel description, match set)` in channel-id order.
    /// Keys look like `e004: BPCS platform -- Centrifuge [fieldbus]`.
    pub fn iter_channels(&self) -> impl Iterator<Item = (&str, &MatchSet)> {
        self.by_channel.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total matched vectors across all components (with multiplicity: a
    /// vector matched by two components counts twice, as on the dashboard).
    /// Channel matches are reported separately by
    /// [`channel_vectors`](Self::channel_vectors).
    #[must_use]
    pub fn total_vectors(&self) -> usize {
        self.by_component
            .values()
            .map(|entry| entry.set.total())
            .sum()
    }

    /// Total matched vectors across all channels.
    #[must_use]
    pub fn channel_vectors(&self) -> usize {
        self.by_channel.values().map(MatchSet::total).sum()
    }

    /// Components ordered from most to fewest associated vectors.
    #[must_use]
    pub fn ranked_components(&self) -> Vec<(&str, usize)> {
        let mut ranked: Vec<(&str, usize)> = self
            .by_component
            .iter()
            .map(|(name, entry)| (name.as_str(), entry.set.total()))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        ranked
    }
}

/// Associates every channel of `model`, keyed so BTreeMap string order
/// equals channel order (zero-padded ids). `engine` and `residual` are the
/// two halves of [`FilterPipeline::split_for_scorer`].
fn build_channels(
    model: &SystemModel,
    engine: &SearchEngine,
    corpus: &Corpus,
    level: Fidelity,
    residual: &FilterPipeline,
) -> BTreeMap<String, MatchSet> {
    engine
        .par_match_channels(model, level)
        .into_iter()
        .map(|(id, raw)| {
            let channel = model.channel(id).expect("id from this model");
            let from = model
                .component(channel.from())
                .expect("valid endpoint")
                .name();
            let to = model
                .component(channel.to())
                .expect("valid endpoint")
                .name();
            let key = format!("e{:03}: {from} -- {to} [{}]", id.index(), channel.kind());
            (key, residual.apply_owned(raw, corpus))
        })
        .collect()
}

/// Builds Table 1-style rows: one row per *concrete attribute value* in the
/// model at `level`, each queried individually against the corpus.
///
/// This is exactly how the paper's Table 1 is keyed — by attribute
/// ("Cisco ASA", "Windows 7", …), not by component. As in
/// [`AssociationMap::build`], the scorer runs the filters' leading
/// `MinScore`s and first `TopKPerFamily`.
#[must_use]
pub fn attribute_rows(
    model: &SystemModel,
    engine: &SearchEngine,
    corpus: &Corpus,
    level: Fidelity,
    filters: &FilterPipeline,
) -> Vec<AttributeRow> {
    let (engine, residual) = filters.split_for_scorer(engine);
    let mut rows = Vec::new();
    for (_, component) in model.components() {
        for attribute in component.attributes().visible_at(level) {
            if !attribute.kind().is_concrete() {
                continue;
            }
            let set = residual.apply_owned(engine.match_text(attribute.value()), corpus);
            let (patterns, weaknesses, vulnerabilities) = set.counts();
            rows.push(AttributeRow {
                component: component.name().to_owned(),
                attribute: attribute.value().to_owned(),
                patterns,
                weaknesses,
                vulnerabilities,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::seed::seed_corpus;
    use cpssec_scada::model::{names, scada_model};

    fn setup() -> (SystemModel, SearchEngine, Corpus) {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        (scada_model(), engine, corpus)
    }

    #[test]
    fn every_component_gets_an_entry() {
        let (model, engine, corpus) = setup();
        let map = AssociationMap::build(
            &model,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        );
        assert_eq!(map.iter().count(), model.component_count());
        assert_eq!(map.fidelity(), Fidelity::Implementation);
    }

    #[test]
    fn implementation_fidelity_matches_more_than_conceptual() {
        let (model, engine, corpus) = setup();
        let filters = FilterPipeline::new();
        let concrete =
            AssociationMap::build(&model, &engine, &corpus, Fidelity::Implementation, &filters);
        let abstract_ =
            AssociationMap::build(&model, &engine, &corpus, Fidelity::Conceptual, &filters);
        assert!(
            concrete.total_vectors() > abstract_.total_vectors(),
            "concrete {} vs abstract {}",
            concrete.total_vectors(),
            abstract_.total_vectors()
        );
    }

    #[test]
    fn sis_platform_matches_vulnerabilities_at_implementation() {
        let (model, engine, corpus) = setup();
        let map = AssociationMap::build(
            &model,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        );
        let sis = map.matches(names::SIS).unwrap();
        assert!(!sis.vulnerabilities.is_empty());
    }

    #[test]
    fn attribute_rows_cover_table1_attributes() {
        let (model, engine, corpus) = setup();
        let rows = attribute_rows(
            &model,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        );
        for needle in [
            "Cisco ASA",
            "Windows 7",
            "Labview",
            "NI cRIO 9063",
            "NI cRIO 9064",
            "NI RT Linux OS",
        ] {
            let row = rows
                .iter()
                .find(|r| r.attribute == needle)
                .unwrap_or_else(|| panic!("no row for {needle}"));
            assert!(row.vulnerabilities > 0, "{needle}: {row:?}");
        }
    }

    #[test]
    fn attribute_rows_skip_function_attributes() {
        let (model, engine, corpus) = setup();
        let rows = attribute_rows(
            &model,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        );
        assert!(rows.iter().all(|r| !r.attribute.contains("monitors")));
    }

    #[test]
    fn conceptual_rows_exclude_implementation_attributes() {
        let (model, engine, corpus) = setup();
        let rows = attribute_rows(
            &model,
            &engine,
            &corpus,
            Fidelity::Conceptual,
            &FilterPipeline::new(),
        );
        assert!(rows.iter().all(|r| r.attribute != "Windows 7"));
    }

    #[test]
    fn ranked_components_sorts_descending() {
        let (model, engine, corpus) = setup();
        let map = AssociationMap::build(
            &model,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        );
        let ranked = map.ranked_components();
        assert_eq!(ranked.len(), model.component_count());
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn filters_thin_the_association() {
        use cpssec_attackdb::Severity;
        use cpssec_search::Filter;
        let (model, engine, corpus) = setup();
        let unfiltered = AssociationMap::build(
            &model,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        );
        let filtered = AssociationMap::build(
            &model,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new().then(Filter::SeverityAtLeast(Severity::Critical)),
        );
        assert!(filtered.total_vectors() < unfiltered.total_vectors());
    }

    #[test]
    fn channels_are_associated_too() {
        let (model, engine, corpus) = setup();
        let map = AssociationMap::build(
            &model,
            &engine,
            &corpus,
            Fidelity::Architectural,
            &FilterPipeline::new(),
        );
        assert_eq!(map.iter_channels().count(), model.channel_count());
        // The MODBUS fieldbus channels match the MODBUS-mentioning records.
        let modbus_channel = map
            .iter_channels()
            .find(|(key, _)| key.contains("Centrifuge"))
            .map(|(_, set)| set.clone())
            .expect("drive command bus present");
        assert!(
            modbus_channel.total() > 0,
            "MODBUS channel should match protocol-level records"
        );
        assert!(map.channel_vectors() >= modbus_channel.total());
    }

    #[test]
    fn channel_keys_are_ordered_and_descriptive() {
        let (model, engine, corpus) = setup();
        let map = AssociationMap::build(
            &model,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        );
        let keys: Vec<&str> = map.iter_channels().map(|(k, _)| k).collect();
        assert!(keys[0].starts_with("e000:"));
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(keys.iter().any(|k| k.contains("[fieldbus]")));
    }

    fn swap_workstation_os(model: &SystemModel) -> SystemModel {
        let mut edited = model.clone();
        let ws = edited.component_by_name_mut(names::WORKSTATION).unwrap();
        let old_values: Vec<String> = ws.attributes().get_all("os").map(str::to_owned).collect();
        for value in old_values {
            ws.attributes_mut().remove("os", &value);
        }
        ws.attributes_mut().insert(
            cpssec_model::Attribute::new(
                cpssec_model::AttributeKind::OperatingSystem,
                "hardened thin client image",
            )
            .at_fidelity(Fidelity::Implementation),
        );
        edited
    }

    #[test]
    fn incremental_rebuild_equals_full_rebuild() {
        let (model, engine, corpus) = setup();
        let filters = FilterPipeline::new();
        let prior =
            AssociationMap::build(&model, &engine, &corpus, Fidelity::Implementation, &filters);
        let edited = swap_workstation_os(&model);
        let diff = cpssec_model::ModelDiff::between(&model, &edited);
        let incremental =
            AssociationMap::rebuild(&prior, &model, &edited, &diff, &engine, &corpus, &filters);
        let full = AssociationMap::build(
            &edited,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &filters,
        );
        assert_eq!(incremental, full);
    }

    #[test]
    fn incremental_rebuild_requeries_only_the_changed_component() {
        let (model, engine, corpus) = setup();
        let filters = FilterPipeline::new();
        let prior =
            AssociationMap::build(&model, &engine, &corpus, Fidelity::Implementation, &filters);
        let edited = swap_workstation_os(&model);
        let diff = cpssec_model::ModelDiff::between(&model, &edited);
        let before = engine.queries_run();
        let _ = AssociationMap::rebuild(&prior, &model, &edited, &diff, &engine, &corpus, &filters);
        assert_eq!(
            engine.queries_run() - before,
            1,
            "exactly one component re-queried, all channels spliced"
        );
    }

    #[test]
    fn edits_invisible_at_the_map_fidelity_splice_through() {
        let (model, engine, corpus) = setup();
        let filters = FilterPipeline::new();
        // A conceptual-level map must not re-query for an implementation-
        // only attribute swap: the query text is unchanged at that level.
        let prior = AssociationMap::build(&model, &engine, &corpus, Fidelity::Conceptual, &filters);
        let edited = swap_workstation_os(&model);
        let diff = cpssec_model::ModelDiff::between(&model, &edited);
        let before = engine.queries_run();
        let incremental =
            AssociationMap::rebuild(&prior, &model, &edited, &diff, &engine, &corpus, &filters);
        assert_eq!(engine.queries_run(), before, "no re-queries needed");
        assert_eq!(
            incremental,
            AssociationMap::build(&edited, &engine, &corpus, Fidelity::Conceptual, &filters)
        );
    }

    #[test]
    fn incremental_rebuild_handles_component_add_and_remove() {
        let (model, engine, corpus) = setup();
        let filters = FilterPipeline::new();
        let prior =
            AssociationMap::build(&model, &engine, &corpus, Fidelity::Implementation, &filters);
        // Removing a component drops its channels; adding one brings a new
        // entry. Both invalidate the channel splice path.
        let mut edited = model.clone();
        edited
            .add_component(cpssec_model::Component::new(
                "New historian",
                cpssec_model::ComponentKind::Historian,
            ))
            .unwrap();
        let diff = cpssec_model::ModelDiff::between(&model, &edited);
        let incremental =
            AssociationMap::rebuild(&prior, &model, &edited, &diff, &engine, &corpus, &filters);
        let full = AssociationMap::build(
            &edited,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &filters,
        );
        assert_eq!(incremental, full);
        assert!(incremental.matches("New historian").is_some());
    }

    #[test]
    fn row_total_sums_families() {
        let row = AttributeRow {
            component: "x".into(),
            attribute: "y".into(),
            patterns: 1,
            weaknesses: 2,
            vulnerabilities: 3,
        };
        assert_eq!(row.total(), 6);
    }
}
