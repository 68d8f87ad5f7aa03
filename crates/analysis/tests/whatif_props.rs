//! Property tests pinning the incremental what-if path to the full one.
//!
//! Random add/replace/remove edit lists — including no-op edits and edits
//! carried only at a fidelity the map cannot see — under a random map
//! fidelity, scoring model and filter pipeline. The served path
//! (`evaluate_with_prior` over a prior, `AssociationMap::rebuild`) must
//! equal the from-scratch path (`evaluate`, `AssociationMap::build`) bit
//! for bit: every match score, every per-component severity mass, every
//! posture score and the score delta.

use std::sync::OnceLock;

use cpssec_analysis::whatif::{self, ModelChange};
use cpssec_analysis::{AssociationMap, SystemPosture};
use cpssec_attackdb::seed::seed_corpus;
use cpssec_attackdb::{Corpus, Severity};
use cpssec_model::{Attribute, AttributeKind, Fidelity, ModelDiff, SystemModel};
use cpssec_search::{Filter, FilterPipeline, MatchSet, ScoringModel, SearchEngine};
use proptest::prelude::*;

const VALUES: [&str; 8] = [
    "Windows 7",
    "Labview",
    "Cisco ASA",
    "NI RT Linux OS",
    "Siemens S7-1500",
    "hardened thin client",
    "MODBUS",
    "supervisory control",
];

const KINDS: [AttributeKind; 5] = [
    AttributeKind::OperatingSystem,
    AttributeKind::Software,
    AttributeKind::Hardware,
    AttributeKind::Product,
    AttributeKind::Function,
];

struct World {
    corpus: Corpus,
    engines: [SearchEngine; 2],
    models: [SystemModel; 2],
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let corpus = seed_corpus();
        let tfidf = SearchEngine::build(&corpus);
        let bm25 = tfidf.with_scoring(ScoringModel::Bm25);
        World {
            corpus,
            engines: [tfidf, bm25],
            models: [
                cpssec_scada::model::scada_model(),
                cpssec_scada::water::water_model(),
            ],
        }
    })
}

fn pipeline(index: usize) -> FilterPipeline {
    match index {
        0 => FilterPipeline::new(),
        1 => FilterPipeline::new().then(Filter::TopKPerFamily(10)),
        2 => FilterPipeline::new().then(Filter::SeverityAtLeast(Severity::High)),
        3 => FilterPipeline::new().then(Filter::MinScore(0.5)),
        _ => FilterPipeline::new()
            .then(Filter::MinMatchedTerms(2))
            .then(Filter::TopKPerFamily(3)),
    }
}

/// One generated edit, resolved against the model in the test body.
#[derive(Debug, Clone)]
struct RawEdit {
    op: u8,
    component: usize,
    kind: usize,
    value: usize,
    fidelity: usize,
    /// For removes: `Some(i)` removes the component's `i`-th existing
    /// attribute (modulo its count), `None` a pool value it may not carry.
    existing: Option<usize>,
}

fn raw_edit() -> impl Strategy<Value = RawEdit> {
    (
        0u8..3,
        0usize..64,
        0..KINDS.len(),
        0..VALUES.len(),
        0usize..3,
        0usize..128,
    )
        .prop_map(|(op, component, kind, value, fidelity, existing)| RawEdit {
            op,
            component,
            kind,
            value,
            fidelity,
            existing: (existing < 64).then_some(existing),
        })
}

fn resolve(model: &SystemModel, raw: &RawEdit) -> ModelChange {
    let names: Vec<&str> = model.components().map(|(_, c)| c.name()).collect();
    let name = names[raw.component % names.len()];
    let kind = KINDS[raw.kind];
    let attribute =
        Attribute::new(kind, VALUES[raw.value]).at_fidelity(Fidelity::ALL[raw.fidelity]);
    match raw.op {
        0 => ModelChange::AddAttribute {
            component: name.to_owned(),
            attribute,
        },
        1 => ModelChange::ReplaceAttribute {
            component: name.to_owned(),
            key: kind.as_str().to_owned(),
            with: attribute,
        },
        _ => {
            let component = model.component_by_name(name).expect("name from model");
            let attributes: Vec<&Attribute> = component.attributes().iter().collect();
            let (key, value) = match raw.existing {
                Some(i) if !attributes.is_empty() => {
                    let a = attributes[i % attributes.len()];
                    (a.key().to_owned(), a.value().to_owned())
                }
                _ => (kind.as_str().to_owned(), VALUES[raw.value].to_owned()),
            };
            ModelChange::RemoveAttribute {
                component: name.to_owned(),
                key,
                value,
            }
        }
    }
}

fn set_bits(set: &MatchSet) -> Vec<u64> {
    set.iter()
        .flat_map(|h| [h.score.to_bits(), h.matched_terms as u64])
        .collect()
}

/// Every component's hit bits and severity-mass bits, then every
/// channel's hit bits.
fn map_bits(map: &AssociationMap) -> Vec<(String, Vec<u64>)> {
    let components = map.iter().map(|(name, set)| {
        let mass = map.severity_mass(name).expect("component has a mass");
        let mut bits = set_bits(set);
        bits.push(mass.to_bits());
        (name.to_owned(), bits)
    });
    let channels = map
        .iter_channels()
        .map(|(name, set)| (name.to_owned(), set_bits(set)));
    components.chain(channels).collect()
}

fn posture_bits(posture: &SystemPosture) -> Vec<u64> {
    posture
        .components
        .iter()
        .flat_map(|c| [c.severity_weighted.to_bits(), c.score.to_bits()])
        .chain([posture.total_score.to_bits()])
        .collect()
}

proptest! {
    #[test]
    fn served_what_if_equals_the_full_path_bit_for_bit(
        model_index in 0usize..2,
        level in 0usize..3,
        scoring in 0usize..2,
        filters in 0usize..5,
        edits in proptest::collection::vec(raw_edit(), 0..5),
    ) {
        let world = world();
        let model = &world.models[model_index];
        let engine = &world.engines[scoring];
        let corpus = &world.corpus;
        let level = Fidelity::ALL[level];
        let filters = pipeline(filters);
        let changes: Vec<ModelChange> = edits.iter().map(|raw| resolve(model, raw)).collect();

        let prior = AssociationMap::build(model, engine, corpus, level, &filters);
        let served =
            whatif::evaluate_with_prior(model, &changes, &prior, engine, corpus, &filters)
                .expect("edits name existing components");
        let full = whatif::evaluate(model, &changes, engine, corpus, level, &filters)
            .expect("edits name existing components");
        prop_assert_eq!(posture_bits(&served.before), posture_bits(&full.before));
        prop_assert_eq!(posture_bits(&served.after), posture_bits(&full.after));
        prop_assert_eq!(served.score_delta.to_bits(), full.score_delta.to_bits());
        prop_assert_eq!(&served, &full);

        let edited = whatif::apply_changes(model, &changes).expect("edits apply");
        let diff = ModelDiff::between(model, &edited);
        let rebuilt =
            AssociationMap::rebuild(&prior, model, &edited, &diff, engine, corpus, &filters);
        let built = AssociationMap::build(&edited, engine, corpus, level, &filters);
        prop_assert_eq!(map_bits(&rebuilt), map_bits(&built));
        prop_assert_eq!(&rebuilt, &built);
    }
}
