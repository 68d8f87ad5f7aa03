//! Property tests pinning the scorer pushdown to the post-filter path.
//!
//! `AssociationMap::build`, `AssociationMap::rebuild` and `attribute_rows`
//! hand a pipeline's leading `MinScore`s and first `TopKPerFamily` to the
//! scorer (`FilterPipeline::split_for_scorer`). The reference is the full
//! raw match followed by `FilterPipeline::apply`: explicitly, per component
//! and per channel, and as a whole map built under the same pipeline with
//! an identity `MinMatchedTerms(0)` in front, which ends the pushed-down
//! prefix before it starts. Both must agree bit for bit: every score, the
//! hit order, every severity mass, every channel, every Table 1 row and
//! every what-if report.
//!
//! Inputs: random pipelines in random order over every filter the scorer
//! may or may not absorb (NaN and infinite thresholds, one above every
//! score, `k` of 0, 1 and more than the hits, two `topK`s, a `minScore`
//! after a `topK`), on the seed corpus and on a small synthetic one, under
//! both scoring models, synonyms on and off, and engines with and without
//! their own `min_score` and `max_hits`.

use std::sync::OnceLock;

use cpssec_analysis::whatif::{self, ModelChange};
use cpssec_analysis::{attribute_rows, AssociationMap};
use cpssec_attackdb::seed::seed_corpus;
use cpssec_attackdb::synth::{generate, SynthSpec};
use cpssec_attackdb::{Abstraction, Corpus, Severity};
use cpssec_model::{Attribute, AttributeKind, Fidelity, SystemModel};
use cpssec_search::{Filter, FilterPipeline, MatchConfig, MatchSet, ScoringModel, SearchEngine};
use proptest::prelude::*;

/// Thresholds for `MinScore`, including the NaN and infinite ones and one
/// above every score either model produces here.
const THRESHOLDS: [f64; 9] = [
    f64::NAN,
    f64::NEG_INFINITY,
    f64::INFINITY,
    -0.0,
    0.0,
    0.4,
    1.0,
    2.5,
    1e9,
];

/// `k` for `TopKPerFamily`: none, one, a few, and more than any family's
/// hits.
const KS: [usize; 5] = [0, 1, 2, 7, 1_000_000];

const SEVERITIES: [Severity; 5] = [
    Severity::None,
    Severity::Low,
    Severity::Medium,
    Severity::High,
    Severity::Critical,
];

const VALUES: [&str; 4] = ["Windows 7", "Cisco ASA", "NI RT Linux OS", "MODBUS"];

struct World {
    corpora: [Corpus; 2],
    /// Per corpus: every (scoring, synonyms, own config) engine.
    engines: [Vec<SearchEngine>; 2],
    models: [SystemModel; 2],
}

fn engines_over(corpus: &Corpus) -> Vec<SearchEngine> {
    let index = SearchEngine::build(corpus);
    let mut engines = Vec::new();
    for expand_synonyms in [true, false] {
        let own = [
            MatchConfig::default(),
            MatchConfig {
                min_score: 0.3,
                max_hits: Some(4),
                ..MatchConfig::default()
            },
        ];
        for config in own {
            let tfidf = index.with_config(MatchConfig {
                expand_synonyms,
                ..config
            });
            engines.push(tfidf.with_scoring(ScoringModel::Bm25));
            engines.push(tfidf);
        }
    }
    engines
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let seed = seed_corpus();
        let mut synthetic = seed_corpus();
        synthetic
            .merge(generate(&SynthSpec::paper2020(5, 0.01)))
            .expect("synthetic ids are disjoint from the seed's");
        World {
            engines: [engines_over(&seed), engines_over(&synthetic)],
            corpora: [seed, synthetic],
            models: [
                cpssec_scada::model::scada_model(),
                cpssec_scada::water::water_model(),
            ],
        }
    })
}

/// One generated filter: a kind, then an index into that kind's values.
fn filter((kind, pick): (usize, usize)) -> Filter {
    match kind {
        0..=2 => Filter::MinScore(THRESHOLDS[pick % THRESHOLDS.len()]),
        3 | 4 => Filter::TopKPerFamily(KS[pick % KS.len()]),
        5 => Filter::MinMatchedTerms(pick % 4),
        6 => Filter::SeverityAtLeast(SEVERITIES[pick % SEVERITIES.len()]),
        7 => Filter::AbstractionIn(
            Abstraction::ALL
                .into_iter()
                .enumerate()
                .filter(|(i, _)| pick & (1 << i) != 0)
                .map(|(_, level)| level)
                .collect(),
        ),
        _ => Filter::DropVulnerabilities,
    }
}

fn raw_filter() -> impl Strategy<Value = (usize, usize)> {
    (0usize..9, 0usize..64)
}

/// Each hit's id, score bits and matched-term count, in order.
type HitBits = Vec<(String, u64, usize)>;

fn set_bits(set: &MatchSet) -> HitBits {
    set.iter()
        .map(|h| (h.id.to_string(), h.score.to_bits(), h.matched_terms))
        .collect()
}

/// Every component's hits and severity-mass bits, then every channel's
/// hits, in map order.
fn map_bits(map: &AssociationMap) -> Vec<(String, HitBits, u64)> {
    let components = map.iter().map(|(name, set)| {
        let mass = map.severity_mass(name).expect("component has a mass");
        (name.to_owned(), set_bits(set), mass.to_bits())
    });
    let channels = map
        .iter_channels()
        .map(|(name, set)| (name.to_owned(), set_bits(set), 0));
    components.chain(channels).collect()
}

proptest! {
    #[test]
    fn pushdown_equals_the_post_filter_path_bit_for_bit(
        corpus_index in 0usize..2,
        engine_index in 0usize..8,
        model_index in 0usize..2,
        level in 0usize..3,
        raw_filters in proptest::collection::vec(raw_filter(), 0..6),
        edit in (0usize..64, 0..VALUES.len()),
    ) {
        let world = world();
        let corpus = &world.corpora[corpus_index];
        let engine = &world.engines[corpus_index][engine_index];
        let model = &world.models[model_index];
        let level = Fidelity::ALL[level];
        let filters: FilterPipeline = raw_filters.iter().copied().map(filter).collect();
        // The identity filter in front keeps the whole pipeline residual.
        let post: FilterPipeline = std::iter::once(Filter::MinMatchedTerms(0))
            .chain(raw_filters.iter().copied().map(filter))
            .collect();
        let (_, residual) = post.split_for_scorer(engine);
        prop_assert_eq!(residual.len(), post.len());

        let map = AssociationMap::build(model, engine, corpus, level, &filters);
        for (_, component) in model.components() {
            let reference = filters.apply(&engine.match_component(component, level), corpus);
            let pushed = map.matches(component.name()).expect("every component");
            prop_assert_eq!(set_bits(pushed), set_bits(&reference));
            prop_assert_eq!(pushed, &reference);
        }
        let reference_channels: Vec<HitBits> = engine
            .par_match_channels(model, level)
            .iter()
            .map(|(_, raw)| set_bits(&filters.apply(raw, corpus)))
            .collect();
        let pushed_channels: Vec<HitBits> =
            map.iter_channels().map(|(_, set)| set_bits(set)).collect();
        prop_assert_eq!(pushed_channels, reference_channels);

        let reference_map = AssociationMap::build(model, engine, corpus, level, &post);
        prop_assert_eq!(map_bits(&map), map_bits(&reference_map));
        prop_assert_eq!(&map, &reference_map);

        prop_assert_eq!(
            attribute_rows(model, engine, corpus, level, &filters),
            attribute_rows(model, engine, corpus, level, &post)
        );

        let names: Vec<&str> = model.components().map(|(_, c)| c.name()).collect();
        let changes = [ModelChange::ReplaceAttribute {
            component: names[edit.0 % names.len()].to_owned(),
            key: AttributeKind::OperatingSystem.as_str().to_owned(),
            with: Attribute::new(AttributeKind::OperatingSystem, VALUES[edit.1])
                .at_fidelity(level),
        }];
        let served = whatif::evaluate_with_prior(model, &changes, &map, engine, corpus, &filters)
            .expect("the edit names an existing component");
        let full = whatif::evaluate(model, &changes, engine, corpus, level, &post)
            .expect("the edit names an existing component");
        prop_assert_eq!(served.score_delta.to_bits(), full.score_delta.to_bits());
        prop_assert_eq!(&served, &full);
    }
}
