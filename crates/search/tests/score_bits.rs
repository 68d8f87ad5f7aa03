//! Cross-version score oracle: one pinned hash over the exact score bits
//! the matcher produces on the paper's workloads.
//!
//! The hash folds `(family, id, score bits, matched terms)` of every hit
//! for the Table 1 attributes and for `match_model(scada)` at every
//! fidelity, under both scoring models with synonym expansion on and off,
//! over the seed corpus and the seed plus a 0.1-scale synthetic corpus.
//! Any change to tokenization, weighting, accumulation order, admission or
//! ranking moves it. An engine opened over the mapped snapshot must
//! reproduce the built engine's stream exactly, so both are checked
//! against the same constant.

use std::sync::Arc;

use cpssec_attackdb::seed::{seed_corpus, table1_attributes};
use cpssec_attackdb::synth::{stream_into, SynthSpec};
use cpssec_attackdb::Corpus;
use cpssec_model::{fnv1a_64_wide, Fidelity};
use cpssec_scada::model::scada_model;
use cpssec_search::{snapshot, view, MatchConfig, MatchSet, ScoringModel, SearchEngine};

/// The pinned hash of every score bit on the oracle workloads.
const SCORE_BITS_HASH: u64 = 0xb5fe_5da2_eb51_5964;

fn put_set(out: &mut Vec<u8>, set: &MatchSet) {
    for (family, hits) in [&set.patterns, &set.weaknesses, &set.vulnerabilities]
        .into_iter()
        .enumerate()
    {
        for hit in hits {
            out.push(family as u8);
            out.extend_from_slice(hit.id.to_string().as_bytes());
            out.extend_from_slice(&hit.score.to_bits().to_le_bytes());
            out.extend_from_slice(&(hit.matched_terms as u64).to_le_bytes());
        }
        // Family terminator: keeps adjacent families' hit lists apart.
        out.push(0xFF);
    }
}

fn corpora() -> [Corpus; 2] {
    let mut scaled = seed_corpus();
    stream_into(&mut scaled, &SynthSpec::paper2020(2020, 0.1)).expect("disjoint id spaces");
    [seed_corpus(), scaled]
}

fn configs() -> impl Iterator<Item = MatchConfig> {
    ScoringModel::ALL.into_iter().flat_map(|scoring| {
        [false, true].map(|expand_synonyms| MatchConfig {
            scoring,
            expand_synonyms,
            ..MatchConfig::default()
        })
    })
}

/// Serializes every oracle answer of one engine (built or mapped).
fn answers(
    match_text: impl Fn(&str) -> MatchSet,
    match_model: impl Fn(Fidelity) -> Vec<(String, MatchSet)>,
    out: &mut Vec<u8>,
) {
    for attribute in table1_attributes() {
        put_set(out, &match_text(attribute));
    }
    for level in Fidelity::ALL {
        for (component, set) in match_model(level) {
            out.extend_from_slice(component.as_bytes());
            put_set(out, &set);
        }
    }
}

#[test]
fn score_bits_match_the_pinned_hash() {
    let model = scada_model();
    let mut built = Vec::new();
    let mut mapped = Vec::new();
    for corpus in corpora() {
        let bytes: Arc<[u8]> = snapshot::encode(&corpus, &SearchEngine::build(&corpus)).into();
        let snapshot_view = view::open_verified(bytes).expect("open view");
        for config in configs() {
            let engine = SearchEngine::with_config(&corpus, config);
            answers(
                |text| engine.match_text(text),
                |level| engine.match_model(&model, level),
                &mut built,
            );
            let engine = SearchEngine::from_view(&snapshot_view, config).expect("open engine");
            answers(
                |text| engine.match_text(text),
                |level| engine.match_model(&model, level),
                &mut mapped,
            );
        }
    }
    assert!(built == mapped, "mapped answers diverge from built answers");
    let hash = fnv1a_64_wide(&built);
    assert_eq!(
        hash,
        SCORE_BITS_HASH,
        "score bits moved: {hash:#018x} over {} bytes",
        built.len()
    );
}
