//! The mapped-boot proof: every query answered by a [`SearchEngine`]
//! opened over a verified snapshot view must be *byte-identical* to the
//! same query on the engine [`snapshot::decode`] restores — same hits,
//! same order, same `f64` score bits.
//!
//! Covered here: arbitrary queries under arbitrary configs (proptest),
//! the three E7b corpus scales, and the delta chain — after 1, 3, and K
//! applies, plus one verified compaction.

use std::sync::{Arc, OnceLock};

use cpssec_attackdb::seed::seed_corpus;
use cpssec_attackdb::synth::{delta_batch, stream_into, SynthSpec, DELTA_MENTION};
use cpssec_attackdb::Corpus;
use cpssec_search::{
    apply_delta, build_delta, compact_verified, snapshot, view, MatchConfig, ScoringModel,
    SearchEngine,
};
use proptest::prelude::*;

/// Query vocabulary: corpus-shaped terms, synonyms-eligible terms, the
/// delta batch's unique mention, non-ASCII, and guaranteed misses.
const WORDS: &[&str] = &[
    "buffer",
    "overflow",
    "remote",
    "code",
    "execution",
    "firmware",
    "plc",
    "scada",
    "modbus",
    "injection",
    "windows",
    "gateway",
    "historian",
    "authentication",
    "café",
    "Quantumworks",
    "FlowNet",
    "zzz-never-indexed",
];

/// Deterministic query set for the scale/delta sweeps.
const QUERIES: &[&str] = &[
    "Microsoft Windows 7 remote code execution",
    "plc firmware modbus injection",
    "buffer overflow in the scada gateway",
    "historian database authentication bypass",
    "Quantumworks FlowNet gateway",
    "zzz-never-indexed",
    "",
];

fn corpus_at(scale: f64) -> Corpus {
    let mut corpus = seed_corpus();
    stream_into(&mut corpus, &SynthSpec::paper2020(2020, scale)).expect("disjoint id spaces");
    corpus
}

/// The engine a mapped boot opens over `bytes`.
fn mapped_engine(bytes: &[u8], config: MatchConfig) -> SearchEngine {
    let mapped: Arc<[u8]> = bytes.to_vec().into();
    let view = view::open_verified(mapped).expect("open view");
    SearchEngine::from_view(&view, config).expect("open engine")
}

/// Asserts that `bytes` answers every query in `queries` identically
/// through the mapped open and the full decode, under `config`.
fn assert_equivalent(bytes: &[u8], config: MatchConfig, queries: &[String], label: &str) {
    let viewed = mapped_engine(bytes, config);
    let (_, owned) = snapshot::decode_with_config(bytes, config).expect("decode");
    for query in queries {
        assert_eq!(
            viewed.match_text(query),
            owned.match_text(query),
            "{label}: mapped and decoded engines disagree on {query:?}"
        );
    }
}

/// The small base snapshot the proptest queries against, built once.
fn base_bytes() -> &'static Vec<u8> {
    static BASE: OnceLock<Vec<u8>> = OnceLock::new();
    BASE.get_or_init(|| {
        let corpus = corpus_at(0.02);
        let engine = SearchEngine::build(&corpus);
        snapshot::encode(&corpus, &engine)
    })
}

proptest! {
    /// Any query, either scoring model, synonyms on or off: the mapped
    /// engine's MatchSet equals the decoded engine's, score bits included.
    #[test]
    fn any_query_is_byte_identical_on_the_view(
        words in prop::collection::vec(any::<prop::sample::Index>(), 0..10),
        bm25 in any::<bool>(),
        expand in any::<bool>(),
    ) {
        let query = words
            .iter()
            .map(|i| WORDS[i.index(WORDS.len())])
            .collect::<Vec<_>>()
            .join(" ");
        let config = MatchConfig {
            scoring: if bm25 { ScoringModel::Bm25 } else { ScoringModel::TfIdf },
            expand_synonyms: expand,
            ..MatchConfig::default()
        };
        assert_equivalent(base_bytes(), config, &[query], "proptest");
    }
}

/// Scales 0.02 / 0.1 / 0.3 (the E7b ladder up to the paper-shaped 11k
/// corpus): both scoring models agree between mapped and decoded.
#[test]
fn view_matches_owned_across_scales() {
    let queries: Vec<String> = QUERIES.iter().map(|q| (*q).to_owned()).collect();
    for scale in [0.02, 0.1, 0.3] {
        let corpus = corpus_at(scale);
        let engine = SearchEngine::build(&corpus);
        let bytes = snapshot::encode(&corpus, &engine);
        for scoring in [ScoringModel::TfIdf, ScoringModel::Bm25] {
            let config = MatchConfig {
                scoring,
                ..MatchConfig::default()
            };
            assert_equivalent(
                &bytes,
                config,
                &queries,
                &format!("scale {scale} {scoring:?}"),
            );
        }
    }
}

/// Grows the owned pair through K = 4 delta applies, re-encoding at the
/// 1-, 3-, and K-apply checkpoints: each intermediate snapshot answers
/// identically through mapped and decoded, the grown engine itself
/// answers like both, the delta's unique mention term
/// becomes reachable, and the final verified compaction is the same
/// bytes the canonical encoder produces.
#[test]
fn view_matches_owned_after_delta_applies_and_compaction() {
    const K: u32 = 4;
    let queries: Vec<String> = QUERIES.iter().map(|q| (*q).to_owned()).collect();
    let mut corpus = corpus_at(0.02);
    let mut engine = SearchEngine::build(&corpus);
    let bytes = snapshot::encode(&corpus, &engine);
    let mut state = snapshot::inspect(&bytes).expect("inspect").snapshot_id;

    for serial in 0..K {
        let batch = delta_batch(99, 120, serial);
        let delta = build_delta(state, &batch);
        let info = apply_delta(&mut corpus, &mut engine, &delta, state).expect("apply");
        state = info.child_id;
        let applies = serial + 1;
        if applies == 1 || applies == 3 || applies == K {
            let grown = snapshot::encode(&corpus, &engine);
            let viewed = mapped_engine(&grown, MatchConfig::default());
            for query in &queries {
                assert_eq!(
                    engine.match_text(query),
                    viewed.match_text(query),
                    "after {applies} delta applies: the merged engine diverges on {query:?}"
                );
            }
            for scoring in [ScoringModel::TfIdf, ScoringModel::Bm25] {
                let config = MatchConfig {
                    scoring,
                    ..MatchConfig::default()
                };
                assert_equivalent(
                    &grown,
                    config,
                    &queries,
                    &format!("after {applies} delta applies, {scoring:?}"),
                );
            }
            // The appended records are genuinely query-reachable on the
            // mapped side, not just equal-by-both-missing.
            assert!(
                !viewed.match_text(DELTA_MENTION).vulnerabilities.is_empty(),
                "after {applies} applies: delta mention not reachable from the view"
            );
        }
    }

    let compacted = compact_verified(&corpus, &engine).expect("compaction equivalence");
    assert_eq!(
        compacted,
        snapshot::encode(&corpus, &engine),
        "compaction must emit the canonical encoding"
    );
    let rebuilt = SearchEngine::build(&corpus);
    assert_eq!(
        compacted,
        snapshot::encode(&corpus, &rebuilt),
        "delta-grown engine must encode identically to rebuild-from-scratch"
    );
}
