//! The tail-segment proof: an engine grown by delta applies holds each
//! family as its shared base section plus a tail section with the
//! appended records, and must answer exactly as an engine rebuilt from
//! scratch over the grown corpus: same hits, same order, same `f64` score
//! bits, same matched-term counts and severity codes, under either scoring
//! model, synonyms on or off, and any thresholds. It must also encode to
//! the same snapshot bytes, leave an engine held from before the apply
//! answering as before, and fold its tails away at compaction.

use std::sync::OnceLock;

use cpssec_attackdb::seed::{seed_corpus, table1_attributes};
use cpssec_attackdb::synth::{delta_batch, stream_into, SynthSpec, DELTA_MENTION};
use cpssec_attackdb::Corpus;
use cpssec_search::{
    apply_delta, build_delta, compact_verified, compacted_id, snapshot, Hit, MatchConfig, MatchSet,
    ScoringModel, SearchEngine,
};
use proptest::prelude::*;

/// Query words: the delta feed's own vocabulary, words both the base and
/// the batches hold, synonym abbreviations, and a guaranteed miss.
const WORDS: &[&str] = &[
    "Quantumworks",
    "FlowNet",
    "gateway",
    "firmware",
    "buffer",
    "overflow",
    "remote",
    "code",
    "execution",
    "injection",
    "authentication",
    "memory",
    "os",
    "plc",
    "hmi",
    "windows",
    "linux",
    "zzz-never-indexed",
];

/// A base corpus, its engine and its snapshot id: the seed corpus alone,
/// or the seed plus the synthetic corpus at scale 0.01. Built once.
fn bases() -> &'static [(Corpus, SearchEngine, u64); 2] {
    static BASES: OnceLock<[(Corpus, SearchEngine, u64); 2]> = OnceLock::new();
    BASES.get_or_init(|| {
        [false, true].map(|synthetic| {
            let mut corpus = seed_corpus();
            if synthetic {
                stream_into(&mut corpus, &SynthSpec::paper2020(2020, 0.01))
                    .expect("disjoint id spaces");
            }
            let engine = SearchEngine::build(&corpus);
            let id = snapshot::inspect(&snapshot::encode(&corpus, &engine))
                .expect("inspect")
                .snapshot_id;
            (corpus, engine, id)
        })
    })
}

/// Every hit of a set, per family, as `(id, score bits, matched terms,
/// severity)` in rank order.
type Fingerprint = [Vec<(String, u64, usize, u8)>; 3];

/// The [`Fingerprint`] of `set`.
fn fingerprint(set: &MatchSet) -> Fingerprint {
    let hits = |hits: &[Hit]| {
        hits.iter()
            .map(|h| {
                let severity = h.severity.byte();
                (
                    h.id.to_string(),
                    h.score.to_bits(),
                    h.matched_terms,
                    severity,
                )
            })
            .collect()
    };
    [
        hits(&set.patterns),
        hits(&set.weaknesses),
        hits(&set.vulnerabilities),
    ]
}

/// Every configuration a case checks: its thresholds under both scoring
/// models, synonyms on and off.
fn configs(min_score: u32, min_terms: usize, idf_floor: u32, max_hits: usize) -> Vec<MatchConfig> {
    let mut out = Vec::new();
    for scoring in ScoringModel::ALL {
        for expand_synonyms in [false, true] {
            out.push(MatchConfig {
                idf_floor: f64::from(idf_floor) / 10.0,
                min_terms,
                min_score: f64::from(min_score) / 10.0,
                scoring,
                expand_synonyms,
                max_hits: max_hits.checked_sub(1),
            });
        }
    }
    out
}

/// The answers of `engine` to every query under every configuration.
fn answers(engine: &SearchEngine, configs: &[MatchConfig], queries: &[String]) -> Vec<Fingerprint> {
    let mut out = Vec::new();
    for &config in configs {
        let engine = engine.with_config(config);
        for query in queries {
            out.push(fingerprint(&engine.match_text(query)));
        }
    }
    out
}

proptest! {
    /// After every apply of a 1–5 delta chain, the tailed engine answers
    /// and encodes like the rebuilt one, and an engine cloned before the
    /// apply answers as it did; compaction leaves no tail and proves.
    #[test]
    fn a_tailed_engine_answers_and_encodes_like_a_rebuild(
        synthetic in any::<bool>(),
        batches in prop::collection::vec((any::<u64>(), 1usize..60), 1..6),
        words in prop::collection::vec(any::<prop::sample::Index>(), 1..6),
        thresholds in (0u32..20, 0usize..4, 0u32..40, 0usize..30),
    ) {
        let (min_score, min_terms, idf_floor, max_hits) = thresholds;
        let configs = configs(min_score, min_terms, idf_floor, max_hits);
        let mut queries: Vec<String> = table1_attributes()
            .iter()
            .map(|q| (*q).to_owned())
            .chain([DELTA_MENTION.to_owned(), "buffer overflow in the firmware".to_owned()])
            .collect();
        queries.push(
            words
                .iter()
                .map(|i| WORDS[i.index(WORDS.len())])
                .collect::<Vec<_>>()
                .join(" "),
        );

        let (base_corpus, base_engine, base_id) = &bases()[usize::from(synthetic)];
        let (mut corpus, mut engine, mut state) =
            (base_corpus.clone(), base_engine.clone(), *base_id);
        let mut records = 0;
        for (serial, &(seed, size)) in batches.iter().enumerate() {
            let held = engine.clone();
            let held_answers = answers(&held, &configs, &queries);
            let delta = build_delta(state, &delta_batch(seed, size, serial as u32));
            state = apply_delta(&mut corpus, &mut engine, &delta, state)
                .expect("delta applies")
                .child_id;
            records += size;
            prop_assert_eq!(engine.tail_len(), records, "every applied record sits in a tail");

            let rebuilt = SearchEngine::build(&corpus);
            prop_assert!(
                answers(&engine, &configs, &queries) == answers(&rebuilt, &configs, &queries),
                "after {} applies the tailed engine diverges from the rebuild",
                serial + 1
            );
            prop_assert!(
                snapshot::encode(&corpus, &engine) == snapshot::encode(&corpus, &rebuilt),
                "after {} applies the tailed engine encodes other bytes",
                serial + 1
            );
            prop_assert!(
                answers(&held, &configs, &queries) == held_answers,
                "apply {} changed the answers of an engine held from before it",
                serial + 1
            );
        }

        let folded = engine.compacted();
        prop_assert_eq!(folded.tail_len(), 0);
        prop_assert!(answers(&folded, &configs, &queries) == answers(&engine, &configs, &queries));
        let compacted = compact_verified(&corpus, &folded).expect("compaction proves");
        prop_assert!(compacted == snapshot::encode(&corpus, &SearchEngine::build(&corpus)));
        prop_assert!(compacted == compact_verified(&corpus, &engine).expect("a tailed engine proves"));
        let id = snapshot::inspect(&compacted).expect("inspect").snapshot_id;
        for engine in [&folded, &engine] {
            prop_assert_eq!(compacted_id(&corpus, engine).expect("the id's proof holds"), id);
        }
    }
}

/// A batch applied after a compaction opens a fresh tail over the folded
/// base, and the pair still answers like a rebuild.
#[test]
fn a_tail_reopens_over_a_folded_base() {
    let (base_corpus, base_engine, base_id) = &bases()[1];
    let (mut corpus, mut engine, mut state) = (base_corpus.clone(), base_engine.clone(), *base_id);
    for serial in 0..3 {
        let delta = build_delta(state, &delta_batch(11, 40, serial));
        state = apply_delta(&mut corpus, &mut engine, &delta, state)
            .expect("delta applies")
            .child_id;
        if serial == 1 {
            engine = engine.compacted();
            let compacted = compact_verified(&corpus, &engine).expect("compaction proves");
            state = snapshot::inspect(&compacted).expect("inspect").snapshot_id;
        }
    }
    assert_eq!(engine.tail_len(), 40);
    let queries: Vec<String> = [DELTA_MENTION, "buffer overflow", "Windows 7"]
        .map(str::to_owned)
        .to_vec();
    let configs = configs(0, 2, 18, 0);
    assert!(
        answers(&engine, &configs, &queries)
            == answers(&SearchEngine::build(&corpus), &configs, &queries)
    );
}
