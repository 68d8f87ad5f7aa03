//! Property tests pinning the interned hot path to a naive reference
//! scorer, and the parallel fan-out to the sequential path.
//!
//! The interned engine computes each posting's weight from its stored term
//! frequency and accumulates scores through a dense scratch table; the
//! reference below recomputes everything from raw record text on every
//! query, straight from the formulas in the module docs. Identical hit sets with scores within
//! 1e-9 means the rewrite changed the mechanics, not the model.

use std::collections::BTreeMap;

use cpssec_attackdb::{AttackVectorId, Corpus, CveId, CweId, Vulnerability, Weakness};
use cpssec_model::{
    Attribute, AttributeKind, ChannelKind, ComponentKind, Fidelity, SystemModel, SystemModelBuilder,
};
use cpssec_search::text::tokenize;
use cpssec_search::{expand_query, MatchConfig, ScoringModel, SearchEngine};
use proptest::prelude::*;

/// Security-prose vocabulary with inflection families (exercising the
/// stemmer's conflation), rare product tokens (exercising the IDF floor),
/// and common glue words (exercising the min-terms corroboration rule).
const POOL: &[&str] = &[
    "buffer",
    "overflow",
    "overflows",
    "kernel",
    "remote",
    "attacker",
    "attackers",
    "crafted",
    "parse",
    "parses",
    "parsing",
    "route",
    "routes",
    "routing",
    "execute",
    "executes",
    "executing",
    "command",
    "commands",
    "injection",
    "windows",
    "linux",
    "firmware",
    "labview",
    "scada",
    "modbus",
    "plc",
    "hmi",
    "os",
    "denial",
    "service",
    "services",
    "memory",
    "corruption",
    "embedded",
    "embeds",
    "authentication",
    "bypass",
    "crio9063",
    "asa5506",
];

const BM25_K1: f64 = 1.2;
const BM25_B: f64 = 0.75;

/// One reference-scored document.
#[derive(Debug, Clone, Copy)]
struct RefHit {
    score: f64,
    matched: usize,
}

/// Scores every document of one family exactly as documented: tokenize,
/// per-term `idf = ln(N/df)`, per-model normalized weights, hit criteria
/// `max_idf >= idf_floor || matched >= min_terms`, then `min_score`.
fn reference_hits(doc_texts: &[String], query: &str, config: MatchConfig) -> Vec<Option<RefHit>> {
    let docs: Vec<Vec<String>> = doc_texts.iter().map(|t| tokenize(t)).collect();
    let n = docs.len() as f64;
    let avg = {
        let total: usize = docs.iter().map(Vec::len).sum();
        if docs.is_empty() {
            1.0
        } else {
            (total as f64 / n).max(1.0)
        }
    };
    let df = |term: &str| docs.iter().filter(|d| d.iter().any(|t| t == term)).count();

    let mut terms = tokenize(query);
    terms.sort_unstable();
    terms.dedup();
    let extras: Vec<String> = if config.expand_synonyms {
        expand_query(&terms)
            .into_iter()
            .filter(|t| !terms.contains(t))
            .collect()
    } else {
        Vec::new()
    };

    let weight = |term: &str, doc: &[String]| -> Option<f64> {
        let tf = doc.iter().filter(|t| *t == term).count();
        if tf == 0 {
            return None;
        }
        let df = df(term) as f64;
        Some(match config.scoring {
            ScoringModel::TfIdf => {
                let idf = (n / df).ln();
                (1.0 + (tf as f64).ln()) * idf / (doc.len() as f64).max(1.0).sqrt()
            }
            ScoringModel::Bm25 => {
                let bm25_idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
                let tf = tf as f64;
                let len = doc.len() as f64;
                bm25_idf * (tf * (BM25_K1 + 1.0))
                    / (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * len / avg))
            }
        })
    };

    docs.iter()
        .map(|doc| {
            let mut score = 0.0;
            let mut matched = 0;
            let mut max_idf = 0.0f64;
            for term in &terms {
                if let Some(w) = weight(term, doc) {
                    score += w;
                    matched += 1;
                    let idf = (n / df(term) as f64).ln();
                    if idf > max_idf {
                        max_idf = idf;
                    }
                }
            }
            if matched == 0 {
                return None;
            }
            for term in &extras {
                if let Some(w) = weight(term, doc) {
                    score += w;
                }
            }
            let is_hit = (max_idf >= config.idf_floor || matched >= config.min_terms)
                && score >= config.min_score;
            is_hit.then_some(RefHit { score, matched })
        })
        .collect()
}

fn sentence(indices: &[prop::sample::Index]) -> String {
    indices
        .iter()
        .map(|i| POOL[i.index(POOL.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

fn corpus_from(vuln_texts: &[String], weak_texts: &[String]) -> Corpus {
    let mut corpus = Corpus::new();
    for (i, text) in vuln_texts.iter().enumerate() {
        corpus
            .add_vulnerability(Vulnerability::new(CveId::new(2099, i as u32 + 1), text))
            .expect("unique synthetic CVE id");
    }
    for (i, text) in weak_texts.iter().enumerate() {
        corpus
            .add_weakness(Weakness::new(CweId::new(9000 + i as u32), text, text))
            .expect("unique synthetic CWE id");
    }
    corpus
}

prop_compose! {
    fn arb_config()(
        model_is_bm25 in any::<bool>(),
        expand in any::<bool>(),
        min_terms in 1usize..4,
        floor_choice in 0u8..3,
    ) -> MatchConfig {
        MatchConfig {
            idf_floor: [0.8, 1.8, 3.5][floor_choice as usize],
            min_terms,
            min_score: 0.0,
            scoring: if model_is_bm25 { ScoringModel::Bm25 } else { ScoringModel::TfIdf },
            expand_synonyms: expand,
            max_hits: None,
        }
    }
}

proptest! {
    /// The interned engine and the naive reference agree on the hit set
    /// and, within 1e-9, on every score, for both scoring models.
    #[test]
    fn interned_engine_matches_naive_reference(
        vuln_sentences in prop::collection::vec(
            prop::collection::vec(any::<prop::sample::Index>(), 2..12), 2..25),
        query_words in prop::collection::vec(any::<prop::sample::Index>(), 1..6),
        config in arb_config(),
    ) {
        let vuln_texts: Vec<String> = vuln_sentences.iter().map(|s| sentence(s)).collect();
        let corpus = corpus_from(&vuln_texts, &[]);
        let engine = SearchEngine::build(&corpus).with_config(config);
        let query = sentence(&query_words);

        let hits = engine.match_text_with(&query, &mut cpssec_search::QueryScratch::new());
        prop_assert!(hits.patterns.is_empty());
        prop_assert!(hits.weaknesses.is_empty());

        // Engine hits keyed by CVE id; reference indexed by insertion order,
        // which is exactly the synthetic CVE numbering.
        let mut engine_hits: BTreeMap<u32, (f64, usize)> = BTreeMap::new();
        for h in &hits.vulnerabilities {
            let AttackVectorId::Vulnerability(cve) = h.id else {
                panic!("vulnerability family returned {:?}", h.id);
            };
            let num: u32 = cve.to_string().rsplit('-').next().unwrap().parse().unwrap();
            engine_hits.insert(num, (h.score, h.matched_terms));
        }
        let reference = reference_hits(&vuln_texts, &query, config);
        for (i, expected) in reference.iter().enumerate() {
            let num = i as u32 + 1;
            match expected {
                Some(r) => {
                    let (score, matched) = engine_hits.remove(&num).unwrap_or_else(|| {
                        panic!("reference hit CVE-2099-{num} missing from engine (query {query:?})")
                    });
                    prop_assert!(
                        (score - r.score).abs() <= 1e-9,
                        "score mismatch on CVE-2099-{num}: engine {score} vs reference {}",
                        r.score
                    );
                    prop_assert_eq!(matched, r.matched);
                }
                None => prop_assert!(
                    !engine_hits.contains_key(&num),
                    "engine hit CVE-2099-{} that the reference rejects", num
                ),
            }
        }
        prop_assert!(engine_hits.is_empty(), "engine produced unknown hits: {engine_hits:?}");
    }

    /// The parallel fan-outs return exactly the sequential results — same
    /// order, same scores, bit for bit.
    #[test]
    fn parallel_fan_out_equals_sequential(
        vuln_sentences in prop::collection::vec(
            prop::collection::vec(any::<prop::sample::Index>(), 2..10), 5..20),
        weak_sentences in prop::collection::vec(
            prop::collection::vec(any::<prop::sample::Index>(), 2..10), 0..6),
        component_sentences in prop::collection::vec(
            prop::collection::vec(any::<prop::sample::Index>(), 1..6), 1..9),
        channel_ends in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()), 0..6),
    ) {
        let vuln_texts: Vec<String> = vuln_sentences.iter().map(|s| sentence(s)).collect();
        let weak_texts: Vec<String> = weak_sentences.iter().map(|s| sentence(s)).collect();
        let corpus = corpus_from(&vuln_texts, &weak_texts);
        let engine = SearchEngine::build(&corpus);
        let model = arb_model(&component_sentences, &channel_ends);

        for level in [Fidelity::Conceptual, Fidelity::Architectural, Fidelity::Implementation] {
            prop_assert_eq!(
                engine.par_match_model(&model, level),
                engine.match_model(&model, level)
            );
            let par_channels = engine.par_match_channels(&model, level);
            prop_assert_eq!(par_channels.len(), model.channel_count());
            for (id, set) in &par_channels {
                let (_, channel) = model
                    .channels()
                    .find(|(cid, _)| cid == id)
                    .expect("channel id from this model");
                prop_assert_eq!(set, &engine.match_channel(channel, level));
            }
        }
    }
}

/// Builds a model with one component per sentence and channels between
/// index-chosen component pairs (self-loops skipped).
fn arb_model(
    component_sentences: &[Vec<prop::sample::Index>],
    channel_ends: &[(prop::sample::Index, prop::sample::Index)],
) -> SystemModel {
    let names: Vec<String> = (0..component_sentences.len())
        .map(|i| format!("component-{i}"))
        .collect();
    let mut builder = SystemModelBuilder::new("equivalence");
    for (name, words) in names.iter().zip(component_sentences) {
        builder = builder.component(name, ComponentKind::Other).attribute(
            name,
            Attribute::new(AttributeKind::Product, sentence(words))
                .at_fidelity(Fidelity::Implementation),
        );
    }
    for (a, b) in channel_ends {
        let from = &names[a.index(names.len())];
        let to = &names[b.index(names.len())];
        if from != to {
            builder = builder.channel(from, to, ChannelKind::Ethernet);
        }
    }
    builder.build().expect("valid synthetic model")
}
