//! Cross-version posture oracle: one pinned hash over the exact posture
//! bits the analysis layer produces, in the style of the search crate's
//! `score_bits.rs`.
//!
//! The hash folds, for every component, its name, its three family counts
//! and the bits of its `severity_weighted` mass and `score`, then the bits
//! of `total_score`. It covers the scada and water models at every
//! fidelity, under both scoring models, through four filter pipelines
//! (none, `topK=10`, `SeverityAtLeast(High)`, `minScore`), over the seed
//! corpus and the seed plus a 0.1-scale synthetic corpus. It also folds
//! the served what-if report (`evaluate_with_prior`: both postures and the
//! bits of `score_delta`) for edits shaped like the serving benchmark's,
//! one per edited scada component. Any change to matching, filtering, the
//! per-hit severity weights, their summation order or the roll-up moves it.

use cpssec_analysis::whatif::{self, ModelChange};
use cpssec_analysis::{AssociationMap, SystemPosture};
use cpssec_attackdb::seed::seed_corpus;
use cpssec_attackdb::synth::{stream_into, SynthSpec};
use cpssec_attackdb::{Corpus, Severity};
use cpssec_model::{fnv1a_64_wide, Attribute, AttributeKind, Fidelity, SystemModel};
use cpssec_scada::model::scada_model;
use cpssec_scada::water::water_model;
use cpssec_search::{Filter, FilterPipeline, ScoringModel, SearchEngine};

/// The pinned hash of every posture bit on the oracle workloads.
const POSTURE_BITS_HASH: u64 = 0x6f7c_c66f_a92b_f09f;

/// The scada components the serving benchmark's what-if edits touch, each
/// with the software value its edit adds.
const EDITS: [(&str, &str); 4] = [
    ("BPCS platform", "Windows 7 build 481516"),
    ("SIS platform", "NI RT Linux OS build 2342"),
    ("Programming WS", "Labview build 77"),
    ("Control firewall", "Cisco ASA build 9001"),
];

fn corpora() -> [Corpus; 2] {
    let mut scaled = seed_corpus();
    stream_into(&mut scaled, &SynthSpec::paper2020(2020, 0.1)).expect("disjoint id spaces");
    [seed_corpus(), scaled]
}

fn pipelines() -> [FilterPipeline; 4] {
    [
        FilterPipeline::new(),
        FilterPipeline::new().then(Filter::TopKPerFamily(10)),
        FilterPipeline::new().then(Filter::SeverityAtLeast(Severity::High)),
        FilterPipeline::new().then(Filter::MinScore(0.5)),
    ]
}

fn put_posture(out: &mut Vec<u8>, posture: &SystemPosture) {
    for c in &posture.components {
        out.extend_from_slice(c.component.as_bytes());
        out.push(0xFF);
        for count in [c.patterns, c.weaknesses, c.vulnerabilities] {
            out.extend_from_slice(&(count as u64).to_le_bytes());
        }
        out.extend_from_slice(&c.severity_weighted.to_bits().to_le_bytes());
        out.extend_from_slice(&c.score.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&posture.total_score.to_bits().to_le_bytes());
}

fn put_what_ifs(
    out: &mut Vec<u8>,
    model: &SystemModel,
    prior: &AssociationMap,
    engine: &SearchEngine,
    corpus: &Corpus,
    filters: &FilterPipeline,
) {
    for (component, value) in EDITS {
        let changes = [ModelChange::AddAttribute {
            component: component.to_owned(),
            attribute: Attribute::new(AttributeKind::Software, value),
        }];
        let report = whatif::evaluate_with_prior(model, &changes, prior, engine, corpus, filters)
            .expect("edited component exists");
        put_posture(out, &report.before);
        put_posture(out, &report.after);
        out.extend_from_slice(&report.score_delta.to_bits().to_le_bytes());
    }
}

#[test]
fn posture_bits_match_the_pinned_hash() {
    let models = [scada_model(), water_model()];
    let mut out = Vec::new();
    for corpus in corpora() {
        let tfidf = SearchEngine::build(&corpus);
        for scoring in ScoringModel::ALL {
            let engine = tfidf.with_scoring(scoring);
            for filters in pipelines() {
                for (m, model) in models.iter().enumerate() {
                    for level in Fidelity::ALL {
                        let map = AssociationMap::build(model, &engine, &corpus, level, &filters);
                        put_posture(&mut out, &SystemPosture::compute(model, &corpus, &map));
                        if m == 0 {
                            put_what_ifs(&mut out, model, &map, &engine, &corpus, &filters);
                        }
                    }
                }
            }
        }
    }
    let hash = fnv1a_64_wide(&out);
    assert_eq!(
        hash,
        POSTURE_BITS_HASH,
        "posture bits moved: {hash:#018x} over {} bytes",
        out.len()
    );
}
