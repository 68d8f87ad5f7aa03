//! Snapshot round-trip properties: `decode(encode(corpus, engine))` must
//! preserve every record, cross-reference, and CVSS vector, and the thawed
//! index must score bit-identically at every experiment scale.
//!
//! Byte-level fixpoint (`encode(decode(bytes)) == bytes`) is the strongest
//! form of the index check: the encoding stores every term, posting
//! (`doc`, `tf`) and document length, which is all the scorer reads, so
//! byte equality of two encodings means equal scores on every query.

use cpssec_attackdb::seed::seed_corpus;
use cpssec_attackdb::synth::{delta_batch, generate, stream_into, SynthSpec};
use cpssec_attackdb::{
    Abstraction, AttackComplexity, AttackPattern, AttackVectorMetric, CapecId, Corpus, CpeName,
    CveId, CvssVector, CweId, Impact, Likelihood, PrivilegesRequired, Scope, Severity,
    UserInteraction, Vulnerability, Weakness,
};
use cpssec_search::{apply_delta, build_delta, compact_verified, snapshot, SearchEngine};
use proptest::prelude::*;

/// Word pool for synthetic descriptions (includes non-ASCII to exercise
/// string encoding).
const WORDS: &[&str] = &[
    "buffer",
    "overflow",
    "remote",
    "attacker",
    "firmware",
    "plc",
    "scada",
    "injection",
    "café",
    "Ø-ring",
    "modbus",
    "kernel",
];

fn text(indices: &[prop::sample::Index]) -> String {
    indices
        .iter()
        .map(|i| WORDS[i.index(WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

prop_compose! {
    fn arb_cvss()(
        av in 0usize..4, ac in 0usize..2, pr in 0usize..3, ui in 0usize..2,
        s in 0usize..2, c in 0usize..3, i in 0usize..3, a in 0usize..3,
    ) -> CvssVector {
        CvssVector {
            av: [
                AttackVectorMetric::Network,
                AttackVectorMetric::Adjacent,
                AttackVectorMetric::Local,
                AttackVectorMetric::Physical,
            ][av],
            ac: [AttackComplexity::Low, AttackComplexity::High][ac],
            pr: [
                PrivilegesRequired::None,
                PrivilegesRequired::Low,
                PrivilegesRequired::High,
            ][pr],
            ui: [UserInteraction::None, UserInteraction::Required][ui],
            s: [Scope::Unchanged, Scope::Changed][s],
            c: [Impact::None, Impact::Low, Impact::High][c],
            i: [Impact::None, Impact::Low, Impact::High][i],
            a: [Impact::None, Impact::Low, Impact::High][a],
        }
    }
}

/// One synthetic corpus: weaknesses first, then patterns and
/// vulnerabilities whose cross-references point into (and sometimes past)
/// the weakness id range — dangling references are legal in MITRE feeds
/// and must survive the trip too.
#[derive(Debug, Clone)]
struct ArbCorpus(Corpus);

prop_compose! {
    fn arb_corpus()(
        weak_texts in prop::collection::vec(
            prop::collection::vec(any::<prop::sample::Index>(), 1..8), 1..8),
        pattern_specs in prop::collection::vec(
            (
                prop::collection::vec(any::<prop::sample::Index>(), 1..8),
                (any::<bool>(), 0usize..5),
                (any::<bool>(), 0usize..5),
                prop::collection::vec(any::<u32>(), 0..4),
                prop::collection::vec(
                    prop::collection::vec(any::<prop::sample::Index>(), 1..4), 0..3),
            ),
            0..6),
        vuln_specs in prop::collection::vec(
            (
                prop::collection::vec(any::<prop::sample::Index>(), 1..10),
                (any::<bool>(), arb_cvss()),
                prop::collection::vec(any::<u32>(), 0..4),
                prop::collection::vec(
                    (
                        prop::collection::vec(any::<prop::sample::Index>(), 1..3),
                        (any::<bool>(),
                         prop::collection::vec(any::<prop::sample::Index>(), 1..2)),
                    ),
                    0..3),
            ),
            0..10),
    ) -> ArbCorpus {
        let mut corpus = Corpus::new();
        let weak_count = weak_texts.len() as u32;
        for (i, words) in weak_texts.iter().enumerate() {
            let t = text(words);
            corpus
                .add_weakness(
                    Weakness::new(CweId::new(100 + i as u32), &t, &t)
                        .with_platform("ICS")
                        .with_consequence(&t)
                        .with_mitigation(&t),
                )
                .unwrap();
        }
        for (i, (words, likelihood, severity, weak_refs, prereqs)) in
            pattern_specs.iter().enumerate()
        {
            let t = text(words);
            let mut p = AttackPattern::new(
                CapecId::new(500 + i as u32),
                &t,
                &t,
                Abstraction::ALL[i % 3],
            );
            if likelihood.0 {
                p = p.with_likelihood(Likelihood::ALL[likelihood.1]);
            }
            if severity.0 {
                p = p.with_severity(
                    [Severity::None, Severity::Low, Severity::Medium,
                     Severity::High, Severity::Critical][severity.1],
                );
            }
            for r in weak_refs {
                // Half resolve into the weakness range, half dangle.
                p = p.with_weakness(CweId::new(100 + r % (weak_count * 2)));
            }
            for pre in prereqs {
                p = p.with_prerequisite(text(pre));
            }
            corpus.add_pattern(p).unwrap();
        }
        for (i, (words, cvss, weak_refs, cpes)) in vuln_specs.iter().enumerate() {
            let mut v = Vulnerability::new(CveId::new(2031, i as u32 + 1), text(words));
            if cvss.0 {
                v = v.with_cvss(cvss.1);
            }
            for r in weak_refs {
                v = v.with_weakness(CweId::new(100 + r % (weak_count * 2)));
            }
            for (cpe_words, version) in cpes {
                let mut cpe = CpeName::new(text(cpe_words), text(cpe_words));
                if version.0 {
                    cpe = cpe.with_version(text(&version.1));
                }
                v = v.with_affected(cpe);
            }
            corpus.add_vulnerability(v).unwrap();
        }
        ArbCorpus(corpus)
    }
}

proptest! {
    /// Every record, cross-reference, and CVSS vector survives the
    /// snapshot round trip, and re-encoding the decoded pair reproduces
    /// the original bytes.
    #[test]
    fn snapshot_round_trip_preserves_the_corpus(arb in arb_corpus()) {
        let corpus = arb.0;
        let engine = SearchEngine::build(&corpus);
        let bytes = snapshot::encode(&corpus, &engine);
        let (decoded, thawed) = snapshot::decode(&bytes).expect("decode");

        // Corpus equality covers records AND the rebuilt reverse-link
        // index (`Corpus` compares all fields).
        prop_assert_eq!(&decoded, &corpus);

        // Spot-check the pieces the issue calls out explicitly.
        for v in corpus.vulnerabilities() {
            let d = decoded.vulnerability(v.id()).expect("vulnerability survived");
            prop_assert_eq!(d.cvss(), v.cvss(), "CVSS vector for {}", v.id());
            prop_assert_eq!(d.weaknesses(), v.weaknesses());
        }
        for p in corpus.patterns() {
            prop_assert_eq!(
                decoded.pattern(p.id()).expect("pattern survived").related_weaknesses(),
                p.related_weaknesses()
            );
        }
        for w in corpus.weaknesses() {
            prop_assert_eq!(
                decoded.patterns_for_weakness(w.id()),
                corpus.patterns_for_weakness(w.id())
            );
            prop_assert_eq!(
                decoded.vulnerabilities_for_weakness(w.id()),
                corpus.vulnerabilities_for_weakness(w.id())
            );
        }

        prop_assert_eq!(
            snapshot::encode(&decoded, &thawed),
            bytes,
            "decode → encode must be the identity"
        );
    }
}

/// At all three E7b scales, the engine thawed from a snapshot computes
/// weights bit-identical to a freshly built one: their encodings (every
/// term, posting and document length the scorer reads) are byte-equal.
#[test]
fn thawed_weights_are_bit_identical_at_all_e7b_scales() {
    for scale in [0.02, 0.1, 0.3] {
        let mut corpus = seed_corpus();
        corpus
            .merge(generate(&SynthSpec::paper2020(2020, scale)))
            .expect("disjoint id spaces");
        let fresh = SearchEngine::build(&corpus);
        let bytes = snapshot::encode(&corpus, &fresh);
        let (decoded, thawed) = snapshot::decode(&bytes).expect("decode");
        assert_eq!(
            snapshot::encode(&decoded, &thawed),
            bytes,
            "scale {scale}: thawed encoding diverged from fresh"
        );
    }
}

/// The `snapshot_id`s of the seed corpus, of the seed plus the 0.1-scale
/// synthetic corpus, and of that corpus grown by a four-delta chain and
/// compacted. The id is the checksum of the section table, which embeds
/// every section's length and payload checksum, so these three constants
/// pin every byte the encoder and the compaction write.
const PINNED_SNAPSHOT_IDS: [u64; 3] = [
    0x40b9_1bf4_4ccb_624f,
    0x1256_6c53_bb0a_08e1,
    0x7efb_c5b6_b796_d90b,
];

#[test]
fn snapshot_ids_match_the_pinned_bytes() {
    let id = |bytes: &[u8]| snapshot::inspect(bytes).expect("inspect").snapshot_id;
    let seed = seed_corpus();
    let mut scaled = seed_corpus();
    stream_into(&mut scaled, &SynthSpec::paper2020(2020, 0.1)).expect("disjoint id spaces");
    let mut ids = Vec::new();
    for corpus in [&seed, &scaled] {
        let engine = SearchEngine::build(corpus);
        ids.push(id(&snapshot::encode(corpus, &engine)));
        assert_eq!(snapshot::encoded_id(corpus, &engine), ids[ids.len() - 1]);
    }
    let (mut corpus, mut engine, mut state) =
        (scaled.clone(), SearchEngine::build(&scaled), ids[1]);
    for serial in 0..4 {
        let delta = build_delta(state, &delta_batch(7, 250, serial));
        state = apply_delta(&mut corpus, &mut engine, &delta, state)
            .expect("delta applies")
            .child_id;
    }
    ids.push(id(
        &compact_verified(&corpus, &engine).expect("compaction proves")
    ));
    assert_eq!(
        ids, PINNED_SNAPSHOT_IDS,
        "snapshot bytes moved: {ids:#018x?}"
    );
}
