//! Coverage sweep over the filter combinators and exploit-chain traversal
//! on a hand-built six-record corpus, where every link (and missing link)
//! is known exactly — unlike the seed-corpus unit tests, nothing here
//! depends on what the tokenizer happens to match.
//!
//! The corpus:
//!
//! ```text
//! CAPEC-100 (Meta, High)     -> CWE-77
//! CAPEC-200 (Standard, Med)  -> CWE-77, CWE-912   (the "cycle" edge)
//! CWE-77, CWE-912
//! CVE-2021-1000 (CVSS 9.8)   -> CWE-77, CWE-912   (closes the cycle)
//! CVE-2021-2000 (no CVSS)    -> (no weakness links)
//! ```
//!
//! The bipartite link graph contains the cycle
//! CVE-1000 – CWE-77 – CAPEC-200 – CWE-912 – CVE-1000; chain traversal
//! must terminate and deduplicate across it.

use std::str::FromStr;

use cpssec_attackdb::{
    Abstraction, AttackPattern, AttackVectorId, CapecId, Corpus, CveId, CvssVector, CweId,
    Severity, Vulnerability, Weakness,
};
use cpssec_search::{
    chains_for_weakness, exploit_chains, ExploitChain, Filter, FilterPipeline, Hit, MatchSet,
    SeverityCode,
};

const CRITICAL: &str = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H";

fn capec(n: u32) -> CapecId {
    CapecId::new(n)
}

fn cwe(n: u32) -> CweId {
    CweId::new(n)
}

fn cve(n: u32) -> CveId {
    CveId::new(2021, n)
}

/// The six-record corpus described in the module docs.
fn tiny_corpus() -> Corpus {
    let mut corpus = Corpus::new();
    corpus
        .add_pattern(
            AttackPattern::new(
                capec(100),
                "Command Injection",
                "inject commands into a shell interpreter",
                Abstraction::Meta,
            )
            .with_severity(Severity::High)
            .with_weakness(cwe(77)),
        )
        .unwrap();
    corpus
        .add_pattern(
            AttackPattern::new(
                capec(200),
                "Malicious Firmware Update",
                "plant hidden functionality through a firmware update",
                Abstraction::Standard,
            )
            .with_severity(Severity::Medium)
            .with_weakness(cwe(77))
            .with_weakness(cwe(912)),
        )
        .unwrap();
    corpus
        .add_weakness(Weakness::new(
            cwe(77),
            "Command Injection",
            "improper neutralization of special elements in a command",
        ))
        .unwrap();
    corpus
        .add_weakness(Weakness::new(
            cwe(912),
            "Hidden Functionality",
            "functionality not documented and not accessible to users",
        ))
        .unwrap();
    corpus
        .add_vulnerability(
            Vulnerability::new(cve(1000), "remote command injection in the controller")
                .with_cvss(CvssVector::from_str(CRITICAL).unwrap())
                .with_weakness(cwe(77))
                .with_weakness(cwe(912)),
        )
        .unwrap();
    corpus
        .add_vulnerability(Vulnerability::new(
            cve(2000),
            "denial of service with no classified weakness",
        ))
        .unwrap();
    corpus
}

/// A hit on a tiny-corpus record, its severity code taken from the record
/// the way the index build takes it.
fn hit(id: impl Into<AttackVectorId>, score: f64, matched_terms: usize) -> Hit {
    let (id, corpus) = (id.into(), tiny_corpus());
    let severity = match id {
        AttackVectorId::Pattern(id) => SeverityCode::of_pattern(corpus.pattern(id).unwrap()),
        AttackVectorId::Weakness(_) => SeverityCode::UNSCORED,
        AttackVectorId::Vulnerability(id) => {
            SeverityCode::of_vulnerability(corpus.vulnerability(id).unwrap())
        }
    };
    Hit {
        id,
        score,
        matched_terms,
        severity,
    }
}

/// A match set holding every record of the tiny corpus, best-first.
fn full_set() -> MatchSet {
    MatchSet {
        patterns: vec![hit(capec(100), 0.9, 3), hit(capec(200), 0.4, 1)],
        weaknesses: vec![hit(cwe(77), 0.8, 2), hit(cwe(912), 0.3, 1)],
        vulnerabilities: vec![hit(cve(1000), 0.7, 2), hit(cve(2000), 0.2, 1)],
    }
}

fn apply(filter: Filter) -> MatchSet {
    FilterPipeline::new()
        .then(filter)
        .apply(&full_set(), &tiny_corpus())
}

// --- filter combinators -------------------------------------------------

#[test]
fn min_score_prunes_every_family() {
    let filtered = apply(Filter::MinScore(0.5));
    assert_eq!(filtered.counts(), (1, 1, 1));
    assert!(filtered.iter().all(|h| h.score >= 0.5));
}

#[test]
fn min_matched_terms_prunes_every_family() {
    let filtered = apply(Filter::MinMatchedTerms(2));
    assert_eq!(filtered.counts(), (1, 1, 1));
    assert!(filtered.iter().all(|h| h.matched_terms >= 2));
}

#[test]
fn top_k_keeps_the_best_hit_per_family() {
    let filtered = apply(Filter::TopKPerFamily(1));
    assert_eq!(filtered.counts(), (1, 1, 1));
    assert_eq!(filtered.patterns[0].id, capec(100).into());
    assert_eq!(filtered.weaknesses[0].id, cwe(77).into());
    assert_eq!(filtered.vulnerabilities[0].id, cve(1000).into());
}

#[test]
fn severity_filter_uses_cvss_for_vulns_and_typical_severity_for_patterns() {
    let filtered = apply(Filter::SeverityAtLeast(Severity::High));
    // CAPEC-200 is Medium, CVE-2000 has no CVSS: both dropped.
    assert_eq!(filtered.patterns, vec![hit(capec(100), 0.9, 3)]);
    assert_eq!(filtered.vulnerabilities, vec![hit(cve(1000), 0.7, 2)]);
    // Weaknesses carry no severity and pass through untouched.
    assert_eq!(filtered.weaknesses, full_set().weaknesses);
}

#[test]
fn abstraction_filter_restricts_patterns_only() {
    let filtered = apply(Filter::AbstractionIn(vec![Abstraction::Standard]));
    assert_eq!(filtered.patterns, vec![hit(capec(200), 0.4, 1)]);
    assert_eq!(filtered.weaknesses, full_set().weaknesses);
    assert_eq!(filtered.vulnerabilities, full_set().vulnerabilities);
}

#[test]
fn cvss_range_keeps_vulns_inside_the_inclusive_band() {
    // CVE-1000 scores 9.8; the band edges are inclusive.
    let kept = apply(Filter::CvssRange { min: 9.8, max: 9.8 });
    assert_eq!(kept.vulnerabilities, vec![hit(cve(1000), 0.7, 2)]);
    // Other families never carry CVSS and are unaffected.
    assert_eq!(kept.patterns, full_set().patterns);
    assert_eq!(kept.weaknesses, full_set().weaknesses);

    // A band below 9.8 drops CVE-1000; CVE-2000 has no CVSS vector at
    // all and is dropped by any band.
    let none = apply(Filter::CvssRange { min: 0.0, max: 9.7 });
    assert!(none.vulnerabilities.is_empty());
}

#[test]
fn id_set_filter_pins_records_across_all_families() {
    let filtered = apply(Filter::IdIn(vec![
        capec(200).into(),
        cwe(912).into(),
        cve(2000).into(),
    ]));
    assert_eq!(filtered.patterns, vec![hit(capec(200), 0.4, 1)]);
    assert_eq!(filtered.weaknesses, vec![hit(cwe(912), 0.3, 1)]);
    assert_eq!(filtered.vulnerabilities, vec![hit(cve(2000), 0.2, 1)]);

    let empty = apply(Filter::IdIn(Vec::new()));
    assert_eq!(empty.total(), 0);
}

#[test]
fn drop_vulnerabilities_clears_exactly_one_family() {
    let filtered = apply(Filter::DropVulnerabilities);
    assert!(filtered.vulnerabilities.is_empty());
    assert_eq!(filtered.patterns, full_set().patterns);
    assert_eq!(filtered.weaknesses, full_set().weaknesses);
}

#[test]
fn combinators_compose_left_to_right() {
    // TopK before MinScore is not the same as after: CAPEC-200 survives
    // TopK(2) then dies to MinScore; a pinned id-set applied last can
    // only shrink further.
    let filtered = FilterPipeline::new()
        .then(Filter::TopKPerFamily(2))
        .then(Filter::MinScore(0.5))
        .then(Filter::IdIn(vec![capec(100).into(), cve(1000).into()]))
        .apply(&full_set(), &tiny_corpus());
    assert_eq!(filtered.patterns, vec![hit(capec(100), 0.9, 3)]);
    assert!(filtered.weaknesses.is_empty());
    assert_eq!(filtered.vulnerabilities, vec![hit(cve(1000), 0.7, 2)]);
}

// --- exploit chains -----------------------------------------------------

#[test]
fn chains_enumerate_the_exact_link_closure() {
    let corpus = tiny_corpus();
    let chains = exploit_chains(&full_set(), &corpus, usize::MAX);
    // CVE-1000 → CWE-77 → {CAPEC-100, CAPEC-200}, and
    // CVE-1000 → CWE-912 → CAPEC-200. CVE-2000 contributes nothing.
    let expected = vec![
        ExploitChain {
            vulnerability: cve(1000),
            weakness: cwe(77),
            pattern: capec(100),
        },
        ExploitChain {
            vulnerability: cve(1000),
            weakness: cwe(77),
            pattern: capec(200),
        },
        ExploitChain {
            vulnerability: cve(1000),
            weakness: cwe(912),
            pattern: capec(200),
        },
    ];
    assert_eq!(chains, expected);
}

#[test]
fn vulnerability_without_weakness_links_yields_no_chains() {
    let corpus = tiny_corpus();
    let orphan_only = MatchSet {
        vulnerabilities: vec![hit(cve(2000), 0.2, 1)],
        ..MatchSet::default()
    };
    assert!(exploit_chains(&orphan_only, &corpus, 100).is_empty());
}

#[test]
fn cyclic_links_terminate_and_deduplicate() {
    // CVE-1000 – CWE-77 – CAPEC-200 – CWE-912 – CVE-1000 is a cycle in
    // the link graph. Traversal is one fixed vuln→weakness→pattern walk,
    // so it terminates, and listing the same vulnerability twice in the
    // match set must not duplicate chains.
    let corpus = tiny_corpus();
    let doubled = MatchSet {
        vulnerabilities: vec![hit(cve(1000), 0.7, 2), hit(cve(1000), 0.7, 2)],
        ..MatchSet::default()
    };
    let chains = exploit_chains(&doubled, &corpus, usize::MAX);
    assert_eq!(chains.len(), 3);
    let mut deduped = chains.clone();
    deduped.dedup();
    assert_eq!(deduped.len(), chains.len());
    // CAPEC-200 is reachable through both weaknesses of the cycle.
    assert_eq!(chains.iter().filter(|c| c.pattern == capec(200)).count(), 2);
}

#[test]
fn chain_limit_caps_deterministically() {
    let corpus = tiny_corpus();
    let all = exploit_chains(&full_set(), &corpus, usize::MAX);
    let capped = exploit_chains(&full_set(), &corpus, 2);
    assert_eq!(capped.len(), 2);
    assert_eq!(&all[..2], &capped[..]);
}

#[test]
fn weakness_pivot_covers_the_cross_product() {
    let corpus = tiny_corpus();
    // CWE-77: one linked vuln × two linked patterns.
    let chains = chains_for_weakness(&corpus, cwe(77), 100);
    assert_eq!(chains.len(), 2);
    assert!(chains.iter().all(|c| c.weakness == cwe(77)));
    assert!(chains.iter().all(|c| c.vulnerability == cve(1000)));
    // A weakness nobody links to yields nothing.
    assert!(chains_for_weakness(&corpus, cwe(999), 100).is_empty());
}
