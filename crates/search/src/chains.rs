//! Exploit chains across the three record families.
//!
//! "Each of these datasets contains interconnections with one another which
//! creates the possibility of capturing both the attacker's perspective
//! from attack pattern and the system owner's perspective from weakness and
//! vulnerability" (§2). A chain is one concrete story:
//! vulnerability → weakness → attack pattern.

use core::fmt;

use cpssec_attackdb::{CapecId, Corpus, CveId, CweId};

use crate::MatchSet;

/// One vulnerability → weakness → attack pattern chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExploitChain {
    /// The concrete vulnerability (system owner's view, implementation level).
    pub vulnerability: CveId,
    /// The weakness class that the vulnerability instantiates.
    pub weakness: CweId,
    /// The attack pattern that exploits the weakness (attacker's view).
    pub pattern: CapecId,
}

impl fmt::Display for ExploitChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} -> {}",
            self.vulnerability, self.weakness, self.pattern
        )
    }
}

/// Mines all chains reachable from the vulnerabilities of a match set,
/// in deterministic order, deduplicated, capped at `limit`.
///
/// The weakness and pattern ends of a chain do not need to have matched
/// the query themselves — the whole point is surfacing the attacker's
/// perspective that attribute text alone would miss.
///
/// # Examples
///
/// ```
/// use cpssec_attackdb::seed::seed_corpus;
/// use cpssec_search::{exploit_chains, SearchEngine};
///
/// let corpus = seed_corpus();
/// let engine = SearchEngine::build(&corpus);
/// let matches = engine.match_text("NI cRIO 9063");
/// let chains = exploit_chains(&matches, &corpus, 100);
/// assert!(!chains.is_empty());
/// ```
#[must_use]
pub fn exploit_chains(set: &MatchSet, corpus: &Corpus, limit: usize) -> Vec<ExploitChain> {
    let mut span = cpssec_obs::span!("chain-build");
    let mut chains = Vec::new();
    for cve in set.vulnerability_ids() {
        for cwe in corpus.weaknesses_for_vulnerability(cve) {
            for capec in corpus.patterns_for_weakness(cwe) {
                chains.push(ExploitChain {
                    vulnerability: cve,
                    weakness: cwe,
                    pattern: capec,
                });
            }
        }
    }
    chains.sort_unstable();
    chains.dedup();
    chains.truncate(limit);
    span.add_items(chains.len() as u64);
    chains
}

/// All chains through one weakness, corpus-wide: every (vulnerability,
/// pattern) pair linked by `weakness`.
#[must_use]
pub fn chains_for_weakness(corpus: &Corpus, weakness: CweId, limit: usize) -> Vec<ExploitChain> {
    let mut chains = Vec::new();
    for cve in corpus.vulnerabilities_for_weakness(weakness) {
        for capec in corpus.patterns_for_weakness(weakness) {
            chains.push(ExploitChain {
                vulnerability: cve,
                weakness,
                pattern: capec,
            });
        }
    }
    chains.sort_unstable();
    chains.dedup();
    chains.truncate(limit);
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchEngine;
    use cpssec_attackdb::seed::seed_corpus;

    #[test]
    fn chains_go_through_linked_weaknesses_only() {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let set = engine.match_text("NI cRIO 9063");
        for chain in exploit_chains(&set, &corpus, 1000) {
            let vuln = corpus.vulnerability(chain.vulnerability).unwrap();
            assert!(vuln.weaknesses().contains(&chain.weakness));
            let pattern = corpus.pattern(chain.pattern).unwrap();
            assert!(pattern.related_weaknesses().contains(&chain.weakness));
        }
    }

    #[test]
    fn crio_chain_includes_malicious_update_story() {
        // The cRIO firmware vulnerability (CWE-829) chains to the Malicious
        // Software Update pattern — the Triton-style story.
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let set = engine.match_text("NI cRIO 9064");
        let chains = exploit_chains(&set, &corpus, 1000);
        assert!(chains
            .iter()
            .any(|c| c.pattern == CapecId::new(186) && c.weakness == CweId::new(829)));
    }

    #[test]
    fn chains_are_deduplicated_and_capped() {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let set = engine.match_text("Windows 7 Cisco ASA NI cRIO 9063 Labview");
        let all = exploit_chains(&set, &corpus, usize::MAX);
        let mut sorted = all.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
        let capped = exploit_chains(&set, &corpus, 2);
        assert_eq!(capped.len(), 2);
        assert_eq!(&all[..2], &capped[..]);
    }

    #[test]
    fn weakness_pivot_enumerates_cross_product() {
        let corpus = seed_corpus();
        let cwe78 = CweId::new(78);
        let chains = chains_for_weakness(&corpus, cwe78, 1000);
        // No seed vulnerability maps to CWE-78 directly, so empty here...
        let vulns = corpus.vulnerabilities_for_weakness(cwe78).len();
        let patterns = corpus.patterns_for_weakness(cwe78).len();
        assert_eq!(chains.len(), vulns * patterns);
        // ...but a weakness with both sides populated yields chains.
        let cwe829 = CweId::new(829);
        let chains = chains_for_weakness(&corpus, cwe829, 1000);
        assert!(!chains.is_empty());
    }

    #[test]
    fn display_reads_left_to_right() {
        let chain = ExploitChain {
            vulnerability: CveId::new(2018, 16804),
            weakness: CweId::new(829),
            pattern: CapecId::new(186),
        };
        assert_eq!(chain.to_string(), "CVE-2018-16804 -> CWE-829 -> CAPEC-186");
    }

    #[test]
    fn empty_match_set_yields_no_chains() {
        let corpus = seed_corpus();
        let set = MatchSet::default();
        assert!(exploit_chains(&set, &corpus, 10).is_empty());
    }

    /// A match set containing exactly one vulnerability hit, its severity
    /// code taken from the corpus record the way the index build takes it.
    fn set_with_vulnerability(corpus: &Corpus, cve: CveId) -> MatchSet {
        let record = corpus
            .vulnerability(cve)
            .expect("the record is in the corpus");
        MatchSet {
            vulnerabilities: vec![crate::Hit {
                id: cve.into(),
                score: 1.0,
                matched_terms: 1,
                severity: crate::SeverityCode::of_vulnerability(record),
            }],
            ..MatchSet::default()
        }
    }

    #[test]
    fn one_cve_under_two_cwes_chains_through_both() {
        // NVD maps some CVEs to several CWEs; each mapping is its own
        // attacker story and none of them may be duplicated.
        use cpssec_attackdb::{Abstraction, AttackPattern, Corpus, Vulnerability, Weakness};
        let cve = CveId::new(2099, 1);
        let mut corpus = Corpus::new();
        corpus
            .add_weakness(Weakness::new(CweId::new(1), "first", "first weakness"))
            .unwrap();
        corpus
            .add_weakness(Weakness::new(CweId::new(2), "second", "second weakness"))
            .unwrap();
        corpus
            .add_pattern(
                AttackPattern::new(
                    CapecId::new(10),
                    "shared",
                    "exploits both",
                    Abstraction::Meta,
                )
                .with_weakness(CweId::new(1))
                .with_weakness(CweId::new(2)),
            )
            .unwrap();
        corpus
            .add_pattern(
                AttackPattern::new(
                    CapecId::new(20),
                    "narrow",
                    "first only",
                    Abstraction::Detailed,
                )
                .with_weakness(CweId::new(1)),
            )
            .unwrap();
        corpus
            .add_vulnerability(
                Vulnerability::new(cve, "double-classified bug")
                    .with_weakness(CweId::new(1))
                    .with_weakness(CweId::new(2)),
            )
            .unwrap();

        let chains = exploit_chains(&set_with_vulnerability(&corpus, cve), &corpus, 1000);
        // CWE-1 reaches CAPEC-10 and CAPEC-20, CWE-2 reaches CAPEC-10:
        // three distinct stories, and the shared pattern appears once per
        // weakness, never per duplicate cross-reference row.
        assert_eq!(chains.len(), 3);
        let mut deduped = chains.clone();
        deduped.dedup();
        assert_eq!(deduped.len(), chains.len());
        for cwe in [CweId::new(1), CweId::new(2)] {
            assert!(chains.iter().any(|c| c.weakness == cwe));
        }
        assert_eq!(
            chains
                .iter()
                .filter(|c| c.pattern == CapecId::new(10))
                .count(),
            2
        );
    }

    #[test]
    fn empty_cross_reference_tables_yield_no_chains() {
        // Records exist but nothing links them: an unmapped CVE and a
        // pattern with no related weaknesses leave every cross-reference
        // table empty, so chain mining finds nothing in either direction.
        use cpssec_attackdb::{Abstraction, AttackPattern, Corpus, Vulnerability, Weakness};
        let cve = CveId::new(2099, 2);
        let mut corpus = Corpus::new();
        corpus
            .add_weakness(Weakness::new(CweId::new(3), "orphan", "linked to nothing"))
            .unwrap();
        corpus
            .add_pattern(AttackPattern::new(
                CapecId::new(30),
                "floating",
                "no weakness mapping",
                Abstraction::Standard,
            ))
            .unwrap();
        corpus
            .add_vulnerability(Vulnerability::new(cve, "never classified"))
            .unwrap();

        assert!(exploit_chains(&set_with_vulnerability(&corpus, cve), &corpus, 1000).is_empty());
        assert!(chains_for_weakness(&corpus, CweId::new(3), 1000).is_empty());
        assert!(corpus.weaknesses_for_vulnerability(cve).is_empty());
        assert!(corpus.patterns_for_weakness(CweId::new(3)).is_empty());
    }
}
