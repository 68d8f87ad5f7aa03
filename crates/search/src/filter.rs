//! Result-space filtering.
//!
//! "Running the prototype tools shows that the total number of attack
//! vectors returned by the search process is large. Filtering functionality
//! is implemented to manage these attack vectors" (§3). Filters compose into
//! a [`FilterPipeline`] applied against a corpus snapshot. The severity
//! filters read each hit's [`SeverityCode`](crate::SeverityCode), not the
//! corpus.

use cpssec_attackdb::{Abstraction, AttackVectorId, Corpus, Severity};

use crate::{Hit, MatchSet};

/// One filtering rule over a match set.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Filter {
    /// Keep hits with score at or above the threshold.
    MinScore(f64),
    /// Keep hits that matched at least this many distinct query terms.
    MinMatchedTerms(usize),
    /// Keep at most `k` best hits in each family.
    TopKPerFamily(usize),
    /// Keep vulnerabilities at or above the severity band (by CVSS), and
    /// patterns at or above it (by typical severity). Records without a
    /// severity are dropped. Weaknesses are unaffected (CWE carries none).
    SeverityAtLeast(Severity),
    /// Keep only patterns at one of the given abstraction levels; other
    /// families are unaffected.
    AbstractionIn(Vec<Abstraction>),
    /// Keep vulnerabilities whose CVSS base score lies in the inclusive
    /// `[min, max]` band; vulnerabilities without a CVSS vector are
    /// dropped. Other families are unaffected (they carry no CVSS).
    CvssRange {
        /// Inclusive lower bound on the base score.
        min: f64,
        /// Inclusive upper bound on the base score.
        max: f64,
    },
    /// Keep only hits whose id is in the given set — the analyst's
    /// "pin these records" selection. Applies across all families.
    IdIn(Vec<AttackVectorId>),
    /// Drop the vulnerability family entirely (the paper's suggestion to
    /// "abstract away vulnerabilities at the earlier stages").
    DropVulnerabilities,
}

impl Filter {
    fn apply(&self, set: &mut MatchSet, corpus: &Corpus) {
        match self {
            Filter::MinScore(threshold) => {
                retain_all(set, |h| h.score >= *threshold);
            }
            Filter::MinMatchedTerms(n) => {
                retain_all(set, |h| h.matched_terms >= *n);
            }
            Filter::TopKPerFamily(k) => {
                set.patterns.truncate(*k);
                set.weaknesses.truncate(*k);
                set.vulnerabilities.truncate(*k);
            }
            Filter::SeverityAtLeast(band) => {
                let keep = |h: &Hit| h.severity.severity().is_some_and(|s| s >= *band);
                set.vulnerabilities.retain(keep);
                set.patterns.retain(keep);
            }
            Filter::AbstractionIn(levels) => {
                set.patterns.retain(|h| match h.id {
                    AttackVectorId::Pattern(id) => corpus
                        .pattern(id)
                        .is_some_and(|p| levels.contains(&p.abstraction())),
                    _ => false,
                });
            }
            Filter::CvssRange { min, max } => {
                set.vulnerabilities
                    .retain(|h| h.severity.score().is_some_and(|s| s >= *min && s <= *max));
            }
            Filter::IdIn(ids) => {
                retain_all(set, |h| ids.contains(&h.id));
            }
            Filter::DropVulnerabilities => set.vulnerabilities.clear(),
        }
    }
}

fn retain_all(set: &mut MatchSet, keep: impl Fn(&Hit) -> bool) {
    set.patterns.retain(&keep);
    set.weaknesses.retain(&keep);
    set.vulnerabilities.retain(&keep);
}

/// An ordered sequence of filters.
///
/// # Examples
///
/// ```
/// use cpssec_attackdb::{seed::seed_corpus, Severity};
/// use cpssec_search::{Filter, FilterPipeline, SearchEngine};
///
/// let corpus = seed_corpus();
/// let engine = SearchEngine::build(&corpus);
/// let raw = engine.match_text("Windows 7");
/// let filtered = FilterPipeline::new()
///     .then(Filter::SeverityAtLeast(Severity::Critical))
///     .apply(&raw, &corpus);
/// assert!(filtered.vulnerabilities.len() <= raw.vulnerabilities.len());
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct FilterPipeline {
    filters: Vec<Filter>,
}

impl FilterPipeline {
    /// Creates an empty (identity) pipeline.
    #[must_use]
    pub fn new() -> Self {
        FilterPipeline::default()
    }

    /// Appends a filter (builder style).
    #[must_use]
    pub fn then(mut self, filter: Filter) -> Self {
        self.filters.push(filter);
        self
    }

    /// Number of filters in the pipeline.
    #[must_use]
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Whether the pipeline is the identity.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Applies every filter in order and returns the filtered set.
    #[must_use]
    pub fn apply(&self, set: &MatchSet, corpus: &Corpus) -> MatchSet {
        let mut span = cpssec_obs::span!("filter");
        let mut out = set.clone();
        for filter in &self.filters {
            filter.apply(&mut out, corpus);
        }
        span.add_items(out.total() as u64);
        out
    }
}

impl FromIterator<Filter> for FilterPipeline {
    fn from_iter<I: IntoIterator<Item = Filter>>(iter: I) -> Self {
        FilterPipeline {
            filters: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchEngine;
    use cpssec_attackdb::seed::seed_corpus;

    fn raw(query: &str) -> (MatchSet, Corpus) {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        (engine.match_text(query), corpus)
    }

    #[test]
    fn identity_pipeline_is_a_clone() {
        let (set, corpus) = raw("Windows 7");
        assert_eq!(FilterPipeline::new().apply(&set, &corpus), set);
    }

    #[test]
    fn severity_filter_keeps_only_critical() {
        let (set, corpus) = raw("Windows 7");
        let filtered = FilterPipeline::new()
            .then(Filter::SeverityAtLeast(Severity::Critical))
            .apply(&set, &corpus);
        for hit in &filtered.vulnerabilities {
            let id = hit.id.as_vulnerability().unwrap();
            assert_eq!(
                corpus.vulnerability(id).unwrap().severity(),
                Some(Severity::Critical)
            );
        }
        assert!(filtered.vulnerabilities.len() < set.vulnerabilities.len());
    }

    #[test]
    fn top_k_truncates_each_family() {
        let (set, corpus) = raw("operating system command injection platform");
        let filtered = FilterPipeline::new()
            .then(Filter::TopKPerFamily(1))
            .apply(&set, &corpus);
        assert!(filtered.patterns.len() <= 1);
        assert!(filtered.weaknesses.len() <= 1);
        assert!(filtered.vulnerabilities.len() <= 1);
    }

    #[test]
    fn abstraction_filter_restricts_patterns_only() {
        let (set, corpus) = raw("injection of commands into the operating system");
        assert!(!set.patterns.is_empty());
        let filtered = FilterPipeline::new()
            .then(Filter::AbstractionIn(vec![Abstraction::Meta]))
            .apply(&set, &corpus);
        for hit in &filtered.patterns {
            let id = hit.id.as_pattern().unwrap();
            assert_eq!(corpus.pattern(id).unwrap().abstraction(), Abstraction::Meta);
        }
        assert_eq!(filtered.weaknesses, set.weaknesses);
    }

    #[test]
    fn drop_vulnerabilities_clears_family() {
        let (set, corpus) = raw("Windows 7");
        let filtered = FilterPipeline::new()
            .then(Filter::DropVulnerabilities)
            .apply(&set, &corpus);
        assert!(filtered.vulnerabilities.is_empty());
    }

    #[test]
    fn filters_compose_in_order() {
        let (set, corpus) = raw("operating system command injection remote attacker");
        let filtered = FilterPipeline::new()
            .then(Filter::SeverityAtLeast(Severity::High))
            .then(Filter::TopKPerFamily(2))
            .apply(&set, &corpus);
        assert!(filtered.vulnerabilities.len() <= 2);
        assert!(filtered.total() <= 6);
    }

    #[test]
    fn min_matched_terms_prunes_single_term_hits() {
        let (set, corpus) = raw("Windows 7 SMB server");
        let filtered = FilterPipeline::new()
            .then(Filter::MinMatchedTerms(3))
            .apply(&set, &corpus);
        assert!(filtered.iter().all(|h| h.matched_terms >= 3));
        assert!(filtered.total() <= set.total());
    }

    #[test]
    fn pipeline_collects_from_iterator() {
        let p: FilterPipeline = [Filter::MinScore(0.1), Filter::TopKPerFamily(5)]
            .into_iter()
            .collect();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }
}
