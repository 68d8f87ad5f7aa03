//! Result-space filtering.
//!
//! "Running the prototype tools shows that the total number of attack
//! vectors returned by the search process is large. Filtering functionality
//! is implemented to manage these attack vectors" (§3). Filters compose into
//! a [`FilterPipeline`] applied against a corpus snapshot. The severity
//! filters read each hit's [`SeverityCode`](crate::SeverityCode), not the
//! corpus.
//!
//! The scorer evaluates a pipeline's leading `MinScore`s and its first
//! `TopKPerFamily` itself ([`FilterPipeline::split_for_scorer`]): the
//! thresholds fold into [`MatchConfig::min_score`] and `k` into the
//! bounded heap of [`MatchConfig::max_hits`], so keeping k hits never
//! sorts the rest. Every other filter runs here, on the scored set.
//!
//! [`MatchConfig::min_score`]: crate::MatchConfig::min_score
//! [`MatchConfig::max_hits`]: crate::MatchConfig::max_hits

use cpssec_attackdb::{Abstraction, AttackVectorId, Corpus, Severity};

use crate::{Hit, MatchSet, SearchEngine};

/// One filtering rule over a match set.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Filter {
    /// Keep hits with score at or above the threshold.
    MinScore(f64),
    /// Keep hits that matched at least this many distinct query terms.
    MinMatchedTerms(usize),
    /// Keep at most `k` best hits in each family. When nothing but
    /// `MinScore`s precedes it, [`FilterPipeline::split_for_scorer`] hands
    /// it to the scorer's bounded heap
    /// ([`max_hits`](crate::MatchConfig::max_hits)), which returns the
    /// same hits without sorting the rest; anywhere else it truncates the
    /// scored set here.
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
        self.filter(set.clone(), corpus)
    }

    /// [`Self::apply`] to a set the caller owns: the filters run in place,
    /// and an empty pipeline hands the set back untouched.
    #[must_use]
    pub fn apply_owned(&self, set: MatchSet, corpus: &Corpus) -> MatchSet {
        if self.is_empty() {
            return set;
        }
        self.filter(set, corpus)
    }

    fn filter(&self, mut set: MatchSet, corpus: &Corpus) -> MatchSet {
        let mut span = cpssec_obs::span!("filter");
        for filter in &self.filters {
            filter.apply(&mut set, corpus);
        }
        span.add_items(set.total() as u64);
        set
    }

    /// Splits off the prefix the scorer evaluates itself: the leading run
    /// of [`Filter::MinScore`]s up to and including the first
    /// [`Filter::TopKPerFamily`]. Returns `engine` under a config with
    /// those folded in, plus the residual pipeline.
    ///
    /// Matching with the returned engine and then applying the residual
    /// gives exactly what matching with `engine` and then applying `self`
    /// gives, bit for bit:
    /// - the thresholds fold into
    ///   [`min_score`](crate::MatchConfig::min_score), which admits exactly
    ///   the scores every one of them (and the config's own) admits;
    /// - `k` becomes [`max_hits`](crate::MatchConfig::max_hits) (the
    ///   smaller, if a cap is already set). Every hit the engine admits
    ///   has a non-NaN score, so a threshold keeps a best-first prefix of
    ///   each family, and "filter, then keep the best k" is the heap's
    ///   "keep the best k admitted".
    ///
    /// Any other filter ends the prefix, and so does the first `topK`:
    /// whatever follows runs on the scored set, in order.
    ///
    /// The copy shares `engine`'s indices and query counter.
    ///
    /// # Examples
    ///
    /// ```
    /// use cpssec_attackdb::seed::seed_corpus;
    /// use cpssec_search::{Filter, FilterPipeline, SearchEngine};
    ///
    /// let corpus = seed_corpus();
    /// let engine = SearchEngine::build(&corpus);
    /// let filters = FilterPipeline::new()
    ///     .then(Filter::MinScore(0.5))
    ///     .then(Filter::TopKPerFamily(2))
    ///     .then(Filter::DropVulnerabilities);
    /// let (scorer, residual) = filters.split_for_scorer(&engine);
    /// assert_eq!(scorer.config().max_hits, Some(2));
    /// assert_eq!(residual, FilterPipeline::new().then(Filter::DropVulnerabilities));
    /// let query = "operating system command injection";
    /// assert_eq!(
    ///     residual.apply(&scorer.match_text(query), &corpus),
    ///     filters.apply(&engine.match_text(query), &corpus),
    /// );
    /// ```
    #[must_use]
    pub fn split_for_scorer(&self, engine: &SearchEngine) -> (SearchEngine, FilterPipeline) {
        let mut config = engine.config();
        let mut absorbed = 0;
        for filter in &self.filters {
            match *filter {
                Filter::MinScore(threshold) => {
                    config.min_score = fold_min_score(config.min_score, threshold);
                    absorbed += 1;
                }
                Filter::TopKPerFamily(k) => {
                    config.max_hits = Some(config.max_hits.map_or(k, |cap| cap.min(k)));
                    absorbed += 1;
                    break;
                }
                _ => break,
            }
        }
        let residual = self.filters[absorbed..].iter().cloned().collect();
        (engine.with_config(config), residual)
    }
}

/// The one threshold that admits exactly the scores both `a` and `b` admit
/// under `score >= threshold`. A NaN threshold admits nothing, so it wins;
/// otherwise the larger one does.
fn fold_min_score(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
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
    fn folded_min_score_admits_exactly_what_both_thresholds_admit() {
        let values = [
            f64::NAN,
            -f64::NAN,
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -0.0,
            0.0,
            1e-310,
            f64::MIN_POSITIVE,
            0.5,
            1.5,
            f64::MAX,
            f64::INFINITY,
        ];
        for a in values {
            for b in values {
                let folded = fold_min_score(a, b);
                for score in values {
                    assert_eq!(
                        score >= folded,
                        score >= a && score >= b,
                        "config {a:?}, filter {b:?}, score {score:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_absorbs_leading_min_scores_through_the_first_top_k() {
        use crate::MatchConfig;
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let capped = engine.with_config(MatchConfig {
            min_score: f64::NAN,
            max_hits: Some(2),
            ..MatchConfig::default()
        });
        let pipeline = |filters: &[Filter]| filters.iter().cloned().collect::<FilterPipeline>();
        // (engine, pipeline, min_score, max_hits, residual filters)
        let cases = [
            (&engine, vec![], 0.0, None, 0),
            (
                &engine,
                vec![
                    Filter::MinScore(0.5),
                    Filter::MinScore(f64::NAN),
                    Filter::TopKPerFamily(3),
                    Filter::MinScore(9.0),
                ],
                f64::NAN,
                Some(3),
                1,
            ),
            (
                &engine,
                vec![
                    Filter::MinScore(f64::INFINITY),
                    Filter::MinScore(1.0),
                    Filter::TopKPerFamily(1),
                    Filter::TopKPerFamily(0),
                ],
                f64::INFINITY,
                Some(1),
                1,
            ),
            (
                &engine,
                vec![Filter::MinScore(f64::NEG_INFINITY)],
                0.0,
                None,
                0,
            ),
            (
                &engine,
                vec![Filter::MinMatchedTerms(0), Filter::TopKPerFamily(1)],
                0.0,
                None,
                2,
            ),
            (
                &engine,
                vec![
                    Filter::MinScore(0.25),
                    Filter::SeverityAtLeast(Severity::High),
                    Filter::TopKPerFamily(1),
                ],
                0.25,
                None,
                2,
            ),
            (
                &capped,
                vec![Filter::TopKPerFamily(5)],
                f64::NAN,
                Some(2),
                0,
            ),
            (
                &capped,
                vec![Filter::TopKPerFamily(1)],
                f64::NAN,
                Some(1),
                0,
            ),
        ];
        for (base, filters, min_score, max_hits, residual) in cases {
            let (scorer, rest) = pipeline(&filters).split_for_scorer(base);
            let config = scorer.config();
            assert_eq!(
                config.min_score.to_bits(),
                min_score.to_bits(),
                "{filters:?}"
            );
            assert_eq!(config.max_hits, max_hits, "{filters:?}");
            assert_eq!(rest, pipeline(&filters[filters.len() - residual..]));
            let others = |config: MatchConfig| MatchConfig {
                min_score: 0.0,
                max_hits: None,
                ..config
            };
            assert_eq!(
                others(config),
                others(base.config()),
                "only two fields move"
            );
        }
    }

    #[test]
    fn the_split_engine_counts_its_queries_as_the_original() {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let (scorer, _) = FilterPipeline::new()
            .then(Filter::TopKPerFamily(1))
            .split_for_scorer(&engine);
        let _ = scorer.match_text("Windows 7");
        assert_eq!(engine.queries_run(), 1);
    }

    #[test]
    fn apply_owned_equals_apply() {
        let (set, corpus) = raw("operating system command injection remote attacker");
        for filters in [
            FilterPipeline::new(),
            FilterPipeline::new()
                .then(Filter::SeverityAtLeast(Severity::High))
                .then(Filter::TopKPerFamily(2)),
        ] {
            assert_eq!(
                filters.apply_owned(set.clone(), &corpus),
                filters.apply(&set, &corpus)
            );
        }
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
