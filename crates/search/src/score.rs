//! Scoring models and query expansion.
//!
//! The paper's prototype matches with plain keyword search; this module
//! provides the two standard lexical ranking functions so the choice can
//! be ablated (`cargo bench -p cpssec-bench --bench search_scale`), plus a
//! small domain synonym table: model attributes abbreviate ("OS", "WS",
//! "HMI") where corpus prose spells out, and expansion closes that gap.
//!
//! Weights are computed at query time from what the index stores — term
//! frequency, document length, document frequency, document count and the
//! mean length — by [`TermScorer::weight`], the one place either formula
//! is written down. Owned indices and snapshot views both score through
//! it, so their score bits agree by construction.

use core::fmt;
use core::str::FromStr;
use std::sync::OnceLock;

use crate::index::{DocId, TermLookup};

/// The lexical ranking function used for hit scores.
///
/// Both models share the hit *criteria* (distinctive term or corroborating
/// terms — see [`MatchConfig`](crate::MatchConfig)); they differ only in
/// how hits are scored and therefore ranked.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoringModel {
    /// `(1 + ln tf) · ln(N/df)`, normalized by `sqrt(|doc|)`.
    #[default]
    TfIdf,
    /// Okapi BM25 with `k1 = 1.2`, `b = 0.75`.
    Bm25,
}

impl ScoringModel {
    /// All models.
    pub const ALL: [ScoringModel; 2] = [ScoringModel::TfIdf, ScoringModel::Bm25];

    /// Canonical lowercase name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ScoringModel::TfIdf => "tfidf",
            ScoringModel::Bm25 => "bm25",
        }
    }
}

impl fmt::Display for ScoringModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ScoringModel {
    type Err = UnknownScoringModel;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScoringModel::ALL
            .iter()
            .copied()
            .find(|m| m.as_str() == s)
            .ok_or_else(|| UnknownScoringModel(s.to_owned()))
    }
}

/// Error parsing a [`ScoringModel`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScoringModel(String);

impl fmt::Display for UnknownScoringModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` is not a scoring model (tfidf, bm25)", self.0)
    }
}

impl std::error::Error for UnknownScoringModel {}

/// BM25 `k1` parameter (term-frequency saturation).
const BM25_K1: f64 = 1.2;
/// BM25 `b` parameter (length normalization).
const BM25_B: f64 = 0.75;

/// Term frequencies below this take `1 + ln tf` from a table instead of
/// calling `ln` per posting; almost every posting in a corpus falls here.
const LOG_TF_TABLE_LEN: usize = 32;

/// `1 + ln tf` for `tf < LOG_TF_TABLE_LEN`, computed by the same
/// expression as the fallback so the table changes no bits.
fn log_tf_table() -> &'static [f64; LOG_TF_TABLE_LEN] {
    static TABLE: OnceLock<[f64; LOG_TF_TABLE_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| core::array::from_fn(|tf| 1.0 + (tf as f64).ln()))
}

/// `ln(N / df)`, or `0.0` for an absent term or an empty family. This is
/// the TF-IDF idf and also the model-independent idf the hit criteria
/// compare against [`MatchConfig::idf_floor`](crate::MatchConfig).
pub(crate) fn idf(doc_count: usize, df: usize) -> f64 {
    if df == 0 || doc_count == 0 {
        return 0.0;
    }
    (doc_count as f64 / df as f64).ln()
}

/// TF-IDF length normalizer `√max(len, 1)`. It does not depend on the
/// corpus size, so an owned index keeps it as a per-document column that
/// appends never recompute.
pub(crate) fn length_norm(len: u32) -> f64 {
    f64::from(len).max(1.0).sqrt()
}

/// Mean document length in tokens, floored at `1.0` (and `1.0` for an
/// empty family) so BM25's normalizer never divides by zero.
pub(crate) fn average_length(total_tokens: u64, doc_count: usize) -> f64 {
    if doc_count == 0 {
        return 1.0;
    }
    (total_tokens as f64 / doc_count as f64).max(1.0)
}

/// One query term's per-family scoring constants, resolved once per
/// lookup so the per-posting work is a table read and a few flops.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TermScorer {
    model: ScoringModel,
    /// `ln(N/df)`, shared by TF-IDF and the hit criteria.
    pub(crate) idf: f64,
    bm25_idf: f64,
    avg: f64,
    log_tf: &'static [f64; LOG_TF_TABLE_LEN],
}

impl TermScorer {
    /// Constants for a term with document frequency `df` in a family of
    /// `doc_count` documents whose mean length is `avg`.
    pub(crate) fn new(model: ScoringModel, doc_count: usize, df: usize, avg: f64) -> Self {
        let (n, df_f) = (doc_count as f64, df as f64);
        TermScorer {
            model,
            idf: idf(doc_count, df),
            bm25_idf: ((n - df_f + 0.5) / (df_f + 0.5) + 1.0).ln(),
            avg,
            log_tf: log_tf_table(),
        }
    }

    /// The weight of one posting (`tf` occurrences in `doc`):
    ///
    /// * TF-IDF: `(1 + ln tf) · idf / √max(len, 1)`
    /// * BM25: `bm25_idf · tf(k1 + 1) / (tf + k1(1 − b + b·len/avg))`
    #[inline]
    pub(crate) fn weight<L: TermLookup>(&self, index: &L, doc: DocId, tf: u32) -> f64 {
        match self.model {
            ScoringModel::TfIdf => {
                let log_tf = self
                    .log_tf
                    .get(tf as usize)
                    .copied()
                    .unwrap_or_else(|| 1.0 + f64::from(tf).ln());
                log_tf * self.idf / index.len_norm(doc)
            }
            ScoringModel::Bm25 => {
                let tf = f64::from(tf);
                let len = f64::from(index.doc_len(doc));
                self.bm25_idf
                    * (tf * (BM25_K1 + 1.0)
                        / (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * len / self.avg)))
            }
        }
    }
}

/// Domain synonym table: `(abbreviation, expansions)`. Expansions are
/// already in normalized (stemmed) form so they can be appended directly
/// to a tokenized query.
const SYNONYMS: &[(&str, &[&str])] = &[
    ("os", &["operat", "system"]),
    ("ws", &["workstation"]),
    ("hmi", &["human", "machin", "interfac"]),
    ("plc", &["programmabl", "logic", "controller"]),
    ("rtu", &["remot", "terminal", "unit"]),
    ("sis", &["safety", "instrument", "system"]),
    ("bpcs", &["process", "control", "system"]),
    ("dcs", &["distribut", "control", "system"]),
    ("firewall", &["network", "applianc"]),
];

/// Expands a normalized query term list with domain synonyms.
///
/// Original terms are kept; expansions are appended (deduplicated). The
/// caller deduplicates the final list.
///
/// # Examples
///
/// ```
/// use cpssec_search::expand_query;
/// let expanded = expand_query(&["ni".into(), "rt".into(), "linux".into(), "os".into()]);
/// assert!(expanded.contains(&"operat".to_owned())); // stemmed "operating"
/// assert!(expanded.contains(&"linux".to_owned()));
/// ```
#[must_use]
pub fn expand_query(terms: &[String]) -> Vec<String> {
    let mut out: Vec<String> = terms.to_vec();
    for term in terms {
        if let Some((_, expansions)) = SYNONYMS.iter().find(|(abbr, _)| abbr == term) {
            for expansion in *expansions {
                if !out.iter().any(|t| t == expansion) {
                    out.push((*expansion).to_owned());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoring_model_names_round_trip() {
        for model in ScoringModel::ALL {
            assert_eq!(model.as_str().parse::<ScoringModel>().unwrap(), model);
        }
        assert!("cosine".parse::<ScoringModel>().is_err());
    }

    #[test]
    fn expansion_keeps_originals_and_deduplicates() {
        let terms = vec!["os".to_owned(), "system".to_owned()];
        let expanded = expand_query(&terms);
        assert_eq!(expanded, ["os", "system", "operat"]);
    }

    #[test]
    fn unknown_terms_pass_through_unchanged() {
        let terms = vec!["labview".to_owned()];
        assert_eq!(expand_query(&terms), ["labview"]);
    }

    #[test]
    fn synonym_expansions_are_normalized_forms() {
        use crate::text::tokenize;
        for (_, expansions) in SYNONYMS {
            for term in *expansions {
                let normalized = tokenize(term);
                assert_eq!(normalized.len(), 1, "{term}");
                assert_eq!(&normalized[0], term, "expansion must be pre-stemmed");
            }
        }
    }

    #[test]
    fn default_model_is_tfidf() {
        assert_eq!(ScoringModel::default(), ScoringModel::TfIdf);
    }

    #[test]
    fn log_tf_table_matches_the_direct_expression_bit_for_bit() {
        for (tf, &cached) in log_tf_table().iter().enumerate() {
            assert_eq!(
                cached.to_bits(),
                (1.0 + (tf as f64).ln()).to_bits(),
                "tf {tf}"
            );
        }
    }
}
