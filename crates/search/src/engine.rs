//! The match engine: attribute text in, scored attack vectors out.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cpssec_attackdb::{
    AttackPattern, AttackVectorId, CapecId, Corpus, CveId, CweId, Vulnerability, Weakness,
};
use cpssec_model::{Channel, ChannelId, Component, Fidelity, SystemModel};

use crate::index::{Family, FamilyKind};
use crate::score::{expand_query, ScoringModel, TermScorer};
use crate::snapshot::SnapshotError;
use crate::text::tokenize;
use crate::view::SnapshotView;

/// Matching thresholds.
///
/// A candidate document becomes a hit when it shares with the query either
/// one *distinctive* term (IDF at or above [`idf_floor`](Self::idf_floor))
/// or at least [`min_terms`](Self::min_terms) distinct terms. This mirrors
/// keyword search over MITRE feeds: a rare product token ("LabVIEW") is
/// enough on its own, while common words must corroborate each other —
/// which is also why unspecific model text produces the "many irrelevant
/// results" the paper warns about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchConfig {
    /// IDF at or above which a single shared term makes a hit.
    pub idf_floor: f64,
    /// Number of distinct shared terms that makes a hit regardless of IDF.
    pub min_terms: usize,
    /// Hits scoring below this are dropped.
    pub min_score: f64,
    /// The ranking function for hit scores.
    pub scoring: ScoringModel,
    /// Expand queries with domain synonyms ([`expand_query`]). Expansion
    /// terms contribute to *scores* only, never to the hit criteria, so
    /// turning this on re-ranks results without changing their count.
    pub expand_synonyms: bool,
    /// Cap on hits returned per family. When set, selection runs through a
    /// bounded binary heap of size `k` instead of sorting every candidate,
    /// and returns exactly the prefix the full sort would have: the heap's
    /// ordering is the same `f64::total_cmp`-then-id comparator.
    pub max_hits: Option<usize>,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            idf_floor: 1.8,
            min_terms: 2,
            min_score: 0.0,
            scoring: ScoringModel::TfIdf,
            expand_synonyms: true,
            max_hits: None,
        }
    }
}

/// One matched record with its relevance evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// The matched record.
    pub id: AttackVectorId,
    /// Length-normalized TF-IDF score; higher is more relevant.
    pub score: f64,
    /// Number of distinct query terms found in the record.
    pub matched_terms: usize,
}

/// The association of attack vectors to one queried model element: the
/// "main output" of the paper's toolchain.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MatchSet {
    /// Matched attack patterns, best first.
    pub patterns: Vec<Hit>,
    /// Matched weaknesses, best first.
    pub weaknesses: Vec<Hit>,
    /// Matched vulnerabilities, best first.
    pub vulnerabilities: Vec<Hit>,
}

impl MatchSet {
    /// `(patterns, weaknesses, vulnerabilities)` counts — one Table 1 row.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        (
            self.patterns.len(),
            self.weaknesses.len(),
            self.vulnerabilities.len(),
        )
    }

    /// Total hits across the three families.
    #[must_use]
    pub fn total(&self) -> usize {
        self.patterns.len() + self.weaknesses.len() + self.vulnerabilities.len()
    }

    /// Whether nothing matched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Iterates over all hits, patterns first.
    pub fn iter(&self) -> impl Iterator<Item = &Hit> {
        self.patterns
            .iter()
            .chain(self.weaknesses.iter())
            .chain(self.vulnerabilities.iter())
    }

    /// The matched pattern ids, best first.
    #[must_use]
    pub fn pattern_ids(&self) -> Vec<CapecId> {
        self.patterns
            .iter()
            .filter_map(|h| h.id.as_pattern())
            .collect()
    }

    /// The matched weakness ids, best first.
    #[must_use]
    pub fn weakness_ids(&self) -> Vec<CweId> {
        self.weaknesses
            .iter()
            .filter_map(|h| h.id.as_weakness())
            .collect()
    }

    /// The matched vulnerability ids, best first.
    #[must_use]
    pub fn vulnerability_ids(&self) -> Vec<CveId> {
        self.vulnerabilities
            .iter()
            .filter_map(|h| h.id.as_vulnerability())
            .collect()
    }
}

/// Per-document accumulator slot in the dense scratch table.
#[derive(Debug, Clone, Copy, Default)]
struct Accum {
    score: f64,
    matched: u32,
    max_idf: f64,
}

/// Reusable dense accumulation state for one thread's queries.
///
/// The table has one slot per document of the largest family index; a query
/// touches only the slots on its postings lists (tracked in `touched`) and
/// resets exactly those afterwards, so reuse costs `O(postings touched)`,
/// not `O(corpus)`. [`SearchEngine::match_text`] keeps one per thread
/// automatically; [`SearchEngine::match_text_with`] lets a caller own one
/// explicitly across many queries.
#[derive(Debug, Default)]
pub struct QueryScratch {
    accum: Vec<Accum>,
    touched: Vec<u32>,
}

impl QueryScratch {
    /// Creates an empty scratch; it grows to fit the first engine it serves.
    #[must_use]
    pub fn new() -> Self {
        QueryScratch::default()
    }

    fn ensure(&mut self, len: usize) {
        if self.accum.len() < len {
            self.accum.resize(len, Accum::default());
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// The search engine: three per-family indices over one corpus snapshot.
///
/// Building is `O(total corpus text)` (the three family indices build on
/// separate threads); matching is `O(postings touched)`, with each
/// posting's weight computed from its stored term frequency. Each family
/// is held as its columnar snapshot section, whether it was built here,
/// decoded from a `.cpsnap` or opened over a mapped one, and sits behind
/// an `Arc`, so engines that differ only in configuration share it. The
/// engine holds no reference to the corpus — record ids are the currency
/// between the two.
///
/// # Examples
///
/// ```
/// use cpssec_attackdb::seed::seed_corpus;
/// use cpssec_search::SearchEngine;
///
/// let corpus = seed_corpus();
/// let engine = SearchEngine::build(&corpus);
/// let hits = engine.match_text("NI cRIO 9063");
/// assert_eq!(hits.vulnerabilities.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SearchEngine {
    config: MatchConfig,
    /// Patterns, weaknesses, vulnerabilities.
    families: [Arc<Family>; 3],
    /// Lifetime query counter, shared across clones of this engine so the
    /// incremental-association tests (and the server's metrics) can observe
    /// exactly how many matcher runs an operation cost.
    queries: Arc<AtomicU64>,
}

impl SearchEngine {
    /// Indexes a corpus with the default [`MatchConfig`].
    #[must_use]
    pub fn build(corpus: &Corpus) -> Self {
        SearchEngine::with_config(corpus, MatchConfig::default())
    }

    /// Indexes a corpus with an explicit configuration. The three family
    /// indices are independent, so they build on separate scoped threads
    /// (and large families shard further inside
    /// [`InvertedIndex::from_documents`](crate::InvertedIndex::from_documents)).
    #[must_use]
    pub fn with_config(corpus: &Corpus, config: MatchConfig) -> Self {
        let families = build_families(
            corpus.patterns(),
            corpus.weaknesses(),
            corpus.vulnerabilities(),
        );
        SearchEngine::from_families(config, families)
    }

    /// Opens an engine over a snapshot view. The three family sections are
    /// copied out of the image, so the engine outlives it, and each is
    /// validated in full ([`crate::snapshot::decode`] runs the same
    /// checks): an engine that opens answers every query.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming the first structural fault in a
    /// family section.
    pub fn from_view(view: &SnapshotView, config: MatchConfig) -> Result<Self, SnapshotError> {
        SearchEngine::from_sections(view.family_sections(), config)
    }

    /// Opens an engine over three family section payloads (patterns,
    /// weaknesses, vulnerabilities), copying and validating each.
    pub(crate) fn from_sections(
        sections: [&[u8]; 3],
        config: MatchConfig,
    ) -> Result<Self, SnapshotError> {
        let [p, w, v] = sections;
        let families = [
            Family::open(FamilyKind::Patterns, p.to_vec())?,
            Family::open(FamilyKind::Weaknesses, w.to_vec())?,
            Family::open(FamilyKind::Vulnerabilities, v.to_vec())?,
        ];
        Ok(SearchEngine::from_families(config, families))
    }

    fn from_families(config: MatchConfig, families: [Family; 3]) -> SearchEngine {
        SearchEngine {
            config,
            families: families.map(Arc::new),
            queries: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The three families (patterns, weaknesses, vulnerabilities).
    pub(crate) fn families(&self) -> [&Family; 3] {
        let [p, w, v] = &self.families;
        [p, w, v]
    }

    /// Appends one batch per family, as documents after the family's own:
    /// each non-empty batch is merged into a new family
    /// ([`Family::merge`]), so engines sharing the old one never see it.
    pub(crate) fn append(&mut self, batches: [Family; 3]) {
        for (family, batch) in self.families.iter_mut().zip(batches) {
            if batch.doc_count() > 0 {
                *family = Arc::new(family.merge(&batch));
            }
        }
    }

    /// A copy of this engine under a different scoring model. Weights are
    /// computed at query time, so the copy shares this engine's indices
    /// (three `Arc` bumps) — this is how a server derives its BM25 engine
    /// without a second index.
    #[must_use]
    pub fn with_scoring(&self, scoring: ScoringModel) -> SearchEngine {
        let mut engine = self.clone();
        engine.config.scoring = scoring;
        engine.queries = Arc::new(AtomicU64::new(0));
        engine
    }

    /// Number of queries this engine (and its clones) has run so far.
    #[must_use]
    pub fn queries_run(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> MatchConfig {
        self.config
    }

    /// Matches free text (an attribute value, a component description)
    /// against all three families, using a per-thread [`QueryScratch`].
    #[must_use]
    pub fn match_text(&self, text: &str) -> MatchSet {
        SCRATCH.with(|scratch| self.match_text_with(text, &mut scratch.borrow_mut()))
    }

    /// [`Self::match_text`] with an explicitly owned scratch, for callers
    /// running many queries that want to control allocator traffic.
    #[must_use]
    pub fn match_text_with(&self, text: &str, scratch: &mut QueryScratch) -> MatchSet {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let (terms, extras) = prepare_query(text, self.config.expand_synonyms);
        self.match_terms(&terms, &extras, scratch)
    }

    fn match_terms(
        &self,
        terms: &[String],
        extras: &[String],
        scratch: &mut QueryScratch,
    ) -> MatchSet {
        let mut span = cpssec_obs::span!("score");
        let [p, w, v] = self.families();
        let set = MatchSet {
            patterns: run_family(p, terms, extras, self.config, scratch),
            weaknesses: run_family(w, terms, extras, self.config, scratch),
            vulnerabilities: run_family(v, terms, extras, self.config, scratch),
        };
        span.add_items(set.total() as u64);
        set
    }

    /// Matches one component's searchable text at a fidelity level.
    #[must_use]
    pub fn match_component(&self, component: &Component, level: Fidelity) -> MatchSet {
        self.match_text(&component.search_text(level))
    }

    /// Matches one channel's searchable text at a fidelity level — the
    /// paper's "interactions" are model elements too, and protocol
    /// attributes on them ("MODBUS/TCP") match protocol-level records.
    #[must_use]
    pub fn match_channel(&self, channel: &Channel, level: Fidelity) -> MatchSet {
        self.match_text(&channel.search_text(level))
    }

    /// Matches every component of a model at a fidelity level, keyed by
    /// component name, in model insertion order.
    #[must_use]
    pub fn match_model(&self, model: &SystemModel, level: Fidelity) -> Vec<(String, MatchSet)> {
        model
            .components()
            .map(|(_, c)| (c.name().to_owned(), self.match_component(c, level)))
            .collect()
    }

    /// [`Self::match_model`] with the component fan-out spread across scoped
    /// threads. Output is identical (same order, same scores): each thread
    /// writes a disjoint chunk of the result vector, and per-component
    /// matching is already deterministic.
    #[must_use]
    pub fn par_match_model(&self, model: &SystemModel, level: Fidelity) -> Vec<(String, MatchSet)> {
        let components: Vec<&Component> = model.components().map(|(_, c)| c).collect();
        par_fan_out(&components, |c| {
            (c.name().to_owned(), self.match_component(c, level))
        })
    }

    /// Matches every channel of a model at a fidelity level, in channel
    /// insertion order, with the fan-out spread across scoped threads.
    #[must_use]
    pub fn par_match_channels(
        &self,
        model: &SystemModel,
        level: Fidelity,
    ) -> Vec<(ChannelId, MatchSet)> {
        let channels: Vec<(ChannelId, &Channel)> = model.channels().collect();
        par_fan_out(&channels, |&(id, channel)| {
            (id, self.match_channel(channel, level))
        })
    }
}

/// Indexes one run of records per family, each in id order, into its
/// family section: for an engine build and for a delta's batch. Patterns
/// and weaknesses build on scoped threads beside the vulnerabilities.
pub(crate) fn build_families<'a>(
    patterns: impl Iterator<Item = &'a AttackPattern> + Send,
    weaknesses: impl Iterator<Item = &'a Weakness> + Send,
    vulnerabilities: impl Iterator<Item = &'a Vulnerability>,
) -> [Family; 3] {
    std::thread::scope(|s| {
        let patterns = s.spawn(|| {
            let records = patterns.map(|p| (p.search_text(), p.id().into()));
            Family::build(FamilyKind::Patterns, records)
        });
        let weaknesses = s.spawn(|| {
            let records = weaknesses.map(|w| (w.search_text(), w.id().into()));
            Family::build(FamilyKind::Weaknesses, records)
        });
        let records = vulnerabilities.map(|v| (v.search_text(), v.id().into()));
        let vulnerabilities = Family::build(FamilyKind::Vulnerabilities, records);
        [
            patterns.join().expect("pattern index build"),
            weaknesses.join().expect("weakness index build"),
            vulnerabilities,
        ]
    })
}

/// Fan-outs smaller than this run sequentially: spawning a scoped thread
/// costs ~50–100 µs while one matcher query at paper scale runs in ~10 µs,
/// so parallelism only pays once a chunk amortizes the spawn (E7b measured
/// `par_match_model` at 166 µs vs 100 µs sequential on the 8-component
/// model; the tuning sweep is recorded in EXPERIMENTS §E12b).
const PAR_FAN_OUT_MIN: usize = 32;

/// Runs `work` over `items`, splitting the slice into one contiguous chunk
/// per available core; each scoped thread fills a disjoint chunk of the
/// output, preserving input order exactly. Inputs below [`PAR_FAN_OUT_MIN`]
/// run on the calling thread — same results, no spawn overhead.
fn par_fan_out<T: Sync, R: Send>(items: &[T], work: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if items.is_empty() {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(items.len());
    if items.len() < PAR_FAN_OUT_MIN || threads == 1 {
        return items.iter().map(work).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        for (item_chunk, out_chunk) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(|| {
                for (item, slot) in item_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(work(item));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every chunk is filled"))
        .collect()
}

/// Ranks `a` against `b` best-first: descending score, ties broken by
/// ascending id. `total_cmp` keeps the order total even if a pathological
/// configuration (e.g. NaN `min_score` arithmetic upstream) ever produces
/// a NaN score — the pipeline must degrade to a deterministic order, never
/// panic. The order is *strict* (ids are unique per family), so top-k
/// selection through a heap returns exactly the sorted prefix.
fn rank(a: &Hit, b: &Hit) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id))
}

/// Sorts hits best-first under [`rank`].
fn sort_hits(hits: &mut [Hit]) {
    hits.sort_by(rank);
}

/// A [`Hit`] ordered by [`rank`] so a max-[`BinaryHeap`] keeps its
/// worst-ranked element on top, ready to evict.
///
/// [`BinaryHeap`]: std::collections::BinaryHeap
struct Ranked(Hit);

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        rank(&self.0, &other.0).is_eq()
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        rank(&self.0, &other.0)
    }
}

/// Bounded top-k selection: feeds `hits` through a k-element binary heap
/// and returns the best `k` in [`rank`] order — element for element what
/// `sort_hits` + truncate would produce, in `O(n log k)` instead of
/// `O(n log n)` and without materializing all candidates.
fn top_k_hits(hits: impl Iterator<Item = Hit>, k: usize) -> Vec<Hit> {
    use std::collections::BinaryHeap;
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<Ranked> = BinaryHeap::with_capacity(k + 1);
    for hit in hits {
        if heap.len() < k {
            heap.push(Ranked(hit));
        } else if let Some(worst) = heap.peek() {
            if rank(&hit, &worst.0).is_lt() {
                heap.pop();
                heap.push(Ranked(hit));
            }
        }
    }
    // Ascending under `Ord` = best-first under `rank`.
    heap.into_sorted_vec().into_iter().map(|r| r.0).collect()
}

/// Normalizes query text into sorted, deduplicated terms plus (when
/// `expand` is set) the synonym-expansion extras that are genuinely new.
fn prepare_query(text: &str, expand: bool) -> (Vec<String>, Vec<String>) {
    let mut span = cpssec_obs::span!("tokenize");
    let mut terms = tokenize(text);
    terms.sort_unstable();
    terms.dedup();
    let extras: Vec<String> = if expand {
        // Keep only genuinely new terms as score-bonus terms.
        expand_query(&terms)
            .into_iter()
            .filter(|t| !terms.contains(t))
            .collect()
    } else {
        Vec::new()
    };
    span.add_items(terms.len() as u64);
    (terms, extras)
}

/// Scores one family and returns the admitted hits.
fn run_family(
    family: &Family,
    terms: &[String],
    extras: &[String],
    config: MatchConfig,
    scratch: &mut QueryScratch,
) -> Vec<Hit> {
    let (doc_count, avg) = (family.doc_count(), family.avg_len());
    scratch.ensure(doc_count);
    for term in terms {
        let Some(postings) = family.postings(term) else {
            continue;
        };
        let scorer = TermScorer::new(config.scoring, doc_count, postings.len(), avg);
        let idf = scorer.idf;
        for (doc, tf) in postings {
            let slot = &mut scratch.accum[doc];
            if slot.matched == 0 {
                scratch.touched.push(doc as u32);
            }
            slot.score += scorer.weight(family, doc, tf);
            slot.matched += 1;
            if idf > slot.max_idf {
                slot.max_idf = idf;
            }
        }
    }
    // Synonym-expansion terms only refine the scores of documents that
    // already matched an original term — they never create hits.
    for term in extras {
        let Some(postings) = family.postings(term) else {
            continue;
        };
        let scorer = TermScorer::new(config.scoring, doc_count, postings.len(), avg);
        for (doc, tf) in postings {
            let slot = &mut scratch.accum[doc];
            if slot.matched > 0 {
                slot.score += scorer.weight(family, doc, tf);
            }
        }
    }
    let candidates = scratch.touched.iter().filter_map(|&doc| {
        let acc = scratch.accum[doc as usize];
        let admitted = (acc.max_idf >= config.idf_floor
            || acc.matched as usize >= config.min_terms)
            && acc.score >= config.min_score;
        admitted.then(|| Hit {
            id: family.id(doc as usize),
            score: acc.score,
            matched_terms: acc.matched as usize,
        })
    });
    let hits = match config.max_hits {
        // Capped: bounded-heap selection, O(candidates · log k).
        Some(k) => top_k_hits(candidates, k),
        None => {
            let mut hits: Vec<Hit> = candidates.collect();
            sort_hits(&mut hits);
            hits
        }
    };
    // Reset exactly the slots this query touched so the table is clean for
    // the next family/query without an O(corpus) sweep.
    for &doc in &scratch.touched {
        scratch.accum[doc as usize] = Accum::default();
    }
    scratch.touched.clear();
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::seed::{seed_corpus, table1_attributes};
    use cpssec_attackdb::synth::{generate, SynthSpec};
    use cpssec_model::{Attribute, AttributeKind, ComponentKind};

    fn engine() -> SearchEngine {
        SearchEngine::build(&seed_corpus())
    }

    #[test]
    fn rare_product_token_alone_is_a_hit() {
        let hits = engine().match_text("Labview");
        assert_eq!(hits.vulnerabilities.len(), 3);
        assert!(hits.patterns.is_empty());
        assert!(hits.weaknesses.is_empty());
    }

    #[test]
    fn crio_models_share_their_vulnerabilities() {
        let e = engine();
        let v9063 = e.match_text("NI cRIO 9063").vulnerability_ids();
        let v9064 = e.match_text("NI cRIO 9064").vulnerability_ids();
        assert_eq!(v9063.len(), 3);
        assert_eq!(v9063, v9064);
    }

    #[test]
    fn crio_query_does_not_leak_into_linux_corpus() {
        // "NI cRIO 9063" shares only the weak token "ni" with RT Linux
        // records; that must not be enough.
        let hits = engine().match_text("NI cRIO 9063");
        for id in hits.vulnerability_ids() {
            assert!(
                id.to_string().contains("CVE-2017-2778")
                    || id.to_string().contains("CVE-2018-16804")
                    || id.to_string().contains("CVE-2019-9997")
            );
        }
    }

    #[test]
    fn two_common_terms_corroborate() {
        let hits = engine().match_text("Windows 7");
        assert_eq!(hits.vulnerabilities.len(), 4);
    }

    #[test]
    fn scores_are_sorted_descending() {
        let hits = engine().match_text("Cisco ASA firewall software");
        let scores: Vec<f64> = hits.vulnerabilities.iter().map(|h| h.score).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
        assert!(scores.iter().all(|s| *s > 0.0));
    }

    #[test]
    fn empty_query_matches_nothing() {
        assert!(engine().match_text("").is_empty());
        assert!(engine().match_text("&&& !!!").is_empty());
    }

    #[test]
    fn unrelated_query_matches_nothing() {
        assert!(engine().match_text("zephyr marmalade").is_empty());
    }

    #[test]
    fn match_component_respects_fidelity() {
        let e = engine();
        let comp = cpssec_model::Component::new("Programming WS", ComponentKind::Workstation)
            .with_attribute(
                Attribute::new(AttributeKind::OperatingSystem, "Windows 7")
                    .at_fidelity(Fidelity::Implementation),
            );
        let abstract_hits = e.match_component(&comp, Fidelity::Conceptual);
        let concrete_hits = e.match_component(&comp, Fidelity::Implementation);
        assert!(concrete_hits.vulnerabilities.len() > abstract_hits.vulnerabilities.len());
    }

    #[test]
    fn counts_form_a_table1_row() {
        let hits = engine().match_text("Cisco ASA");
        let (p, w, v) = hits.counts();
        assert_eq!(v, 3);
        assert_eq!(p + w, 0);
        assert_eq!(hits.total(), 3);
    }

    #[test]
    fn query_counter_counts_matches_and_is_shared_by_clones() {
        let e = engine();
        assert_eq!(e.queries_run(), 0);
        let _ = e.match_text("Windows 7");
        let clone = e.clone();
        let _ = clone.match_text("Cisco ASA");
        assert_eq!(e.queries_run(), 2);
        assert_eq!(clone.queries_run(), 2);
    }

    #[test]
    fn match_is_deterministic() {
        let e = engine();
        assert_eq!(e.match_text("Windows 7"), e.match_text("Windows 7"));
    }

    #[test]
    fn explicit_scratch_reuse_matches_thread_local_path() {
        let e = engine();
        let mut scratch = QueryScratch::new();
        for query in ["Windows 7", "Cisco ASA", "NI RT Linux OS", "Labview"] {
            assert_eq!(e.match_text_with(query, &mut scratch), e.match_text(query));
        }
    }

    #[test]
    fn synthetic_corpus_reproduces_table1_shape() {
        let mut corpus = seed_corpus();
        corpus
            .merge(generate(&SynthSpec::paper2020(7, 0.02)))
            .unwrap();
        let e = SearchEngine::build(&corpus);
        let rows: Vec<(usize, usize, usize)> = table1_attributes()
            .iter()
            .map(|attr| e.match_text(attr).counts())
            .collect();
        let (cisco, linux, win7, labview, crio63, crio64) =
            (rows[0], rows[1], rows[2], rows[3], rows[4], rows[5]);
        // Vulnerabilities dominate for commodity platforms.
        assert!(cisco.2 > 30, "cisco: {cisco:?}");
        assert!(linux.2 > win7.2, "linux {linux:?} vs win7 {win7:?}");
        assert!(win7.2 > cisco.2, "win7 {win7:?} vs cisco {cisco:?}");
        // Patterns/weaknesses only for OS-level attributes.
        assert!(linux.0 >= 50 && linux.1 >= 70, "linux {linux:?}");
        assert!(win7.0 >= 40 && win7.1 >= 70, "win7 {win7:?}");
        // Niche rows stay tiny.
        assert_eq!(labview.0, 0);
        assert_eq!(labview.1, 0);
        assert_eq!(labview.2, 6);
        assert_eq!(crio63, crio64);
        assert_eq!(crio63.2, 7);
        assert_eq!(crio63.0, 0);
    }

    #[test]
    fn lower_idf_floor_widens_results() {
        let corpus = seed_corpus();
        let strict = SearchEngine::with_config(
            &corpus,
            MatchConfig {
                idf_floor: 5.0,
                min_terms: 3,
                ..MatchConfig::default()
            },
        );
        let loose = SearchEngine::with_config(
            &corpus,
            MatchConfig {
                idf_floor: 0.5,
                min_terms: 1,
                ..MatchConfig::default()
            },
        );
        let q = "Windows 7 workstation";
        assert!(loose.match_text(q).total() >= strict.match_text(q).total());
    }

    #[test]
    fn min_score_prunes_weak_hits() {
        let corpus = seed_corpus();
        let base = SearchEngine::build(&corpus);
        let all = base.match_text("Microsoft Windows 7 SMB remote code execution");
        let strict = SearchEngine::with_config(
            &corpus,
            MatchConfig {
                min_score: 1.5,
                ..MatchConfig::default()
            },
        );
        let pruned = strict.match_text("Microsoft Windows 7 SMB remote code execution");
        assert!(pruned.total() < all.total());
        assert!(pruned.iter().all(|h| h.score >= 1.5));
    }

    #[test]
    fn pathological_min_score_is_nan_safe() {
        // A NaN min_score poisons the `score >= min_score` comparison (all
        // comparisons with NaN are false), so every hit is pruned — but
        // nothing may panic, and the outcome must be deterministic.
        let corpus = seed_corpus();
        let nan_floor = SearchEngine::with_config(
            &corpus,
            MatchConfig {
                min_score: f64::NAN,
                ..MatchConfig::default()
            },
        );
        let hits = nan_floor.match_text("Microsoft Windows 7 SMB remote code execution");
        assert!(hits.is_empty(), "NaN threshold admits nothing");
        // An infinite idf_floor with min_terms = 0 admits every touched
        // document; ordering still must not panic on any score pattern.
        let admit_all = SearchEngine::with_config(
            &corpus,
            MatchConfig {
                idf_floor: f64::INFINITY,
                min_terms: 0,
                min_score: f64::NEG_INFINITY,
                ..MatchConfig::default()
            },
        );
        let a = admit_all.match_text("Microsoft Windows 7 SMB remote code execution");
        let b = admit_all.match_text("Microsoft Windows 7 SMB remote code execution");
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn sort_hits_orders_nan_scores_deterministically() {
        let hit = |n: u32, score: f64| Hit {
            id: AttackVectorId::Vulnerability(CveId::new(2020, n)),
            score,
            matched_terms: 1,
        };
        let mut a = vec![hit(1, f64::NAN), hit(2, 1.0), hit(3, f64::NAN), hit(4, 2.0)];
        let mut b = a.clone();
        b.reverse();
        sort_hits(&mut a);
        sort_hits(&mut b);
        // No panic, and the order is total: both permutations agree on the
        // id sequence (NaN != NaN blocks whole-Hit equality).
        let ids = |hits: &[Hit]| hits.iter().map(|h| h.id).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
        // NaN sorts above +inf under total_cmp, finite scores keep their
        // descending order after it.
        assert!(a[0].score.is_nan() && a[1].score.is_nan());
        assert_eq!(a[2].score, 2.0);
        assert_eq!(a[3].score, 1.0);
    }

    #[test]
    fn max_hits_heap_returns_exactly_the_sorted_prefix() {
        let mut corpus = seed_corpus();
        corpus
            .merge(generate(&SynthSpec::paper2020(11, 0.05)))
            .unwrap();
        let unbounded = SearchEngine::build(&corpus);
        for k in [0, 1, 2, 3, 7, 25, 10_000] {
            let capped = SearchEngine::with_config(
                &corpus,
                MatchConfig {
                    max_hits: Some(k),
                    ..MatchConfig::default()
                },
            );
            for query in table1_attributes() {
                let full = unbounded.match_text(query);
                let bounded = capped.match_text(query);
                for (all, cut) in [
                    (&full.patterns, &bounded.patterns),
                    (&full.weaknesses, &bounded.weaknesses),
                    (&full.vulnerabilities, &bounded.vulnerabilities),
                ] {
                    assert_eq!(
                        &all[..k.min(all.len())],
                        cut.as_slice(),
                        "k={k} query={query}"
                    );
                }
            }
        }
    }

    #[test]
    fn top_k_orders_nan_scores_like_the_sort() {
        let hit = |n: u32, score: f64| Hit {
            id: AttackVectorId::Vulnerability(CveId::new(2020, n)),
            score,
            matched_terms: 1,
        };
        let pool = vec![
            hit(5, f64::NAN),
            hit(2, 1.0),
            hit(9, f64::NAN),
            hit(4, 2.0),
            hit(1, 1.0),
            hit(7, f64::NEG_INFINITY),
            hit(3, f64::INFINITY),
        ];
        for k in 0..=pool.len() + 1 {
            let mut sorted = pool.clone();
            sort_hits(&mut sorted);
            sorted.truncate(k);
            let heaped = top_k_hits(pool.iter().cloned(), k);
            let ids = |hits: &[Hit]| hits.iter().map(|h| h.id).collect::<Vec<_>>();
            let bits = |hits: &[Hit]| hits.iter().map(|h| h.score.to_bits()).collect::<Vec<_>>();
            assert_eq!(ids(&sorted), ids(&heaped), "k={k}");
            assert_eq!(bits(&sorted), bits(&heaped), "k={k}");
        }
    }

    #[test]
    fn par_fan_out_above_threshold_preserves_order() {
        // Force the threaded path (>= PAR_FAN_OUT_MIN items) and check the
        // output is the identity map in order.
        let items: Vec<usize> = (0..PAR_FAN_OUT_MIN * 3 + 5).collect();
        let out = par_fan_out(&items, |&i| i * 2);
        assert_eq!(out, items.iter().map(|&i| i * 2).collect::<Vec<_>>());
        // And the sequential fallback agrees on a small input.
        let small: Vec<usize> = (0..PAR_FAN_OUT_MIN / 2).collect();
        assert_eq!(
            par_fan_out(&small, |&i| i + 1),
            small.iter().map(|&i| i + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn bm25_reranks_but_keeps_the_same_hit_set() {
        let corpus = seed_corpus();
        let tfidf = SearchEngine::build(&corpus);
        let bm25 = SearchEngine::with_config(
            &corpus,
            MatchConfig {
                scoring: ScoringModel::Bm25,
                ..MatchConfig::default()
            },
        );
        let query = "Microsoft Windows 7 remote code execution";
        let a = tfidf.match_text(query);
        let b = bm25.match_text(query);
        // Identical hit sets (criteria are model-independent)...
        let mut ids_a = a.vulnerability_ids();
        let mut ids_b = b.vulnerability_ids();
        ids_a.sort_unstable();
        ids_b.sort_unstable();
        assert_eq!(ids_a, ids_b);
        // ...but the scores differ.
        assert_ne!(
            a.vulnerabilities[0].score, b.vulnerabilities[0].score,
            "scoring models should disagree on magnitudes"
        );
    }

    #[test]
    fn synonym_expansion_changes_scores_not_counts() {
        let corpus = seed_corpus();
        let expanded = SearchEngine::build(&corpus);
        let plain = SearchEngine::with_config(
            &corpus,
            MatchConfig {
                expand_synonyms: false,
                ..MatchConfig::default()
            },
        );
        let query = "NI RT Linux OS";
        let with = expanded.match_text(query);
        let without = plain.match_text(query);
        assert_eq!(with.counts(), without.counts());
        // The CWE-78 weakness description contains "operating system
        // command": the expansion of "os" should raise its score.
        let score_of = |set: &MatchSet| {
            set.weaknesses
                .iter()
                .find(|h| h.id.to_string() == "CWE-78")
                .map(|h| h.score)
        };
        match (score_of(&with), score_of(&without)) {
            (Some(w), Some(wo)) => assert!(w > wo, "{w} vs {wo}"),
            _ => {
                // CWE-78 must at least be present in one of them via the
                // platform terms; if not, the corpus changed shape.
                assert!(with.total() > 0);
            }
        }
    }

    #[test]
    fn match_model_covers_every_component() {
        let model = cpssec_model::SystemModelBuilder::new("m")
            .component("ws", ComponentKind::Workstation)
            .component("fw", ComponentKind::Firewall)
            .attribute(
                "ws",
                Attribute::new(AttributeKind::OperatingSystem, "Windows 7"),
            )
            .attribute("fw", Attribute::new(AttributeKind::Product, "Cisco ASA"))
            .build()
            .unwrap();
        let results = engine().match_model(&model, Fidelity::Implementation);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, "ws");
        assert!(results[0].1.vulnerabilities.len() >= 4);
        assert!(results[1].1.vulnerabilities.len() >= 3);
    }

    #[test]
    fn par_match_model_equals_sequential_exactly() {
        let e = engine();
        let model = cpssec_scada_model();
        for level in [
            Fidelity::Conceptual,
            Fidelity::Architectural,
            Fidelity::Implementation,
        ] {
            assert_eq!(
                e.par_match_model(&model, level),
                e.match_model(&model, level),
                "parallel fan-out must be bit-identical at {level:?}"
            );
        }
    }

    #[test]
    fn par_match_channels_covers_every_channel_in_order() {
        let e = engine();
        let model = cpssec_scada_model();
        let par = e.par_match_channels(&model, Fidelity::Implementation);
        assert_eq!(par.len(), model.channel_count());
        for (id, set) in &par {
            let channel = model
                .channels()
                .find(|(cid, _)| cid == id)
                .expect("id valid")
                .1;
            assert_eq!(*set, e.match_channel(channel, Fidelity::Implementation));
        }
        // Insertion order preserved.
        let ids: Vec<usize> = par.iter().map(|(id, _)| id.index()).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    /// A miniature SCADA-shaped model without depending on cpssec-scada
    /// (which would be a dependency cycle from inside this crate).
    fn cpssec_scada_model() -> cpssec_model::SystemModel {
        let mut builder = cpssec_model::SystemModelBuilder::new("mini-scada");
        let specs = [
            ("eng-ws", ComponentKind::Workstation, "Windows 7"),
            ("hist", ComponentKind::Historian, "NI RT Linux OS"),
            ("fw", ComponentKind::Firewall, "Cisco ASA"),
            ("plc-a", ComponentKind::Controller, "NI cRIO 9063"),
            ("plc-b", ComponentKind::Controller, "NI cRIO 9064"),
            ("hmi", ComponentKind::Hmi, "Labview"),
        ];
        for (name, kind, product) in specs {
            builder = builder.component(name, kind).attribute(
                name,
                Attribute::new(AttributeKind::Product, product)
                    .at_fidelity(Fidelity::Implementation),
            );
        }
        builder
            .channel("eng-ws", "fw", cpssec_model::ChannelKind::Ethernet)
            .channel("fw", "hist", cpssec_model::ChannelKind::Ethernet)
            .channel("plc-a", "hmi", cpssec_model::ChannelKind::Fieldbus)
            .channel("plc-b", "hmi", cpssec_model::ChannelKind::Fieldbus)
            .build()
            .unwrap()
    }
}
