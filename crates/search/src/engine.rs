//! The match engine: attribute text in, scored attack vectors out.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use cpssec_attackdb::{
    AttackPattern, AttackVectorId, CapecId, Corpus, CveId, CweId, Vulnerability, Weakness,
};
use cpssec_model::{Channel, ChannelId, Component, Fidelity, SystemModel};

use crate::index::{Family, FamilyKind, SectionPostings, Segments};
use crate::score::{expand_query, ScoringModel, TermScorer};
use crate::severity::SeverityCode;
use crate::snapshot::SnapshotError;
use crate::text::tokenize;

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
    /// and returns exactly the prefix the full sort would have: both order
    /// the same integer key, the score's `f64::total_cmp` order then the
    /// document's id order, and only the `k` winners become [`Hit`]s. A filter
    /// pipeline's leading `topK` lands here through
    /// [`FilterPipeline::split_for_scorer`](crate::FilterPipeline::split_for_scorer),
    /// so an association that keeps k hits per family never sorts the rest.
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
    /// The record's severity, copied from its family's severity column so
    /// weighing and the severity filters never look the record up. It sits
    /// in what was padding: a `Hit` is still 32 bytes.
    pub severity: SeverityCode,
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
    /// The admitted documents' [`rank_key`]s, selected and sorted.
    keys: Vec<u128>,
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
/// decoded from a `.cpsnap` or opened over a mapped one, plus at most one
/// tail section with the records delta applies appended since the last
/// compaction ([`SearchEngine::compacted`]). Sections sit behind `Arc`s, so
/// engines that differ only in configuration, or in a later append,
/// share them. The engine holds no reference to the corpus — record ids
/// are the currency between the two.
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
    families: [Segments; 3],
    /// Lifetime query counter, shared across clones of this engine so the
    /// incremental-association tests (and the server's metrics) can observe
    /// exactly how many matcher runs an operation cost.
    queries: Arc<AtomicU64>,
}

impl SearchEngine {
    /// Indexes a corpus under the default [`MatchConfig`]; put another
    /// configuration on it with [`Self::with_config`]. The three family
    /// indices are independent, so they build on separate scoped threads,
    /// and a family of a few hundred records or more shards further, one
    /// shard per core, each shard writing its records' search text into
    /// one reused buffer.
    #[must_use]
    pub fn build(corpus: &Corpus) -> Self {
        SearchEngine::from_families(build_families(
            corpus.patterns(),
            corpus.weaknesses(),
            corpus.vulnerabilities(),
        ))
    }

    /// Opens an engine over three family section payloads (patterns,
    /// weaknesses, vulnerabilities), copying each and validating it in
    /// full: an engine that opens answers every query.
    pub(crate) fn from_sections(sections: [&[u8]; 3]) -> Result<Self, SnapshotError> {
        let [p, w, v] = sections;
        Ok(SearchEngine::from_families([
            Family::open(FamilyKind::Patterns, p.to_vec())?,
            Family::open(FamilyKind::Weaknesses, w.to_vec())?,
            Family::open(FamilyKind::Vulnerabilities, v.to_vec())?,
        ]))
    }

    fn from_families(families: [Family; 3]) -> SearchEngine {
        SearchEngine {
            config: MatchConfig::default(),
            families: families.map(Segments::new),
            queries: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The three families (patterns, weaknesses, vulnerabilities).
    pub(crate) fn families(&self) -> [&Segments; 3] {
        let [p, w, v] = &self.families;
        [p, w, v]
    }

    /// Appends one batch per family, as documents after the family's own:
    /// each non-empty batch lands in the family's tail section (it becomes
    /// the tail, or is merged into it), so an append costs *O(tail +
    /// batch)* and never copies the base. Engines sharing the old tail or
    /// base never see the batch.
    pub(crate) fn append(&mut self, batches: [Family; 3]) {
        for (family, batch) in self.families.iter_mut().zip(batches) {
            family.append(batch);
        }
    }

    /// This engine with each family's tail folded into its base, one
    /// section merge per family that has a tail: what a compaction
    /// installs. It answers every query with the same bits as this engine,
    /// and shares this engine's configuration and query counter.
    #[must_use]
    pub fn compacted(&self) -> SearchEngine {
        let mut engine = self.clone();
        for family in &mut engine.families {
            family.compact();
        }
        engine
    }

    /// Documents held in tail sections: the records appended since the
    /// last compaction (0 for a built, decoded or compacted engine).
    #[must_use]
    pub fn tail_len(&self) -> usize {
        self.families.iter().map(Segments::tail_len).sum()
    }

    /// A copy of this engine under `config`. Weights are computed at query
    /// time, so no configuration changes the index: the copy shares this
    /// engine's sections and its query counter (a few `Arc` bumps), and
    /// the copy's queries count as this engine's.
    #[must_use]
    pub fn with_config(&self, config: MatchConfig) -> SearchEngine {
        SearchEngine {
            config,
            ..self.clone()
        }
    }

    /// [`Self::with_config`] with only the scoring model changed.
    #[must_use]
    pub fn with_scoring(&self, scoring: ScoringModel) -> SearchEngine {
        self.with_config(MatchConfig {
            scoring,
            ..self.config
        })
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
/// family section, with each record's [`SeverityCode`] as its document's
/// severity column: for an engine build and for a delta's batch. Patterns
/// and weaknesses build on scoped threads beside the vulnerabilities, and
/// each family's build shards write the records' search text themselves.
pub(crate) fn build_families<'a>(
    patterns: impl Iterator<Item = &'a AttackPattern>,
    weaknesses: impl Iterator<Item = &'a Weakness>,
    vulnerabilities: impl Iterator<Item = &'a Vulnerability>,
) -> [Family; 3] {
    let patterns: Vec<&AttackPattern> = patterns.collect();
    let weaknesses: Vec<&Weakness> = weaknesses.collect();
    let vulnerabilities: Vec<&Vulnerability> = vulnerabilities.collect();
    std::thread::scope(|s| {
        let patterns = s.spawn(|| {
            Family::build(
                FamilyKind::Patterns,
                &patterns,
                |p| (p.id().into(), SeverityCode::of_pattern(p)),
                |p, buf| p.push_search_text(buf),
            )
        });
        let weaknesses = s.spawn(|| {
            Family::build(
                FamilyKind::Weaknesses,
                &weaknesses,
                |w| (w.id().into(), SeverityCode::UNSCORED),
                |w, buf| w.push_search_text(buf),
            )
        });
        let vulnerabilities = Family::build(
            FamilyKind::Vulnerabilities,
            &vulnerabilities,
            |v| (v.id().into(), SeverityCode::of_vulnerability(v)),
            |v, buf| v.push_search_text(buf),
        );
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

/// The number of cores, read once per process:
/// `std::thread::available_parallelism` re-reads the cgroup files and
/// allocates on every call (26 µs each on a 2-vCPU VM), and every
/// associate fans out twice.
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Runs `work` over `items`, splitting the slice into one contiguous chunk
/// per available core; each scoped thread fills a disjoint chunk of the
/// output, preserving input order exactly. Inputs below [`PAR_FAN_OUT_MIN`]
/// run on the calling thread — same results, no spawn overhead.
fn par_fan_out<T: Sync, R: Send>(items: &[T], work: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if items.len() < PAR_FAN_OUT_MIN || cores() == 1 {
        return items.iter().map(work).collect();
    }
    let threads = cores().min(items.len());
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

/// The `f64::total_cmp` order of `score` as an unsigned integer: a
/// positive score's sign bit is set, a negative score's bits are all
/// inverted, so `-NaN < -inf < -0.0 < +0.0 < +inf < +NaN` as integers.
fn total_order_bits(score: f64) -> u64 {
    let bits = score.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// Document `doc`'s ranking key: ascending keys are descending scores
/// under `f64::total_cmp`, then ascending documents. Document order is id
/// order (a family is built in corpus order, a tail's ids lie above the
/// base's, and [`Family::open`] refuses ids that do not ascend), and keys
/// are unique, so even NaN scores rank deterministically and the bounded
/// heap returns exactly the full sort's prefix.
fn rank_key(score: f64, doc: u32) -> u128 {
    u128::from(!total_order_bits(score)) << 64 | u128::from(doc)
}

/// Moves the `k` smallest of `keys` into `out`, ascending: a bounded
/// max-heap keeps the worst winner on top, so a rejected key costs one
/// integer compare. `out`'s buffer is reused as the heap's.
fn top_k_keys(keys: impl Iterator<Item = u128>, k: usize, out: &mut Vec<u128>) {
    let mut heap = std::collections::BinaryHeap::from(std::mem::take(out));
    for key in keys {
        if heap.len() < k {
            heap.push(key);
        } else if let Some(mut worst) = heap.peek_mut() {
            if key < *worst {
                *worst = key;
            }
        }
    }
    *out = heap.into_sorted_vec();
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

/// `term`'s scorer over `family` and its postings in each section, or
/// `None` if no document holds it. The document frequency is the sum over
/// the sections, so the scorer is the one the merged section would give.
fn lookup<'a>(
    family: &'a Segments,
    term: &str,
    config: MatchConfig,
    avg: f64,
) -> Option<(TermScorer, [Option<SectionPostings<'a>>; 2])> {
    let sections = family.postings(term);
    let df: usize = sections.iter().flatten().map(|(_, _, p)| p.len()).sum();
    (df > 0).then(|| {
        let scorer = TermScorer::new(config.scoring, family.doc_count(), df, avg);
        (scorer, sections)
    })
}

/// Scores one family and returns the admitted hits, best first. Each
/// term's postings are walked base section first, then tail, the tail's
/// documents numbered after the base's: the order the merged section
/// holds them in, so every score is summed in the same order and
/// `touched` fills in the same order as over one section. Admitted
/// documents are ranked by their [`rank_key`] alone: all of them sorted,
/// or under a cap the best `k` through [`top_k_keys`]. Only the winners
/// become [`Hit`]s.
fn run_family(
    family: &Segments,
    terms: &[String],
    extras: &[String],
    config: MatchConfig,
    scratch: &mut QueryScratch,
) -> Vec<Hit> {
    let avg = family.avg_len();
    scratch.ensure(family.doc_count());
    for term in terms {
        let Some((scorer, sections)) = lookup(family, term, config, avg) else {
            continue;
        };
        let idf = scorer.idf;
        for (section, first, postings) in sections.into_iter().flatten() {
            for (doc, tf) in postings {
                let slot = &mut scratch.accum[first + doc];
                if slot.matched == 0 {
                    scratch.touched.push((first + doc) as u32);
                }
                slot.score += scorer.weight(section, doc, tf);
                slot.matched += 1;
                if idf > slot.max_idf {
                    slot.max_idf = idf;
                }
            }
        }
    }
    // Synonym-expansion terms only refine the scores of documents that
    // already matched an original term — they never create hits.
    for term in extras {
        let Some((scorer, sections)) = lookup(family, term, config, avg) else {
            continue;
        };
        for (section, first, postings) in sections.into_iter().flatten() {
            for (doc, tf) in postings {
                let slot = &mut scratch.accum[first + doc];
                if slot.matched > 0 {
                    slot.score += scorer.weight(section, doc, tf);
                }
            }
        }
    }
    let QueryScratch {
        accum,
        touched,
        keys,
    } = scratch;
    let admitted = touched.iter().filter_map(|&doc| {
        let acc = accum[doc as usize];
        let admitted = (acc.max_idf >= config.idf_floor
            || acc.matched as usize >= config.min_terms)
            && acc.score >= config.min_score;
        admitted.then(|| rank_key(acc.score, doc))
    });
    match config.max_hits {
        Some(k) => top_k_keys(admitted, k, keys),
        None => {
            keys.reserve(touched.len());
            keys.extend(admitted);
            keys.sort_unstable();
        }
    }
    let hits = keys
        .iter()
        .map(|&key| {
            let doc = key as u32 as usize;
            Hit {
                id: family.id(doc),
                score: accum[doc].score,
                matched_terms: accum[doc].matched as usize,
                severity: family.severity(doc),
            }
        })
        .collect();
    // Reset exactly the slots this query touched so the table is clean for
    // the next family/query without an O(corpus) sweep.
    for &doc in touched.iter() {
        accum[doc as usize] = Accum::default();
    }
    touched.clear();
    keys.clear();
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::seed::{seed_corpus, table1_attributes};
    use cpssec_attackdb::synth::{generate, SynthSpec};
    use cpssec_model::{Attribute, AttributeKind, ComponentKind};
    use proptest::prelude::*;

    fn engine() -> SearchEngine {
        SearchEngine::build(&seed_corpus())
    }

    /// A hit on a vulnerability without CVSS, its code taken from the
    /// record the way `build_families` takes it.
    fn unscored_hit(id: CveId, score: f64) -> Hit {
        Hit {
            id: id.into(),
            score,
            matched_terms: 1,
            severity: SeverityCode::of_vulnerability(&Vulnerability::new(id, "unscored")),
        }
    }

    #[test]
    fn a_hit_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Hit>(), 32);
    }

    #[test]
    fn hits_carry_their_records_severity_codes() {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let hits: Vec<Hit> = ["operating system command injection", "Windows 7"]
            .into_iter()
            .flat_map(|query| engine.match_text(query).iter().cloned().collect::<Vec<_>>())
            .collect();
        assert!(hits.iter().any(|h| h.severity.is_band()));
        assert!(hits.iter().any(|h| h.severity.is_cvss()));
        assert!(hits.iter().any(|h| h.severity == SeverityCode::UNSCORED));
        for hit in &hits {
            let expected = match hit.id {
                AttackVectorId::Pattern(id) => {
                    SeverityCode::of_pattern(corpus.pattern(id).unwrap())
                }
                AttackVectorId::Weakness(_) => SeverityCode::UNSCORED,
                AttackVectorId::Vulnerability(id) => {
                    SeverityCode::of_vulnerability(corpus.vulnerability(id).unwrap())
                }
            };
            assert_eq!(hit.severity, expected, "{}", hit.id);
        }
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
        // A copy under another config is the same index and counter.
        let bm25 = e.with_scoring(ScoringModel::Bm25);
        let _ = bm25.match_text("Windows 7");
        assert_eq!(e.queries_run(), 3);
        assert_eq!(bm25.queries_run(), 3);
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
        let engine = SearchEngine::build(&seed_corpus());
        let strict = engine.with_config(MatchConfig {
            idf_floor: 5.0,
            min_terms: 3,
            ..MatchConfig::default()
        });
        let loose = engine.with_config(MatchConfig {
            idf_floor: 0.5,
            min_terms: 1,
            ..MatchConfig::default()
        });
        let q = "Windows 7 workstation";
        assert!(loose.match_text(q).total() >= strict.match_text(q).total());
    }

    #[test]
    fn min_score_prunes_weak_hits() {
        let corpus = seed_corpus();
        let base = SearchEngine::build(&corpus);
        let all = base.match_text("Microsoft Windows 7 SMB remote code execution");
        let strict = base.with_config(MatchConfig {
            min_score: 1.5,
            ..MatchConfig::default()
        });
        let pruned = strict.match_text("Microsoft Windows 7 SMB remote code execution");
        assert!(pruned.total() < all.total());
        assert!(pruned.iter().all(|h| h.score >= 1.5));
    }

    #[test]
    fn pathological_min_score_is_nan_safe() {
        // A NaN min_score poisons the `score >= min_score` comparison (all
        // comparisons with NaN are false), so every hit is pruned — but
        // nothing may panic, and the outcome must be deterministic.
        let engine = SearchEngine::build(&seed_corpus());
        let nan_floor = engine.with_config(MatchConfig {
            min_score: f64::NAN,
            ..MatchConfig::default()
        });
        let hits = nan_floor.match_text("Microsoft Windows 7 SMB remote code execution");
        assert!(hits.is_empty(), "NaN threshold admits nothing");
        // An infinite idf_floor with min_terms = 0 admits every touched
        // document; ordering still must not panic on any score pattern.
        let admit_all = engine.with_config(MatchConfig {
            idf_floor: f64::INFINITY,
            min_terms: 0,
            min_score: f64::NEG_INFINITY,
            ..MatchConfig::default()
        });
        let a = admit_all.match_text("Microsoft Windows 7 SMB remote code execution");
        let b = admit_all.match_text("Microsoft Windows 7 SMB remote code execution");
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    /// The comparator [`rank_key`] replaced, kept as its oracle:
    /// descending score under `f64::total_cmp`, ties by ascending id.
    fn oracle(a: &Hit, b: &Hit) -> std::cmp::Ordering {
        b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id))
    }

    /// Score bits that stress the order: both zeros, both infinities, NaNs
    /// of both signs with several payloads, subnormals, the extreme
    /// normals, and arbitrary bits.
    fn score_bits() -> impl Strategy<Value = u64> {
        let special = prop::sample::select(vec![
            0.0f64.to_bits(),
            (-0.0f64).to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            f64::NAN.to_bits(),
            (-f64::NAN).to_bits(),
            0x7ff0_0000_0000_0001,
            0xfff0_0000_0000_0001,
            0x7fff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
            f64::MIN_POSITIVE.to_bits(),
            f64::MAX.to_bits(),
            f64::MIN.to_bits(),
            1,
            0x8000_0000_0000_0001,
        ]);
        let mantissa = (1u64 << 52) - 1;
        (0u8..4, special, any::<u64>()).prop_map(move |(class, special, bits)| match class {
            0 => special,
            1 => bits & mantissa,           // a subnormal or +0
            2 => bits & mantissa | 1 << 63, // a negative subnormal or -0
            _ => bits,
        })
    }

    proptest! {
        #[test]
        fn key_order_is_the_oracle_order(
            a in score_bits(),
            b in score_bits(),
            doc_a in 0u32..8,
            doc_b in 0u32..8,
        ) {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            prop_assert_eq!(total_order_bits(x).cmp(&total_order_bits(y)), x.total_cmp(&y));
            let hit = |doc: u32, score: f64| unscored_hit(CveId::new(2020, doc), score);
            prop_assert_eq!(
                rank_key(x, doc_a).cmp(&rank_key(y, doc_b)),
                oracle(&hit(doc_a, x), &hit(doc_b, y))
            );
        }

        #[test]
        fn capped_keys_are_the_sorted_prefix_on_tied_pools(
            pool in prop::collection::vec((0usize..3, 0u32..64), 0..200),
            k in 0usize..40,
        ) {
            // Three distinct scores over up to 64 documents: most keys
            // tie on the score and fall to the document number.
            let scores = [1.5, f64::NAN, -0.0];
            let mut keys: Vec<u128> = pool
                .iter()
                .map(|&(score, doc)| rank_key(scores[score], doc))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let mut capped = Vec::new();
            top_k_keys(keys.iter().rev().copied(), k, &mut capped);
            prop_assert_eq!(&keys[..k.min(keys.len())], capped.as_slice());
        }
    }

    #[test]
    fn rank_key_orders_nan_scores_deterministically() {
        let scores = [f64::NAN, 1.0, f64::NAN, 2.0, f64::NEG_INFINITY, -0.0, 0.0];
        let mut keys: Vec<u128> = (0u32..).zip(scores).map(|(d, s)| rank_key(s, d)).collect();
        keys.sort_unstable();
        let docs: Vec<u32> = keys.iter().map(|&key| key as u32).collect();
        // NaN ranks above +inf under total_cmp, its ties by document;
        // finite scores keep their descending order after it, +0 above -0.
        assert_eq!(docs, [0, 2, 3, 1, 6, 5, 4]);
    }

    #[test]
    fn capped_matching_is_the_uncapped_prefix_on_tied_scores() {
        // Sixty identical records tie on every score, so the cap must cut
        // inside one tie and the order inside it is id order.
        let mut corpus = Corpus::new();
        for n in (0..60).rev() {
            corpus
                .add_vulnerability(Vulnerability::new(
                    CveId::new(2020, 100 + n),
                    "SCADA historian buffer overflow",
                ))
                .unwrap();
        }
        let unbounded = SearchEngine::build(&corpus);
        let full = unbounded
            .match_text("historian buffer overflow")
            .vulnerabilities;
        assert_eq!(full.len(), 60);
        assert!(full.windows(2).all(|w| w[0].score == w[1].score));
        assert!(full.windows(2).all(|w| oracle(&w[0], &w[1]).is_lt()));
        for k in [0, 1, 7, 59, 60, 61] {
            let capped = unbounded.with_config(MatchConfig {
                max_hits: Some(k),
                ..MatchConfig::default()
            });
            let cut = capped
                .match_text("historian buffer overflow")
                .vulnerabilities;
            assert_eq!(&full[..k.min(60)], cut.as_slice(), "k={k}");
        }
    }

    #[test]
    fn max_hits_returns_exactly_the_sorted_prefix() {
        let mut corpus = seed_corpus();
        corpus
            .merge(generate(&SynthSpec::paper2020(11, 0.05)))
            .unwrap();
        let unbounded = SearchEngine::build(&corpus);
        for k in [0, 1, 2, 3, 7, 25, 10_000] {
            let capped = unbounded.with_config(MatchConfig {
                max_hits: Some(k),
                ..MatchConfig::default()
            });
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
    fn every_match_list_is_sorted_under_the_oracle() {
        let mut corpus = seed_corpus();
        corpus
            .merge(generate(&SynthSpec::paper2020(2020, 0.1)))
            .unwrap();
        let engine = SearchEngine::build(&corpus);
        let bm25 = engine.with_scoring(ScoringModel::Bm25);
        let mut queries: Vec<&str> = table1_attributes().to_vec();
        queries.extend([
            "SCADA historian",
            "operating system command injection",
            "Microsoft Windows 7 SMB remote code execution",
            "MODBUS/TCP",
        ]);
        let mut lists = 0;
        for engine in [&engine, &bm25] {
            for query in &queries {
                let set = engine.match_text(query);
                for hits in [&set.patterns, &set.weaknesses, &set.vulnerabilities] {
                    assert!(
                        hits.windows(2).all(|w| oracle(&w[0], &w[1]).is_lt()),
                        "{query}"
                    );
                    lists += usize::from(hits.len() > 1);
                }
            }
        }
        assert!(lists > 20, "only {lists} lists hold two hits or more");
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
        let bm25 = tfidf.with_scoring(ScoringModel::Bm25);
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
        let plain = expanded.with_config(MatchConfig {
            expand_synonyms: false,
            ..MatchConfig::default()
        });
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
