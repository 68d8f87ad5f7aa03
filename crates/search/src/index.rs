//! A TF-IDF inverted index over one record family.
//!
//! The index stores exactly what scoring needs and nothing derived from
//! the corpus size: a term dictionary (`HashMap<String, u32>`) over
//! doc-ascending `(doc, tf)` postings, per-document token counts with
//! their `√max(len, 1)` normalizers, and a running token total. Every
//! weight is computed at query time by [`crate::score::TermScorer`], so
//! adding a document appends to these columns and invalidates nothing.

use std::collections::HashMap;

use cpssec_attackdb::snapshot::{put_u32, Reader, SnapshotError};

use crate::score::{self, length_norm};
use crate::text::{for_each_word, normalize_word, tokenize};

/// Dense index of a document within one [`InvertedIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub(crate) u32);

impl DocId {
    /// The dense index backing this identifier.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One posting: a document and how often the term occurs in it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Posting {
    pub doc: DocId,
    pub tf: u32,
}

/// Minimum documents per worker before [`InvertedIndex::from_documents`]
/// shards the build. Indexing one 100k-corpus vulnerability record costs
/// ~1.2 µs with the shard's word memo warm (one hash probe per word;
/// tokenizing it from scratch costs ~8–9 µs); a scoped thread costs
/// ~50–100 µs to start, so a shard needs a few hundred documents before
/// the parallel build wins (measured in EXPERIMENTS §E17).
const SHARD_MIN_DOCS: usize = 512;

/// Word-memo value for a raw word that normalizes to nothing.
const DROPPED: u32 = u32::MAX;

/// Returns `term`'s id, interning it (with an empty postings list) if new.
fn intern(
    term: String,
    term_ids: &mut HashMap<String, u32>,
    postings: &mut Vec<Vec<Posting>>,
) -> u32 {
    let next = postings.len() as u32;
    let tid = *term_ids.entry(term).or_insert(next);
    if tid == next {
        postings.push(Vec::new());
    }
    tid
}

/// Appends one posting per distinct term id in `tids` (one id per token),
/// in ascending term-id order — the shared tail of every document add.
fn push_runs(tids: &mut [u32], doc: DocId, postings: &mut [Vec<Posting>]) {
    tids.sort_unstable();
    let mut run = &*tids;
    while let Some(&tid) = run.first() {
        let tf = run.iter().take_while(|&&t| t == tid).count();
        postings[tid as usize].push(Posting { doc, tf: tf as u32 });
        run = &run[tf..];
    }
}

/// Indexes one contiguous chunk of documents starting at global id
/// `first` into a fresh partial index. Its postings carry *global* doc
/// ids (each shard owns a contiguous range) while its per-document
/// columns are local, so it is only an input to [`merge_shards`].
fn index_shard<S: AsRef<str>>(docs: &[S], first: u32) -> InvertedIndex {
    let mut shard = InvertedIndex::new();
    shard.index_documents(docs, first);
    shard
}

/// Merges shards (in doc order) into one index. The first shard is the
/// start of the result; every later shard's terms are interned in its
/// local first-occurrence order, which — because shards cover contiguous
/// ascending doc ranges — is exactly the global first-occurrence order of
/// adding the documents one by one; per-term postings concatenate in
/// shard order, preserving the doc-ascending invariant.
fn merge_shards(shards: Vec<InvertedIndex>) -> InvertedIndex {
    let mut shards = shards.into_iter();
    let mut index = shards.next().unwrap_or_default();
    for shard in shards {
        index.doc_lengths.extend(shard.doc_lengths);
        index.len_norms.extend(shard.len_norms);
        index.total_tokens += shard.total_tokens;
        let mut terms = vec![String::new(); shard.term_ids.len()];
        for (term, tid) in shard.term_ids {
            terms[tid as usize] = term;
        }
        for (term, postings) in terms.into_iter().zip(shard.postings) {
            let gid = intern(term, &mut index.term_ids, &mut index.postings);
            let slot = &mut index.postings[gid as usize];
            if slot.is_empty() {
                *slot = postings; // First shard holding this term: move, no copy.
            } else {
                slot.extend_from_slice(&postings);
            }
        }
    }
    index
}

/// An inverted index with TF-IDF weighting.
///
/// Scoring uses `idf(t) = ln(N / df(t))` and term weight
/// `(1 + ln(tf)) * idf`, normalized by `sqrt(|doc|)`, all evaluated at
/// query time from the stored term frequencies.
///
/// # Examples
///
/// ```
/// use cpssec_search::InvertedIndex;
///
/// let mut index = InvertedIndex::new();
/// index.add_document("a buffer overflow in the kernel");
/// index.add_document("a cross-site scripting issue");
/// assert_eq!(index.len(), 2);
/// assert_eq!(index.document_frequency("overflow"), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    /// Term dictionary: normalized term → dense term id.
    term_ids: HashMap<String, u32>,
    /// Postings, indexed by term id; doc-ascending within a term.
    postings: Vec<Vec<Posting>>,
    doc_lengths: Vec<u32>,
    /// `√max(len, 1)` per document, appended alongside `doc_lengths`.
    len_norms: Vec<f64>,
    /// Sum of `doc_lengths`, so the mean length is O(1).
    total_tokens: u64,
}

impl InvertedIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        InvertedIndex::default()
    }

    /// Appends the per-document columns of a new document.
    fn push_doc_length(&mut self, len: u32) {
        self.doc_lengths.push(len);
        self.len_norms.push(length_norm(len));
        self.total_tokens += u64::from(len);
    }

    /// Adds a document and returns its id. Order of insertion defines ids.
    pub fn add_document(&mut self, text: &str) -> DocId {
        let id = DocId(u32::try_from(self.doc_lengths.len()).expect("doc count fits u32"));
        let mut tids: Vec<u32> = tokenize(text)
            .into_iter()
            .map(|term| intern(term, &mut self.term_ids, &mut self.postings))
            .collect();
        self.push_doc_length(tids.len() as u32);
        push_runs(&mut tids, id, &mut self.postings);
        id
    }

    /// Appends `docs` in order, as documents [`Self::len`] onward — the
    /// `.cpsdelta` apply path. Runs the build's tokenize-and-intern loop
    /// straight into this index, so the result is the index that adding
    /// the documents one by one with [`Self::add_document`] would give.
    pub(crate) fn append_documents<S: AsRef<str>>(&mut self, docs: &[S]) {
        let first = u32::try_from(self.len()).expect("doc count fits u32");
        self.index_documents(docs, first);
    }

    /// Indexes `docs` as documents `first`, `first + 1`, …: the one
    /// tokenize-and-intern loop, run by every build shard and by
    /// [`Self::append_documents`].
    ///
    /// A word's term depends on the raw word alone, so each distinct raw
    /// word (case variants are distinct keys) is normalized and interned
    /// once per call, on its first occurrence; every later occurrence
    /// costs one probe of `memo` and allocates nothing. Terms are still
    /// interned at their first token, so term ids keep first-occurrence
    /// order.
    fn index_documents<'a, S: AsRef<str>>(&mut self, docs: &'a [S], first: u32) {
        let mut memo: HashMap<&'a str, u32> = HashMap::new();
        let mut tids: Vec<u32> = Vec::new();
        self.doc_lengths.reserve(docs.len());
        self.len_norms.reserve(docs.len());
        for (offset, doc) in docs.iter().enumerate() {
            tids.clear();
            for_each_word(doc.as_ref(), |raw| {
                let tid = *memo.entry(raw).or_insert_with(|| {
                    normalize_word(raw).map_or(DROPPED, |term| {
                        intern(term, &mut self.term_ids, &mut self.postings)
                    })
                });
                if tid != DROPPED {
                    tids.push(tid);
                }
            });
            self.push_doc_length(tids.len() as u32);
            push_runs(&mut tids, DocId(first + offset as u32), &mut self.postings);
        }
    }

    /// Builds an index over `docs`, sharding tokenization and term
    /// interning across `std::thread::scope` workers when the input is
    /// large enough to amortize thread startup (below
    /// [`SHARD_MIN_DOCS`] per worker it builds on the calling thread).
    /// The result is identical (`==` on every observable, and
    /// byte-identical under snapshot encoding) to adding the documents
    /// one by one: shards own contiguous ascending doc-id ranges and the
    /// merge assigns term ids in global first-occurrence order.
    #[must_use]
    pub fn from_documents<S: AsRef<str> + Sync>(docs: &[S]) -> InvertedIndex {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let shards = threads.min(docs.len() / SHARD_MIN_DOCS);
        InvertedIndex::from_documents_sharded(docs, shards.max(1))
    }

    /// [`Self::from_documents`] with an explicit worker count, exposed so
    /// tests and benchmarks can exercise the sharded merge on any machine.
    /// The first shard is indexed on the calling thread, so one shard
    /// spawns nothing.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn from_documents_sharded<S: AsRef<str> + Sync>(
        docs: &[S],
        shards: usize,
    ) -> InvertedIndex {
        assert!(shards > 0, "at least one shard");
        let mut span = cpssec_obs::span!("index-build");
        span.add_items(docs.len() as u64);
        let chunk = docs.len().div_ceil(shards).max(1);
        let mut chunks = docs.chunks(chunk);
        let first = chunks.next().unwrap_or_default();
        let built: Vec<InvertedIndex> = std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .enumerate()
                .map(|(i, docs)| s.spawn(move || index_shard(docs, ((i + 1) * chunk) as u32)))
                .collect();
            let mut built = vec![index_shard(first, 0)];
            built.extend(handles.into_iter().map(|h| h.join().expect("shard build")));
            built
        });
        merge_shards(built)
    }

    /// Number of documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.doc_lengths.len()
    }

    /// Whether the index holds no documents.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.doc_lengths.is_empty()
    }

    /// Number of distinct terms.
    #[must_use]
    pub fn term_count(&self) -> usize {
        self.term_ids.len()
    }

    /// How many documents contain `term` (after normalization of the
    /// documents; `term` itself is taken verbatim).
    #[must_use]
    pub fn document_frequency(&self, term: &str) -> usize {
        self.term_ids
            .get(term)
            .map_or(0, |&tid| self.postings[tid as usize].len())
    }

    /// Inverse document frequency of `term`: `ln(N / df)`, or `0.0` for
    /// unknown terms or an empty index.
    #[must_use]
    pub fn idf(&self, term: &str) -> f64 {
        score::idf(self.len(), self.document_frequency(term))
    }

    /// The token count of a document (used for length normalization).
    #[must_use]
    pub fn document_length(&self, doc: DocId) -> usize {
        self.doc_lengths.get(doc.index()).copied().unwrap_or(0) as usize
    }

    /// Mean document length in tokens (1.0 for an empty index).
    #[must_use]
    pub fn average_document_length(&self) -> f64 {
        score::average_length(self.total_tokens, self.len())
    }

    /// Serializes the index in the columnar wire layout shared with the
    /// zero-copy [`crate::view::IndexView`]:
    ///
    /// ```text
    /// doc_count      u32
    /// doc_lengths    doc_count × u32
    /// term_count     u32
    /// heap_len       u32
    /// terms_heap     heap_len bytes (terms concatenated, lexicographic)
    /// term_entries   term_count × { str_off u32, str_len u32,
    ///                               post_start u32, post_len u32 }
    /// posting_total  u32
    /// postings       posting_total × { doc u32, tf u32 }
    /// ```
    ///
    /// Terms are written in lexicographic order (so a borrowed view can
    /// binary-search the entry table in place) and each term's postings
    /// are contiguous in the arena. Nothing derived from the corpus size
    /// is stored: readers compute weights from `tf`, the document
    /// lengths, `df = post_len` and `N = doc_count`. Sorting also makes
    /// the bytes independent of term-id numbering, so an engine grown by
    /// delta appends encodes identically to one rebuilt from scratch.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.doc_lengths.len() as u32);
        for &len in &self.doc_lengths {
            put_u32(out, len);
        }
        let mut terms: Vec<&str> = vec![""; self.term_ids.len()];
        for (term, &tid) in &self.term_ids {
            terms[tid as usize] = term;
        }
        let mut order: Vec<u32> = (0..terms.len() as u32).collect();
        order.sort_unstable_by_key(|&tid| terms[tid as usize]);
        put_u32(out, terms.len() as u32);
        let heap_len: usize = terms.iter().map(|t| t.len()).sum();
        put_u32(out, u32::try_from(heap_len).expect("term heap fits u32"));
        for &tid in &order {
            out.extend_from_slice(terms[tid as usize].as_bytes());
        }
        let mut str_off = 0u32;
        let mut post_start = 0u32;
        for &tid in &order {
            let term = terms[tid as usize];
            let post_len = self.postings[tid as usize].len() as u32;
            put_u32(out, str_off);
            put_u32(out, term.len() as u32);
            put_u32(out, post_start);
            put_u32(out, post_len);
            str_off += term.len() as u32;
            post_start += post_len;
        }
        put_u32(out, post_start);
        for &tid in &order {
            for p in &self.postings[tid as usize] {
                put_u32(out, p.doc.0);
                put_u32(out, p.tf);
            }
        }
    }

    /// Restores an index serialized by [`Self::encode_into`], assigning
    /// term ids in the (lexicographic) wire order. Re-encoding the result
    /// is a byte-level fixpoint. Every posting is checked against the
    /// document table — an in-range doc and `1 <= tf <= len` — because
    /// query-time scoring takes `ln tf`.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<InvertedIndex, SnapshotError> {
        let doc_count = r.u32()?;
        let mut index = InvertedIndex::new();
        index.doc_lengths.reserve(r.capacity_for(doc_count, 4));
        for _ in 0..doc_count {
            index.push_doc_length(r.u32()?);
        }
        let term_count = r.u32()?;
        let heap_len = r.u32()? as usize;
        let heap = r.take(heap_len)?;
        let capacity = r.capacity_for(term_count, 16);
        index.term_ids.reserve(capacity);
        let mut post_lens: Vec<u32> = Vec::with_capacity(capacity);
        let mut expected_str_off = 0u32;
        let mut expected_post_start = 0u32;
        let mut prev_term: Option<&str> = None;
        for tid in 0..term_count {
            let str_off = r.u32()?;
            let str_len = r.u32()?;
            let post_start = r.u32()?;
            let post_len = r.u32()?;
            if str_off != expected_str_off || post_start != expected_post_start {
                return Err(SnapshotError::Corrupt(format!(
                    "term {tid} entry is not contiguous with its predecessor"
                )));
            }
            let end = (str_off as usize)
                .checked_add(str_len as usize)
                .filter(|&end| end <= heap.len())
                .ok_or_else(|| {
                    SnapshotError::Corrupt(format!("term {tid} string overruns the heap"))
                })?;
            let term = core::str::from_utf8(&heap[str_off as usize..end])
                .map_err(|_| SnapshotError::Corrupt(format!("term {tid} is not valid UTF-8")))?;
            if prev_term.is_some_and(|prev| prev >= term) {
                return Err(SnapshotError::Corrupt(format!(
                    "term dictionary is not strictly sorted at entry {tid}"
                )));
            }
            prev_term = Some(term);
            index.term_ids.insert(term.to_owned(), tid);
            post_lens.push(post_len);
            expected_str_off += str_len;
            expected_post_start = post_start
                .checked_add(post_len)
                .ok_or_else(|| SnapshotError::Corrupt("postings arena overflows u32".into()))?;
        }
        if expected_str_off as usize != heap.len() {
            return Err(SnapshotError::Corrupt(format!(
                "term heap holds {} byte(s) beyond the last term",
                heap.len() - expected_str_off as usize
            )));
        }
        let posting_total = r.u32()?;
        if posting_total != expected_post_start {
            return Err(SnapshotError::Corrupt(format!(
                "posting arena declares {posting_total} entries but the terms span {expected_post_start}"
            )));
        }
        index.postings.reserve(post_lens.len());
        for post_len in post_lens {
            let mut postings = Vec::with_capacity(r.capacity_for(post_len, 8));
            for _ in 0..post_len {
                let doc = r.u32()?;
                let tf = r.u32()?;
                let Some(&len) = index.doc_lengths.get(doc as usize) else {
                    return Err(SnapshotError::Corrupt(format!(
                        "posting references document {doc} of {doc_count}"
                    )));
                };
                if tf == 0 || tf > len {
                    return Err(SnapshotError::Corrupt(format!(
                        "posting tf {tf} is outside 1..={len} for document {doc}"
                    )));
                }
                postings.push(Posting {
                    doc: DocId(doc),
                    tf,
                });
            }
            index.postings.push(postings);
        }
        Ok(index)
    }
}

/// Abstraction over term-postings storage the query engine scores against:
/// either an owned [`InvertedIndex`] or a zero-copy
/// [`crate::view::IndexView`] reading a snapshot byte image in place. Both
/// yield the same postings in the same order and the same per-document
/// lengths, and both are scored by [`crate::score::TermScorer`], which is
/// what makes view queries byte-identical to owned queries.
pub(crate) trait TermLookup {
    /// Iterator over one term's postings, in stored (doc-ascending) order.
    type PostingIter<'a>: Iterator<Item = Posting>
    where
        Self: 'a;

    /// Number of documents in the family (sizes the dense scratch table).
    fn doc_count(&self) -> usize;

    /// Mean document length (BM25's `avg`), in O(1).
    fn avg_len(&self) -> f64;

    /// Token count of a document yielded by this lookup's postings.
    fn doc_len(&self, doc: DocId) -> u32;

    /// TF-IDF normalizer `√max(len, 1)` of a document.
    fn len_norm(&self, doc: DocId) -> f64 {
        length_norm(self.doc_len(doc))
    }

    /// Resolves one query term to its document frequency and posting
    /// iterator, or `None` for unknown terms.
    fn lookup(&self, term: &str) -> Option<(usize, Self::PostingIter<'_>)>;
}

impl TermLookup for InvertedIndex {
    type PostingIter<'a> = std::iter::Copied<std::slice::Iter<'a, Posting>>;

    fn doc_count(&self) -> usize {
        self.len()
    }

    fn avg_len(&self) -> f64 {
        self.average_document_length()
    }

    fn doc_len(&self, doc: DocId) -> u32 {
        self.doc_lengths[doc.index()]
    }

    fn len_norm(&self, doc: DocId) -> f64 {
        self.len_norms[doc.index()]
    }

    fn lookup(&self, term: &str) -> Option<(usize, Self::PostingIter<'_>)> {
        let postings = &self.postings[*self.term_ids.get(term)? as usize];
        Some((postings.len(), postings.iter().copied()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::{ScoringModel, TermScorer};
    use proptest::prelude::*;

    fn sample() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.add_document("buffer overflow in the kernel network stack");
        idx.add_document("kernel race condition");
        idx.add_document("cross site scripting in the web interface");
        idx
    }

    /// `(doc, weight, idf)` for every posting of `term` under `model`,
    /// scored exactly as the query engine scores them.
    fn weights(idx: &InvertedIndex, term: &str, model: ScoringModel) -> Vec<(DocId, f64, f64)> {
        let Some((df, postings)) = idx.lookup(term) else {
            return Vec::new();
        };
        let scorer = TermScorer::new(model, idx.doc_count(), df, idx.avg_len());
        postings
            .map(|p| (p.doc, scorer.weight(idx, p.doc, p.tf), scorer.idf))
            .collect()
    }

    fn encode(idx: &InvertedIndex) -> Vec<u8> {
        let mut out = Vec::new();
        idx.encode_into(&mut out);
        out
    }

    #[test]
    fn document_frequency_counts_documents_not_occurrences() {
        let mut idx = InvertedIndex::new();
        idx.add_document("kernel kernel kernel");
        idx.add_document("kernel");
        assert_eq!(idx.document_frequency("kernel"), 2);
    }

    #[test]
    fn idf_orders_rare_above_common() {
        let idx = sample();
        assert!(idx.idf("overflow") > idx.idf("kernel"));
        assert_eq!(idx.idf("ghost"), 0.0);
    }

    #[test]
    fn documents_are_normalized_terms_are_verbatim() {
        let idx = sample();
        // Documents were stemmed: "scripting" → "script".
        assert_eq!(idx.document_frequency("script"), 1);
        assert_eq!(idx.document_frequency("scripting"), 0);
    }

    #[test]
    fn term_matches_weight_repeats_sublinearly() {
        let mut idx = InvertedIndex::new();
        idx.add_document("kernel kernel");
        idx.add_document("other text entirely");
        let matches = weights(&idx, "kernel", ScoringModel::TfIdf);
        assert_eq!(matches.len(), 1);
        // Normalized weight: (1 + ln 2) * idf / sqrt(2).
        let expected = (1.0 + 2.0f64.ln()) * idx.idf("kernel") / 2.0f64.sqrt();
        assert!((matches[0].1 - expected).abs() < 1e-12);
    }

    #[test]
    fn bm25_weights_saturate_with_term_frequency() {
        let mut idx = InvertedIndex::new();
        idx.add_document("kernel");
        idx.add_document("kernel kernel kernel kernel kernel");
        idx.add_document("other words here");
        let matches = weights(&idx, "kernel", ScoringModel::Bm25);
        assert_eq!(matches.len(), 2);
        // Five occurrences score better than one, but far less than 5x.
        assert!(matches[1].1 > matches[0].1);
        assert!(matches[1].1 < 3.0 * matches[0].1);
    }

    #[test]
    fn bm25_idf_differs_from_tfidf_but_reported_idf_is_shared() {
        let idx = sample();
        let tfidf = weights(&idx, "kernel", ScoringModel::TfIdf);
        let bm25 = weights(&idx, "kernel", ScoringModel::Bm25);
        assert_eq!(tfidf.len(), bm25.len());
        for (a, b) in tfidf.iter().zip(bm25.iter()) {
            assert_eq!(a.2, b.2, "hit criteria must be model-independent");
            assert_ne!(a.1, b.1);
        }
    }

    #[test]
    fn query_time_weights_are_the_documented_expressions_bit_for_bit() {
        // Long documents and repeated terms exercise both the ln table
        // (tf < 32) and its fallback (tf >= 32).
        let mut idx = sample();
        idx.add_document(&"kernel ".repeat(40));
        idx.add_document("kernel kernel panic");
        let n = idx.len() as f64;
        let avg = idx.average_document_length();
        let df = idx.document_frequency("kernel") as f64;
        let idf = (n / df).ln();
        let bm25_idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
        let (_, postings) = idx.lookup("kernel").expect("indexed");
        let postings: Vec<Posting> = postings.collect();
        let tfidf = weights(&idx, "kernel", ScoringModel::TfIdf);
        let bm25 = weights(&idx, "kernel", ScoringModel::Bm25);
        assert!(postings.iter().any(|p| p.tf >= 32));
        for ((p, t), b) in postings.iter().zip(&tfidf).zip(&bm25) {
            let (tf, len) = (f64::from(p.tf), f64::from(idx.doc_lengths[p.doc.index()]));
            let tfidf_bits = ((1.0 + tf.ln()) * idf / len.max(1.0).sqrt()).to_bits();
            let saturation = tf * (1.2 + 1.0) / (tf + 1.2 * (1.0 - 0.75 + 0.75 * len / avg));
            let expected = (tfidf_bits, (bm25_idf * saturation).to_bits(), idf.to_bits());
            let got = (t.1.to_bits(), b.1.to_bits(), t.2.to_bits());
            assert_eq!(got, expected, "tf={}", p.tf);
        }
    }

    #[test]
    fn average_length_is_safe_on_empty_index() {
        assert_eq!(InvertedIndex::new().average_document_length(), 1.0);
        let mut idx = InvertedIndex::new();
        idx.add_document("two words");
        idx.add_document("four words right here"); // "right"/"here" kept, 4 tokens
        assert_eq!(idx.average_document_length(), 3.0);
    }

    #[test]
    fn lengths_track_token_counts() {
        let idx = sample();
        assert_eq!(idx.document_length(DocId(1)), 3);
        assert_eq!(idx.document_length(DocId(99)), 0);
    }

    #[test]
    fn empty_index_is_well_behaved() {
        let idx = InvertedIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.idf("anything"), 0.0);
        assert!(weights(&idx, "anything", ScoringModel::TfIdf).is_empty());
        assert!(weights(&idx, "anything", ScoringModel::Bm25).is_empty());
    }

    #[test]
    fn weights_follow_the_document_count_as_documents_are_added() {
        let mut idx = InvertedIndex::new();
        idx.add_document("kernel overflow");
        let before = weights(&idx, "kernel", ScoringModel::TfIdf)[0].2;
        idx.add_document("kernel panic");
        idx.add_document("web interface");
        let after = weights(&idx, "kernel", ScoringModel::TfIdf);
        // df went 1/1 → 2/3: the idf follows N with nothing to invalidate.
        assert!(before.abs() < 1e-12, "idf of the only doc's term is ln(1)");
        assert!((after[0].2 - (3.0f64 / 2.0).ln()).abs() < 1e-12);
        assert_eq!(after.len(), 2);
    }

    #[test]
    fn sharded_build_is_byte_identical_to_sequential_at_any_shard_count() {
        let docs: Vec<String> = (0..97)
            .map(|i| {
                format!(
                    "kernel overflow document {i} shares token group{} and product{}",
                    i % 7,
                    i % 13
                )
            })
            .collect();
        let sequential = encode(&InvertedIndex::from_documents_sharded(&docs, 1));
        for shards in [2, 3, 4, 8, 97, 200] {
            let sharded = encode(&InvertedIndex::from_documents_sharded(&docs, shards));
            assert_eq!(sequential, sharded, "{shards} shards diverged");
        }
        let sharded = InvertedIndex::from_documents_sharded(&docs, 4);
        let sequential = InvertedIndex::from_documents_sharded(&docs, 1);
        assert_eq!(
            sharded.average_document_length(),
            sequential.average_document_length()
        );
    }

    /// Raw words that trap a memo keyed on raw text: `Σ` lowercases
    /// differently word-finally under `str::to_lowercase`, `İ` lowercases
    /// to `i` plus a non-alphanumeric combining dot, `ß` and digits, bare
    /// stopwords, words that stem into a stopword (`cans`) or a single
    /// letter (`中s`), and case variants of one term.
    const TRAP_WORDS: &[&str] = &[
        "Σ", "ΟΔΟΣ", "οδος", "İ", "İnject", "inject", "ß", "STRASSE", "straße", "7", "9063", "the",
        "The", "THE", "cans", "Cans", "中s", "Bs", "bs", "b", "kernel", "Kernel", "KERNEL",
        "kernels", "parsing", "Parses", "overflow",
    ];
    /// Separators, including none at all (words run together into new
    /// raw words) and a bare combining dot (not alphanumeric).
    const TRAP_SEPARATORS: &[&str] = &[" ", " ", "-", ", ", "", "\u{307}", "\n"];

    proptest! {
        /// The memoized build at 1–4 shards is the same index as adding
        /// the documents one by one: identical term ids and encoding.
        #[test]
        fn memoized_build_matches_per_document_add(
            docs in prop::collection::vec(
                prop::collection::vec(
                    (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
                    0..12,
                ),
                1..24,
            ),
        ) {
            let texts: Vec<String> = docs
                .iter()
                .map(|words| {
                    words
                        .iter()
                        .map(|(w, sep)| {
                            let word = TRAP_WORDS[w.index(TRAP_WORDS.len())];
                            format!("{word}{}", TRAP_SEPARATORS[sep.index(TRAP_SEPARATORS.len())])
                        })
                        .collect()
                })
                .collect();
            let mut sequential = InvertedIndex::new();
            for text in &texts {
                sequential.add_document(text);
            }
            for shards in 1..=4 {
                let built = InvertedIndex::from_documents_sharded(&texts, shards);
                prop_assert_eq!(&built.term_ids, &sequential.term_ids);
                prop_assert_eq!(&built.doc_lengths, &sequential.doc_lengths);
                prop_assert_eq!(encode(&built), encode(&sequential));
            }
        }
    }

    #[test]
    fn decode_is_a_fixpoint_with_bit_identical_weights() {
        let idx = sample();
        let bytes = encode(&idx);
        let mut r = Reader::new(&bytes);
        let thawed = InvertedIndex::decode(&mut r).expect("decode");
        assert!(r.finished(), "decode must consume the payload exactly");
        assert_eq!(
            bytes,
            encode(&thawed),
            "decode → encode must be the identity"
        );
        let bits = |index: &InvertedIndex, model| {
            let matches = weights(index, "kernel", model);
            matches
                .iter()
                .map(|m| (m.0, m.1.to_bits(), m.2.to_bits()))
                .collect::<Vec<_>>()
        };
        for model in ScoringModel::ALL {
            assert_eq!(bits(&idx, model), bits(&thawed, model), "{model}");
        }
        // The thawed index stays appendable.
        let mut grown = thawed;
        grown.add_document("kernel regression");
        assert_eq!(grown.document_frequency("kernel"), 3);
    }

    #[test]
    fn decode_rejects_dangling_doc_reference() {
        let idx = sample();
        let bytes = encode(&idx);
        // The first posting sits right after the doc-length table, term
        // heap, 16-byte entry table, and posting_total word.
        let mut r = Reader::new(&bytes);
        let doc_count = r.u32().unwrap();
        for _ in 0..doc_count {
            r.u32().unwrap();
        }
        let term_count = r.u32().unwrap();
        let heap_len = r.u32().unwrap();
        r.take(heap_len as usize).unwrap();
        r.take(term_count as usize * 16).unwrap();
        let posting_total = r.u32().unwrap();
        assert!(posting_total > 0);
        let pos = bytes.len() - r.remaining();
        // A dangling doc id, a zero tf (it would feed `ln 0`), and a tf
        // larger than its document are each rejected with one line.
        for (offset, value) in [(0, u32::MAX), (4, 0), (4, 1_000)] {
            let mut corrupt = bytes.clone();
            corrupt[pos + offset..pos + offset + 4].copy_from_slice(&value.to_le_bytes());
            let err = InvertedIndex::decode(&mut Reader::new(&corrupt)).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
            assert!(!err.to_string().contains('\n'), "{err}");
        }
    }

    #[test]
    fn append_documents_matches_add_document() {
        let texts = [
            "kernel overflow kernel panic in routing daemon",
            "Kernel PANIC: routing daemons overflowed",
        ];
        let mut grown = sample();
        for text in texts {
            grown.add_document(text);
        }
        let mut appended = sample();
        appended.append_documents(&texts);
        assert_eq!(
            encode(&grown),
            encode(&appended),
            "memoized append must be byte-identical"
        );
        assert_eq!(grown.term_ids, appended.term_ids);
        assert_eq!(
            grown.average_document_length(),
            appended.average_document_length()
        );
    }
}
