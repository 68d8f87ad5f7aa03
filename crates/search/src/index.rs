//! The inverted index of one record family, in the one form it takes.
//!
//! [`InvertedIndex`] is the builder: the memoized tokenize-and-intern loop,
//! sharded across threads for large inputs, ending in
//! [`InvertedIndex::encode_into`] — the only code that writes an index.
//! What it writes, the columnar family section of a `.cpsnap`, is also the
//! only form an index takes in memory: a [`Family`] owns the section bytes
//! plus the decoded record ids, the per-document `√max(len, 1)` column and
//! the token total, all computed in one pass when the section is opened. Queries binary-search
//! the sorted term dictionary and read `(doc, tf)` postings in place; every
//! weight is computed at query time by [`crate::score::TermScorer`], so
//! appending documents ([`Family::merge`]) invalidates nothing.

use std::collections::HashMap;

use cpssec_attackdb::snapshot::{put_u16, put_u32, Reader, SnapshotError};
use cpssec_attackdb::{AttackVectorId, CapecId, CveId, CweId};

use crate::score::{average_length, length_norm};
use crate::text::{for_each_word, normalize_word, tokenize};

/// One posting: a document and how often the term occurs in it.
#[derive(Debug, Clone, Copy)]
struct Posting {
    doc: u32,
    tf: u32,
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
fn push_runs(tids: &mut [u32], doc: u32, postings: &mut [Vec<Posting>]) {
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

/// The index builder: a term dictionary over doc-ascending `(doc, tf)`
/// postings plus per-document token counts, written out as the family
/// section that snapshots store and engines query.
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
}

impl InvertedIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        InvertedIndex::default()
    }

    /// Adds a document. Order of insertion defines document ids.
    pub fn add_document(&mut self, text: &str) {
        let doc = u32::try_from(self.doc_lengths.len()).expect("doc count fits u32");
        let mut tids: Vec<u32> = tokenize(text)
            .into_iter()
            .map(|term| intern(term, &mut self.term_ids, &mut self.postings))
            .collect();
        self.doc_lengths.push(tids.len() as u32);
        push_runs(&mut tids, doc, &mut self.postings);
    }

    /// Indexes `docs` as documents `first`, `first + 1`, …: the one
    /// tokenize-and-intern loop, run by every build shard.
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
            self.doc_lengths.push(tids.len() as u32);
            push_runs(&mut tids, first + offset as u32, &mut self.postings);
        }
    }

    /// Builds an index over `docs`, sharding tokenization and term
    /// interning across `std::thread::scope` workers when the input is
    /// large enough to amortize thread startup (below a few hundred
    /// documents per worker it builds on the calling thread). The result
    /// is identical (`==` on every observable, and byte-identical under
    /// snapshot encoding) to adding the documents one by one: shards own
    /// contiguous ascending doc-id ranges and the merge assigns term ids in
    /// global first-occurrence order.
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

    /// Serializes the index in the columnar wire layout a [`Family`]
    /// queries in place:
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
    /// Terms are written in lexicographic order (so a reader can
    /// binary-search the entry table in place) and each term's postings
    /// are contiguous in the arena. Nothing derived from the corpus size
    /// is stored: readers compute weights from `tf`, the document
    /// lengths, `df = post_len` and `N = doc_count`. Sorting also makes
    /// the bytes independent of term-id numbering, so the sections of two
    /// builds over the same documents are byte-identical.
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
                put_u32(out, p.doc);
                put_u32(out, p.tf);
            }
        }
    }
}

/// Bytes per term entry: `str_off`, `str_len`, `post_start`, `post_len`.
const TERM_ENTRY_LEN: usize = 16;
/// Bytes per posting: `doc`, `tf`.
pub(crate) const POSTING_LEN: usize = 8;

/// Reads the little-endian `u32` at `off`.
fn u32_at(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

/// Reads the two little-endian `u32`s at `off` with one 8-byte load.
fn u32_pair_at(bytes: &[u8], off: usize) -> (u32, u32) {
    let pair = u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
    (pair as u32, (pair >> 32) as u32)
}

/// The record family a section indexes, which fixes its id encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FamilyKind {
    Patterns,
    Weaknesses,
    Vulnerabilities,
}

impl FamilyKind {
    /// The three families, in section order.
    pub(crate) const ALL: [FamilyKind; 3] = [
        FamilyKind::Patterns,
        FamilyKind::Weaknesses,
        FamilyKind::Vulnerabilities,
    ];

    /// The section name, as errors report it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FamilyKind::Patterns => "patterns",
            FamilyKind::Weaknesses => "weaknesses",
            FamilyKind::Vulnerabilities => "vulnerabilities",
        }
    }

    /// Bytes per id-table entry: a CAPEC or CWE number, or a CVE year and
    /// number.
    fn id_len(self) -> usize {
        match self {
            FamilyKind::Vulnerabilities => 6,
            FamilyKind::Patterns | FamilyKind::Weaknesses => 4,
        }
    }

    /// Reads id-table entry `doc` of a section.
    fn id_at(self, section: &[u8], doc: usize) -> AttackVectorId {
        let at = 4 + doc * self.id_len();
        match self {
            FamilyKind::Patterns => CapecId::new(u32_at(section, at)).into(),
            FamilyKind::Weaknesses => CweId::new(u32_at(section, at)).into(),
            FamilyKind::Vulnerabilities => {
                let year = u16::from_le_bytes([section[at], section[at + 1]]);
                CveId::new(year, u32_at(section, at + 2)).into()
            }
        }
    }
}

/// Appends one id-table entry.
fn put_id(out: &mut Vec<u8>, id: AttackVectorId) {
    match id {
        AttackVectorId::Pattern(id) => put_u32(out, id.number()),
        AttackVectorId::Weakness(id) => put_u32(out, id.number()),
        AttackVectorId::Vulnerability(id) => {
            put_u16(out, id.year());
            put_u32(out, id.number());
        }
    }
}

/// Where each region of a family section starts. A `Layout` exists only
/// for bytes whose declared regions tile the section exactly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    pub(crate) doc_count: usize,
    pub(crate) lengths_off: usize,
    term_count: usize,
    heap_off: usize,
    heap_len: usize,
    entries_off: usize,
    pub(crate) posting_total: usize,
    pub(crate) postings_off: usize,
}

impl Layout {
    /// Reads a family section's region counts and checks that the id
    /// table, document lengths, term heap, entry table and postings arena
    /// account for every byte — *O(1)* reads, no payload scan.
    pub(crate) fn parse(kind: FamilyKind, bytes: &[u8]) -> Result<Layout, SnapshotError> {
        let mut r = Reader::new(bytes);
        let pos = |r: &Reader<'_>| bytes.len() - r.remaining();
        let id_count = r.u32()?;
        r.take(id_count as usize * kind.id_len())?;
        let doc_count = r.u32()?;
        if doc_count != id_count {
            return Err(SnapshotError::Corrupt(format!(
                "`{}` id table has {id_count} entries for {doc_count} indexed documents",
                kind.name()
            )));
        }
        let lengths_off = pos(&r);
        r.take(doc_count as usize * 4)?;
        let term_count = r.u32()? as usize;
        let heap_len = r.u32()? as usize;
        let heap_off = pos(&r);
        r.take(heap_len)?;
        let entries_off = pos(&r);
        r.take(term_count * TERM_ENTRY_LEN)?;
        let posting_total = r.u32()? as usize;
        let postings_off = pos(&r);
        r.take(posting_total * POSTING_LEN)?;
        if !r.finished() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing byte(s) in `{}` section",
                r.remaining(),
                kind.name()
            )));
        }
        Ok(Layout {
            doc_count: doc_count as usize,
            lengths_off,
            term_count,
            heap_off,
            heap_len,
            entries_off,
            posting_total,
            postings_off,
        })
    }
}

/// Where each first byte's run of a section's sorted dictionary begins
/// (see `Family::runs`). It reads only bytes [`Layout::parse`] has
/// bounded, so it cannot panic on a section [`Family::open`] has yet to
/// validate; it is exact once the dictionary is known to be sorted.
fn first_byte_runs(section: &[u8], layout: &Layout) -> [u32; 257] {
    let heap = &section[layout.heap_off..layout.heap_off + layout.heap_len];
    let mut runs = [0u32; 257];
    for i in 0..layout.term_count {
        let (str_off, str_len) = u32_pair_at(section, layout.entries_off + i * TERM_ENTRY_LEN);
        match heap.get(str_off as usize).filter(|_| str_len > 0) {
            Some(&b) => runs[usize::from(b) + 1] += 1,
            None => runs[0] += 1,
        }
    }
    for b in 1..runs.len() {
        runs[b] += runs[b - 1];
    }
    runs
}

/// One record family's index: its family section (the id table, then the
/// [`InvertedIndex::encode_into`] layout) plus the columns a query reads
/// per posting or per hit. Every accessor trusts the section, so bytes
/// from outside reach a `Family` only through [`Family::open`]'s checks.
#[derive(Debug)]
pub(crate) struct Family {
    kind: FamilyKind,
    bytes: Vec<u8>,
    layout: Layout,
    /// The id table, decoded: every hit names its record, and decoding
    /// the entry per hit made a paper-scale `match_model` ~6% slower
    /// (EXPERIMENTS §E17).
    ids: Vec<AttackVectorId>,
    /// `runs[b]..runs[b + 1]` are the dictionary entries whose first byte
    /// is `b` (an empty term sorts before them all, below `runs[0]`), so
    /// a lookup binary-searches one run instead of the whole dictionary.
    runs: [u32; 257],
    /// `√max(len, 1)` per document: the TF-IDF normalizer.
    norms: Vec<f64>,
    /// Sum of the document lengths, so BM25's mean length is O(1).
    total_tokens: u64,
}

impl Family {
    /// Indexes `records` — `(search text, id)` in id order — with the
    /// builder and encodes the result as this family's section.
    pub(crate) fn build(
        kind: FamilyKind,
        records: impl Iterator<Item = (String, AttackVectorId)>,
    ) -> Family {
        let (texts, ids): (Vec<String>, Vec<AttackVectorId>) = records.unzip();
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::try_from(ids.len()).expect("fits u32"));
        for &id in &ids {
            put_id(&mut bytes, id);
        }
        InvertedIndex::from_documents(&texts).encode_into(&mut bytes);
        let layout = Layout::parse(kind, &bytes).expect("a built section tiles");
        Family::with_columns(kind, bytes, layout)
    }

    /// Opens a family section from outside: the geometry of
    /// [`Layout::parse`], then every check the geometry cannot make — the
    /// term entries are contiguous, the dictionary is strictly sorted
    /// valid UTF-8 that consumes the heap exactly, and each posting names
    /// a document of this family with `1 <= tf <= len` (query-time
    /// scoring takes `ln tf`).
    pub(crate) fn open(kind: FamilyKind, bytes: Vec<u8>) -> Result<Family, SnapshotError> {
        let layout = Layout::parse(kind, &bytes)?;
        let family = Family::with_columns(kind, bytes, layout);
        family.validate()?;
        Ok(family)
    }

    /// Computes the per-document columns in one pass over the id table
    /// and the lengths.
    fn with_columns(kind: FamilyKind, bytes: Vec<u8>, layout: Layout) -> Family {
        let mut ids = Vec::with_capacity(layout.doc_count);
        let mut norms = Vec::with_capacity(layout.doc_count);
        let mut total_tokens = 0;
        for doc in 0..layout.doc_count {
            ids.push(kind.id_at(&bytes, doc));
            let len = u32_at(&bytes, layout.lengths_off + doc * 4);
            norms.push(length_norm(len));
            total_tokens += u64::from(len);
        }
        Family {
            kind,
            runs: first_byte_runs(&bytes, &layout),
            bytes,
            layout,
            ids,
            norms,
            total_tokens,
        }
    }

    fn validate(&self) -> Result<(), SnapshotError> {
        let corrupt = |detail: String| Err(SnapshotError::Corrupt(detail));
        let l = &self.layout;
        let heap = &self.bytes[l.heap_off..l.heap_off + l.heap_len];
        let (mut str_end, mut post_end) = (0, 0);
        let mut prev: Option<&[u8]> = None;
        for i in 0..l.term_count {
            let [str_off, str_len, post_start, post_len] = self.entry(i);
            if str_off != str_end || post_start != post_end {
                return corrupt(format!(
                    "term {i} entry is not contiguous with its predecessor"
                ));
            }
            let Some(term) = heap.get(str_off..str_off + str_len) else {
                return corrupt(format!("term {i} string overruns the heap"));
            };
            if core::str::from_utf8(term).is_err() {
                return corrupt(format!("term {i} is not valid UTF-8"));
            }
            if prev.is_some_and(|prev| prev >= term) {
                return corrupt(format!(
                    "term dictionary is not strictly sorted at entry {i}"
                ));
            }
            prev = Some(term);
            str_end += str_len;
            post_end += post_len;
        }
        if str_end != heap.len() {
            return corrupt(format!(
                "term heap holds {} byte(s) beyond the last term",
                heap.len() - str_end
            ));
        }
        if post_end != l.posting_total {
            return corrupt(format!(
                "posting arena declares {} entries but the terms span {post_end}",
                l.posting_total
            ));
        }
        let arena = &self.bytes[l.postings_off..l.postings_off + l.posting_total * POSTING_LEN];
        for p in arena.chunks_exact(POSTING_LEN) {
            let (doc, tf) = u32_pair_at(p, 0);
            if doc as usize >= l.doc_count {
                return corrupt(format!(
                    "posting references document {doc} of {}",
                    l.doc_count
                ));
            }
            let len = self.doc_len(doc as usize);
            if tf == 0 || tf > len {
                return corrupt(format!(
                    "posting tf {tf} is outside 1..={len} for document {doc}"
                ));
            }
        }
        Ok(())
    }

    /// Term entry `i` as `[str_off, str_len, post_start, post_len]`.
    fn entry(&self, i: usize) -> [usize; 4] {
        let at = self.layout.entries_off + i * TERM_ENTRY_LEN;
        [0, 4, 8, 12].map(|field| u32_at(&self.bytes, at + field) as usize)
    }

    /// The text of term `i`.
    fn term(&self, i: usize) -> &[u8] {
        let at = self.layout.entries_off + i * TERM_ENTRY_LEN;
        let (str_off, str_len) = u32_pair_at(&self.bytes, at);
        &self.bytes[self.layout.heap_off + str_off as usize..][..str_len as usize]
    }

    /// The postings of term `i`, as raw `{doc, tf}` records.
    fn posting_bytes(&self, i: usize) -> &[u8] {
        let [.., post_start, post_len] = self.entry(i);
        &self.bytes[self.layout.postings_off + post_start * POSTING_LEN..][..post_len * POSTING_LEN]
    }

    /// The postings of `term` as `(doc, tf)`, doc-ascending, found by
    /// binary search on its first byte's run of the sorted dictionary;
    /// `None` if no document holds it. Byte order equals `str` order, the
    /// order the builder sorted by.
    pub(crate) fn postings(
        &self,
        term: &str,
    ) -> Option<impl ExactSizeIterator<Item = (usize, u32)> + '_> {
        let (lo, hi) = match term.as_bytes().first() {
            Some(&b) => (self.runs[usize::from(b)], self.runs[usize::from(b) + 1]),
            None => (0, self.runs[0]),
        };
        let (mut lo, mut hi) = (lo as usize, hi as usize);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.term(mid).cmp(term.as_bytes()) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    return Some(self.posting_bytes(mid).chunks_exact(POSTING_LEN).map(|p| {
                        let (doc, tf) = u32_pair_at(p, 0);
                        (doc as usize, tf)
                    }));
                }
            }
        }
        None
    }

    /// The section name, as errors report it.
    pub(crate) fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Number of documents.
    pub(crate) fn doc_count(&self) -> usize {
        self.layout.doc_count
    }

    /// Token count of document `doc`.
    pub(crate) fn doc_len(&self, doc: usize) -> u32 {
        u32_at(&self.bytes, self.layout.lengths_off + doc * 4)
    }

    /// `√max(len, 1)` of document `doc`.
    pub(crate) fn norm(&self, doc: usize) -> f64 {
        self.norms[doc]
    }

    /// Mean document length (BM25's `avg`).
    pub(crate) fn avg_len(&self) -> f64 {
        average_length(self.total_tokens, self.doc_count())
    }

    /// The record id of document `doc`.
    pub(crate) fn id(&self, doc: usize) -> AttackVectorId {
        self.ids[doc]
    }

    /// The section bytes, exactly as a snapshot stores them.
    pub(crate) fn section(&self) -> &[u8] {
        &self.bytes
    }

    /// Appends `batch`'s documents after this family's, as documents
    /// `doc_count()..`, in one pass over the two sections: ids and lengths
    /// concatenate, the two sorted dictionaries are walked in lockstep,
    /// and each term of the union keeps this family's postings followed by
    /// the batch's, doc ids shifted. Postings stay doc-ascending, so the
    /// result is byte-identical to building the concatenated documents
    /// from scratch.
    pub(crate) fn merge(&self, batch: &Family) -> Family {
        let (a, b) = (&self.layout, &batch.layout);
        let shift = a.doc_count as u32;
        let doc_count = u32::try_from(a.doc_count + b.doc_count).expect("doc count fits u32");
        // The union dictionary in order: the term's index on each side.
        let mut terms: Vec<(Option<usize>, Option<usize>)> =
            Vec::with_capacity(a.term_count + b.term_count);
        let (mut i, mut j) = (0, 0);
        while i < a.term_count || j < b.term_count {
            let order = match (i < a.term_count, j < b.term_count) {
                (true, true) => self.term(i).cmp(batch.term(j)),
                (true, false) => std::cmp::Ordering::Less,
                _ => std::cmp::Ordering::Greater,
            };
            terms.push((order.is_le().then_some(i), order.is_ge().then_some(j)));
            i += usize::from(order.is_le());
            j += usize::from(order.is_ge());
        }
        let text = |&(i, j): &(Option<usize>, Option<usize>)| match i {
            Some(i) => self.term(i),
            None => batch.term(j.expect("a union term is on one side")),
        };
        let post_len = |&(i, j): &(Option<usize>, Option<usize>)| {
            i.map_or(0, |i| self.entry(i)[3]) + j.map_or(0, |j| batch.entry(j)[3])
        };

        let mut out = Vec::with_capacity(self.bytes.len() + batch.bytes.len());
        put_u32(&mut out, doc_count);
        out.extend_from_slice(&self.bytes[4..a.lengths_off - 4]);
        out.extend_from_slice(&batch.bytes[4..b.lengths_off - 4]);
        put_u32(&mut out, doc_count);
        out.extend_from_slice(&self.bytes[a.lengths_off..a.heap_off - 8]);
        out.extend_from_slice(&batch.bytes[b.lengths_off..b.heap_off - 8]);
        put_u32(&mut out, terms.len() as u32);
        let heap_len: usize = terms.iter().map(|t| text(t).len()).sum();
        put_u32(
            &mut out,
            u32::try_from(heap_len).expect("term heap fits u32"),
        );
        for t in &terms {
            out.extend_from_slice(text(t));
        }
        let (mut str_off, mut post_start) = (0, 0);
        for t in &terms {
            let (str_len, post_len) = (text(t).len(), post_len(t));
            for field in [str_off, str_len, post_start, post_len] {
                put_u32(
                    &mut out,
                    u32::try_from(field).expect("section offsets fit u32"),
                );
            }
            str_off += str_len;
            post_start += post_len;
        }
        put_u32(
            &mut out,
            u32::try_from(post_start).expect("posting count fits u32"),
        );
        for &(i, j) in &terms {
            if let Some(i) = i {
                out.extend_from_slice(self.posting_bytes(i));
            }
            for p in j
                .map_or(&[][..], |j| batch.posting_bytes(j))
                .chunks_exact(POSTING_LEN)
            {
                put_u32(&mut out, u32_at(p, 0) + shift);
                out.extend_from_slice(&p[4..]);
            }
        }
        let layout = Layout::parse(self.kind, &out).expect("a merged section tiles");
        Family {
            kind: self.kind,
            runs: first_byte_runs(&out, &layout),
            bytes: out,
            layout,
            ids: [&self.ids[..], &batch.ids[..]].concat(),
            norms: [&self.norms[..], &batch.norms[..]].concat(),
            total_tokens: self.total_tokens + batch.total_tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::{idf, ScoringModel, TermScorer};
    use proptest::prelude::*;

    /// A family over `docs`, document `i` carrying CWE id `i`.
    fn family(docs: &[&str]) -> Family {
        Family::build(
            FamilyKind::Weaknesses,
            docs.iter()
                .enumerate()
                .map(|(i, doc)| ((*doc).to_owned(), CweId::new(i as u32).into())),
        )
    }

    fn sample() -> Family {
        family(&[
            "buffer overflow in the kernel network stack",
            "kernel race condition",
            "cross site scripting in the web interface",
        ])
    }

    fn df(family: &Family, term: &str) -> usize {
        family.postings(term).map_or(0, |p| p.len())
    }

    /// `(doc, weight, idf)` for every posting of `term` under `model`,
    /// scored exactly as the query engine scores them.
    fn weights(family: &Family, term: &str, model: ScoringModel) -> Vec<(usize, f64, f64)> {
        let Some(postings) = family.postings(term) else {
            return Vec::new();
        };
        let scorer = TermScorer::new(model, family.doc_count(), postings.len(), family.avg_len());
        postings
            .map(|(doc, tf)| (doc, scorer.weight(family, doc, tf), scorer.idf))
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
        assert_eq!(
            df(&family(&["kernel kernel kernel", "kernel"]), "kernel"),
            2
        );
    }

    #[test]
    fn idf_orders_rare_above_common() {
        let fam = sample();
        let idf = |term| idf(fam.doc_count(), df(&fam, term));
        assert!(idf("overflow") > idf("kernel"));
        assert_eq!(idf("ghost"), 0.0);
    }

    #[test]
    fn documents_are_normalized_terms_are_verbatim() {
        let fam = sample();
        // Documents were stemmed: "scripting" → "script".
        assert_eq!(df(&fam, "script"), 1);
        assert_eq!(df(&fam, "scripting"), 0);
    }

    #[test]
    fn term_matches_weight_repeats_sublinearly() {
        let fam = family(&["kernel kernel", "other text entirely"]);
        let matches = weights(&fam, "kernel", ScoringModel::TfIdf);
        assert_eq!(matches.len(), 1);
        // Normalized weight: (1 + ln 2) * idf / sqrt(2).
        let expected = (1.0 + 2.0f64.ln()) * 2.0f64.ln() / 2.0f64.sqrt();
        assert!((matches[0].1 - expected).abs() < 1e-12);
    }

    #[test]
    fn bm25_weights_saturate_with_term_frequency() {
        let fam = family(&[
            "kernel",
            "kernel kernel kernel kernel kernel",
            "other words here",
        ]);
        let matches = weights(&fam, "kernel", ScoringModel::Bm25);
        assert_eq!(matches.len(), 2);
        // Five occurrences score better than one, but far less than 5x.
        assert!(matches[1].1 > matches[0].1);
        assert!(matches[1].1 < 3.0 * matches[0].1);
    }

    #[test]
    fn bm25_idf_differs_from_tfidf_but_reported_idf_is_shared() {
        let fam = sample();
        let tfidf = weights(&fam, "kernel", ScoringModel::TfIdf);
        let bm25 = weights(&fam, "kernel", ScoringModel::Bm25);
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
        let long = "kernel ".repeat(40);
        let fam = family(&[
            "buffer overflow in the kernel network stack",
            "kernel race condition",
            "cross site scripting in the web interface",
            &long,
            "kernel kernel panic",
        ]);
        let n = fam.doc_count() as f64;
        let avg = fam.avg_len();
        let df = df(&fam, "kernel") as f64;
        let idf = (n / df).ln();
        let bm25_idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
        let postings: Vec<(usize, u32)> = fam.postings("kernel").expect("indexed").collect();
        let tfidf = weights(&fam, "kernel", ScoringModel::TfIdf);
        let bm25 = weights(&fam, "kernel", ScoringModel::Bm25);
        assert!(postings.iter().any(|&(_, tf)| tf >= 32));
        for ((&(doc, tf), t), b) in postings.iter().zip(&tfidf).zip(&bm25) {
            let (tf, len) = (f64::from(tf), f64::from(fam.doc_len(doc)));
            let tfidf_bits = ((1.0 + tf.ln()) * idf / len.max(1.0).sqrt()).to_bits();
            let saturation = tf * (1.2 + 1.0) / (tf + 1.2 * (1.0 - 0.75 + 0.75 * len / avg));
            let expected = (tfidf_bits, (bm25_idf * saturation).to_bits(), idf.to_bits());
            let got = (t.1.to_bits(), b.1.to_bits(), t.2.to_bits());
            assert_eq!(got, expected, "tf={tf}");
        }
    }

    #[test]
    fn average_length_is_safe_on_empty_family() {
        assert_eq!(family(&[]).avg_len(), 1.0);
        // "right"/"here" are kept, so the second document has 4 tokens.
        assert_eq!(
            family(&["two words", "four words right here"]).avg_len(),
            3.0
        );
    }

    #[test]
    fn columns_track_token_counts_and_ids() {
        let fam = sample();
        assert_eq!(fam.doc_len(1), 3);
        assert_eq!(fam.norm(1).to_bits(), 3.0f64.sqrt().to_bits());
        assert_eq!(fam.id(2), CweId::new(2).into());
        let cves = Family::build(
            FamilyKind::Vulnerabilities,
            [("kernel".to_owned(), CveId::new(2021, 7).into())].into_iter(),
        );
        assert_eq!(cves.id(0), CveId::new(2021, 7).into());
    }

    #[test]
    fn empty_family_is_well_behaved() {
        let fam = family(&[]);
        assert_eq!(fam.doc_count(), 0);
        assert!(fam.postings("anything").is_none());
        assert!(weights(&fam, "anything", ScoringModel::TfIdf).is_empty());
        assert!(weights(&fam, "anything", ScoringModel::Bm25).is_empty());
    }

    #[test]
    fn weights_follow_the_document_count_as_documents_are_merged() {
        let base = family(&["kernel overflow"]);
        let before = weights(&base, "kernel", ScoringModel::TfIdf)[0].2;
        let grown = base.merge(&family(&["kernel panic", "web interface"]));
        let after = weights(&grown, "kernel", ScoringModel::TfIdf);
        // df went 1/1 → 2/3: the idf follows N with nothing to invalidate.
        assert!(before.abs() < 1e-12, "idf of the only doc's term is ln(1)");
        assert!((after[0].2 - (3.0f64 / 2.0).ln()).abs() < 1e-12);
        assert_eq!(after.len(), 2);
        assert_eq!(
            grown.id(2),
            CweId::new(1).into(),
            "batch ids keep their values"
        );
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
        /// the documents one by one: identical term ids and encoding. And
        /// merging the families of any split of the documents gives the
        /// section of the whole.
        #[test]
        fn memoized_build_and_merge_match_per_document_add(
            docs in prop::collection::vec(
                prop::collection::vec(
                    (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
                    0..12,
                ),
                1..24,
            ),
            split in any::<prop::sample::Index>(),
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
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            let (head, tail) = refs.split_at(split.index(refs.len() + 1));
            let merged = family(head).merge(&family(tail).with_ids_from(head.len()));
            let whole = family(&refs);
            prop_assert_eq!(merged.section(), whole.section());
            // So do the derived columns, and the merged dictionary's first
            // byte runs find every term.
            prop_assert_eq!(merged.runs, whole.runs);
            prop_assert_eq!(&merged.ids, &whole.ids);
            prop_assert_eq!(&merged.norms, &whole.norms);
            for i in 0..whole.layout.term_count {
                let term = std::str::from_utf8(whole.term(i)).unwrap();
                let df = merged.postings(term).map(|p| p.len());
                prop_assert_eq!(df, Some(whole.entry(i)[3]), "{}", term);
            }
        }
    }

    impl Family {
        /// This family with document `i` carrying CWE id `first + i`.
        fn with_ids_from(&self, first: usize) -> Family {
            let mut bytes = self.bytes.clone();
            for doc in 0..self.doc_count() {
                let at = 4 + doc * 4;
                bytes[at..at + 4].copy_from_slice(&((first + doc) as u32).to_le_bytes());
            }
            Family::open(self.kind, bytes).expect("ids are not validated")
        }
    }

    #[test]
    fn open_is_a_fixpoint_with_bit_identical_weights() {
        let built = sample();
        let opened = Family::open(built.kind, built.section().to_vec()).expect("open");
        assert_eq!(built.section(), opened.section());
        for model in ScoringModel::ALL {
            let bits = |fam: &Family| {
                weights(fam, "kernel", model)
                    .iter()
                    .map(|m| (m.0, m.1.to_bits(), m.2.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&built), bits(&opened), "{model}");
        }
    }

    #[test]
    fn lookups_find_every_term_and_nothing_else() {
        let built = family(&[
            "apple banana 9063 zeta",
            "ωmega 中s apples apple",
            "Zulu ßeta banana",
        ]);
        let opened = Family::open(built.kind, built.section().to_vec()).expect("open");
        assert_eq!(built.runs, opened.runs);
        for i in 0..built.layout.term_count {
            let term = std::str::from_utf8(built.term(i)).unwrap();
            assert_eq!(df(&opened, term), built.entry(i)[3], "{term}");
        }
        // Before, between and after the runs, a neighbouring prefix, a
        // first byte no term starts with, and the empty term.
        for absent in ["", "0", "a", "ap", "applx", "c", "zz", "~", "ω", "中", "ÿ"] {
            assert!(opened.postings(absent).is_none(), "{absent}");
        }
        assert!(family(&[]).postings("").is_none());
    }

    #[test]
    fn merge_onto_or_of_an_empty_family_is_the_identity() {
        let fam = sample();
        assert_eq!(fam.merge(&family(&[])).section(), fam.section());
        assert_eq!(family(&[]).merge(&fam).section(), fam.section());
    }

    #[test]
    fn open_rejects_semantic_corruption_with_one_line_errors() {
        let bytes = sample().section().to_vec();
        let layout = Layout::parse(FamilyKind::Weaknesses, &bytes).unwrap();
        let (posting, entry, heap) = (layout.postings_off, layout.entries_off, layout.heap_off);
        // A dangling doc id, a zero tf (it would feed `ln 0`), a tf larger
        // than its document, a non-contiguous entry, a first term that is
        // not UTF-8 or sorts after the second are each rejected with one
        // line.
        for (at, value, expect) in [
            (posting, u32::MAX, "references document"),
            (posting + 4, 0, "tf 0 is outside"),
            (posting + 4, 1_000, "tf 1000 is outside"),
            (entry + TERM_ENTRY_LEN, 0, "not contiguous"),
            (heap, u32::MAX, "not valid UTF-8"),
            (heap, u32::from_le_bytes(*b"zzzz"), "not strictly sorted"),
        ] {
            let mut corrupt = bytes.clone();
            corrupt[at..at + 4].copy_from_slice(&value.to_le_bytes());
            let err = Family::open(FamilyKind::Weaknesses, corrupt).unwrap_err();
            assert!(err.to_string().contains(expect), "{err}");
            assert!(!err.to_string().contains('\n'), "{err}");
        }
    }
}
