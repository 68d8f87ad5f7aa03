//! Zero-copy snapshot views: query a `.cpsnap` byte image in place.
//!
//! [`open`] validates a mapped snapshot in *O(header)* — magic, version,
//! the `snapshot_id` integrity check over the section table, and an exact
//! geometric tiling of every section (each family's id table, document
//! lengths, term heap, entry table, and postings arena must account for
//! every byte) — and returns a [`SnapshotView`] that reads the bytes where
//! they are. No record is decoded and no term is re-interned: a
//! [`ViewEngine`] binary-searches the sorted on-disk term dictionary and
//! iterates postings straight out of the file image, which is what makes
//! cold start *O(read + header)* instead of *O(decode everything)*. The
//! one linear pass, summing document lengths for BM25's mean length,
//! happens when a [`ViewEngine`] is built, never in [`open`].
//!
//! Safety without `unsafe`: the view never transmutes. Every multi-byte
//! field goes through `from_le_bytes` on a bounds-checked subslice, and
//! the query hot path uses *clamped* reads — an out-of-range entry (only
//! possible when the caller skipped [`open_verified`]'s checksum pass)
//! degrades to a term miss, a truncated posting list or a meaningless
//! score, never a panic.
//!
//! Equivalence contract: every query on a [`ViewEngine`] returns results
//! byte-identical (ids, order, score bits) to the same query on the owned
//! [`SearchEngine`] decoded from the same snapshot. The engine scores
//! through the same generic [`run_family`](crate::engine) path and the
//! same weight function; the view merely substitutes where postings and
//! document lengths are read from. The proptest suite in
//! `tests/view_equivalence.rs` holds this across corpus scales and delta
//! chains.

use std::cell::RefCell;
use std::sync::Arc;

use cpssec_attackdb::snapshot as record_wire;
use cpssec_attackdb::snapshot::Reader;
use cpssec_attackdb::{
    AttackPattern, AttackVectorId, CapecId, Corpus, CveId, CweId, Vulnerability, Weakness,
};
use cpssec_model::{Channel, ChannelId, Component, Fidelity, SystemModel};

use crate::engine::{par_fan_out, prepare_query, run_family, MatchConfig, MatchSet, QueryScratch};
use crate::index::{DocId, Posting, TermLookup};
use crate::score::average_length;
use crate::snapshot::{
    checked_sections, find_section, split_sections, Section, SnapshotError, SEC_CORPUS,
    SEC_PATTERNS, SEC_VULNERABILITIES, SEC_WEAKNESSES,
};

/// Bytes per term entry in the wire layout (see [`crate::snapshot`]).
const TERM_ENTRY_LEN: usize = 16;
/// Bytes per posting in the wire layout.
const POSTING_LEN: usize = 8;

/// Reads a `u32` at `off`, clamping out-of-range access to zero.
fn u32_at(bytes: &[u8], off: usize) -> u32 {
    bytes
        .get(off..off + 4)
        .map_or(0, |b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

/// Reads a `u16` at `off`, clamping out-of-range access to zero.
fn u16_at(bytes: &[u8], off: usize) -> u16 {
    bytes
        .get(off..off + 2)
        .map_or(0, |b| u16::from_le_bytes(b.try_into().expect("2 bytes")))
}

/// Absolute byte spans of one record family directory in the corpus
/// section: count, per-record offset table, and the record blob.
#[derive(Debug, Clone, Copy)]
struct RecordFamilySpans {
    count: u32,
    offsets_off: usize,
    blob_off: usize,
    blob_len: u32,
}

/// Absolute byte spans of one indexed family section: the id table plus
/// the five regions of the columnar inverted index.
#[derive(Debug, Clone, Copy)]
struct FamilySpans {
    ids_off: usize,
    id_stride: usize,
    doc_count: u32,
    lengths_off: usize,
    term_count: u32,
    heap_off: usize,
    heap_len: u32,
    entries_off: usize,
    posting_total: u32,
    postings_off: usize,
}

/// A validated, zero-copy handle onto a `.cpsnap` byte image.
///
/// The bytes live in one shared `Arc<[u8]>`; clones of the view share
/// them. Construction ([`open`]) costs *O(header)*; all payload access is
/// lazy and in place.
#[derive(Debug, Clone)]
pub struct SnapshotView {
    bytes: Arc<[u8]>,
    snapshot_id: u64,
    corpus: [RecordFamilySpans; 3],
    patterns: FamilySpans,
    weaknesses: FamilySpans,
    vulnerabilities: FamilySpans,
}

/// Parses one family section into spans, verifying that the declared
/// regions tile the section payload exactly.
fn parse_family_section(
    section: &Section<'_>,
    id_stride: usize,
) -> Result<FamilySpans, SnapshotError> {
    let base = section.offset as usize;
    let payload = section.payload;
    let pos = |r: &Reader<'_>| base + (payload.len() - r.remaining());
    let mut r = Reader::new(payload);
    let id_count = r.u32()?;
    let ids_off = pos(&r);
    r.take(id_count as usize * id_stride)?;
    let doc_count = r.u32()?;
    if doc_count != id_count {
        return Err(SnapshotError::Corrupt(format!(
            "`{}` id table has {id_count} entries for {doc_count} indexed documents",
            section.name
        )));
    }
    let lengths_off = pos(&r);
    r.take(doc_count as usize * 4)?;
    let term_count = r.u32()?;
    let heap_len = r.u32()?;
    let heap_off = pos(&r);
    r.take(heap_len as usize)?;
    let entries_off = pos(&r);
    r.take(term_count as usize * TERM_ENTRY_LEN)?;
    let posting_total = r.u32()?;
    let postings_off = pos(&r);
    r.take(posting_total as usize * POSTING_LEN)?;
    if !r.finished() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing byte(s) in `{}` section",
            r.remaining(),
            section.name
        )));
    }
    Ok(FamilySpans {
        ids_off,
        id_stride,
        doc_count,
        lengths_off,
        term_count,
        heap_off,
        heap_len,
        entries_off,
        posting_total,
        postings_off,
    })
}

/// Parses the corpus section's three record directories into spans.
fn parse_corpus_section(section: &Section<'_>) -> Result<[RecordFamilySpans; 3], SnapshotError> {
    let base = section.offset as usize;
    let payload = section.payload;
    let pos = |r: &Reader<'_>| base + (payload.len() - r.remaining());
    let mut r = Reader::new(payload);
    let mut families = [RecordFamilySpans {
        count: 0,
        offsets_off: 0,
        blob_off: 0,
        blob_len: 0,
    }; 3];
    for family in &mut families {
        let count = r.u32()?;
        let offsets_off = pos(&r);
        r.take(count as usize * 4)?;
        let blob_len = r.u32()?;
        let blob_off = pos(&r);
        r.take(blob_len as usize)?;
        *family = RecordFamilySpans {
            count,
            offsets_off,
            blob_off,
            blob_len,
        };
    }
    if !r.finished() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing byte(s) after the last record directory",
            r.remaining()
        )));
    }
    Ok(families)
}

/// Opens a snapshot byte image as a zero-copy view in *O(header)*.
///
/// Validates the magic, version, the section table's own integrity (via
/// `snapshot_id`), and the exact geometric tiling of every section — but
/// does **not** verify payload checksums; clamped reads keep queries over
/// silently corrupted payloads panic-free (they degrade to misses). Use
/// [`open_verified`] when the bytes come from an untrusted medium.
///
/// # Errors
///
/// Truncation, bad magic, unsupported version, a corrupt section table,
/// or section geometry that does not tile the payload.
pub fn open(bytes: Arc<[u8]>) -> Result<SnapshotView, SnapshotError> {
    let (_, snapshot_id, sections) = split_sections(&bytes)?;
    let corpus = parse_corpus_section(find_section(&sections, SEC_CORPUS)?)?;
    let patterns = parse_family_section(find_section(&sections, SEC_PATTERNS)?, 4)?;
    let weaknesses = parse_family_section(find_section(&sections, SEC_WEAKNESSES)?, 4)?;
    let vulnerabilities = parse_family_section(find_section(&sections, SEC_VULNERABILITIES)?, 6)?;
    if patterns.doc_count != corpus[0].count
        || weaknesses.doc_count != corpus[1].count
        || vulnerabilities.doc_count != corpus[2].count
    {
        return Err(SnapshotError::Corrupt(
            "index document counts disagree with the corpus record directories".into(),
        ));
    }
    drop(sections);
    Ok(SnapshotView {
        bytes,
        snapshot_id,
        corpus,
        patterns,
        weaknesses,
        vulnerabilities,
    })
}

/// [`open`] plus a full payload-checksum pass — still zero-copy, but every
/// section's FNV is verified before the view is returned.
///
/// # Errors
///
/// As [`open`], plus [`SnapshotError::ChecksumMismatch`] naming the first
/// corrupt section.
pub fn open_verified(bytes: Arc<[u8]>) -> Result<SnapshotView, SnapshotError> {
    checked_sections(&bytes)?;
    open(bytes)
}

impl SnapshotView {
    /// The snapshot's content fingerprint (see [`crate::snapshot`]): FNV
    /// over the section table, anchoring the `.cpsdelta` parent chain.
    #[must_use]
    pub fn snapshot_id(&self) -> u64 {
        self.snapshot_id
    }

    /// Total mapped bytes backing this view (the whole file image).
    #[must_use]
    pub fn mapped_len(&self) -> usize {
        self.bytes.len()
    }

    /// The record side of the snapshot, for random access without decode.
    #[must_use]
    pub fn corpus(&self) -> CorpusView<'_> {
        CorpusView { view: self }
    }

    fn index_view(&self, spans: FamilySpans, avg_len: f64) -> IndexView<'_> {
        IndexView {
            bytes: &self.bytes,
            spans,
            avg_len,
        }
    }

    /// BM25's mean document length of one family: the single O(documents)
    /// read a view needs, paid by [`ViewEngine`] construction.
    fn average_length(&self, spans: FamilySpans) -> f64 {
        let total: u64 = (0..spans.doc_count as usize)
            .map(|doc| u64::from(u32_at(&self.bytes, spans.lengths_off + doc * 4)))
            .sum();
        average_length(total, spans.doc_count as usize)
    }
}

/// Zero-copy access to the snapshot's record directories: counts and
/// per-record decode on demand (one record at a time, not the corpus).
#[derive(Debug, Clone, Copy)]
pub struct CorpusView<'a> {
    view: &'a SnapshotView,
}

impl<'a> CorpusView<'a> {
    /// Number of attack-pattern records.
    #[must_use]
    pub fn pattern_count(&self) -> usize {
        self.view.corpus[0].count as usize
    }

    /// Number of weakness records.
    #[must_use]
    pub fn weakness_count(&self) -> usize {
        self.view.corpus[1].count as usize
    }

    /// Number of vulnerability records.
    #[must_use]
    pub fn vulnerability_count(&self) -> usize {
        self.view.corpus[2].count as usize
    }

    /// Total records across the three families.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.pattern_count() + self.weakness_count() + self.vulnerability_count()
    }

    /// The encoded bytes of record `i` in family directory `fam`.
    fn record_bytes(&self, fam: usize, i: usize) -> Result<&'a [u8], SnapshotError> {
        let spans = self.view.corpus[fam];
        let bytes: &'a [u8] = &self.view.bytes;
        if i >= spans.count as usize {
            return Err(SnapshotError::Corrupt(format!(
                "record {i} is out of range for a {}-record directory",
                spans.count
            )));
        }
        let start = u32_at(bytes, spans.offsets_off + i * 4) as usize;
        let end = if i + 1 < spans.count as usize {
            u32_at(bytes, spans.offsets_off + (i + 1) * 4) as usize
        } else {
            spans.blob_len as usize
        };
        if start > end || end > spans.blob_len as usize {
            return Err(SnapshotError::Corrupt(format!(
                "record {i} directory entry is out of bounds"
            )));
        }
        Ok(&bytes[spans.blob_off + start..spans.blob_off + end])
    }

    fn decode_record<T>(
        &self,
        fam: usize,
        i: usize,
        decode: impl Fn(&mut Reader<'_>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        let mut r = Reader::new(self.record_bytes(fam, i)?);
        let record = decode(&mut r)?;
        if !r.finished() {
            return Err(SnapshotError::Corrupt(format!(
                "record {i} has {} trailing byte(s)",
                r.remaining()
            )));
        }
        Ok(record)
    }

    /// Decodes attack pattern `i` (directory order = ascending id).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on an out-of-range index or a record the
    /// checksum pass was skipped on that fails to decode.
    pub fn pattern(&self, i: usize) -> Result<AttackPattern, SnapshotError> {
        self.decode_record(0, i, record_wire::decode_pattern)
    }

    /// Decodes weakness `i` (directory order = ascending id).
    ///
    /// # Errors
    ///
    /// As [`Self::pattern`].
    pub fn weakness(&self, i: usize) -> Result<Weakness, SnapshotError> {
        self.decode_record(1, i, record_wire::decode_weakness)
    }

    /// Decodes vulnerability `i` (directory order = ascending id).
    ///
    /// # Errors
    ///
    /// As [`Self::pattern`].
    pub fn vulnerability(&self, i: usize) -> Result<Vulnerability, SnapshotError> {
        self.decode_record(2, i, record_wire::decode_vulnerability)
    }

    /// Decodes every record into an owned [`Corpus`] — the bridge from a
    /// mapped view to the owned world (e.g. building an association map).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on any malformed or duplicated record.
    pub fn decode_corpus(&self) -> Result<Corpus, SnapshotError> {
        let mut corpus = Corpus::new();
        let dup = |e: cpssec_attackdb::AttackDbError| SnapshotError::Corrupt(e.to_string());
        for i in 0..self.pattern_count() {
            corpus.add_pattern(self.pattern(i)?).map_err(dup)?;
        }
        for i in 0..self.weakness_count() {
            corpus.add_weakness(self.weakness(i)?).map_err(dup)?;
        }
        for i in 0..self.vulnerability_count() {
            corpus
                .add_vulnerability(self.vulnerability(i)?)
                .map_err(dup)?;
        }
        Ok(corpus)
    }
}

/// Zero-copy [`TermLookup`] over one family's columnar index bytes:
/// binary search on the sorted on-disk term dictionary, postings and
/// document lengths read straight from the section bytes. All reads are
/// clamped; corrupt entries degrade to misses or truncated iteration,
/// never a panic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndexView<'a> {
    bytes: &'a [u8],
    spans: FamilySpans,
    avg_len: f64,
}

impl<'a> IndexView<'a> {
    /// The heap bytes of term entry `i`, clamped to the heap span.
    fn term_bytes(&self, i: usize) -> &'a [u8] {
        let entry = self.spans.entries_off + i * TERM_ENTRY_LEN;
        let str_off = u32_at(self.bytes, entry) as usize;
        let str_len = u32_at(self.bytes, entry + 4) as usize;
        let heap_end = self.spans.heap_off + self.spans.heap_len as usize;
        let start = (self.spans.heap_off + str_off).min(heap_end);
        let end = start.saturating_add(str_len).min(heap_end);
        &self.bytes[start..end]
    }
}

/// Posting iterator reading `{doc, tf}` records in place.
/// Iteration stops early if a posting references a document outside the
/// family — the corruption guard that keeps the dense scratch table (sized
/// to `doc_count`) in bounds without verifying checksums up front.
pub(crate) struct ViewPostings<'a> {
    bytes: &'a [u8],
    off: usize,
    remaining: u32,
    doc_count: u32,
}

impl Iterator for ViewPostings<'_> {
    type Item = Posting;

    fn next(&mut self) -> Option<Posting> {
        if self.remaining == 0 {
            return None;
        }
        let doc = u32_at(self.bytes, self.off);
        if doc >= self.doc_count {
            self.remaining = 0;
            return None;
        }
        let tf = u32_at(self.bytes, self.off + 4);
        self.off += POSTING_LEN;
        self.remaining -= 1;
        Some(Posting {
            doc: DocId(doc),
            tf,
        })
    }
}

impl TermLookup for IndexView<'_> {
    type PostingIter<'b>
        = ViewPostings<'b>
    where
        Self: 'b;

    fn doc_count(&self) -> usize {
        self.spans.doc_count as usize
    }

    fn avg_len(&self) -> f64 {
        self.avg_len
    }

    fn doc_len(&self, doc: DocId) -> u32 {
        u32_at(self.bytes, self.spans.lengths_off + doc.index() * 4)
    }

    fn lookup(&self, term: &str) -> Option<(usize, Self::PostingIter<'_>)> {
        // Byte-lexicographic comparison equals `str` ordering, which is the
        // order `encode_into` sorted the dictionary by.
        let needle = term.as_bytes();
        let mut lo = 0usize;
        let mut hi = self.spans.term_count as usize;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.term_bytes(mid).cmp(needle) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let entry = self.spans.entries_off + mid * TERM_ENTRY_LEN;
                    let post_start = u32_at(self.bytes, entry + 8);
                    let post_len = u32_at(self.bytes, entry + 12);
                    // Clamp the span to the arena so a corrupt entry cannot
                    // run past the section.
                    let start = post_start.min(self.spans.posting_total);
                    let len = post_len.min(self.spans.posting_total - start);
                    return Some((
                        len as usize,
                        ViewPostings {
                            bytes: self.bytes,
                            off: self.spans.postings_off + start as usize * POSTING_LEN,
                            remaining: len,
                            doc_count: self.spans.doc_count,
                        },
                    ));
                }
            }
        }
        None
    }
}

thread_local! {
    static VIEW_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// A query engine over a [`SnapshotView`]: the zero-copy counterpart of
/// [`SearchEngine`](crate::SearchEngine), sharing its entire scoring path
/// ([`run_family`]) so results are byte-identical — only the postings
/// storage differs.
#[derive(Debug, Clone)]
pub struct ViewEngine {
    view: SnapshotView,
    config: MatchConfig,
    /// Mean document length per family (patterns, weaknesses,
    /// vulnerabilities), summed once here rather than per query.
    avg_lens: [f64; 3],
}

impl ViewEngine {
    /// Wraps a view with the default [`MatchConfig`].
    #[must_use]
    pub fn new(view: SnapshotView) -> Self {
        ViewEngine::with_config(view, MatchConfig::default())
    }

    /// Wraps a view with an explicit configuration. Reads every document
    /// length once, to compute each family's mean length.
    #[must_use]
    pub fn with_config(view: SnapshotView, config: MatchConfig) -> Self {
        let avg_lens = [view.patterns, view.weaknesses, view.vulnerabilities]
            .map(|spans| view.average_length(spans));
        ViewEngine {
            view,
            config,
            avg_lens,
        }
    }

    /// The underlying snapshot view.
    #[must_use]
    pub fn view(&self) -> &SnapshotView {
        &self.view
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> MatchConfig {
        self.config
    }

    /// Matches free text against all three families, reading postings
    /// straight from the snapshot bytes.
    #[must_use]
    pub fn match_text(&self, text: &str) -> MatchSet {
        VIEW_SCRATCH.with(|scratch| self.match_text_with(text, &mut scratch.borrow_mut()))
    }

    /// [`Self::match_text`] with an explicitly owned scratch.
    #[must_use]
    pub fn match_text_with(&self, text: &str, scratch: &mut QueryScratch) -> MatchSet {
        let (terms, extras) = prepare_query(text, self.config.expand_synonyms);
        let bytes: &[u8] = &self.view.bytes;
        let mut span = cpssec_obs::span!("score");
        let p = self.view.patterns;
        let w = self.view.weaknesses;
        let v = self.view.vulnerabilities;
        let [p_avg, w_avg, v_avg] = self.avg_lens;
        let set = MatchSet {
            patterns: run_family(
                &self.view.index_view(p, p_avg),
                &terms,
                &extras,
                self.config,
                scratch,
                |doc| AttackVectorId::Pattern(CapecId::new(u32_at(bytes, p.ids_off + doc * 4))),
            ),
            weaknesses: run_family(
                &self.view.index_view(w, w_avg),
                &terms,
                &extras,
                self.config,
                scratch,
                |doc| AttackVectorId::Weakness(CweId::new(u32_at(bytes, w.ids_off + doc * 4))),
            ),
            vulnerabilities: run_family(
                &self.view.index_view(v, v_avg),
                &terms,
                &extras,
                self.config,
                scratch,
                |doc| {
                    let off = v.ids_off + doc * v.id_stride;
                    AttackVectorId::Vulnerability(CveId::new(
                        u16_at(bytes, off),
                        u32_at(bytes, off + 2),
                    ))
                },
            ),
        };
        span.add_items(set.total() as u64);
        set
    }

    /// Matches one component's searchable text at a fidelity level.
    #[must_use]
    pub fn match_component(&self, component: &Component, level: Fidelity) -> MatchSet {
        self.match_text(&component.search_text(level))
    }

    /// Matches one channel's searchable text at a fidelity level.
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

    /// [`Self::match_model`] with the fan-out spread across scoped threads;
    /// output identical to the sequential path.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{encode, inspect};
    use crate::{ScoringModel, SearchEngine};
    use cpssec_attackdb::seed::{seed_corpus, table1_attributes};

    fn mapped() -> (Corpus, Arc<[u8]>) {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let bytes: Arc<[u8]> = encode(&corpus, &engine).into();
        (corpus, bytes)
    }

    fn assert_bit_identical(a: &MatchSet, b: &MatchSet, context: &str) {
        assert_eq!(a.counts(), b.counts(), "{context}");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.id, y.id, "{context}");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{context}");
            assert_eq!(x.matched_terms, y.matched_terms, "{context}");
        }
    }

    #[test]
    fn view_queries_are_byte_identical_to_owned() {
        let (corpus, bytes) = mapped();
        let owned = SearchEngine::build(&corpus);
        let view = ViewEngine::new(open(bytes).expect("open"));
        for query in table1_attributes() {
            assert_bit_identical(&owned.match_text(query), &view.match_text(query), query);
        }
        // Negative and empty queries agree too.
        for query in ["", "zephyr marmalade", "&&&"] {
            assert_bit_identical(&owned.match_text(query), &view.match_text(query), query);
        }
    }

    #[test]
    fn view_honors_every_scoring_configuration() {
        let (corpus, bytes) = mapped();
        let view = open(bytes).unwrap();
        for scoring in ScoringModel::ALL {
            for expand in [false, true] {
                let config = MatchConfig {
                    scoring,
                    expand_synonyms: expand,
                    max_hits: Some(5),
                    ..MatchConfig::default()
                };
                let owned = SearchEngine::with_config(&corpus, config);
                let ve = ViewEngine::with_config(view.clone(), config);
                for query in table1_attributes() {
                    assert_bit_identical(
                        &owned.match_text(query),
                        &ve.match_text(query),
                        &format!("{scoring:?} expand={expand} {query}"),
                    );
                }
            }
        }
    }

    #[test]
    fn corpus_view_round_trips_every_record() {
        let (corpus, bytes) = mapped();
        let view = open(bytes).unwrap();
        let cv = view.corpus();
        let stats = corpus.stats();
        assert_eq!(cv.pattern_count(), stats.patterns);
        assert_eq!(cv.weakness_count(), stats.weaknesses);
        assert_eq!(cv.vulnerability_count(), stats.vulnerabilities);
        assert_eq!(cv.decode_corpus().expect("decode"), corpus);
        // Random access agrees with id order.
        let first = cv.pattern(0).unwrap();
        assert_eq!(Some(&first), corpus.patterns().next());
        assert!(cv.pattern(cv.pattern_count()).is_err());
    }

    #[test]
    fn snapshot_id_matches_inspect() {
        let (_, bytes) = mapped();
        let info = inspect(&bytes).unwrap();
        let view = open(bytes.clone()).unwrap();
        assert_eq!(view.snapshot_id(), info.snapshot_id);
        assert_eq!(view.mapped_len(), bytes.len());
    }

    #[test]
    fn open_validates_geometry_and_open_verified_checks_payloads() {
        let (_, bytes) = mapped();
        assert!(open(bytes.clone()).is_ok());
        assert!(open_verified(bytes.clone()).is_ok());

        // Truncation breaks geometry for both paths.
        let cut: Arc<[u8]> = bytes[..bytes.len() - 1].to_vec().into();
        assert_eq!(open(cut).unwrap_err(), SnapshotError::Truncated);

        // A payload-interior flip passes open (O(header)) but fails the
        // verified path with a named section.
        let mut corrupt = bytes.to_vec();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        let corrupt: Arc<[u8]> = corrupt.into();
        assert!(open(corrupt.clone()).is_ok());
        assert_eq!(
            open_verified(corrupt).unwrap_err(),
            SnapshotError::ChecksumMismatch("vulnerabilities")
        );

        // A table flip trips the snapshot_id check in both.
        let mut table = bytes.to_vec();
        table[20] ^= 0xFF;
        let table: Arc<[u8]> = table.into();
        assert_eq!(
            open(table).unwrap_err(),
            SnapshotError::ChecksumMismatch("section table")
        );
    }

    #[test]
    fn unverified_view_never_panics_on_corrupt_payload_bytes() {
        let (_, bytes) = mapped();
        let survives = |corrupt: Vec<u8>| {
            // Geometry may now be invalid (header counts live in the
            // payload): an error is fine, a panic is not.
            if let Ok(view) = open(corrupt.into()) {
                for scoring in ScoringModel::ALL {
                    let config = MatchConfig {
                        scoring,
                        ..MatchConfig::default()
                    };
                    let ve = ViewEngine::with_config(view.clone(), config);
                    for query in table1_attributes() {
                        let _ = ve.match_text(query);
                    }
                }
            }
        };
        // Flip every byte of the vulnerabilities section (one at a time is
        // too slow here; stride through it) — results may differ, safety
        // may not.
        let info = inspect(&bytes).unwrap();
        let vuln = info.sections.last().unwrap();
        for pos in (vuln.offset as usize..(vuln.offset + vuln.len) as usize).step_by(97) {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= 0xFF;
            survives(corrupt);
        }
        // The words that feed the query-time weight: every posting's `tf`
        // set to 0 (`ln 0`), above its document's length, and past the
        // `ln` table; every document length set to 0 and to `u32::MAX`.
        let spans = open(bytes.clone()).unwrap().vulnerabilities;
        let tfs: Vec<usize> = (0..spans.posting_total as usize)
            .map(|i| spans.postings_off + i * POSTING_LEN + 4)
            .collect();
        let lens: Vec<usize> = (0..spans.doc_count as usize)
            .map(|i| spans.lengths_off + i * 4)
            .collect();
        assert!(lens.iter().all(|&off| u32_at(&bytes, off) < 1_000));
        for (words, value) in [
            (&tfs, 0),
            (&tfs, 1_000),
            (&tfs, u32::MAX),
            (&lens, 0),
            (&lens, u32::MAX),
        ] {
            let mut corrupt = bytes.to_vec();
            for &off in words {
                corrupt[off..off + 4].copy_from_slice(&value.to_le_bytes());
            }
            survives(corrupt);
        }
    }
}
