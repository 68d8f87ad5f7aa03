//! Snapshot views: validate a `.cpsnap` byte image in place.
//!
//! [`open`] validates a mapped snapshot in *O(header)* — magic, version,
//! the `snapshot_id` integrity check over the section table, and an exact
//! geometric tiling of every section (each family's id table, document
//! lengths, term heap, entry table, and postings arena must account for
//! every byte) — and returns a [`SnapshotView`] that reads the bytes where
//! they are. No record is decoded and no index is opened, which is what
//! makes a mapped boot's first answer *O(read + header)* on `/healthz`.
//! [`SearchEngine::from_view`](crate::SearchEngine::from_view) then copies
//! the three family sections out and validates each in full, the same
//! checks [`crate::snapshot::decode`] runs, and [`SnapshotView::thaw_corpus`]
//! decodes the records with the decoder `decode` uses.
//!
//! Safety without `unsafe`: the view never transmutes. Every multi-byte
//! field goes through `from_le_bytes` on a bounds-checked subslice, and
//! [`CorpusView`]'s per-record reads are bounds-checked against the
//! directory, so corrupt bytes surface as errors, never a panic.

use std::ops::Range;
use std::sync::Arc;

use cpssec_attackdb::snapshot as record_wire;
use cpssec_attackdb::snapshot::Reader;
use cpssec_attackdb::{AttackPattern, Corpus, Vulnerability, Weakness};

use crate::index::{FamilyKind, Layout};
use crate::snapshot::{
    checked_sections, decode_corpus_section, find_section, split_sections, Section, SnapshotError,
    FAMILY_SECTIONS, SEC_CORPUS,
};

/// Reads a `u32` at `off`, clamping out-of-range access to zero.
fn u32_at(bytes: &[u8], off: usize) -> u32 {
    bytes
        .get(off..off + 4)
        .map_or(0, |b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
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

/// A validated handle onto a `.cpsnap` byte image.
///
/// The bytes live in one shared `Arc<[u8]>`; clones of the view share
/// them. Construction ([`open`]) costs *O(header)*; all payload access is
/// lazy and in place.
#[derive(Debug, Clone)]
pub struct SnapshotView {
    bytes: Arc<[u8]>,
    snapshot_id: u64,
    corpus: [RecordFamilySpans; 3],
    /// The corpus section payload.
    corpus_section: Range<usize>,
    /// The pattern, weakness and vulnerability section payloads.
    families: [Range<usize>; 3],
}

/// The absolute byte range of a section's payload.
fn payload_range(section: &Section<'_>) -> Range<usize> {
    section.offset as usize..section.offset as usize + section.payload.len()
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
/// does **not** verify payload checksums. Use [`open_verified`] when the
/// bytes come from an untrusted medium.
///
/// # Errors
///
/// Truncation, bad magic, unsupported version, a corrupt section table,
/// or section geometry that does not tile the payload.
pub fn open(bytes: Arc<[u8]>) -> Result<SnapshotView, SnapshotError> {
    let (_, snapshot_id, sections) = split_sections(&bytes)?;
    let corpus_section = find_section(&sections, SEC_CORPUS)?;
    let corpus = parse_corpus_section(corpus_section)?;
    let mut families: [Range<usize>; 3] = Default::default();
    for (i, (kind, id)) in FamilyKind::ALL.into_iter().zip(FAMILY_SECTIONS).enumerate() {
        let section = find_section(&sections, id)?;
        if Layout::parse(kind, section.payload)?.doc_count != corpus[i].count as usize {
            return Err(SnapshotError::Corrupt(
                "index document counts disagree with the corpus record directories".into(),
            ));
        }
        families[i] = payload_range(section);
    }
    let corpus_section = payload_range(corpus_section);
    drop(sections);
    Ok(SnapshotView {
        bytes,
        snapshot_id,
        corpus,
        corpus_section,
        families,
    })
}

/// [`open`] plus a full payload-checksum pass — still in place, but every
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

    /// The pattern, weakness and vulnerability section payloads.
    pub(crate) fn family_sections(&self) -> [&[u8]; 3] {
        let [p, w, v] = &self.families;
        [
            &self.bytes[p.clone()],
            &self.bytes[w.clone()],
            &self.bytes[v.clone()],
        ]
    }

    /// Decodes every record into an owned [`Corpus`] with the decoder
    /// [`crate::snapshot::decode`] uses — the bridge from a mapped view to
    /// the owned world the analysis layer needs.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on any malformed or duplicated record.
    pub fn thaw_corpus(&self) -> Result<Corpus, SnapshotError> {
        decode_corpus_section(&self.bytes[self.corpus_section.clone()])
    }
}

/// In-place access to the snapshot's record directories: counts and
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::POSTING_LEN;
    use crate::snapshot::{encode, inspect};
    use crate::{MatchConfig, MatchSet, ScoringModel, SearchEngine};
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
    fn mapped_engine_honors_every_scoring_configuration() {
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
                let built = SearchEngine::with_config(&corpus, config);
                let opened = SearchEngine::from_view(&view, config).expect("open engine");
                for query in table1_attributes()
                    .iter()
                    .chain(&["", "zephyr marmalade", "&&&"])
                {
                    assert_bit_identical(
                        &built.match_text(query),
                        &opened.match_text(query),
                        &format!("{scoring:?} expand={expand} {query}"),
                    );
                }
            }
        }
    }

    #[test]
    fn corpus_view_reads_every_record_and_thaws_the_corpus() {
        let (corpus, bytes) = mapped();
        let view = open(bytes).unwrap();
        let cv = view.corpus();
        let stats = corpus.stats();
        assert_eq!(cv.pattern_count(), stats.patterns);
        assert_eq!(cv.weakness_count(), stats.weaknesses);
        assert_eq!(cv.vulnerability_count(), stats.vulnerabilities);
        // Random access agrees with id order, record for record.
        for (i, p) in corpus.patterns().enumerate() {
            assert_eq!(&cv.pattern(i).unwrap(), p);
        }
        for (i, w) in corpus.weaknesses().enumerate() {
            assert_eq!(&cv.weakness(i).unwrap(), w);
        }
        for (i, v) in corpus.vulnerabilities().enumerate() {
            assert_eq!(&cv.vulnerability(i).unwrap(), v);
        }
        assert!(cv.pattern(cv.pattern_count()).is_err());
        assert_eq!(view.thaw_corpus().expect("thaw"), corpus);
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
    fn engine_open_on_an_unverified_view_never_panics() {
        let (_, bytes) = mapped();
        // Opens `corrupt` without checking its checksums: the geometry or
        // the engine open may refuse it with one line, and an engine that
        // opens must answer under both scoring models. Returns whether the
        // engine opened.
        let survives = |corrupt: Vec<u8>| -> bool {
            let opened = open(corrupt.into())
                .and_then(|view| SearchEngine::from_view(&view, MatchConfig::default()));
            match opened {
                Ok(engine) => {
                    for scoring in ScoringModel::ALL {
                        let engine = engine.with_scoring(scoring);
                        for query in table1_attributes() {
                            let _ = engine.match_text(query);
                        }
                    }
                    true
                }
                Err(err) => {
                    assert!(!err.to_string().contains('\n'), "{err}");
                    false
                }
            }
        };
        // Flip bytes of the vulnerabilities section (striding through it;
        // every byte of every section is swept, resealed, in
        // tests/snapshot_hostile.rs) — results may differ, safety may not.
        let info = inspect(&bytes).unwrap();
        let vuln = info.sections.last().unwrap();
        let (start, end) = (vuln.offset as usize, (vuln.offset + vuln.len) as usize);
        for pos in (start..end).step_by(97) {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= 0xFF;
            survives(corrupt);
        }
        // The words that feed the query-time weight. A `tf` of 0 (`ln 0`)
        // or above its document's length is refused; lengths of
        // `u32::MAX` (BM25's `len / avg` at its extreme) and `tf`s past
        // the `ln` table with lengths to match are valid and must score.
        let layout = Layout::parse(FamilyKind::Vulnerabilities, &bytes[start..end]).unwrap();
        let tfs: Vec<usize> = (0..layout.posting_total)
            .map(|i| start + layout.postings_off + i * POSTING_LEN + 4)
            .collect();
        let lens: Vec<usize> = (0..layout.doc_count)
            .map(|i| start + layout.lengths_off + i * 4)
            .collect();
        assert!(lens.iter().all(|&off| u32_at(&bytes, off) < 1_000));
        for (rewrites, opens) in [
            (vec![(&tfs, 0)], false),
            (vec![(&tfs, 1_000)], false),
            (vec![(&tfs, u32::MAX)], false),
            (vec![(&lens, 0)], false),
            (vec![(&lens, u32::MAX)], true),
            (vec![(&tfs, 1_000), (&lens, 1_000)], true),
            (vec![(&tfs, u32::MAX), (&lens, u32::MAX)], true),
        ] {
            let mut corrupt = bytes.to_vec();
            for &(words, value) in &rewrites {
                for &off in words {
                    corrupt[off..off + 4].copy_from_slice(&value.to_le_bytes());
                }
            }
            let values: Vec<u32> = rewrites.iter().map(|&(_, value)| value).collect();
            assert_eq!(survives(corrupt), opens, "rewrite to {values:?}");
        }
    }
}
