//! Snapshot views: validate a `.cpsnap` byte image in place.
//!
//! [`open`] validates a mapped snapshot in *O(header)* — magic, version,
//! the `snapshot_id` integrity check over the section table, and an exact
//! geometric tiling of every section (each family's id table, severity
//! column, document lengths, term heap, entry table, and postings arena
//! must account for every byte) — and returns a [`SnapshotView`] that reads the bytes where
//! they are. No record is decoded and no index is opened: [`CorpusView`]
//! decodes one record at a time on demand. Serving does not read through
//! a view; a snapshot boot runs the full [`crate::snapshot::decode`].
//!
//! Safety without `unsafe`: the view never transmutes. Every multi-byte
//! field goes through `from_le_bytes` on a bounds-checked subslice, and
//! [`CorpusView`]'s per-record reads are bounds-checked against the
//! directory, so corrupt bytes surface as errors, never a panic. The
//! full decode reads the corpus through the same record-directory walker.

use std::ops::Range;
use std::sync::Arc;

use cpssec_attackdb::snapshot as record_wire;
use cpssec_attackdb::snapshot::Reader;
use cpssec_attackdb::{AttackPattern, Vulnerability, Weakness};

use crate::index::{FamilyKind, Layout};
use crate::snapshot::{container_error, SnapshotError, FAMILY_SECTIONS, FORMAT, SEC_CORPUS};

/// Reads a `u32` at `off`, clamping out-of-range access to zero.
fn u32_at(bytes: &[u8], off: usize) -> u32 {
    bytes
        .get(off..off + 4)
        .map_or(0, |b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

/// One record family's directory in the corpus section (count, per-record
/// offset table, record blob), as absolute byte positions in the file.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordDirectory {
    family: &'static str,
    count: u32,
    offsets_off: usize,
    blob_off: usize,
    blob_len: u32,
}

impl RecordDirectory {
    /// The encoded bytes of record `i`, bounds-checked against the
    /// directory; the first record must start the blob.
    fn record<'b>(&self, bytes: &'b [u8], i: usize) -> Result<&'b [u8], SnapshotError> {
        let (family, count) = (self.family, self.count as usize);
        if i >= count {
            return Err(SnapshotError::Corrupt(format!(
                "`{family}` record {i} is out of range for a {count}-record directory"
            )));
        }
        let start = u32_at(bytes, self.offsets_off + i * 4) as usize;
        let end = if i + 1 < count {
            u32_at(bytes, self.offsets_off + (i + 1) * 4) as usize
        } else {
            self.blob_len as usize
        };
        if start > end || end > self.blob_len as usize || (i == 0 && start != 0) {
            return Err(SnapshotError::Corrupt(format!(
                "`{family}` record {i} directory entry is out of bounds"
            )));
        }
        Ok(&bytes[self.blob_off + start..self.blob_off + end])
    }

    /// Decodes record `i` of the file `bytes`; the record must consume
    /// its bytes exactly.
    fn decode<T>(
        &self,
        bytes: &[u8],
        i: usize,
        decode: impl Fn(&mut Reader<'_>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        let mut r = Reader::new(self.record(bytes, i)?);
        let record = decode(&mut r)?;
        if !r.finished() {
            return Err(SnapshotError::Corrupt(format!(
                "`{}` record {i} has {} trailing byte(s)",
                self.family,
                r.remaining()
            )));
        }
        Ok(record)
    }

    /// Number of records in the family.
    pub(crate) fn count(&self) -> usize {
        self.count as usize
    }

    /// Appends records `range` of the family to `out`, in directory
    /// order.
    pub(crate) fn decode_into<T>(
        &self,
        bytes: &[u8],
        range: Range<usize>,
        decode: impl Fn(&mut Reader<'_>) -> Result<T, SnapshotError>,
        out: &mut Vec<T>,
    ) -> Result<(), SnapshotError> {
        out.reserve_exact(range.len());
        for i in range {
            out.push(self.decode(bytes, i, &decode)?);
        }
        Ok(())
    }
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
    corpus: [RecordDirectory; 3],
}

/// Walks the three record directories of the corpus section `payload`,
/// which must tile it exactly; the section starts at `base` in the file.
pub(crate) fn record_directories(
    base: usize,
    payload: &[u8],
) -> Result<[RecordDirectory; 3], SnapshotError> {
    let pos = |r: &Reader<'_>| base + (payload.len() - r.remaining());
    let mut r = Reader::new(payload);
    let mut directories = FamilyKind::ALL.map(|kind| RecordDirectory {
        family: kind.name(),
        count: 0,
        offsets_off: 0,
        blob_off: 0,
        blob_len: 0,
    });
    for directory in &mut directories {
        directory.count = r.u32()?;
        directory.offsets_off = pos(&r);
        r.take(directory.count as usize * 4)?;
        directory.blob_len = r.u32()?;
        directory.blob_off = pos(&r);
        r.take(directory.blob_len as usize)?;
    }
    if !r.finished() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing byte(s) after the last record directory",
            r.remaining()
        )));
    }
    Ok(directories)
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
    let table = FORMAT.split(&bytes).map_err(container_error)?;
    let payload = |id| table.payload(id).map_err(container_error);
    let corpus_at = table.find(SEC_CORPUS).map_err(container_error)?.offset;
    let corpus = record_directories(corpus_at as usize, payload(SEC_CORPUS)?)?;
    for (i, (kind, id)) in FamilyKind::ALL.into_iter().zip(FAMILY_SECTIONS).enumerate() {
        if Layout::parse(kind, payload(id)?)?.doc_count != corpus[i].count as usize {
            return Err(SnapshotError::Corrupt(
                "index document counts disagree with the corpus record directories".into(),
            ));
        }
    }
    Ok(SnapshotView {
        snapshot_id: table.id,
        bytes,
        corpus,
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
    FORMAT
        .split(&bytes)
        .and_then(|table| table.verify())
        .map_err(container_error)?;
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

    /// Decodes attack pattern `i` (directory order = ascending id).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on an out-of-range index or a record the
    /// checksum pass was skipped on that fails to decode.
    pub fn pattern(&self, i: usize) -> Result<AttackPattern, SnapshotError> {
        self.view.corpus[0].decode(&self.view.bytes, i, record_wire::decode_pattern)
    }

    /// Decodes weakness `i` (directory order = ascending id).
    ///
    /// # Errors
    ///
    /// As [`Self::pattern`].
    pub fn weakness(&self, i: usize) -> Result<Weakness, SnapshotError> {
        self.view.corpus[1].decode(&self.view.bytes, i, record_wire::decode_weakness)
    }

    /// Decodes vulnerability `i` (directory order = ascending id).
    ///
    /// # Errors
    ///
    /// As [`Self::pattern`].
    pub fn vulnerability(&self, i: usize) -> Result<Vulnerability, SnapshotError> {
        self.view.corpus[2].decode(&self.view.bytes, i, record_wire::decode_vulnerability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{encode, inspect};
    use crate::SearchEngine;
    use cpssec_attackdb::seed::seed_corpus;
    use cpssec_attackdb::Corpus;

    fn mapped() -> (Corpus, Arc<[u8]>) {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let bytes: Arc<[u8]> = encode(&corpus, &engine).into();
        (corpus, bytes)
    }

    #[test]
    fn corpus_view_reads_every_record() {
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
}
