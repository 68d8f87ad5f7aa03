//! The `.cpsnap` container: corpus + indices in one binary artifact.
//!
//! A snapshot converts cold start from *O(parse + tokenize + build)* to
//! *O(read)*: the corpus records (via `cpssec_attackdb::snapshot`) and the
//! three family indices — sorted term dictionaries over `(doc, tf)`
//! postings plus per-document token counts — land in one file behind a
//! section table, and [`decode`] restores a [`SearchEngine`] whose scores
//! are bit-identical to one built from the original corpus. No weight is
//! stored: scoring computes them at query time from the stored columns.
//! An engine's in-memory index *is* its family sections, so encoding
//! copies them and decoding validates and copies them back. Every section
//! is offset-based and self-describing, so [`crate::view::SnapshotView`]
//! can validate a mapped image in *O(header)* without decoding anything.
//!
//! # Layout (format version 3)
//!
//! ```text
//! magic        "CPSNAP"                      6 bytes
//! version      u16 LE                        2 bytes
//! count        u32 LE                        4 bytes
//! snapshot_id  u64 LE                        8 bytes
//! table        count × { id:u16, offset:u64, len:u64, checksum:u64 }
//! payload      sections at their offsets, each 8-byte aligned
//! ```
//!
//! Sections: `1` corpus records (per-family record directories: count,
//! per-record byte offsets, concatenated records in id order), `2`/`3`/`4`
//! the pattern / weakness / vulnerability family (id table + columnar
//! inverted index with 16-byte term entries and 8-byte `{doc, tf}`
//! postings, see the `InvertedIndex` wire docs). Offsets are absolute
//! and rounded up to 8-byte boundaries (zero padding between sections);
//! each checksum is word-folded FNV ([`cpssec_model::fnv1a_64_wide`]) over
//! the section payload. `snapshot_id` is the same FNV over the serialized
//! section table: it fingerprints the entire content (each entry embeds
//! its payload checksum), doubles as the header's own integrity check, and
//! anchors the `.cpsdelta` parent chain ([`crate::delta`]).
//!
//! Two read paths share this layout and its one index validator.
//! [`decode`] verifies every payload checksum, decodes the corpus and
//! opens the engine. [`crate::view::open`] validates the header and
//! section geometry in *O(header)* and reads in place; the deep payload
//! checksums move to [`crate::view::open_verified`] or stay with
//! [`verify`], and [`SearchEngine::from_view`] opens the engine.
//! Compatibility is strict: readers reject any version they were not
//! built for — a snapshot is a cache artifact, regenerable from the
//! corpus, never an archival format.

use cpssec_attackdb::snapshot as record_wire;
use cpssec_attackdb::snapshot::{put_u16, put_u32, put_u64, Reader};
use cpssec_attackdb::Corpus;
use cpssec_model::fnv1a_64_wide;

pub use cpssec_attackdb::snapshot::SnapshotError;

use crate::engine::MatchConfig;
use crate::SearchEngine;

/// The six magic bytes every `.cpsnap` file starts with.
pub const MAGIC: [u8; 6] = *b"CPSNAP";

/// The format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 3;

/// Bytes per section-table entry: id + offset + len + checksum.
pub(crate) const TABLE_ENTRY_LEN: usize = 2 + 8 + 8 + 8;

pub(crate) const SEC_CORPUS: u16 = 1;
pub(crate) const SEC_PATTERNS: u16 = 2;
pub(crate) const SEC_WEAKNESSES: u16 = 3;
pub(crate) const SEC_VULNERABILITIES: u16 = 4;
/// The family sections, in the engine's family order.
pub(crate) const FAMILY_SECTIONS: [u16; 3] = [SEC_PATTERNS, SEC_WEAKNESSES, SEC_VULNERABILITIES];
/// Section order in every written snapshot.
const SECTION_IDS: [u16; 4] = [
    SEC_CORPUS,
    SEC_PATTERNS,
    SEC_WEAKNESSES,
    SEC_VULNERABILITIES,
];

fn section_name(id: u16) -> Option<&'static str> {
    match id {
        SEC_CORPUS => Some("corpus"),
        SEC_PATTERNS => Some("patterns"),
        SEC_WEAKNESSES => Some("weaknesses"),
        SEC_VULNERABILITIES => Some("vulnerabilities"),
        _ => None,
    }
}

/// Rounds `n` up to the next 8-byte boundary (section alignment rule).
fn align8(n: u64) -> u64 {
    n.next_multiple_of(8)
}

/// One section table entry, as [`inspect`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name (`corpus`, `patterns`, `weaknesses`, `vulnerabilities`).
    pub name: &'static str,
    /// Absolute byte offset of the payload (8-byte aligned).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Stored word-folded FNV checksum of the payload.
    pub checksum: u64,
}

/// Header-level description of a snapshot (no payload decoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format version from the header.
    pub version: u16,
    /// Content fingerprint: FNV over the section table (which embeds every
    /// payload checksum). Anchors the `.cpsdelta` parent chain.
    pub snapshot_id: u64,
    /// The section table, in file order.
    pub sections: Vec<SectionInfo>,
}

impl SnapshotInfo {
    /// Total payload bytes across all sections.
    #[must_use]
    pub fn payload_len(&self) -> u64 {
        self.sections.iter().map(|s| s.len).sum()
    }
}

/// Encodes one record family of the corpus section: count, per-record byte
/// offsets into the blob, blob length, then the concatenated records in id
/// order — random access for [`crate::view::CorpusView`] without decoding.
fn encode_family_records<T>(
    out: &mut Vec<u8>,
    count: usize,
    records: impl Iterator<Item = T>,
    encode: impl Fn(&mut Vec<u8>, T),
) {
    put_u32(out, u32::try_from(count).expect("record count fits u32"));
    let mut offsets: Vec<u32> = Vec::with_capacity(count);
    let mut blob = Vec::new();
    for record in records {
        offsets.push(u32::try_from(blob.len()).expect("corpus blob fits u32"));
        encode(&mut blob, record);
    }
    assert_eq!(offsets.len(), count, "stats and iterator must agree");
    for off in offsets {
        put_u32(out, off);
    }
    put_u32(
        out,
        u32::try_from(blob.len()).expect("corpus blob fits u32"),
    );
    out.extend_from_slice(&blob);
}

/// The corpus section payload: three family record directories in order
/// (patterns, weaknesses, vulnerabilities).
fn encode_corpus_section(corpus: &Corpus) -> Vec<u8> {
    let stats = corpus.stats();
    let mut out = Vec::new();
    encode_family_records(&mut out, stats.patterns, corpus.patterns(), |b, p| {
        record_wire::encode_pattern(b, p);
    });
    encode_family_records(&mut out, stats.weaknesses, corpus.weaknesses(), |b, w| {
        record_wire::encode_weakness(b, w);
    });
    encode_family_records(
        &mut out,
        stats.vulnerabilities,
        corpus.vulnerabilities(),
        record_wire::encode_vulnerability,
    );
    out
}

/// Decodes one family record directory into its records, in order.
fn decode_family_records<T>(
    r: &mut Reader<'_>,
    family: &'static str,
    decode: impl Fn(&mut Reader<'_>) -> Result<T, SnapshotError>,
) -> Result<Vec<T>, SnapshotError> {
    let count = r.u32()?;
    let mut offsets = Vec::with_capacity(r.capacity_for(count, 4));
    for _ in 0..count {
        offsets.push(r.u32()?);
    }
    let blob_len = r.u32()? as usize;
    let blob = r.take(blob_len)?;
    let mut records = Vec::new();
    for i in 0..offsets.len() {
        let start = offsets[i] as usize;
        let end = offsets.get(i + 1).map_or(blob_len, |&o| o as usize);
        if start > end || end > blob_len || (i == 0 && start != 0) {
            return Err(SnapshotError::Corrupt(format!(
                "`{family}` record {i} directory entry is out of bounds"
            )));
        }
        let mut rr = Reader::new(&blob[start..end]);
        let record = decode(&mut rr)?;
        if !rr.finished() {
            return Err(SnapshotError::Corrupt(format!(
                "`{family}` record {i} has {} trailing byte(s)",
                rr.remaining()
            )));
        }
        records.push(record);
    }
    Ok(records)
}

/// Decodes the corpus section payload back into an owned [`Corpus`].
///
/// Each family is decoded in full before any record is inserted, so the
/// map's nodes are allocated back to back instead of between the records'
/// strings. Random lookups on the thawed corpus are measurably faster
/// that way, and a delta-grown corpus keeps its thawed base for life.
pub(crate) fn decode_corpus_section(payload: &[u8]) -> Result<Corpus, SnapshotError> {
    let corrupt = |e: cpssec_attackdb::AttackDbError| SnapshotError::Corrupt(e.to_string());
    let mut corpus = Corpus::new();
    let mut r = Reader::new(payload);
    for p in decode_family_records(&mut r, "patterns", record_wire::decode_pattern)? {
        corpus.add_pattern(p).map_err(corrupt)?;
    }
    for w in decode_family_records(&mut r, "weaknesses", record_wire::decode_weakness)? {
        corpus.add_weakness(w).map_err(corrupt)?;
    }
    let vulnerabilities =
        decode_family_records(&mut r, "vulnerabilities", record_wire::decode_vulnerability)?;
    for v in vulnerabilities {
        corpus.add_vulnerability(v).map_err(corrupt)?;
    }
    if !r.finished() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing byte(s) after the last record directory",
            r.remaining()
        )));
    }
    Ok(corpus)
}

/// Serializes `corpus` and `engine` into a `.cpsnap` byte image: the
/// corpus section, then the engine's three family sections as they are.
///
/// The engine must have been built over `corpus` — the id tables are
/// validated against the corpus on decode. Output is deterministic: the
/// same inputs always produce the same bytes, and (because the index wire
/// format is independent of term-id numbering) an engine grown by
/// [`crate::delta`] appends encodes identically to one rebuilt from
/// scratch over the same corpus.
///
/// # Panics
///
/// Panics if a corpus family holds more than `u32::MAX` records or bytes
/// of records — unreachable for any corpus that fits memory.
#[must_use]
pub fn encode(corpus: &Corpus, engine: &SearchEngine) -> Vec<u8> {
    let _span = cpssec_obs::span!("snapshot-encode");
    assemble(corpus, engine.families().map(|family| family.section()))
}

/// Encodes the corpus section and lays it out, followed by the three
/// family section payloads, behind the header and section table. A pure
/// function of the corpus and the family payloads.
pub(crate) fn assemble(corpus: &Corpus, families: [&[u8]; 3]) -> Vec<u8> {
    let [patterns, weaknesses, vulnerabilities] = families;
    let corpus_section = encode_corpus_section(corpus);
    let payloads = [&corpus_section[..], patterns, weaknesses, vulnerabilities];
    let header_len = (MAGIC.len() + 2 + 4 + 8 + payloads.len() * TABLE_ENTRY_LEN) as u64;
    let mut table = Vec::with_capacity(payloads.len() * TABLE_ENTRY_LEN);
    let mut section_offsets = Vec::with_capacity(payloads.len());
    let mut offset = align8(header_len);
    for (id, payload) in SECTION_IDS.iter().zip(payloads.iter()) {
        put_u16(&mut table, *id);
        put_u64(&mut table, offset);
        put_u64(&mut table, payload.len() as u64);
        put_u64(&mut table, fnv1a_64_wide(payload));
        section_offsets.push(offset as usize);
        offset = align8(offset + payload.len() as u64);
    }
    let snapshot_id = fnv1a_64_wide(&table);
    let mut out = Vec::with_capacity(offset as usize);
    out.extend_from_slice(&MAGIC);
    put_u16(&mut out, FORMAT_VERSION);
    put_u32(&mut out, u32::try_from(payloads.len()).expect("fits u32"));
    put_u64(&mut out, snapshot_id);
    out.extend_from_slice(&table);
    for (payload, &section_offset) in payloads.iter().zip(&section_offsets) {
        out.resize(section_offset, 0); // alignment padding
        out.extend_from_slice(payload);
    }
    out
}

/// A parsed section: table entry plus its (not yet verified) payload.
pub(crate) struct Section<'a> {
    pub(crate) id: u16,
    pub(crate) name: &'static str,
    pub(crate) offset: u64,
    pub(crate) checksum: u64,
    pub(crate) payload: &'a [u8],
}

/// Parses the header and section table in *O(header)*: magic, version,
/// the `snapshot_id` integrity check over the table bytes, then
/// bounds- and alignment-checks on every payload span. Payload checksums
/// are NOT verified here — that is [`checked_sections`].
pub(crate) fn split_sections(bytes: &[u8]) -> Result<(u16, u64, Vec<Section<'_>>), SnapshotError> {
    if bytes.len() < MAGIC.len() {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut r = Reader::new(&bytes[MAGIC.len()..]);
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let count = r.u32()?;
    let snapshot_id = r.u64()?;
    let table = r.take(count as usize * TABLE_ENTRY_LEN)?;
    if fnv1a_64_wide(table) != snapshot_id {
        return Err(SnapshotError::ChecksumMismatch("section table"));
    }
    let mut tr = Reader::new(table);
    let mut sections = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let id = tr.u16()?;
        let offset = tr.u64()?;
        let len = tr.u64()?;
        let checksum = tr.u64()?;
        let name = section_name(id).ok_or_else(|| {
            SnapshotError::Corrupt(format!("unknown section id {id} in the section table"))
        })?;
        if offset % 8 != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "`{name}` section offset {offset} is not 8-byte aligned"
            )));
        }
        let end = offset.checked_add(len).ok_or(SnapshotError::Truncated)?;
        if end > bytes.len() as u64 {
            return Err(SnapshotError::Truncated);
        }
        sections.push(Section {
            id,
            name,
            offset,
            checksum,
            payload: &bytes[offset as usize..end as usize],
        });
    }
    Ok((version, snapshot_id, sections))
}

/// Verifies every section checksum, then returns payloads keyed by id.
pub(crate) fn checked_sections(bytes: &[u8]) -> Result<Vec<Section<'_>>, SnapshotError> {
    let (_, _, sections) = split_sections(bytes)?;
    for section in &sections {
        if fnv1a_64_wide(section.payload) != section.checksum {
            return Err(SnapshotError::ChecksumMismatch(section.name));
        }
    }
    Ok(sections)
}

pub(crate) fn find_section<'a>(
    sections: &'a [Section<'_>],
    id: u16,
) -> Result<&'a Section<'a>, SnapshotError> {
    sections.iter().find(|s| s.id == id).ok_or_else(|| {
        let name = section_name(id).unwrap_or("?");
        SnapshotError::Corrupt(format!("missing `{name}` section"))
    })
}

/// Decodes a snapshot into its corpus and a search engine using `config`.
///
/// All section checksums are verified first, then the engine opens with
/// the checks [`SearchEngine::from_view`] runs; the restored sections are
/// the encoded engine's, so its scores are bit-identical to that engine's.
///
/// # Errors
///
/// Every [`SnapshotError`] variant: truncation, bad magic, unsupported
/// version, checksum mismatch, or structurally corrupt payloads.
pub fn decode_with_config(
    bytes: &[u8],
    config: MatchConfig,
) -> Result<(Corpus, SearchEngine), SnapshotError> {
    let _span = cpssec_obs::span!("snapshot-decode");
    let sections = checked_sections(bytes)?;

    let corpus_section = find_section(&sections, SEC_CORPUS)?;
    let corpus = decode_corpus_section(corpus_section.payload)?;

    let [p, w, v] = FAMILY_SECTIONS;
    let engine = SearchEngine::from_sections(
        [
            find_section(&sections, p)?.payload,
            find_section(&sections, w)?.payload,
            find_section(&sections, v)?.payload,
        ],
        config,
    )?;

    let stats = corpus.stats();
    let expected = [stats.patterns, stats.weaknesses, stats.vulnerabilities];
    for (family, expected) in engine.families().into_iter().zip(expected) {
        let got = family.doc_count();
        if got != expected {
            return Err(SnapshotError::Corrupt(format!(
                "`{}` index covers {got} documents but the corpus holds {expected} records",
                family.name()
            )));
        }
    }
    Ok((corpus, engine))
}

/// [`decode_with_config`] with the default [`MatchConfig`].
///
/// # Errors
///
/// As [`decode_with_config`].
pub fn decode(bytes: &[u8]) -> Result<(Corpus, SearchEngine), SnapshotError> {
    decode_with_config(bytes, MatchConfig::default())
}

/// Parses the header and section table without decoding payloads — the
/// cheap `snapshot inspect` path. The table's own integrity is checked
/// (via `snapshot_id`) and every span is bounds-checked; payload checksums
/// are not verified (use [`verify`] for that).
///
/// # Errors
///
/// Truncation, bad magic, unsupported version, a corrupted section table,
/// or an unknown section id.
pub fn inspect(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    let (version, snapshot_id, sections) = split_sections(bytes)?;
    Ok(SnapshotInfo {
        version,
        snapshot_id,
        sections: sections
            .iter()
            .map(|s| SectionInfo {
                name: s.name,
                offset: s.offset,
                len: s.payload.len() as u64,
                checksum: s.checksum,
            })
            .collect(),
    })
}

/// Fully verifies a snapshot — header, checksums, and a complete decode —
/// and returns the decoded corpus and engine for further use.
///
/// # Errors
///
/// As [`decode`].
pub fn verify(bytes: &[u8]) -> Result<(Corpus, SearchEngine), SnapshotError> {
    decode(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScoringModel;
    use cpssec_attackdb::seed::{seed_corpus, table1_attributes};

    fn snapshot() -> (Corpus, Vec<u8>) {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let bytes = encode(&corpus, &engine);
        (corpus, bytes)
    }

    #[test]
    fn round_trip_restores_corpus_and_bit_identical_scores() {
        let (corpus, bytes) = snapshot();
        let (decoded_corpus, engine) = decode(&bytes).expect("decode");
        assert_eq!(decoded_corpus, corpus);
        let fresh = SearchEngine::build(&corpus);
        for query in table1_attributes() {
            let a = fresh.match_text(query);
            let b = engine.match_text(query);
            assert_eq!(a, b, "{query}");
            let left = a
                .patterns
                .iter()
                .chain(&a.weaknesses)
                .chain(&a.vulnerabilities);
            let right = b
                .patterns
                .iter()
                .chain(&b.weaknesses)
                .chain(&b.vulnerabilities);
            for (x, y) in left.zip(right) {
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{query}");
            }
        }
    }

    #[test]
    fn encode_is_deterministic_and_a_fixpoint() {
        let (corpus, bytes) = snapshot();
        let engine = SearchEngine::build(&corpus);
        assert_eq!(bytes, encode(&corpus, &engine));
        let (c2, e2) = decode(&bytes).unwrap();
        assert_eq!(encode(&c2, &e2), bytes, "decode → encode must be identity");
    }

    #[test]
    fn with_scoring_on_a_thawed_engine_matches_a_fresh_build() {
        let (corpus, bytes) = snapshot();
        let (_, engine) = decode(&bytes).unwrap();
        let bm25 = engine.with_scoring(ScoringModel::Bm25);
        let fresh = SearchEngine::with_config(
            &corpus,
            MatchConfig {
                scoring: ScoringModel::Bm25,
                ..MatchConfig::default()
            },
        );
        for query in table1_attributes() {
            assert_eq!(fresh.match_text(query), bm25.match_text(query), "{query}");
        }
    }

    #[test]
    fn inspect_reports_the_aligned_section_table() {
        let (_, bytes) = snapshot();
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.version, FORMAT_VERSION);
        assert_ne!(info.snapshot_id, 0);
        let names: Vec<&str> = info.sections.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["corpus", "patterns", "weaknesses", "vulnerabilities"]
        );
        // Alignment rule: every section starts on an 8-byte boundary, in
        // ascending file order, inside the file.
        let mut prev_end = 0u64;
        for s in &info.sections {
            assert_eq!(s.offset % 8, 0, "{} misaligned", s.name);
            assert!(s.offset >= prev_end, "{} overlaps", s.name);
            prev_end = s.offset + s.len;
        }
        assert!(prev_end <= bytes.len() as u64);
        assert!(info.payload_len() > 0);
        assert!(info.payload_len() < bytes.len() as u64);
    }

    #[test]
    fn snapshot_id_fingerprints_the_content() {
        let (_, bytes) = snapshot();
        let base = inspect(&bytes).unwrap().snapshot_id;
        // A one-record change anywhere must produce a different id.
        let mut bigger = seed_corpus();
        bigger
            .add_weakness(cpssec_attackdb::Weakness::new(
                cpssec_attackdb::CweId::new(9999),
                "extra",
                "record",
            ))
            .unwrap();
        let engine = SearchEngine::build(&bigger);
        let other = inspect(&encode(&bigger, &engine)).unwrap().snapshot_id;
        assert_ne!(base, other);
        // And the id is stable across identical encodes.
        assert_eq!(base, inspect(&snapshot().1).unwrap().snapshot_id);
    }

    #[test]
    fn truncated_bad_magic_wrong_version_and_bad_checksum_are_distinct() {
        let (_, bytes) = snapshot();

        assert_eq!(decode(&bytes[..3]).unwrap_err(), SnapshotError::Truncated);
        assert_eq!(
            decode(&bytes[..bytes.len() - 1]).unwrap_err(),
            SnapshotError::Truncated
        );

        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert_eq!(decode(&magic).unwrap_err(), SnapshotError::BadMagic);

        let mut version = bytes.clone();
        version[6] = 9;
        assert_eq!(
            decode(&version).unwrap_err(),
            SnapshotError::UnsupportedVersion(9)
        );

        let mut payload = bytes.clone();
        let last = payload.len() - 1;
        payload[last] ^= 0xFF;
        assert_eq!(
            decode(&payload).unwrap_err(),
            SnapshotError::ChecksumMismatch("vulnerabilities")
        );

        // A flipped byte inside the section table trips the snapshot_id
        // integrity check before any payload is read.
        let mut table = bytes.clone();
        table[20] ^= 0xFF;
        assert_eq!(
            decode(&table).unwrap_err(),
            SnapshotError::ChecksumMismatch("section table")
        );
    }

    #[test]
    fn every_header_truncation_point_fails_cleanly() {
        let (_, bytes) = snapshot();
        let header = 6 + 2 + 4 + 8 + 4 * TABLE_ENTRY_LEN;
        for len in 0..header {
            let err = decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::UnsupportedVersion(_)
                ),
                "prefix {len}: {err}"
            );
        }
    }

    #[test]
    fn mismatched_id_table_is_corrupt() {
        // Encode an engine over a *different* corpus than the one stored.
        let seed = seed_corpus();
        let mut bigger = seed_corpus();
        bigger
            .add_weakness(cpssec_attackdb::Weakness::new(
                cpssec_attackdb::CweId::new(9999),
                "extra",
                "record",
            ))
            .unwrap();
        let engine = SearchEngine::build(&bigger);
        let bytes = encode(&seed, &engine);
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }
}
