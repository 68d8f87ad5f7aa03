//! The `.cpsnap` container: corpus + indices in one binary artifact.
//!
//! A snapshot converts cold start from *O(parse + tokenize + build)* to
//! *O(read)*: the corpus records (via `cpssec_attackdb::snapshot`) and the
//! three family indices — sorted term dictionaries over `(doc, tf)`
//! postings plus per-document token counts and severity codes — land in
//! one file behind a
//! section table, and [`decode`] restores a [`SearchEngine`] whose scores
//! are bit-identical to one built from the original corpus. No weight is
//! stored: scoring computes them at query time from the stored columns.
//! An engine's in-memory index *is* its family sections, so encoding
//! copies them and decoding validates and copies them back. Every section
//! is offset-based and self-describing, so [`crate::view::SnapshotView`]
//! can validate a mapped image in *O(header)* without decoding anything.
//!
//! # Layout (format version 4)
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
//! the pattern / weakness / vulnerability family:
//!
//! ```text
//! id_count     u32
//! ids          id_count × u32 (CAPEC/CWE) or { year u16, number u32 } (CVE)
//! severity     id_count × u8   one SeverityCode per document
//! index        columnar inverted index: doc_count (== id_count), doc
//!              lengths, sorted term heap, 16-byte term entries, 8-byte
//!              {doc, tf} postings (see the `InvertedIndex` wire docs)
//! ```
//!
//! The severity column (new in version 4) holds each record's CVSS base
//! score in tenths (`0..=100`), a pattern's typical-severity band
//! (`101..=105`) or `255` for an unscored record, so hits are weighed and
//! severity-filtered without the corpus. The header, the table and the
//! 8-byte payload alignment are the container of
//! [`cpssec_obs::container`], shared with `.cpsflight` dumps; this
//! format's checksum is word-folded FNV ([`cpssec_model::fnv1a_64_wide`])
//! over each section payload. `snapshot_id` is the same FNV over the
//! serialized section table: it fingerprints the entire content (each
//! entry embeds its payload checksum), doubles as the header's own
//! integrity check, and anchors the `.cpsdelta` parent chain
//! ([`crate::delta`]).
//!
//! Two read paths share this layout. [`decode`] verifies every payload
//! checksum, decodes the corpus, opens and validates the engine and
//! cross-checks them: each family's document count and, document for
//! document, its id against the corpus record's. It is the one path that
//! turns bytes into queryable state (`snapshot verify`, `delta apply` and
//! the server's snapshot boot all run it), and it runs on every core: the
//! four checksums in parallel, then the vulnerability records in one
//! contiguous run per core with the pattern and weakness records beside
//! them, then the corpus built in bulk from the id-ordered records while
//! the three index families open beside it. Its result and its error for
//! any input do not depend on the number of cores, and on one core it
//! spawns nothing. [`crate::view::open`] validates
//! the header and section geometry in *O(header)* and reads records in
//! place; [`crate::view::open_verified`] adds the payload checksums.
//! Compatibility is strict: readers reject any version they were not
//! built for — a snapshot is a cache artifact, regenerable from the
//! corpus, never an archival format.

use std::ops::Range;

use cpssec_attackdb::snapshot as record_wire;
use cpssec_attackdb::snapshot::{put_u32, Reader};
use cpssec_attackdb::{AttackVectorId, Corpus};
use cpssec_model::fnv1a_64_wide;
use cpssec_obs::container::{ContainerError, Format};

pub use cpssec_attackdb::snapshot::SnapshotError;
pub use cpssec_obs::container::SectionInfo;

use crate::engine::cores;
use crate::index::Segments;
use crate::view::{record_directories, RecordDirectory};
use crate::SearchEngine;

/// The six magic bytes every `.cpsnap` file starts with.
pub const MAGIC: [u8; 6] = *b"CPSNAP";

/// The format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 4;

pub(crate) const SEC_CORPUS: u16 = 1;
pub(crate) const SEC_PATTERNS: u16 = 2;
pub(crate) const SEC_WEAKNESSES: u16 = 3;
pub(crate) const SEC_VULNERABILITIES: u16 = 4;
/// The family sections, in the engine's family order.
pub(crate) const FAMILY_SECTIONS: [u16; 3] = [SEC_PATTERNS, SEC_WEAKNESSES, SEC_VULNERABILITIES];
/// The `.cpsnap` container, sections in the order every snapshot is
/// written.
pub(crate) static FORMAT: Format = Format {
    magic: MAGIC,
    version: FORMAT_VERSION,
    checksum: fnv1a_64_wide,
    sections: &[
        (SEC_CORPUS, "corpus"),
        (SEC_PATTERNS, "patterns"),
        (SEC_WEAKNESSES, "weaknesses"),
        (SEC_VULNERABILITIES, "vulnerabilities"),
    ],
};

/// The one conversion from container errors (the orphan rule rules out a
/// `From` here): the variants map one to one.
pub(crate) fn container_error(e: ContainerError) -> SnapshotError {
    match e {
        ContainerError::Truncated => SnapshotError::Truncated,
        ContainerError::BadMagic => SnapshotError::BadMagic,
        ContainerError::UnsupportedVersion(v) => SnapshotError::UnsupportedVersion(v),
        ContainerError::ChecksumMismatch(name) => SnapshotError::ChecksumMismatch(name),
        ContainerError::Corrupt(detail) => SnapshotError::Corrupt(detail),
    }
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
/// The records are encoded in place after a zeroed offset table that is
/// filled in as they land, so the blob is written once and never copied.
fn encode_family_records<T>(
    out: &mut Vec<u8>,
    count: usize,
    records: impl Iterator<Item = T>,
    encode: impl Fn(&mut Vec<u8>, T),
) {
    put_u32(out, u32::try_from(count).expect("record count fits u32"));
    let offsets_at = out.len();
    out.resize(offsets_at + 4 * count + 4, 0);
    let blob_at = out.len();
    // Writes the blob's length so far at `at`.
    let mark = |out: &mut Vec<u8>, at: usize| {
        let len = u32::try_from(out.len() - blob_at).expect("corpus blob fits u32");
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    };
    let mut encoded = 0;
    for record in records {
        assert!(encoded < count, "stats and iterator must agree");
        mark(out, offsets_at + 4 * encoded);
        encode(out, record);
        encoded += 1;
    }
    assert_eq!(encoded, count, "stats and iterator must agree");
    mark(out, blob_at - 4);
}

/// The corpus section payload: three family record directories in order
/// (patterns, weaknesses, vulnerabilities).
pub(crate) fn encode_corpus_section(corpus: &Corpus) -> Vec<u8> {
    let _span = cpssec_obs::span!("corpus-encode");
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

/// Decodes every record of `directory`, in directory order, split into
/// `chunks` contiguous runs (never more runs than records) that `threads`
/// threads share: run 0 on this thread straight into the result, and
/// run `i > 0` on thread `i % threads` (thread 0 is this one, the others
/// scoped), each into its own vector appended in run order. The error is
/// the first failing record's, whatever the split; one thread spawns
/// nothing.
fn decode_records<T: Send>(
    directory: &RecordDirectory,
    payload: &[u8],
    chunks: usize,
    threads: usize,
    decode: fn(&mut Reader<'_>) -> Result<T, SnapshotError>,
) -> Result<Vec<T>, SnapshotError> {
    let count = directory.count();
    let run = count.div_ceil(chunks.max(1)).max(1);
    let runs: Vec<Range<usize>> = (0..count)
        .step_by(run)
        .map(|start| start..count.min(start + run))
        .collect();
    let threads = threads.min(runs.len());
    let mut records = Vec::with_capacity(count);
    if threads <= 1 {
        for range in runs {
            directory.decode_into(payload, range, decode, &mut records)?;
        }
        return Ok(records);
    }
    let work = |t: usize| -> Vec<Result<Vec<T>, SnapshotError>> {
        let decode_run = |range: &Range<usize>| {
            let mut out = Vec::new();
            directory
                .decode_into(payload, range.clone(), decode, &mut out)
                .map(|()| out)
        };
        let mine = runs.iter().enumerate().skip(1);
        mine.filter(|(i, _)| i % threads == t)
            .map(|(_, range)| decode_run(range))
            .collect()
    };
    let (first, mut decoded) = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|t| s.spawn(move || work(t))).collect();
        let first = directory.decode_into(payload, runs[0].clone(), decode, &mut records);
        let decoded: Vec<_> = std::iter::once(work(0))
            .chain(others.into_iter().map(|t| t.join().expect("record decode")))
            .map(Vec::into_iter)
            .collect();
        (first, decoded)
    });
    first?;
    for i in 1..runs.len() {
        records.extend(decoded[i % threads].next().expect("every run decoded")?);
    }
    Ok(records)
}

/// Runs `a` on a scoped thread beside `b` on this one, or, unless
/// `parallel`, both here, `a` first.
fn join<A: Send, B>(parallel: bool, a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B) -> (A, B) {
    if !parallel {
        let a = a();
        return (a, b());
    }
    std::thread::scope(|s| {
        let a = s.spawn(a);
        let b = b();
        (a.join().expect("snapshot decode thread"), b)
    })
}

/// Checks that each index family covers its corpus family record for
/// record: first every family's document count, then, in one pass per
/// family, that document `n` names corpus record `n`. Ranking and every
/// hit name records by the index ids, so an id the corpus does not hold
/// would be served as a hit no lookup can resolve.
fn check_coverage(corpus: &Corpus, engine: &SearchEngine) -> Result<(), SnapshotError> {
    let [p, w, v] = engine.families();
    let passes = [
        id_pass(p, corpus.patterns().map(|r| r.id().into())),
        id_pass(w, corpus.weaknesses().map(|r| r.id().into())),
        id_pass(v, corpus.vulnerabilities().map(|r| r.id().into())),
    ];
    for (family, (records, _)) in engine.families().into_iter().zip(&passes) {
        let documents = family.doc_count();
        if documents != *records {
            return Err(SnapshotError::Corrupt(format!(
                "`{}` index covers {documents} documents but the corpus holds {records} records",
                family.name()
            )));
        }
    }
    for (family, (_, mismatch)) in engine.families().into_iter().zip(passes) {
        if let Some((doc, record)) = mismatch {
            return Err(SnapshotError::Corrupt(format!(
                "`{}` index document {doc} is {} but corpus record {doc} is {record}",
                family.name(),
                family.id(doc)
            )));
        }
    }
    Ok(())
}

/// One family's records against its index: how many there are, and the
/// first document (within the index) whose id is not the record's, with
/// the record's id.
fn id_pass(
    family: &Segments,
    records: impl Iterator<Item = AttackVectorId>,
) -> (usize, Option<(usize, AttackVectorId)>) {
    let documents = family.doc_count();
    let mut count = 0;
    let mut mismatch = None;
    for (doc, id) in records.enumerate() {
        if mismatch.is_none() && doc < documents && family.id(doc) != id {
            mismatch = Some((doc, id));
        }
        count += 1;
    }
    (count, mismatch)
}

/// Serializes `corpus` and `engine` into a `.cpsnap` byte image: the
/// corpus section, then the engine's three family sections as they are,
/// each with its tail (the records [`crate::delta`] appends added since
/// the last compaction) merged in as it is written.
///
/// The engine must have been built over `corpus`. Decode checks that
/// each id table strictly ascends and that each family's document count
/// equals the corpus's record count, not that the ids are the records'.
/// Output is deterministic: the same inputs always produce the same
/// bytes, and (because the index wire format is independent of term-id
/// numbering) an engine grown by [`crate::delta`] appends encodes
/// identically to one rebuilt from scratch over the same corpus.
///
/// # Panics
///
/// Panics if a corpus family holds more than `u32::MAX` records or bytes
/// of records — unreachable for any corpus that fits memory.
#[must_use]
pub fn encode(corpus: &Corpus, engine: &SearchEngine) -> Vec<u8> {
    let _span = cpssec_obs::span!("snapshot-encode");
    let [p, w, v] = engine.families().map(Segments::section);
    FORMAT.assemble(&[&encode_corpus_section(corpus), &p, &w, &v])
}

/// The `snapshot_id` that [`encode`] writes for `corpus` and `engine`,
/// without assembling the snapshot: the id is the checksum of the section
/// table, which needs only each section's length and checksum.
#[must_use]
pub fn encoded_id(corpus: &Corpus, engine: &SearchEngine) -> u64 {
    let [p, w, v] = engine.families().map(Segments::section);
    FORMAT.id_of(&[
        seal(&encode_corpus_section(corpus)),
        seal(&p),
        seal(&w),
        seal(&v),
    ])
}

/// A section's table entry as [`Format::id_of`] takes it: its length and
/// checksum.
pub(crate) fn seal(section: &[u8]) -> (usize, u64) {
    (section.len(), (FORMAT.checksum)(section))
}

/// Decodes a snapshot into its corpus and a search engine under the
/// default [`MatchConfig`](crate::MatchConfig), on every core.
///
/// All section checksums are verified first, in parallel. Then the
/// vulnerability records are decoded in one contiguous run per core, the
/// pattern and weakness records beside them. The corpus is built in bulk
/// from the records, which must strictly ascend by id in each family,
/// while the three index families are copied and validated in full
/// beside it. Last, each index family must name exactly its corpus
/// family's records, in order. The restored sections
/// are the encoded engine's, so its scores are bit-identical to that
/// engine's under every configuration, and an engine that decodes
/// answers every query. The result and the error for any input do not
/// depend on the number of cores, and one core spawns nothing.
///
/// # Errors
///
/// Every [`SnapshotError`] variant: truncation, bad magic, unsupported
/// version, checksum mismatch (the first bad section in table order), or
/// structurally corrupt payloads.
pub fn decode(bytes: &[u8]) -> Result<(Corpus, SearchEngine), SnapshotError> {
    decode_in(bytes, cores())
}

/// [`decode`] with the vulnerability records split into `chunks` runs
/// and the work spread over `min(chunks, cores())` threads; one thread
/// runs everything here and spawns nothing.
pub(crate) fn decode_in(
    bytes: &[u8],
    chunks: usize,
) -> Result<(Corpus, SearchEngine), SnapshotError> {
    let _span = cpssec_obs::span!("snapshot-decode");
    let table = FORMAT.split(bytes).map_err(container_error)?;
    let threads = chunks.min(cores());
    table.verify_on(threads).map_err(container_error)?;
    let payload = |id| table.payload(id).map_err(container_error);

    let records = payload(SEC_CORPUS)?;
    let [patterns, weaknesses, vulnerabilities] = record_directories(0, records)?;
    let [p, w, v] = FAMILY_SECTIONS;
    let sections = payload(p).and_then(|p| Ok([p, payload(w)?, payload(v)?]));
    let parallel = threads > 1;

    // The pattern and weakness records beside the vulnerability runs.
    let ((patterns, weaknesses), vulnerabilities) = join(
        parallel,
        || {
            (
                decode_records(&patterns, records, 1, 1, record_wire::decode_pattern),
                decode_records(&weaknesses, records, 1, 1, record_wire::decode_weakness),
            )
        },
        || {
            decode_records(
                &vulnerabilities,
                records,
                chunks,
                threads,
                record_wire::decode_vulnerability,
            )
        },
    );
    // The three index families open beside the corpus build.
    let (engine, corpus) = join(
        parallel,
        || sections.and_then(SearchEngine::from_sections),
        || -> Result<Corpus, SnapshotError> {
            Corpus::from_ascending(patterns?, weaknesses?, vulnerabilities?)
                .map_err(|e| SnapshotError::Corrupt(e.to_string()))
        },
    );
    let (corpus, engine) = (corpus?, engine?);
    check_coverage(&corpus, &engine)?;
    Ok((corpus, engine))
}

/// Parses the header and section table without decoding payloads — the
/// cheap `snapshot inspect` path. The table's own integrity is checked
/// (via `snapshot_id`) and every span is bounds-checked; payload checksums
/// are not verified (use [`decode`] for that).
///
/// # Errors
///
/// Truncation, bad magic, unsupported version, a corrupted section table,
/// or an unknown section id.
pub fn inspect(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    let table = FORMAT.split(bytes).map_err(container_error)?;
    Ok(SnapshotInfo {
        version: FORMAT_VERSION,
        snapshot_id: table.id,
        sections: table.sections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{FamilyKind, Layout, POSTING_LEN};
    use crate::{MatchConfig, MatchSet, ScoringModel};
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
        let (_, decoded) = decode(&bytes).unwrap();
        let built = SearchEngine::build(&corpus);
        for scoring in ScoringModel::ALL {
            let (decoded, built) = (decoded.with_scoring(scoring), built.with_scoring(scoring));
            for query in table1_attributes() {
                assert_bit_identical(
                    &built.match_text(query),
                    &decoded.match_text(query),
                    &format!("{scoring:?} {query}"),
                );
            }
        }
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
    fn decoded_engine_honors_every_scoring_configuration() {
        let (corpus, bytes) = snapshot();
        for scoring in ScoringModel::ALL {
            for expand in [false, true] {
                let config = MatchConfig {
                    scoring,
                    expand_synonyms: expand,
                    max_hits: Some(5),
                    ..MatchConfig::default()
                };
                let built = SearchEngine::build(&corpus).with_config(config);
                let decoded = decode(&bytes).expect("decode").1.with_config(config);
                for query in table1_attributes()
                    .iter()
                    .chain(&["", "zephyr marmalade", "&&&"])
                {
                    assert_bit_identical(
                        &built.match_text(query),
                        &decoded.match_text(query),
                        &format!("{scoring:?} expand={expand} {query}"),
                    );
                }
            }
        }
    }

    #[test]
    fn hostile_index_words_are_refused_or_scored_never_panic() {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let [patterns, weaknesses, vulnerabilities] = engine.families().map(Segments::section);
        let [patterns, weaknesses, vulnerabilities] = [&*patterns, &*weaknesses, &*vulnerabilities];
        let records = encode_corpus_section(&corpus);
        // Seals `corrupt` as the vulnerabilities section under valid
        // checksums and decodes it: the index validator may refuse it
        // with one line, and an engine that decodes must answer under
        // both scoring models. Returns whether it decoded.
        let survives = |corrupt: &[u8]| -> bool {
            match decode(&FORMAT.assemble(&[&records, patterns, weaknesses, corrupt])) {
                Ok((_, engine)) => {
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
        // Flip bytes of the section (striding through it; every byte of
        // every section is swept in tests/snapshot_hostile.rs) — results
        // may differ, safety may not.
        for pos in (0..vulnerabilities.len()).step_by(97) {
            let mut corrupt = vulnerabilities.to_vec();
            corrupt[pos] ^= 0xFF;
            survives(&corrupt);
        }
        // The words that feed the query-time weight. A `tf` of 0 (`ln 0`)
        // or above its document's length is refused; lengths of
        // `u32::MAX` (BM25's `len / avg` at its extreme) and `tf`s past
        // the `ln` table with lengths to match are valid and must score.
        let layout = Layout::parse(FamilyKind::Vulnerabilities, vulnerabilities).unwrap();
        let tfs: Vec<usize> = (0..layout.posting_total)
            .map(|i| layout.postings_off + i * POSTING_LEN + 4)
            .collect();
        let lens: Vec<usize> = (0..layout.doc_count)
            .map(|i| layout.lengths_off + i * 4)
            .collect();
        let word =
            |off: usize| u32::from_le_bytes(vulnerabilities[off..off + 4].try_into().unwrap());
        assert!(lens.iter().all(|&off| word(off) < 1_000));
        for (rewrites, opens) in [
            (vec![(&tfs, 0)], false),
            (vec![(&tfs, 1_000)], false),
            (vec![(&tfs, u32::MAX)], false),
            (vec![(&lens, 0)], false),
            (vec![(&lens, u32::MAX)], true),
            (vec![(&tfs, 1_000), (&lens, 1_000)], true),
            (vec![(&tfs, u32::MAX), (&lens, u32::MAX)], true),
        ] {
            let mut corrupt = vulnerabilities.to_vec();
            for &(words, value) in &rewrites {
                for &off in words {
                    corrupt[off..off + 4].copy_from_slice(&value.to_le_bytes());
                }
            }
            let values: Vec<u32> = rewrites.iter().map(|&(_, value)| value).collect();
            assert_eq!(survives(&corrupt), opens, "rewrite to {values:?}");
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
        let header = cpssec_obs::container::HEADER_LEN + 4 * cpssec_obs::container::TABLE_ENTRY_LEN;
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

    /// The snapshots the split decode is checked on: the seed corpus,
    /// seed + synthetic 0.01, and the seed grown by two deltas and
    /// compacted, each with the corpus it encodes.
    fn split_snapshots() -> Vec<(&'static str, Corpus, Vec<u8>)> {
        let seed = seed_corpus();
        let mut synthetic = seed_corpus();
        synthetic
            .merge(cpssec_attackdb::synth::generate(
                &cpssec_attackdb::synth::SynthSpec::paper2020(2020, 0.01),
            ))
            .unwrap();
        let mut grown = seed_corpus();
        let mut engine = SearchEngine::build(&grown);
        let mut state = inspect(&encode(&grown, &engine)).unwrap().snapshot_id;
        for serial in 0..2 {
            let delta =
                crate::delta::build(state, &cpssec_attackdb::synth::delta_batch(5, 60, serial));
            state = crate::delta::apply_delta(&mut grown, &mut engine, &delta, state)
                .unwrap()
                .child_id;
        }
        let compacted = crate::delta::compact_verified(&grown, &engine).unwrap();
        vec![
            (
                "seed",
                seed.clone(),
                encode(&seed, &SearchEngine::build(&seed)),
            ),
            (
                "seed + synthetic 0.01",
                synthetic.clone(),
                encode(&synthetic, &SearchEngine::build(&synthetic)),
            ),
            ("delta-compacted", grown, compacted),
        ]
    }

    /// The chunk counts a split decode is checked at: one, two and three
    /// runs, one more run than cores, and one more than there are
    /// vulnerability records (every run one record long).
    fn chunk_counts(corpus: &Corpus) -> [usize; 5] {
        [1, 2, 3, cores() + 1, corpus.stats().vulnerabilities + 1]
    }

    #[test]
    fn every_split_decodes_the_same_corpus_and_bytes() {
        for (label, corpus, bytes) in split_snapshots() {
            for chunks in chunk_counts(&corpus) {
                let (decoded, engine) = decode_in(&bytes, chunks).unwrap();
                assert_eq!(decoded, corpus, "{label}, {chunks} chunks");
                assert!(
                    encode(&decoded, &engine) == bytes,
                    "{label}, {chunks} chunks: re-encode differs"
                );
            }
        }
    }

    /// `corpus`'s snapshot with its vulnerability records written by
    /// `edit` (given each record's position, the record and the section
    /// so far) and every checksum valid.
    fn with_vulnerability_records(
        corpus: &Corpus,
        edit: impl Fn(usize, &cpssec_attackdb::Vulnerability, &mut Vec<u8>),
    ) -> Vec<u8> {
        let engine = SearchEngine::build(corpus);
        let stats = corpus.stats();
        let mut records = Vec::new();
        encode_family_records(&mut records, stats.patterns, corpus.patterns(), |b, p| {
            record_wire::encode_pattern(b, p);
        });
        encode_family_records(
            &mut records,
            stats.weaknesses,
            corpus.weaknesses(),
            |b, w| {
                record_wire::encode_weakness(b, w);
            },
        );
        let vulnerabilities: Vec<_> = corpus.vulnerabilities().collect();
        encode_family_records(
            &mut records,
            vulnerabilities.len(),
            0..vulnerabilities.len(),
            |b, i| {
                edit(i, vulnerabilities[i], b);
            },
        );
        let [p, w, v] = engine.families().map(Segments::section);
        FORMAT.assemble(&[&records, &p, &w, &v])
    }

    #[test]
    fn every_split_refuses_a_bad_record_with_the_same_error() {
        let (_, corpus, _) = split_snapshots().swap_remove(1);
        let n = corpus.stats().vulnerabilities;
        let vulnerabilities: Vec<_> = corpus.vulnerabilities().cloned().collect();
        // Two records with a trailing byte, one early and one in the last
        // run: every split reports the early one.
        let trailing = with_vulnerability_records(&corpus, |i, v, b| {
            record_wire::encode_vulnerability(b, v);
            if i == 5 || i == n - 2 {
                b.push(0);
            }
        });
        // Two records swapped near the end, then a duplicate at the end.
        let swapped = with_vulnerability_records(&corpus, |i, _, b| {
            let i = match i {
                i if i == n - 4 => n - 3,
                i if i == n - 3 => n - 4,
                i if i == n - 1 => n - 2,
                i => i,
            };
            record_wire::encode_vulnerability(b, &vulnerabilities[i]);
        });
        for (bytes, expected) in [
            (
                trailing,
                "corrupt snapshot: `vulnerabilities` record 5 has 1 trailing byte(s)".to_owned(),
            ),
            (
                swapped,
                format!(
                    "corrupt snapshot: `vulnerabilities` record {} is not in id order",
                    n - 3
                ),
            ),
        ] {
            assert_eq!(decode(&bytes).unwrap_err().to_string(), expected);
            for chunks in chunk_counts(&corpus) {
                let err = decode_in(&bytes, chunks).unwrap_err();
                assert_eq!(err.to_string(), expected, "{chunks} chunks");
            }
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
