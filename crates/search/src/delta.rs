//! The `.cpsdelta` sidecar: incremental corpus/index growth without a
//! full rebuild.
//!
//! A delta carries a *batch* of new records plus their pre-tokenized term
//! runs, chained to a specific parent state by id. Applying it appends the
//! records to the corpus and the runs to the three family indices
//! ([`InvertedIndex::append_document_runs`]). The indices store only term
//! frequencies and document lengths, and every weight is computed at query
//! time from them, so the grown engine is *bit-identical* to one rebuilt
//! over the merged corpus. Combined with the append-only id floor
//! (new ids must exceed every existing id, keeping `BTreeMap` id order
//! equal to append order) and the sorted-term snapshot encoding
//! (independent of term-id numbering), this yields the compaction
//! guarantee: [`compact_verified`] proves the re-encoded base snapshot is
//! byte-identical to rebuild-from-scratch at every compaction point, by
//! comparing the engine-dependent family sections of the two.
//!
//! # Layout (delta version 1)
//!
//! ```text
//! magic             "CPSDLT"                 6 bytes
//! version           u16 LE                   2 bytes
//! parent_id         u64 LE                   8 bytes
//! payload_checksum  u64 LE (wide FNV)        8 bytes
//! payload:
//!   batch           record batch (corpus wire format, three families)
//!   runs × 3        per family, per record in id order:
//!                     token_count u32, run_count u32,
//!                     run_count × { term str, tf u32 }
//! ```
//!
//! `parent_id` is either a base snapshot's `snapshot_id` or the
//! [`chain_id`] of a previously applied delta — a hash chain, so a delta
//! can never be applied out of order or to the wrong base.
//!
//! [`InvertedIndex::append_document_runs`]: crate::index::InvertedIndex

use std::collections::HashMap;

use cpssec_attackdb::snapshot as record_wire;
use cpssec_attackdb::snapshot::{put_str, put_u16, put_u32, put_u64, Reader};
use cpssec_attackdb::{AttackPattern, Corpus, Vulnerability, Weakness};
use cpssec_model::fnv1a_64_wide;

use crate::snapshot::{self, SnapshotError};
use crate::text::{for_each_word, normalize_word};
use crate::SearchEngine;

/// The six magic bytes every `.cpsdelta` file starts with.
pub const DELTA_MAGIC: [u8; 6] = *b"CPSDLT";

/// The delta format version this build writes and reads.
pub const DELTA_VERSION: u16 = 1;

/// The state id reached by applying a delta: a hash chain over the parent
/// id and the delta's payload checksum. Deterministic, order-sensitive,
/// and collision-resistant enough to catch any mis-sequenced apply.
#[must_use]
pub fn chain_id(parent_id: u64, payload_checksum: u64) -> u64 {
    let mut buf = [0u8; 16];
    buf[..8].copy_from_slice(&parent_id.to_le_bytes());
    buf[8..].copy_from_slice(&payload_checksum.to_le_bytes());
    fnv1a_64_wide(&buf)
}

/// Header-level description of a delta, plus its record counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaInfo {
    /// Delta format version.
    pub version: u16,
    /// The state this delta chains onto (snapshot id or prior chain id).
    pub parent_id: u64,
    /// Wide-FNV checksum of the payload.
    pub payload_checksum: u64,
    /// The state id after applying this delta: [`chain_id`] of the two
    /// fields above.
    pub child_id: u64,
    /// New attack patterns in the batch.
    pub patterns: usize,
    /// New weaknesses in the batch.
    pub weaknesses: usize,
    /// New vulnerabilities in the batch.
    pub vulnerabilities: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl DeltaInfo {
    /// Total records in the batch.
    #[must_use]
    pub fn records(&self) -> usize {
        self.patterns + self.weaknesses + self.vulnerabilities
    }
}

/// One document's pre-tokenized term runs, in first-occurrence order.
struct DocRuns {
    token_count: u32,
    runs: Vec<(String, u32)>,
}

/// Tokenizes `text` into `(token_count, first-occurrence runs)` — the
/// exact shape [`crate::index::InvertedIndex::append_document_runs`]
/// consumes to replicate `add_document` byte-for-byte.
fn token_runs(text: &str) -> DocRuns {
    let mut token_count = 0u32;
    let mut runs: Vec<(String, u32)> = Vec::new();
    let mut slots: HashMap<String, usize> = HashMap::new();
    for_each_word(text, |raw| {
        let Some(term) = normalize_word(raw) else {
            return;
        };
        token_count += 1;
        match slots.get(&term) {
            Some(&slot) => runs[slot].1 += 1,
            None => {
                slots.insert(term.clone(), runs.len());
                runs.push((term, 1));
            }
        }
    });
    DocRuns { token_count, runs }
}

fn put_doc_runs(out: &mut Vec<u8>, doc: &DocRuns) {
    put_u32(out, doc.token_count);
    put_u32(out, u32::try_from(doc.runs.len()).expect("runs fit u32"));
    for (term, tf) in &doc.runs {
        put_str(out, term);
        put_u32(out, *tf);
    }
}

/// Serializes a `.cpsdelta` chaining `batch` onto `parent_id`.
///
/// The batch is tokenized here, at build time — apply never re-tokenizes,
/// it replays the stored runs. Raw `(term, tf)` runs ship on the wire —
/// exactly what the index stores; weights depend on the post-apply
/// document count and are computed at query time.
#[must_use]
pub fn build(parent_id: u64, batch: &Corpus) -> Vec<u8> {
    let mut payload = Vec::new();
    record_wire::encode_corpus_into(batch, &mut payload);
    for pattern in batch.patterns() {
        put_doc_runs(&mut payload, &token_runs(&pattern.search_text()));
    }
    for weakness in batch.weaknesses() {
        put_doc_runs(&mut payload, &token_runs(&weakness.search_text()));
    }
    for vulnerability in batch.vulnerabilities() {
        put_doc_runs(&mut payload, &token_runs(&vulnerability.search_text()));
    }
    let mut out = Vec::with_capacity(DELTA_MAGIC.len() + 18 + payload.len());
    out.extend_from_slice(&DELTA_MAGIC);
    put_u16(&mut out, DELTA_VERSION);
    put_u64(&mut out, parent_id);
    put_u64(&mut out, fnv1a_64_wide(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Fully parsed delta: info plus the batch records and their runs, each
/// family's vectors aligned index-for-index.
struct ParsedDelta {
    info: DeltaInfo,
    patterns: Vec<AttackPattern>,
    weaknesses: Vec<Weakness>,
    vulnerabilities: Vec<Vulnerability>,
    pattern_runs: Vec<DocRuns>,
    weakness_runs: Vec<DocRuns>,
    vulnerability_runs: Vec<DocRuns>,
}

fn read_doc_runs(r: &mut Reader<'_>, count: usize) -> Result<Vec<DocRuns>, SnapshotError> {
    let mut docs = Vec::with_capacity(count.min(r.remaining() / 8 + 1));
    for _ in 0..count {
        let token_count = r.u32()?;
        let run_count = r.u32()?;
        let mut runs = Vec::with_capacity(r.capacity_for(run_count, 8));
        for _ in 0..run_count {
            let term = r.str()?.to_owned();
            let tf = r.u32()?;
            runs.push((term, tf));
        }
        docs.push(DocRuns { token_count, runs });
    }
    Ok(docs)
}

fn parse(bytes: &[u8]) -> Result<ParsedDelta, SnapshotError> {
    if bytes.len() < DELTA_MAGIC.len() {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..DELTA_MAGIC.len()] != DELTA_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut r = Reader::new(&bytes[DELTA_MAGIC.len()..]);
    let version = r.u16()?;
    if version != DELTA_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let parent_id = r.u64()?;
    let payload_checksum = r.u64()?;
    let payload = r.take(r.remaining())?;
    if fnv1a_64_wide(payload) != payload_checksum {
        return Err(SnapshotError::ChecksumMismatch("delta payload"));
    }
    // Decoding through a `Corpus` enforces unique ids within the batch;
    // the per-family vectors move back out in id order.
    let mut pr = Reader::new(payload);
    let (patterns, weaknesses, vulnerabilities) =
        record_wire::decode_corpus_from(&mut pr)?.into_records();
    let pattern_runs = read_doc_runs(&mut pr, patterns.len())?;
    let weakness_runs = read_doc_runs(&mut pr, weaknesses.len())?;
    let vulnerability_runs = read_doc_runs(&mut pr, vulnerabilities.len())?;
    if !pr.finished() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing byte(s) after the run table",
            pr.remaining()
        )));
    }
    let info = DeltaInfo {
        version,
        parent_id,
        payload_checksum,
        child_id: chain_id(parent_id, payload_checksum),
        patterns: patterns.len(),
        weaknesses: weaknesses.len(),
        vulnerabilities: vulnerabilities.len(),
        payload_len: payload.len(),
    };
    Ok(ParsedDelta {
        info,
        patterns,
        weaknesses,
        vulnerabilities,
        pattern_runs,
        weakness_runs,
        vulnerability_runs,
    })
}

/// Parses and validates a delta (header, checksum, batch structure)
/// without applying it — the cheap precheck for servers and `inspect`.
///
/// # Errors
///
/// Truncation, bad magic, unsupported version, payload checksum mismatch,
/// or a structurally corrupt batch.
pub fn inspect_delta(bytes: &[u8]) -> Result<DeltaInfo, SnapshotError> {
    parse(bytes).map(|p| p.info)
}

/// Applies a delta to an owned corpus + engine pair in place.
///
/// Verifies the chain (`parent_id` must equal `expected_parent`), enforces
/// the append-only id floor (every batch id must exceed every existing id
/// of its family — the invariant that keeps compaction byte-identical to
/// rebuild), and appends records and index runs. The corpus side costs
/// *O(batch)* even on a clone: a cloned [`Corpus`] shares its record
/// segments, and the batch lands in a new one. What is still
/// *O(corpus)* is the engine side: an index family shared with another
/// engine (a clone, or a [`SearchEngine::with_scoring`] copy) is copied
/// on first append (`Arc::make_mut`).
///
/// On error the pair may be partially modified and must be discarded:
/// apply to clones and swap on success (what the server and CLI do).
///
/// # Errors
///
/// Any parse error from [`inspect_delta`]; [`SnapshotError::Corrupt`] on
/// a parent-chain mismatch (message names both ids) or an id-floor
/// violation.
pub fn apply_delta(
    corpus: &mut Corpus,
    engine: &mut SearchEngine,
    bytes: &[u8],
    expected_parent: u64,
) -> Result<DeltaInfo, SnapshotError> {
    let mut span = cpssec_obs::span!("delta-apply");
    let parsed = parse(bytes)?;
    if parsed.info.parent_id != expected_parent {
        return Err(SnapshotError::Corrupt(format!(
            "delta parent {:016x} does not match the current state {:016x}",
            parsed.info.parent_id, expected_parent
        )));
    }
    let floor_err = |family: &str| {
        SnapshotError::Corrupt(format!(
            "delta `{family}` batch violates the append-only id floor"
        ))
    };
    if let (Some(first), Some(last)) = (parsed.patterns.first(), corpus.last_pattern_id()) {
        if first.id() <= last {
            return Err(floor_err("patterns"));
        }
    }
    if let (Some(first), Some(last)) = (parsed.weaknesses.first(), corpus.last_weakness_id()) {
        if first.id() <= last {
            return Err(floor_err("weaknesses"));
        }
    }
    if let (Some(first), Some(last)) = (
        parsed.vulnerabilities.first(),
        corpus.last_vulnerability_id(),
    ) {
        if first.id() <= last {
            return Err(floor_err("vulnerabilities"));
        }
    }
    span.add_items(parsed.info.records() as u64);

    let dup = |e: cpssec_attackdb::AttackDbError| SnapshotError::Corrupt(e.to_string());
    let (p, w, v) = engine.parts_mut();
    for (record, doc) in parsed.patterns.into_iter().zip(&parsed.pattern_runs) {
        let refs: Vec<(&str, u32)> = doc.runs.iter().map(|(t, tf)| (t.as_str(), *tf)).collect();
        p.index.append_document_runs(doc.token_count, &refs)?;
        p.ids.push(record.id());
        corpus.add_pattern(record).map_err(dup)?;
    }
    for (record, doc) in parsed.weaknesses.into_iter().zip(&parsed.weakness_runs) {
        let refs: Vec<(&str, u32)> = doc.runs.iter().map(|(t, tf)| (t.as_str(), *tf)).collect();
        w.index.append_document_runs(doc.token_count, &refs)?;
        w.ids.push(record.id());
        corpus.add_weakness(record).map_err(dup)?;
    }
    for (record, doc) in parsed
        .vulnerabilities
        .into_iter()
        .zip(&parsed.vulnerability_runs)
    {
        let refs: Vec<(&str, u32)> = doc.runs.iter().map(|(t, tf)| (t.as_str(), *tf)).collect();
        v.index.append_document_runs(doc.token_count, &refs)?;
        v.ids.push(record.id());
        corpus.add_vulnerability(record).map_err(dup)?;
    }
    Ok(parsed.info)
}

/// Compacts a delta-grown state into a new base snapshot, **proving** the
/// equivalence invariant on the way: the snapshot must be byte-identical
/// to encoding a from-scratch rebuild over the same corpus. The proof
/// costs one rebuild — paid only at compaction points (every K deltas),
/// never per apply.
///
/// Only the engine's family sections are compared. Both sides encode the
/// same `corpus`, the corpus section is a function of the corpus alone,
/// and [`snapshot::encode`] is a deterministic assembly of the corpus and
/// the family sections, so equal family sections are equivalent to equal
/// files. Each section is encoded once: the grown family sections are
/// assembled with the corpus into the returned snapshot.
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] if the grown engine's encoding diverges from
/// the rebuild — which would mean the delta chain broke an invariant and
/// the state must not be persisted.
pub fn compact_verified(corpus: &Corpus, engine: &SearchEngine) -> Result<Vec<u8>, SnapshotError> {
    let _span = cpssec_obs::span!("delta-compact");
    let grown = snapshot::family_sections(engine);
    let rebuilt = SearchEngine::with_config(corpus, engine.config());
    if grown != snapshot::family_sections(&rebuilt) {
        return Err(SnapshotError::Corrupt(
            "compacted snapshot diverges from rebuild-from-scratch".into(),
        ));
    }
    Ok(snapshot::assemble(corpus, grown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{decode, encode, inspect};
    use cpssec_attackdb::seed::{seed_corpus, table1_attributes};
    use cpssec_attackdb::{Abstraction, CapecId, CveId, CweId};

    /// A small batch with ids safely above everything in the seed corpus.
    fn batch(serial: u32) -> Corpus {
        let mut b = Corpus::new();
        b.add_pattern(AttackPattern::new(
            CapecId::new(900_000 + serial),
            format!("Flowgate spoofing wave {serial}"),
            "Spoofs the quantumworks flowgate session token",
            Abstraction::Standard,
        ))
        .unwrap();
        b.add_weakness(Weakness::new(
            CweId::new(800_000 + serial),
            format!("Quantumworks gateway weakness {serial}"),
            "Improper validation in the quantumworks flownet gateway firmware",
        ))
        .unwrap();
        for i in 0..3 {
            b.add_vulnerability(Vulnerability::new(
                CveId::new(2030, serial * 1000 + i),
                format!("quantumworks flownet gateway buffer overflow variant {i}"),
            ))
            .unwrap();
        }
        b
    }

    fn base() -> (Corpus, SearchEngine, u64) {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let id = inspect(&encode(&corpus, &engine)).unwrap().snapshot_id;
        (corpus, engine, id)
    }

    #[test]
    fn build_inspect_round_trip() {
        let bytes = build(0xABCD, &batch(1));
        let info = inspect_delta(&bytes).unwrap();
        assert_eq!(info.version, DELTA_VERSION);
        assert_eq!(info.parent_id, 0xABCD);
        assert_eq!(info.patterns, 1);
        assert_eq!(info.weaknesses, 1);
        assert_eq!(info.vulnerabilities, 3);
        assert_eq!(info.records(), 5);
        assert_eq!(info.child_id, chain_id(0xABCD, info.payload_checksum));
        assert_ne!(info.child_id, info.parent_id);
    }

    #[test]
    fn apply_grows_state_bit_identical_to_rebuild() {
        let (mut corpus, mut engine, id) = base();
        let info = apply_delta(&mut corpus, &mut engine, &build(id, &batch(1)), id).unwrap();
        assert_eq!(info.records(), 5);

        // The grown engine answers new-record queries...
        let hits = engine.match_text("quantumworks flownet gateway");
        assert!(!hits.is_empty(), "delta records must be queryable");
        // ...and is bit-identical to a from-scratch rebuild on everything.
        let rebuilt = SearchEngine::build(&corpus);
        for query in table1_attributes()
            .iter()
            .copied()
            .chain(["quantumworks flownet gateway"])
        {
            let a = engine.match_text(query);
            let b = rebuilt.match_text(query);
            assert_eq!(a.counts(), b.counts(), "{query}");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{query}");
            }
        }
        // Snapshot-level byte equality is the compaction invariant.
        assert_eq!(encode(&corpus, &engine), encode(&corpus, &rebuilt));
    }

    #[test]
    fn chained_deltas_compact_verified_at_every_point() {
        let (mut corpus, mut engine, mut state) = base();
        for serial in 1..=3 {
            let info = apply_delta(
                &mut corpus,
                &mut engine,
                &build(state, &batch(serial)),
                state,
            )
            .unwrap();
            state = info.child_id;
            let compacted = compact_verified(&corpus, &engine).expect("equivalence holds");
            let (c2, _) = decode(&compacted).expect("compacted snapshot decodes");
            assert_eq!(c2, corpus);
        }
    }

    /// Asserts the compaction proof rejects `(corpus, engine)` with the
    /// one-line divergence error.
    fn assert_compaction_rejected(corpus: &Corpus, engine: &SearchEngine) {
        let err = compact_verified(corpus, engine).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Corrupt(msg) if msg.contains("diverges")),
            "{err}"
        );
        assert!(!err.to_string().contains('\n'), "{err}");
    }

    #[test]
    fn compaction_rejects_an_engine_built_over_a_different_corpus() {
        let corpus = seed_corpus();
        let (patterns, weaknesses, mut vulnerabilities) = corpus.clone().into_records();
        let changed = &mut vulnerabilities[0];
        *changed = Vulnerability::new(changed.id(), "quantumworks flownet gateway overflow");
        let mut other = Corpus::new();
        for p in patterns {
            other.add_pattern(p).unwrap();
        }
        for w in weaknesses {
            other.add_weakness(w).unwrap();
        }
        for v in vulnerabilities {
            other.add_vulnerability(v).unwrap();
        }
        // Same record ids and counts, so only the index contents differ.
        assert_compaction_rejected(&corpus, &SearchEngine::build(&other));
    }

    #[test]
    fn compaction_rejects_a_delta_with_tampered_runs() {
        let (mut corpus, mut engine, id) = base();
        let mut bytes = build(id, &batch(1));
        // The runs follow the record batch, so the last `flownet` in the
        // payload is a vulnerability's term run; the same-length rename
        // keeps every run well-formed, and the recomputed checksum lets
        // the tampered delta apply.
        let at = bytes
            .windows(7)
            .rposition(|w| w == b"flownet")
            .expect("term run present");
        bytes[at + 6] = b'z';
        // Header: magic, version u16, parent id u64, then the checksum.
        let checksum_at = DELTA_MAGIC.len() + 2 + 8;
        let checksum = fnv1a_64_wide(&bytes[checksum_at + 8..]);
        bytes[checksum_at..checksum_at + 8].copy_from_slice(&checksum.to_le_bytes());
        apply_delta(&mut corpus, &mut engine, &bytes, id).expect("tampered runs still apply");
        assert_eq!(engine.match_text("flownez").vulnerabilities.len(), 1);
        assert_compaction_rejected(&corpus, &engine);
    }

    #[test]
    fn wrong_parent_is_rejected_with_both_ids() {
        let (mut corpus, mut engine, id) = base();
        let delta = build(id ^ 1, &batch(1));
        let err = apply_delta(&mut corpus, &mut engine, &delta, id).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("parent"), "{msg}");
        assert!(
            msg.contains(&format!("{:016x}", id ^ 1)) && msg.contains(&format!("{id:016x}")),
            "{msg}"
        );
    }

    #[test]
    fn replaying_a_delta_is_rejected_by_the_chain() {
        let (mut corpus, mut engine, id) = base();
        let delta = build(id, &batch(1));
        let info = apply_delta(&mut corpus, &mut engine, &delta, id).unwrap();
        // Same bytes again: the state id moved, so the chain check fires.
        let err = apply_delta(&mut corpus, &mut engine, &delta, info.child_id).unwrap_err();
        assert!(err.to_string().contains("parent"), "{err}");
    }

    #[test]
    fn id_floor_violation_is_rejected() {
        let (mut corpus, mut engine, id) = base();
        let mut low = Corpus::new();
        // CWE-79 exists in the seed corpus: re-adding ids at or below the
        // floor must fail even though the id itself is not a duplicate key
        // collision until insert time.
        low.add_weakness(Weakness::new(CweId::new(1), "low", "below the floor"))
            .unwrap();
        let err = apply_delta(&mut corpus, &mut engine, &build(id, &low), id).unwrap_err();
        assert!(err.to_string().contains("append-only"), "{err}");
    }

    #[test]
    fn corrupt_delta_bytes_are_rejected() {
        let (_, _, id) = base();
        let bytes = build(id, &batch(1));
        assert_eq!(
            inspect_delta(&bytes[..3]).unwrap_err(),
            SnapshotError::Truncated
        );
        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert_eq!(inspect_delta(&magic).unwrap_err(), SnapshotError::BadMagic);
        let mut version = bytes.clone();
        version[6] = 9;
        assert_eq!(
            inspect_delta(&version).unwrap_err(),
            SnapshotError::UnsupportedVersion(9)
        );
        let mut payload = bytes.clone();
        let last = payload.len() - 1;
        payload[last] ^= 0xFF;
        assert_eq!(
            inspect_delta(&payload).unwrap_err(),
            SnapshotError::ChecksumMismatch("delta payload")
        );
    }

    #[test]
    fn empty_delta_is_a_valid_noop() {
        let (mut corpus, mut engine, id) = base();
        let before = encode(&corpus, &engine);
        let info = apply_delta(&mut corpus, &mut engine, &build(id, &Corpus::new()), id).unwrap();
        assert_eq!(info.records(), 0);
        assert_eq!(encode(&corpus, &engine), before, "state unchanged");
        assert_ne!(info.child_id, id, "but the chain still advances");
    }
}
