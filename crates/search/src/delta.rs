//! The `.cpsdelta` sidecar: incremental corpus/index growth without a
//! full rebuild.
//!
//! A delta carries a *batch* of new records, chained to a specific
//! parent state by id, and nothing derived from them. Applying it appends
//! the records to the corpus, indexes the batch of each family with the
//! build's own tokenize-and-intern loop, and merges that small section
//! into the family's in one pass (`Family::merge`), so the index follows
//! from the stored records by construction. The indices store only term
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
//! # Layout (delta version 2)
//!
//! ```text
//! magic             "CPSDLT"                 6 bytes
//! version           u16 LE                   2 bytes
//! parent_id         u64 LE                   8 bytes
//! payload_checksum  u64 LE (wide FNV)        8 bytes
//! payload           record batch (corpus wire format, three families)
//! ```
//!
//! Version 1 also carried each record's pre-tokenized `(term, tf)` runs,
//! which nothing checked against the records; it is refused.
//!
//! `parent_id` is either a base snapshot's `snapshot_id` or the
//! [`chain_id`] of a previously applied delta — a hash chain, so a delta
//! can never be applied out of order or to the wrong base.

use cpssec_attackdb::snapshot as record_wire;
use cpssec_attackdb::snapshot::{put_u16, put_u64, Reader};
use cpssec_attackdb::{AttackPattern, Corpus, Vulnerability, Weakness};
use cpssec_model::fnv1a_64_wide;

use crate::engine::build_families;
use crate::snapshot::{self, SnapshotError};
use crate::SearchEngine;

/// The six magic bytes every `.cpsdelta` file starts with.
pub const DELTA_MAGIC: [u8; 6] = *b"CPSDLT";

/// The delta format version this build writes and reads.
pub const DELTA_VERSION: u16 = 2;

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

/// Serializes a `.cpsdelta` chaining `batch` onto `parent_id`. Only the
/// records ship; apply indexes them.
#[must_use]
pub fn build(parent_id: u64, batch: &Corpus) -> Vec<u8> {
    let payload = record_wire::encode_corpus(batch);
    let mut out = Vec::with_capacity(DELTA_MAGIC.len() + 18 + payload.len());
    out.extend_from_slice(&DELTA_MAGIC);
    put_u16(&mut out, DELTA_VERSION);
    put_u64(&mut out, parent_id);
    put_u64(&mut out, fnv1a_64_wide(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Fully parsed delta: info plus the batch records, per family in id
/// order.
struct ParsedDelta {
    info: DeltaInfo,
    patterns: Vec<AttackPattern>,
    weaknesses: Vec<Weakness>,
    vulnerabilities: Vec<Vulnerability>,
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
    // Decoding through a `Corpus` enforces unique ids within the batch and
    // no trailing bytes; the per-family vectors move back out in id order.
    let (patterns, weaknesses, vulnerabilities) =
        record_wire::decode_corpus(payload)?.into_records();
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
/// rebuild), then indexes each family's batch with the build's
/// tokenize-and-intern loop, merges it into the family, and appends the
/// records to the corpus. The corpus side costs *O(batch)* even on a
/// clone: a cloned [`Corpus`] shares its record segments, and the batch
/// lands in a new one. The engine side writes each grown family once, a
/// copy of its section with the batch merged in, so an engine sharing the
/// old families (a clone, or a [`SearchEngine::with_scoring`] copy) keeps
/// them unchanged.
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

    engine.append(build_families(
        parsed.patterns.iter(),
        parsed.weaknesses.iter(),
        parsed.vulnerabilities.iter(),
    ));
    let dup = |e: cpssec_attackdb::AttackDbError| SnapshotError::Corrupt(e.to_string());
    for record in parsed.patterns {
        corpus.add_pattern(record).map_err(dup)?;
    }
    for record in parsed.weaknesses {
        corpus.add_weakness(record).map_err(dup)?;
    }
    for record in parsed.vulnerabilities {
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
/// files. The grown engine's sections are its in-memory families, so
/// they are assembled with the corpus into the returned snapshot as they
/// are.
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] if the grown engine's encoding diverges from
/// the rebuild — which would mean the delta chain broke an invariant and
/// the state must not be persisted.
pub fn compact_verified(corpus: &Corpus, engine: &SearchEngine) -> Result<Vec<u8>, SnapshotError> {
    let _span = cpssec_obs::span!("delta-compact");
    let grown = engine.families().map(|family| family.section());
    let rebuilt = SearchEngine::with_config(corpus, engine.config());
    if grown != rebuilt.families().map(|family| family.section()) {
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
    use cpssec_attackdb::{Abstraction, AttackVectorId, CapecId, CveId, CweId};

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
        let err = compact_verified(&corpus, &SearchEngine::build(&other)).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Corrupt(msg) if msg.contains("diverges")),
            "{err}"
        );
        assert!(!err.to_string().contains('\n'), "{err}");
    }

    /// Recomputes the payload checksum of an edited delta, so the edit
    /// reaches the decoder instead of stopping at the checksum.
    fn reseal(bytes: &mut [u8]) {
        // Header: magic, version u16, parent id u64, then the checksum.
        let at = DELTA_MAGIC.len() + 2 + 8;
        if bytes.len() >= at + 8 {
            let checksum = fnv1a_64_wide(&bytes[at + 8..]);
            bytes[at..at + 8].copy_from_slice(&checksum.to_le_bytes());
        }
    }

    #[test]
    fn an_edited_record_text_is_indexed_as_edited_and_compacts() {
        let (mut corpus, mut engine, id) = base();
        let mut bytes = build(id, &batch(1));
        // The last `flownet` in the payload is in the last vulnerability's
        // description; a same-length edit keeps the batch well-formed.
        let at = bytes
            .windows(7)
            .rposition(|w| w == b"flownet")
            .expect("description present");
        bytes[at + 6] = b'z';
        reseal(&mut bytes);
        apply_delta(&mut corpus, &mut engine, &bytes, id).expect("edited delta applies");
        let edited = CveId::new(2030, 1002);
        let hits = engine.match_text("flownez");
        let ids: Vec<AttackVectorId> = hits.vulnerabilities.iter().map(|h| h.id).collect();
        assert_eq!(ids, [AttackVectorId::from(edited)]);
        assert!(corpus
            .vulnerability(edited)
            .is_some_and(|v| v.description().contains("flownez")));
        let compacted = compact_verified(&corpus, &engine).expect("equivalence holds");
        assert_eq!(decode(&compacted).expect("decodes").0, corpus);
    }

    /// Asserts `result` is `Ok` or a one-line error; returns whether it
    /// is `Ok`.
    fn is_ok_or_one_line<T>(result: Result<T, SnapshotError>) -> bool {
        match result {
            Ok(_) => true,
            Err(err) => {
                assert!(!err.to_string().contains('\n'), "{err}");
                false
            }
        }
    }

    #[test]
    fn hostile_delta_bytes_never_panic() {
        let (corpus, engine, id) = base();
        let bytes = build(id, &batch(1));
        let mut applied = 0;
        let mut try_bytes = |hostile: &[u8]| {
            let inspected = is_ok_or_one_line(inspect_delta(hostile));
            let (mut c, mut e) = (corpus.clone(), engine.clone());
            if is_ok_or_one_line(apply_delta(&mut c, &mut e, hostile, id)) {
                // Whatever a hostile batch says, an applied one is the index
                // of its records, so the compaction proof holds.
                compact_verified(&c, &e).expect("an applied delta compacts");
                applied += 1;
            }
            inspected
        };
        for len in 0..bytes.len() {
            assert!(!try_bytes(&bytes[..len]), "truncated to {len}");
            let mut resealed = bytes[..len].to_vec();
            reseal(&mut resealed);
            assert!(!try_bytes(&resealed), "truncated to {len}, resealed");
        }
        let payload_at = DELTA_MAGIC.len() + 2 + 8 + 8;
        for at in payload_at..bytes.len() {
            for mask in [0x01, 0x20, 0x80, 0xFF] {
                let mut flipped = bytes.clone();
                flipped[at] ^= mask;
                reseal(&mut flipped);
                try_bytes(&flipped);
            }
        }
        // Flips inside record text reach the index, not just the decoder.
        assert!(applied > 0);
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
        // Version 1 carried pre-tokenized term runs; it is refused too.
        for v in [1u16, 9] {
            let mut version = bytes.clone();
            version[6..8].copy_from_slice(&v.to_le_bytes());
            let err = inspect_delta(&version).unwrap_err();
            assert_eq!(err, SnapshotError::UnsupportedVersion(v));
            assert!(!err.to_string().contains('\n'), "{err}");
        }
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
