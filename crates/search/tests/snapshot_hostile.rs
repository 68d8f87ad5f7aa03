//! Hostile `.cpsnap` bytes: every truncation of a tiny snapshot, and
//! every byte of its four sections (the corpus records and the three
//! index families) XORed with `0x01`, `0x80` and `0xFF` under a
//! recomputed section checksum and `snapshot_id` (so the edit reaches the
//! payload decoders instead of stopping at a checksum).
//!
//! A second sweep flips every byte of the section table itself under a
//! recomputed `snapshot_id`, once as it is and once with every section
//! checksum recomputed too, so the table checks behind a valid id
//! (alignment, span bounds, `offset + len` overflow, unknown and missing
//! ids) are reached.
//!
//! Both read paths — the full [`snapshot::decode`] a snapshot boot runs
//! and the in-place [`view::open_verified`] — must answer each input with
//! `Ok` or a one-line `Err`, never a panic, and every engine `decode`
//! hands back must answer a query under both scoring models. The view
//! checks only geometry, so it accepts every input `decode` accepts.

use std::sync::Arc;

use cpssec_attackdb::{
    Abstraction, AttackPattern, CapecId, Corpus, CveId, CweId, Vulnerability, Weakness,
};
use cpssec_model::fnv1a_64_wide;
use cpssec_search::snapshot::{self, SnapshotError};
use cpssec_search::{view, ScoringModel, SearchEngine};

/// Header bytes before the section table: magic, version, count, id.
const TABLE_AT: usize = 6 + 2 + 4 + 8;
/// Bytes per section-table entry: id, offset, len, checksum.
const ENTRY_LEN: usize = 2 + 8 + 8 + 8;

/// A few records per family, sharing enough words that the index has
/// multi-document postings and repeated terms (`tf > 1`), with a CVSS
/// vector, a CWE link and a pattern→weakness link so the sweep reaches
/// those record decoders too.
fn tiny_corpus() -> Corpus {
    let mut corpus = Corpus::new();
    for (n, text) in [
        (100, "Buffer overflow via oversized input"),
        (101, "Command injection into a shell"),
        (102, "Overflow the heap buffer, then overflow again"),
    ] {
        let mut pattern = AttackPattern::new(CapecId::new(n), text, text, Abstraction::Standard);
        if n == 100 {
            pattern = pattern.with_weakness(CweId::new(120));
        }
        corpus.add_pattern(pattern).unwrap();
    }
    for (n, text) in [
        (120, "Classic buffer overflow"),
        (78, "OS command injection"),
        (79, "Cross-site scripting in a web page"),
    ] {
        corpus
            .add_weakness(Weakness::new(CweId::new(n), text, text))
            .unwrap();
    }
    for (n, text) in [
        (1, "A buffer overflow in the Modbus gateway firmware"),
        (
            2,
            "Remote code execution through a buffer overflow in the historian",
        ),
        (3, "Authentication bypass in the café HMI web interface"),
        (4, "Firmware overflow overflow overflow in the PLC"),
    ] {
        let mut vulnerability = Vulnerability::new(CveId::new(2020, n), text);
        if n == 1 {
            vulnerability = vulnerability
                .with_cvss(
                    "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
                        .parse()
                        .unwrap(),
                )
                .with_weakness(CweId::new(120));
        }
        corpus.add_vulnerability(vulnerability).unwrap();
    }
    corpus
}

/// Recomputes `snapshot_id` over the section table as it stands.
fn reseal_id(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let id = fnv1a_64_wide(&bytes[TABLE_AT..TABLE_AT + count * ENTRY_LEN]);
    bytes[12..20].copy_from_slice(&id.to_le_bytes());
}

/// Recomputes the checksum of every section whose span lies inside the
/// file and then `snapshot_id`, so a payload edit passes both integrity
/// checks.
fn reseal(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    for i in 0..count {
        let entry = TABLE_AT + i * ENTRY_LEN;
        let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let (offset, len) = (field(entry + 2), field(entry + 10));
        let checksum = offset
            .checked_add(len)
            .and_then(|end| bytes.get(offset as usize..end as usize))
            .map(fnv1a_64_wide);
        if let Some(checksum) = checksum {
            bytes[entry + 18..entry + 26].copy_from_slice(&checksum.to_le_bytes());
        }
    }
    reseal_id(bytes);
}

/// `Ok` or a one-line `Err`; returns the `Ok` value.
fn ok_or_one_line<T>(result: Result<T, SnapshotError>, what: &str) -> Option<T> {
    match result {
        Ok(value) => Some(value),
        Err(err) => {
            assert!(!err.to_string().contains('\n'), "{what}: {err}");
            None
        }
    }
}

/// Queries an accepted engine under both scoring models.
fn answers(engine: &SearchEngine) {
    for scoring in ScoringModel::ALL {
        let _ = engine.with_scoring(scoring).match_text("buffer overflow");
    }
}

/// Runs both read paths on one input; returns which of them accepted it
/// as `(decoded, viewed)`.
fn read_both(bytes: &[u8], what: &str) -> (bool, bool) {
    let decoded = ok_or_one_line(snapshot::decode(bytes), what).map(|(_, engine)| answers(&engine));
    let mapped: Arc<[u8]> = bytes.to_vec().into();
    let viewed = ok_or_one_line(view::open_verified(mapped), what);
    (decoded.is_some(), viewed.is_some())
}

#[test]
fn hostile_snapshot_bytes_never_panic() {
    let corpus = tiny_corpus();
    let bytes = snapshot::encode(&corpus, &SearchEngine::build(&corpus));
    assert_eq!(read_both(&bytes, "intact"), (true, true));

    for len in 0..bytes.len() {
        let accepted = read_both(&bytes[..len], &format!("truncated to {len}"));
        assert_eq!(accepted, (false, false), "truncated to {len}");
    }

    let info = snapshot::inspect(&bytes).unwrap();
    assert_eq!(info.sections.len(), 4);
    for section in &info.sections {
        let (mut flips, mut accepted) = (0, 0);
        for at in section.offset as usize..(section.offset + section.len) as usize {
            for mask in [0x01, 0x80, 0xFF] {
                let mut hostile = bytes.clone();
                hostile[at] ^= mask;
                reseal(&mut hostile);
                let what = format!("{} byte {at} ^ {mask:#04x}", section.name);
                let (decoded, viewed) = read_both(&hostile, &what);
                assert!(
                    viewed || !decoded,
                    "{what}: decoded but the view refused it"
                );
                flips += 1;
                accepted += usize::from(decoded);
            }
        }
        assert!(
            flips > 200,
            "only {flips} flips: the `{}` section is too small",
            section.name
        );
        // Some flips keep a valid section (a changed record text, id or
        // document length, a `tf` that still fits), so the sweep reaches
        // the `Ok` branch too.
        assert!(
            accepted > 0,
            "no flip of {flips} in `{}` was accepted",
            section.name
        );
    }
}

#[test]
fn hostile_section_tables_never_panic() {
    let corpus = tiny_corpus();
    let bytes = snapshot::encode(&corpus, &SearchEngine::build(&corpus));
    let table_len = snapshot::inspect(&bytes).unwrap().sections.len() * ENTRY_LEN;
    let (mut inputs, mut refusals) = (0, std::collections::BTreeSet::new());
    for resealed_payloads in [false, true] {
        for at in TABLE_AT..TABLE_AT + table_len {
            for mask in [0x01, 0x80, 0xFF] {
                let mut hostile = bytes.clone();
                hostile[at] ^= mask;
                if resealed_payloads {
                    reseal(&mut hostile);
                } else {
                    reseal_id(&mut hostile);
                }
                let what = format!("table byte {at} ^ {mask:#04x}");
                let (decoded, viewed) = read_both(&hostile, &what);
                assert!(
                    viewed || !decoded,
                    "{what}: decoded but the view refused it"
                );
                if let Err(err) = snapshot::inspect(&hostile) {
                    // The message up to its first number: one entry per check.
                    let err = err.to_string();
                    refusals
                        .insert(err[..err.find(char::is_numeric).unwrap_or(err.len())].to_owned());
                }
                inputs += 1;
            }
        }
    }
    assert_eq!(inputs, 624);
    for check in [
        "snapshot is truncated",
        "corrupt snapshot: unknown section id ",
        "corrupt snapshot: `corpus` section offset ",
    ] {
        assert!(
            refusals.contains(check),
            "{check:?} never reached: {refusals:?}"
        );
    }
}

#[test]
fn a_resealed_snapshot_with_swapped_ids_is_corrupt() {
    // Ranking takes document order for id order, so decode must refuse an
    // id table that does not ascend even when every checksum holds.
    let corpus = cpssec_attackdb::seed::seed_corpus();
    let mut bytes = snapshot::encode(&corpus, &SearchEngine::build(&corpus));
    let info = snapshot::inspect(&bytes).unwrap();
    let section = info
        .sections
        .iter()
        .find(|s| s.name == "vulnerabilities")
        .unwrap();
    // The id table follows the count, one `{year u16, u32}` per document.
    let ids = section.offset as usize + 4;
    let (first, second) = bytes[ids..ids + 12].split_at_mut(6);
    first.swap_with_slice(second);
    reseal(&mut bytes);
    let err = snapshot::decode(&bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    assert_eq!(
        err.to_string(),
        "corrupt snapshot: `vulnerabilities` id table is not ascending at document 1"
    );
}

/// The byte span of section `name` in `bytes`.
fn span_of(bytes: &[u8], name: &str) -> std::ops::Range<usize> {
    let info = snapshot::inspect(bytes).unwrap();
    let section = info.sections.iter().find(|s| s.name == name).unwrap();
    section.offset as usize..(section.offset + section.len) as usize
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

#[test]
fn a_resealed_snapshot_with_swapped_corpus_records_is_corrupt() {
    // The corpus is built in bulk from records in id order, so decode
    // must refuse records that do not ascend even when every checksum
    // holds.
    let corpus = cpssec_attackdb::seed::seed_corpus();
    let mut bytes = snapshot::encode(&corpus, &SearchEngine::build(&corpus));
    // Each record directory is a count, one offset per record, the blob
    // length and the blob; the vulnerabilities' is the third.
    let mut at = span_of(&bytes, "corpus").start;
    for _ in 0..2 {
        at += 4 + 4 * u32_at(&bytes, at);
        at += 4 + u32_at(&bytes, at);
    }
    let offsets = at + 4;
    let blob = offsets + 4 * u32_at(&bytes, at) + 4;
    let [start, second, end] = [0, 1, 2].map(|i| blob + u32_at(&bytes, offsets + 4 * i));
    let swapped = [&bytes[second..end], &bytes[start..second]].concat();
    bytes[start..end].copy_from_slice(&swapped);
    let second_at = u32::try_from(end - second + start - blob).unwrap();
    bytes[offsets + 4..offsets + 8].copy_from_slice(&second_at.to_le_bytes());
    reseal(&mut bytes);
    let err = snapshot::decode(&bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    assert_eq!(
        err.to_string(),
        "corrupt snapshot: `vulnerabilities` record 1 is not in id order"
    );
}

#[test]
fn a_resealed_index_id_the_corpus_does_not_hold_is_corrupt() {
    // The last vulnerability's year set to 2099 keeps the id table
    // ascending, but the document no longer names a corpus record: a hit
    // on it could not be looked up.
    let corpus = cpssec_attackdb::seed::seed_corpus();
    let mut bytes = snapshot::encode(&corpus, &SearchEngine::build(&corpus));
    let section = span_of(&bytes, "vulnerabilities").start;
    let count = u32_at(&bytes, section);
    let last = section + 4 + (count - 1) * 6;
    bytes[last..last + 2].copy_from_slice(&2099u16.to_le_bytes());
    reseal(&mut bytes);
    let record = corpus.vulnerabilities().last().unwrap().id();
    let err = snapshot::decode(&bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    assert_eq!(
        err.to_string(),
        format!(
            "corrupt snapshot: `vulnerabilities` index document {} is {} but corpus record {} is {record}",
            count - 1,
            CveId::new(2099, record.number()),
            count - 1,
        )
    );
}

#[test]
fn an_unresealed_flip_names_its_section() {
    // The checksums are computed in parallel; the error still names the
    // section the flip is in, and with every section flipped, the first
    // in table order.
    let corpus = cpssec_attackdb::seed::seed_corpus();
    let bytes = snapshot::encode(&corpus, &SearchEngine::build(&corpus));
    let mut every = bytes.clone();
    for section in snapshot::inspect(&bytes).unwrap().sections {
        let middle = (section.offset + section.len / 2) as usize;
        let mut flipped = bytes.clone();
        flipped[middle] ^= 0x01;
        every[middle] ^= 0x01;
        let expected = SnapshotError::ChecksumMismatch(section.name);
        assert_eq!(snapshot::decode(&flipped).unwrap_err(), expected);
        assert_eq!(view::open_verified(flipped.into()).unwrap_err(), expected);
    }
    assert_eq!(
        snapshot::decode(&every).unwrap_err(),
        SnapshotError::ChecksumMismatch("corpus")
    );
}
