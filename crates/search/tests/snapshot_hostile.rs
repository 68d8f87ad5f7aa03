//! Hostile `.cpsnap` bytes: every truncation of a tiny snapshot, and
//! every byte of its three family sections XORed with `0x01`, `0x80` and
//! `0xFF` under a recomputed section checksum and `snapshot_id` (so the
//! edit reaches the payload decoders instead of stopping at a checksum).
//!
//! Both read paths — the full [`snapshot::decode`] and the mapped
//! [`view::open_verified`] plus engine open — must answer each input with
//! `Ok` or a one-line `Err`, never a panic, and every engine they hand
//! back must answer a query under both scoring models. Both open the
//! index with one validator, so they accept exactly the same inputs.

use std::sync::Arc;

use cpssec_attackdb::{
    Abstraction, AttackPattern, CapecId, Corpus, CveId, CweId, Vulnerability, Weakness,
};
use cpssec_model::fnv1a_64_wide;
use cpssec_search::snapshot::{self, SnapshotError};
use cpssec_search::{view, MatchConfig, ScoringModel, SearchEngine};

/// Header bytes before the section table: magic, version, count, id.
const TABLE_AT: usize = 6 + 2 + 4 + 8;
/// Bytes per section-table entry: id, offset, len, checksum.
const ENTRY_LEN: usize = 2 + 8 + 8 + 8;

/// A few records per family, sharing enough words that the index has
/// multi-document postings and repeated terms (`tf > 1`).
fn tiny_corpus() -> Corpus {
    let mut corpus = Corpus::new();
    for (n, text) in [
        (100, "Buffer overflow via oversized input"),
        (101, "Command injection into a shell"),
        (102, "Overflow the heap buffer, then overflow again"),
    ] {
        corpus
            .add_pattern(AttackPattern::new(
                CapecId::new(n),
                text,
                text,
                Abstraction::Standard,
            ))
            .unwrap();
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
        corpus
            .add_vulnerability(Vulnerability::new(CveId::new(2020, n), text))
            .unwrap();
    }
    corpus
}

/// Recomputes every section checksum and then `snapshot_id`, so a payload
/// edit passes both integrity checks.
fn reseal(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    for i in 0..count {
        let entry = TABLE_AT + i * ENTRY_LEN;
        let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let (offset, len) = (field(entry + 2), field(entry + 10));
        let checksum = fnv1a_64_wide(&bytes[offset..offset + len]);
        bytes[entry + 18..entry + 26].copy_from_slice(&checksum.to_le_bytes());
    }
    let id = fnv1a_64_wide(&bytes[TABLE_AT..TABLE_AT + count * ENTRY_LEN]);
    bytes[12..20].copy_from_slice(&id.to_le_bytes());
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
/// as `(decoded, mapped)`.
fn read_both(bytes: &[u8], what: &str) -> (bool, bool) {
    let decoded = ok_or_one_line(snapshot::decode(bytes), what).map(|(_, engine)| answers(&engine));
    let mapped: Arc<[u8]> = bytes.to_vec().into();
    let opened = ok_or_one_line(
        view::open_verified(mapped)
            .and_then(|view| SearchEngine::from_view(&view, MatchConfig::default())),
        what,
    )
    .map(|engine| answers(&engine));
    (decoded.is_some(), opened.is_some())
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
    let (mut flips, mut accepted) = (0, 0);
    for section in info.sections.iter().filter(|s| s.name != "corpus") {
        for at in section.offset as usize..(section.offset + section.len) as usize {
            for mask in [0x01, 0x80, 0xFF] {
                let mut hostile = bytes.clone();
                hostile[at] ^= mask;
                reseal(&mut hostile);
                let what = format!("{} byte {at} ^ {mask:#04x}", section.name);
                let (decoded, mapped) = read_both(&hostile, &what);
                assert_eq!(decoded, mapped, "{what}: decoded vs mapped");
                flips += 1;
                accepted += usize::from(decoded);
            }
        }
    }
    assert!(
        flips > 1_000,
        "only {flips} flips: the sections are too small"
    );
    // Some flips keep a valid index (a changed id or document length, a
    // `tf` that still fits), so the sweep reaches the `Ok` branch too.
    assert!(accepted > 0, "no flip of {flips} was accepted");
}
