//! Hostile `.cpsflight` bytes: every truncation of a small dump, and
//! every byte of its seven sections XORed with `0x01`, `0x80` and `0xFF`
//! under a recomputed section checksum and `dump_id` (so the edit reaches
//! the payload decoders instead of stopping at a checksum).
//!
//! A second sweep flips every byte of the section table itself under a
//! recomputed `dump_id`, once as it is and once with every section
//! checksum recomputed too, so the table checks behind a valid id
//! (alignment, span bounds, `offset + len` overflow, unknown and missing
//! ids) are reached.
//!
//! [`flight::inspect`] and [`flight::decode`] — the two steps
//! `cpssec flight inspect` runs — must answer each input with `Ok` or a
//! one-line `Err`, never a panic or an abort, and every dump `decode`
//! hands back must render its timeline.

use std::sync::OnceLock;

use cpssec_model::fnv1a_64;
use cpssec_obs::flight::{self, DumpInput, FlightKind};

/// Header bytes before the section table: magic, version, count, id.
const TABLE_AT: usize = 6 + 2 + 4 + 8;
/// Bytes per section-table entry: id, offset, len, checksum.
const ENTRY_LEN: usize = 2 + 8 + 8 + 8;

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// `(name, offset, len)` of every section, in table order.
fn sections(bytes: &[u8]) -> Vec<(&'static str, usize, usize)> {
    flight::inspect(bytes)
        .expect("pristine dump inspects clean")
        .sections
        .iter()
        .map(|s| (s.name, s.offset as usize, s.len as usize))
        .collect()
}

/// Recomputes `dump_id` over the section table as it stands.
fn reseal_id(bytes: &mut [u8]) {
    let count = u32_at(bytes, 8);
    let dump_id = fnv1a_64(&bytes[TABLE_AT..TABLE_AT + count * ENTRY_LEN]);
    bytes[12..20].copy_from_slice(&dump_id.to_le_bytes());
}

/// Recomputes the checksum of every section whose span lies inside the
/// file and then `dump_id`, so a payload edit passes both integrity
/// checks.
fn reseal(bytes: &mut [u8]) {
    let count = u32_at(bytes, 8);
    for i in 0..count {
        let entry = TABLE_AT + i * ENTRY_LEN;
        let (offset, len) = (u64_at(bytes, entry + 2), u64_at(bytes, entry + 10));
        let checksum = offset
            .checked_add(len)
            .and_then(|end| bytes.get(offset as usize..end as usize))
            .map(fnv1a_64);
        if let Some(checksum) = checksum {
            bytes[entry + 18..entry + 26].copy_from_slice(&checksum.to_le_bytes());
        }
    }
    reseal_id(bytes);
}

/// A dump with labels, a stage line, and events of every kind, with
/// every clock-derived field (dump times, event timestamps, span and
/// stage durations) overwritten by a constant, so the bytes are the same
/// on every run. Built once: a dump holds every thread's ring, so a
/// second build would also hold the first builder's events.
fn small_dump() -> Vec<u8> {
    static DUMP: OnceLock<Vec<u8>> = OnceLock::new();
    DUMP.get_or_init(build_dump).clone()
}

fn build_dump() -> Vec<u8> {
    flight::set_enabled(true);
    let route = flight::label_id("GET /models/:id/associate");
    let reason = flight::label_id("queue-full");
    let recorder = cpssec_obs::recorder();
    recorder.enable_spans();
    drop(recorder.span(recorder.register("hostile-stage")));
    flight::event(FlightKind::Request, 0xabcd, route << 16 | 200);
    flight::event(FlightKind::Shed, route, reason);
    flight::event(FlightKind::Alert, route, 1);
    flight::event(FlightKind::ReactorStall, 1234, 0);
    flight::set_enabled(false);
    let mut bytes = flight::encode_dump(&DumpInput {
        reason: "hostile",
        requests_json: "{\"requests\":[]}",
        alerts_json: "{\"alerts\":[]}",
        metrics_text: "up 1\n",
    });

    let at = |name: &str| sections(&bytes).iter().find(|s| s.0 == name).unwrap().1;
    let (meta, stages, events) = (at("meta"), at("stages"), at("events"));
    bytes[meta..meta + 16].fill(0); // wall_ms, dumped_at_us
    let mut pos = stages + 4;
    for _ in 0..u32_at(&bytes, stages) {
        pos += 2; // stage id
        pos += 4 + u32_at(&bytes, pos); // name
        pos += 8; // count
        bytes[pos..pos + 24].fill(0); // total, p50, p99
        pos += 24;
    }
    let mut pos = events + 4;
    for _ in 0..u32_at(&bytes, events) {
        let count = u32_at(&bytes, pos + 4);
        pos += 8; // tid, event count
        for n in 0..count {
            bytes[pos..pos + 8].copy_from_slice(&(n as u64).to_le_bytes());
            if bytes[pos + 8] == FlightKind::SpanExit as u8 {
                bytes[pos + 17..pos + 25].fill(0); // span duration
            }
            pos += 25;
        }
    }
    reseal(&mut bytes);
    bytes
}

/// Both read steps on one input: `Ok`, or an `Err` that renders as one
/// line. Returns whether `decode` accepted it.
fn read_both(bytes: &[u8], what: &str) -> bool {
    if let Err(e) = flight::inspect(bytes) {
        let msg = e.to_string();
        assert_eq!(msg.lines().count(), 1, "{what}: inspect error {msg:?}");
    }
    match flight::decode(bytes) {
        Ok(dump) => {
            let _ = dump.timeline();
            true
        }
        Err(e) => {
            let msg = e.to_string();
            assert_eq!(msg.lines().count(), 1, "{what}: decode error {msg:?}");
            false
        }
    }
}

#[test]
fn hostile_flight_dumps_are_refused_or_read_never_abort() {
    let pristine = small_dump();
    let dump = flight::decode(&pristine).expect("pristine dump decodes");
    assert_eq!(dump.reason, "hostile");
    assert!(dump.labels.iter().any(|l| l == "queue-full"));
    assert!(!dump.stages.is_empty());
    assert!(dump.event_count() >= 6, "{dump:?}");

    for len in 0..pristine.len() {
        read_both(&pristine[..len], &format!("truncated to {len}"));
    }

    let table = sections(&pristine);
    assert_eq!(table.len(), 7);
    for (name, offset, len) in table {
        let (mut accepted, mut refused) = (0, 0);
        for at in offset..offset + len {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bytes = pristine.clone();
                bytes[at] ^= mask;
                reseal(&mut bytes);
                if read_both(&bytes, &format!("{name} byte {at} ^ {mask:#04x}")) {
                    accepted += 1;
                } else {
                    refused += 1;
                }
            }
        }
        // Both outcomes occur in every section: the flips reach the
        // payload decoder rather than stopping at a checksum.
        assert!(
            accepted > 0 && refused > 0,
            "{name}: {accepted} accepted, {refused} refused"
        );
    }
}

#[test]
fn hostile_section_tables_are_refused_or_read_never_abort() {
    let pristine = small_dump();
    let table_len = sections(&pristine).len() * ENTRY_LEN;
    let (mut inputs, mut refusals) = (0, std::collections::BTreeSet::new());
    for resealed_payloads in [false, true] {
        for at in TABLE_AT..TABLE_AT + table_len {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bytes = pristine.clone();
                bytes[at] ^= mask;
                if resealed_payloads {
                    reseal(&mut bytes);
                } else {
                    reseal_id(&mut bytes);
                }
                read_both(&bytes, &format!("table byte {at} ^ {mask:#04x}"));
                if let Err(err) = flight::decode(&bytes) {
                    // The message up to its first number: one entry per check.
                    let err = err.to_string();
                    refusals
                        .insert(err[..err.find(char::is_numeric).unwrap_or(err.len())].to_owned());
                }
                inputs += 1;
            }
        }
    }
    assert_eq!(inputs, 1_092);
    for check in [
        "flight dump is truncated",
        "unknown section id ",
        "`meta` section offset ",
        "missing `labels` section",
    ] {
        assert!(
            refusals.contains(check),
            "{check:?} never reached: {refusals:?}"
        );
    }
}

#[test]
fn a_huge_labels_count_is_a_one_line_error() {
    let mut bytes = small_dump();
    let labels = sections(&bytes).iter().find(|s| s.0 == "labels").unwrap().1;
    bytes[labels..labels + 4].copy_from_slice(&0xFFFF_FFF0_u32.to_le_bytes());
    reseal(&mut bytes);
    flight::inspect(&bytes).expect("the resealed table still inspects clean");
    let err = flight::decode(&bytes).unwrap_err();
    assert_eq!(err.to_string(), "flight dump is truncated");
}
