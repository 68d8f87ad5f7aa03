//! Binary snapshot encoding for corpus records (the `.cpsnap` record layer).
//!
//! JSONL ([`crate::jsonl`]) is the interchange format; this module is the
//! *artifact* format: a compact little-endian byte layout that a server can
//! decode without tokenizing, validating id syntax, or re-deriving CVSS
//! vectors from text. Cross-reference indices are not stored — they are a
//! pure function of the records and [`Corpus`] rebuilds them on insert, so
//! a decoded corpus is structurally identical (`==`) to the encoded one.
//!
//! The framing above this layer (magic, format version, section table,
//! checksums) is the section-table container of `cpssec_obs::container`;
//! `cpssec_search::snapshot` supplies its checksum and section names and
//! composes the record payload produced here with the index payloads.

use core::fmt;

use crate::{
    Abstraction, AttackComplexity, AttackPattern, AttackVectorMetric, CapecId, Corpus, CpeName,
    CveId, CvssVector, CweId, Impact, Likelihood, PrivilegesRequired, Scope, Severity,
    UserInteraction, Vulnerability, Weakness,
};

/// Error decoding a binary snapshot.
///
/// Every variant renders as a single line, matching the CLI's one-line
/// stderr error convention.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The byte stream ended before the encoded structure did.
    Truncated,
    /// The leading magic bytes are not `CPSNAP`.
    BadMagic,
    /// The format version is not one this build can read.
    UnsupportedVersion(u16),
    /// A section's stored checksum does not match its payload.
    ChecksumMismatch(&'static str),
    /// The bytes are structurally invalid (bad discriminant, bad UTF-8,
    /// duplicate record, inconsistent table lengths, ...).
    Corrupt(String),
    /// A well-formed delta chains onto another state than the one it was
    /// applied to: it is stale, replayed or out of order.
    ParentMismatch {
        /// The parent id the delta names.
        delta: u64,
        /// The id of the state it was applied to.
        state: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::BadMagic => write!(f, "not a cpsnap snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::ChecksumMismatch(section) => {
                write!(f, "checksum mismatch in section `{section}`")
            }
            SnapshotError::Corrupt(detail) => write!(f, "corrupt snapshot: {detail}"),
            SnapshotError::ParentMismatch { delta, state } => write!(
                f,
                "delta parent {delta:016x} does not match the current state {state:016x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A bounds-checked little-endian reader over a byte slice.
///
/// All accessors return [`SnapshotError::Truncated`] instead of panicking
/// when the slice runs out — corrupted input must surface as an error.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of input.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of input.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of input.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string slice.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the bytes run out,
    /// [`SnapshotError::Corrupt`] if they are not UTF-8.
    pub fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        core::str::from_utf8(bytes)
            .map_err(|_| SnapshotError::Corrupt("string is not valid UTF-8".into()))
    }

    /// A safe `Vec` capacity for `count` elements of at least
    /// `min_element_size` encoded bytes each: never trusts a corrupted
    /// count beyond what the remaining input could possibly hold.
    #[must_use]
    pub fn capacity_for(&self, count: u32, min_element_size: usize) -> usize {
        (count as usize).min(self.remaining() / min_element_size.max(1))
    }
}

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`-length-prefixed UTF-8 string.
///
/// # Panics
///
/// Panics if the string is longer than `u32::MAX` bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).expect("string fits u32"));
    out.extend_from_slice(s.as_bytes());
}

fn put_len(out: &mut Vec<u8>, len: usize) {
    put_u32(out, u32::try_from(len).expect("collection fits u32"));
}

/// Sentinel byte for an absent `Option` enum field.
const ABSENT: u8 = 0xFF;

fn put_opt_enum(out: &mut Vec<u8>, discriminant: Option<u8>) {
    put_u8(out, discriminant.unwrap_or(ABSENT));
}

fn bad_discriminant(what: &str, value: u8) -> SnapshotError {
    SnapshotError::Corrupt(format!("invalid {what} discriminant {value}"))
}

fn likelihood_to_u8(l: Likelihood) -> u8 {
    Likelihood::ALL
        .iter()
        .position(|&x| x == l)
        .expect("member") as u8
}

fn severity_to_u8(s: Severity) -> u8 {
    match s {
        Severity::None => 0,
        Severity::Low => 1,
        Severity::Medium => 2,
        Severity::High => 3,
        Severity::Critical => 4,
    }
}

fn severity_from_u8(v: u8) -> Result<Severity, SnapshotError> {
    Ok(match v {
        0 => Severity::None,
        1 => Severity::Low,
        2 => Severity::Medium,
        3 => Severity::High,
        4 => Severity::Critical,
        other => return Err(bad_discriminant("severity", other)),
    })
}

fn encode_cvss(out: &mut Vec<u8>, v: &CvssVector) {
    // Metric enums as discriminant bytes, never as the display string: the
    // parser also accepts `CVSS:3.0/` prefixes, so text would not be a
    // faithful inverse of the struct the corpus actually holds.
    put_u8(
        out,
        match v.av {
            AttackVectorMetric::Network => 0,
            AttackVectorMetric::Adjacent => 1,
            AttackVectorMetric::Local => 2,
            AttackVectorMetric::Physical => 3,
        },
    );
    put_u8(
        out,
        match v.ac {
            AttackComplexity::Low => 0,
            AttackComplexity::High => 1,
        },
    );
    put_u8(
        out,
        match v.pr {
            PrivilegesRequired::None => 0,
            PrivilegesRequired::Low => 1,
            PrivilegesRequired::High => 2,
        },
    );
    put_u8(
        out,
        match v.ui {
            UserInteraction::None => 0,
            UserInteraction::Required => 1,
        },
    );
    put_u8(
        out,
        match v.s {
            Scope::Unchanged => 0,
            Scope::Changed => 1,
        },
    );
    for impact in [v.c, v.i, v.a] {
        put_u8(
            out,
            match impact {
                Impact::None => 0,
                Impact::Low => 1,
                Impact::High => 2,
            },
        );
    }
}

fn decode_impact(r: &mut Reader<'_>) -> Result<Impact, SnapshotError> {
    Ok(match r.u8()? {
        0 => Impact::None,
        1 => Impact::Low,
        2 => Impact::High,
        other => return Err(bad_discriminant("impact", other)),
    })
}

fn decode_cvss(r: &mut Reader<'_>) -> Result<CvssVector, SnapshotError> {
    Ok(CvssVector {
        av: match r.u8()? {
            0 => AttackVectorMetric::Network,
            1 => AttackVectorMetric::Adjacent,
            2 => AttackVectorMetric::Local,
            3 => AttackVectorMetric::Physical,
            other => return Err(bad_discriminant("attack vector", other)),
        },
        ac: match r.u8()? {
            0 => AttackComplexity::Low,
            1 => AttackComplexity::High,
            other => return Err(bad_discriminant("attack complexity", other)),
        },
        pr: match r.u8()? {
            0 => PrivilegesRequired::None,
            1 => PrivilegesRequired::Low,
            2 => PrivilegesRequired::High,
            other => return Err(bad_discriminant("privileges required", other)),
        },
        ui: match r.u8()? {
            0 => UserInteraction::None,
            1 => UserInteraction::Required,
            other => return Err(bad_discriminant("user interaction", other)),
        },
        s: match r.u8()? {
            0 => Scope::Unchanged,
            1 => Scope::Changed,
            other => return Err(bad_discriminant("scope", other)),
        },
        c: decode_impact(r)?,
        i: decode_impact(r)?,
        a: decode_impact(r)?,
    })
}

/// Encodes one attack pattern record — the per-record unit the sectioned
/// corpus layout and `.cpsdelta` batches are built from.
pub fn encode_pattern(out: &mut Vec<u8>, p: &AttackPattern) {
    put_u32(out, p.id().number());
    put_str(out, p.name());
    put_str(out, p.description());
    put_u8(
        out,
        match p.abstraction() {
            Abstraction::Meta => 0,
            Abstraction::Standard => 1,
            Abstraction::Detailed => 2,
        },
    );
    put_opt_enum(out, p.likelihood().map(likelihood_to_u8));
    put_opt_enum(out, p.typical_severity().map(severity_to_u8));
    put_len(out, p.related_weaknesses().len());
    for cwe in p.related_weaknesses() {
        put_u32(out, cwe.number());
    }
    put_len(out, p.prerequisites().len());
    for prerequisite in p.prerequisites() {
        put_str(out, prerequisite);
    }
}

/// Decodes one attack pattern record written by [`encode_pattern`].
///
/// # Errors
///
/// [`SnapshotError::Truncated`] or [`SnapshotError::Corrupt`] on malformed
/// bytes.
pub fn decode_pattern(r: &mut Reader<'_>) -> Result<AttackPattern, SnapshotError> {
    let id = CapecId::new(r.u32()?);
    let name = r.str()?;
    let description = r.str()?;
    let abstraction = match r.u8()? {
        0 => Abstraction::Meta,
        1 => Abstraction::Standard,
        2 => Abstraction::Detailed,
        other => return Err(bad_discriminant("abstraction", other)),
    };
    let mut pattern = AttackPattern::new(id, name, description, abstraction);
    match r.u8()? {
        ABSENT => {}
        v => {
            let likelihood = *Likelihood::ALL
                .get(v as usize)
                .ok_or_else(|| bad_discriminant("likelihood", v))?;
            pattern = pattern.with_likelihood(likelihood);
        }
    }
    match r.u8()? {
        ABSENT => {}
        v => pattern = pattern.with_severity(severity_from_u8(v)?),
    }
    let weaknesses = r.u32()?;
    pattern.reserve(r.capacity_for(weaknesses, 4), 0);
    for _ in 0..weaknesses {
        pattern = pattern.with_weakness(CweId::new(r.u32()?));
    }
    let prerequisites = r.u32()?;
    pattern.reserve(0, r.capacity_for(prerequisites, 4));
    for _ in 0..prerequisites {
        pattern = pattern.with_prerequisite(r.str()?);
    }
    Ok(pattern)
}

/// Encodes one weakness record — the per-record unit the sectioned corpus
/// layout and `.cpsdelta` batches are built from.
pub fn encode_weakness(out: &mut Vec<u8>, w: &Weakness) {
    put_u32(out, w.id().number());
    put_str(out, w.name());
    put_str(out, w.description());
    for list in [w.platforms(), w.consequences(), w.mitigations()] {
        put_len(out, list.len());
        for item in list {
            put_str(out, item);
        }
    }
}

/// Decodes one weakness record written by [`encode_weakness`].
///
/// # Errors
///
/// [`SnapshotError::Truncated`] or [`SnapshotError::Corrupt`] on malformed
/// bytes.
pub fn decode_weakness(r: &mut Reader<'_>) -> Result<Weakness, SnapshotError> {
    let id = CweId::new(r.u32()?);
    let name = r.str()?;
    let description = r.str()?;
    let mut weakness = Weakness::new(id, name, description);
    let platforms = r.u32()?;
    for _ in 0..platforms {
        weakness = weakness.with_platform(r.str()?);
    }
    let consequences = r.u32()?;
    for _ in 0..consequences {
        weakness = weakness.with_consequence(r.str()?);
    }
    let mitigations = r.u32()?;
    for _ in 0..mitigations {
        weakness = weakness.with_mitigation(r.str()?);
    }
    Ok(weakness)
}

/// Encodes one vulnerability record — the per-record unit the sectioned
/// corpus layout and `.cpsdelta` batches are built from.
pub fn encode_vulnerability(out: &mut Vec<u8>, v: &Vulnerability) {
    put_u16(out, v.id().year());
    put_u32(out, v.id().number());
    put_str(out, v.description());
    match v.cvss() {
        Some(cvss) => {
            put_u8(out, 1);
            encode_cvss(out, cvss);
        }
        None => put_u8(out, 0),
    }
    put_len(out, v.weaknesses().len());
    for cwe in v.weaknesses() {
        put_u32(out, cwe.number());
    }
    put_len(out, v.affected().len());
    for cpe in v.affected() {
        put_str(out, cpe.vendor());
        put_str(out, cpe.product());
        match cpe.version() {
            Some(version) => {
                put_u8(out, 1);
                put_str(out, version);
            }
            None => put_u8(out, 0),
        }
    }
}

/// Decodes one vulnerability record written by [`encode_vulnerability`].
///
/// # Errors
///
/// [`SnapshotError::Truncated`] or [`SnapshotError::Corrupt`] on malformed
/// bytes.
pub fn decode_vulnerability(r: &mut Reader<'_>) -> Result<Vulnerability, SnapshotError> {
    let id = CveId::new(r.u16()?, r.u32()?);
    let description = r.str()?;
    let mut vuln = Vulnerability::new(id, description);
    match r.u8()? {
        0 => {}
        1 => vuln = vuln.with_cvss(decode_cvss(r)?),
        other => return Err(bad_discriminant("cvss presence", other)),
    }
    let weaknesses = r.u32()?;
    vuln.reserve(r.capacity_for(weaknesses, 4), 0);
    for _ in 0..weaknesses {
        vuln = vuln.with_weakness(CweId::new(r.u32()?));
    }
    // A product is at least its two length prefixes and the version flag.
    let affected = r.u32()?;
    vuln.reserve(0, r.capacity_for(affected, 9));
    for _ in 0..affected {
        let mut cpe = CpeName::new(r.str()?, r.str()?);
        match r.u8()? {
            0 => {}
            1 => cpe = cpe.with_version(r.str()?),
            other => return Err(bad_discriminant("cpe version presence", other)),
        }
        vuln = vuln.with_affected(cpe);
    }
    Ok(vuln)
}

/// Encodes every record of `corpus` into `out`, all three families in id
/// order. The output is deterministic: the same corpus always produces the
/// same bytes.
pub fn encode_corpus_into(corpus: &Corpus, out: &mut Vec<u8>) {
    let stats = corpus.stats();
    put_len(out, stats.patterns);
    for pattern in corpus.patterns() {
        encode_pattern(out, pattern);
    }
    put_len(out, stats.weaknesses);
    for weakness in corpus.weaknesses() {
        encode_weakness(out, weakness);
    }
    put_len(out, stats.vulnerabilities);
    for vuln in corpus.vulnerabilities() {
        encode_vulnerability(out, vuln);
    }
}

/// [`encode_corpus_into`] into a fresh buffer.
#[must_use]
pub fn encode_corpus(corpus: &Corpus) -> Vec<u8> {
    let mut out = Vec::new();
    encode_corpus_into(corpus, &mut out);
    out
}

/// Decodes a corpus payload produced by [`encode_corpus_into`], rebuilding
/// the cross-reference indices on insert. Requires the payload to be fully
/// consumed — trailing bytes mean the framing above got a length wrong.
///
/// # Errors
///
/// [`SnapshotError::Truncated`] if the bytes run out mid-record;
/// [`SnapshotError::Corrupt`] on invalid discriminants, invalid UTF-8,
/// duplicate record ids, or trailing bytes.
pub fn decode_corpus(bytes: &[u8]) -> Result<Corpus, SnapshotError> {
    let mut r = Reader::new(bytes);
    let corpus = decode_corpus_from(&mut r)?;
    if !r.finished() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing byte(s) after the last record",
            r.remaining()
        )));
    }
    Ok(corpus)
}

/// Decodes a corpus payload at the reader's position (leaves any trailing
/// bytes for the caller).
///
/// # Errors
///
/// As [`decode_corpus`], minus the trailing-bytes check.
pub fn decode_corpus_from(r: &mut Reader<'_>) -> Result<Corpus, SnapshotError> {
    let mut corpus = Corpus::new();
    let dup = |e: crate::AttackDbError| SnapshotError::Corrupt(e.to_string());
    let patterns = r.u32()?;
    for _ in 0..patterns {
        corpus.add_pattern(decode_pattern(r)?).map_err(dup)?;
    }
    let weaknesses = r.u32()?;
    for _ in 0..weaknesses {
        corpus.add_weakness(decode_weakness(r)?).map_err(dup)?;
    }
    let vulnerabilities = r.u32()?;
    for _ in 0..vulnerabilities {
        corpus
            .add_vulnerability(decode_vulnerability(r)?)
            .map_err(dup)?;
    }
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::seed_corpus;
    use crate::synth::{generate, SynthSpec};

    fn mixed_corpus() -> Corpus {
        let mut corpus = seed_corpus();
        corpus
            .merge(generate(&SynthSpec::paper2020(2020, 0.02)))
            .unwrap();
        corpus
    }

    #[test]
    fn seed_corpus_round_trips_structurally_equal() {
        let corpus = seed_corpus();
        let decoded = decode_corpus(&encode_corpus(&corpus)).unwrap();
        assert_eq!(decoded, corpus);
    }

    #[test]
    fn synthetic_corpus_round_trips_and_encoding_is_deterministic() {
        let corpus = mixed_corpus();
        let bytes = encode_corpus(&corpus);
        assert_eq!(bytes, encode_corpus(&corpus), "encoding must be stable");
        let decoded = decode_corpus(&bytes).unwrap();
        assert_eq!(decoded, corpus);
        assert_eq!(encode_corpus(&decoded), bytes, "re-encode is a fixpoint");
    }

    #[test]
    fn every_truncation_point_errors_without_panicking() {
        let bytes = encode_corpus(&seed_corpus());
        // Sample prefixes densely; each must fail cleanly, never panic.
        for len in (0..bytes.len()).step_by(7) {
            let err = decode_corpus(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::Corrupt(_)),
                "prefix {len}: {err}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_corpus(&seed_corpus());
        bytes.push(0);
        assert!(matches!(
            decode_corpus(&bytes).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn bad_discriminants_are_corrupt_not_panics() {
        let corpus = seed_corpus();
        let bytes = encode_corpus(&corpus);
        // Flip every byte position in a sparse sweep. Each mutation must
        // decode to Ok (an unlucky flip in free text), Truncated (a length
        // grew past the end), or Corrupt — never panic.
        for pos in (0..bytes.len()).step_by(11) {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x5A;
            let _ = decode_corpus(&mutated);
        }
    }

    #[test]
    fn cvss_vectors_round_trip_bit_exact() {
        let vectors = [
            "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
            "CVSS:3.0/AV:P/AC:H/PR:H/UI:R/S:C/C:L/I:N/A:L",
            "CVSS:3.1/AV:A/AC:H/PR:L/UI:R/S:C/C:N/I:L/A:H",
        ];
        for text in vectors {
            let v: CvssVector = text.parse().unwrap();
            let mut out = Vec::new();
            encode_cvss(&mut out, &v);
            let decoded = decode_cvss(&mut Reader::new(&out)).unwrap();
            assert_eq!(decoded, v);
        }
    }

    #[test]
    fn reader_errors_are_one_line() {
        for err in [
            SnapshotError::Truncated,
            SnapshotError::BadMagic,
            SnapshotError::UnsupportedVersion(9),
            SnapshotError::ChecksumMismatch("corpus"),
            SnapshotError::Corrupt("detail".into()),
        ] {
            assert_eq!(err.to_string().lines().count(), 1, "{err}");
        }
    }
}
