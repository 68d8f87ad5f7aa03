//! The one-byte severity code each indexed document carries.
//!
//! Weighing a hit and the severity filters need one fact about its record:
//! how severe it is. Reading that from the corpus costs an id lookup
//! through the segmented record maps per hit, so the family sections store
//! it instead, as a doc-aligned column written by the one function that
//! turns records into sections, and the scorer copies it onto each
//! [`Hit`](crate::Hit).

use cpssec_attackdb::{AttackPattern, Severity, Vulnerability};

/// First code of the five typical-severity bands (`None` … `Critical`).
const BAND_BASE: u8 = 101;

/// A record's severity in one byte:
///
/// - `0..=100`: a vulnerability's CVSS base score in tenths;
/// - `101..=105`: a pattern's typical-severity band, `None` to `Critical`;
/// - [`SeverityCode::UNSCORED`]: a vulnerability without a CVSS vector, a
///   pattern without a band, and every weakness.
///
/// CVSS base scores have one decimal, and the CVSS round-up returns the
/// correctly rounded `t / 10.0` for its integer `t`, so
/// [`score`](Self::score) reproduces `base_score()` bit for bit.
///
/// # Examples
///
/// ```
/// use cpssec_attackdb::{CveId, Severity, Vulnerability};
/// use cpssec_search::SeverityCode;
///
/// let cvss = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H".parse().unwrap();
/// let v = Vulnerability::new(CveId::new(2021, 1), "rce").with_cvss(cvss);
/// let code = SeverityCode::of_vulnerability(&v);
/// assert_eq!(code.byte(), 98);
/// assert_eq!(code.score(), Some(9.8));
/// assert_eq!(code.severity(), Some(Severity::Critical));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeverityCode(pub(crate) u8);

impl SeverityCode {
    /// The code of a record without a severity.
    pub const UNSCORED: SeverityCode = SeverityCode(u8::MAX);

    /// The largest CVSS code: a base score of 10.0.
    pub const MAX_TENTHS: u8 = 100;

    /// The code of a vulnerability: its CVSS base score in tenths, or
    /// [`UNSCORED`](Self::UNSCORED) without a vector.
    #[must_use]
    pub fn of_vulnerability(vulnerability: &Vulnerability) -> SeverityCode {
        vulnerability.cvss().map_or(SeverityCode::UNSCORED, |cvss| {
            SeverityCode((cvss.base_score() * 10.0).round() as u8)
        })
    }

    /// The code of a pattern: its typical-severity band, or
    /// [`UNSCORED`](Self::UNSCORED) without one.
    #[must_use]
    pub fn of_pattern(pattern: &AttackPattern) -> SeverityCode {
        pattern
            .typical_severity()
            .map_or(SeverityCode::UNSCORED, SeverityCode::of_band)
    }

    /// The code of a typical-severity band.
    #[must_use]
    pub const fn of_band(band: Severity) -> SeverityCode {
        SeverityCode(BAND_BASE + band as u8)
    }

    /// The code of a stored byte, if it is one a family section may hold.
    pub(crate) fn from_byte(byte: u8) -> Option<SeverityCode> {
        let valid = byte <= SeverityCode::MAX_TENTHS
            || (BAND_BASE..=BAND_BASE + Severity::Critical as u8).contains(&byte)
            || byte == u8::MAX;
        valid.then_some(SeverityCode(byte))
    }

    /// The stored byte.
    #[must_use]
    pub const fn byte(self) -> u8 {
        self.0
    }

    /// Whether this is a CVSS base score (a vulnerability with a vector).
    pub(crate) fn is_cvss(self) -> bool {
        self.0 <= SeverityCode::MAX_TENTHS
    }

    /// Whether this is a typical-severity band (a pattern with one).
    pub(crate) fn is_band(self) -> bool {
        self.band().is_some()
    }

    /// The CVSS base score, `t / 10.0` for code `t`; `None` for a band or
    /// an unscored record.
    #[must_use]
    pub fn score(self) -> Option<f64> {
        self.is_cvss().then(|| f64::from(self.0) / 10.0)
    }

    /// The typical-severity band; `None` for a CVSS score or an unscored
    /// record.
    fn band(self) -> Option<Severity> {
        match self.0.checked_sub(BAND_BASE)? {
            0 => Some(Severity::None),
            1 => Some(Severity::Low),
            2 => Some(Severity::Medium),
            3 => Some(Severity::High),
            4 => Some(Severity::Critical),
            _ => None,
        }
    }

    /// The severity band: the CVSS rating of a score, or a pattern's
    /// band; `None` when unscored.
    #[must_use]
    pub fn severity(self) -> Option<Severity> {
        self.score()
            .map(Severity::from_score)
            .or_else(|| self.band())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::{Abstraction, CapecId};

    #[test]
    fn bands_round_trip_and_stay_apart_from_scores() {
        for band in [
            Severity::None,
            Severity::Low,
            Severity::Medium,
            Severity::High,
            Severity::Critical,
        ] {
            let code = SeverityCode::of_band(band);
            assert_eq!(SeverityCode::from_byte(code.byte()), Some(code));
            assert_eq!(code.severity(), Some(band));
            assert!(code.is_band() && !code.is_cvss());
            assert_eq!(code.score(), None);
        }
        let pattern = AttackPattern::new(CapecId::new(1), "p", "d", Abstraction::Meta);
        assert_eq!(SeverityCode::of_pattern(&pattern), SeverityCode::UNSCORED);
        assert_eq!(SeverityCode::UNSCORED.severity(), None);
        assert_eq!(SeverityCode::UNSCORED.score(), None);
    }

    #[test]
    fn only_scores_bands_and_unscored_are_valid_bytes() {
        let valid: Vec<u8> = (0..=u8::MAX)
            .filter(|&b| SeverityCode::from_byte(b).is_some())
            .collect();
        let expected: Vec<u8> = (0..=105).chain([u8::MAX]).collect();
        assert_eq!(valid, expected);
    }
}
