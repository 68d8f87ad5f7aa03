//! Typed identifiers for the three MITRE record families.

use core::fmt;
use core::str::FromStr;

/// Error parsing a CAPEC/CWE/CVE identifier from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIdError {
    input: String,
    expected: &'static str,
}

impl ParseIdError {
    fn new(input: &str, expected: &'static str) -> Self {
        ParseIdError {
            input: input.to_owned(),
            expected,
        }
    }
}

pub(crate) fn parse_id_error(input: &str, expected: &'static str) -> ParseIdError {
    ParseIdError::new(input, expected)
}

impl fmt::Display for ParseIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` is not a valid {} identifier",
            self.input, self.expected
        )
    }
}

impl std::error::Error for ParseIdError {}

/// A CAPEC attack pattern identifier, e.g. `CAPEC-88`.
///
/// # Examples
///
/// ```
/// use cpssec_attackdb::CapecId;
/// let id: CapecId = "CAPEC-88".parse()?;
/// assert_eq!(id.number(), 88);
/// assert_eq!(id.to_string(), "CAPEC-88");
/// # Ok::<(), cpssec_attackdb::ParseIdError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CapecId(u32);

/// A CWE weakness identifier, e.g. `CWE-78`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CweId(u32);

/// A CVE vulnerability identifier, e.g. `CVE-2018-0101`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CveId {
    year: u16,
    number: u32,
}

impl CapecId {
    /// Creates an identifier from its number.
    #[must_use]
    pub fn new(number: u32) -> Self {
        CapecId(number)
    }

    /// The numeric part.
    #[must_use]
    pub fn number(self) -> u32 {
        self.0
    }
}

impl CweId {
    /// Creates an identifier from its number.
    #[must_use]
    pub fn new(number: u32) -> Self {
        CweId(number)
    }

    /// The numeric part.
    #[must_use]
    pub fn number(self) -> u32 {
        self.0
    }
}

impl CveId {
    /// Creates an identifier from its year and sequence number.
    #[must_use]
    pub fn new(year: u16, number: u32) -> Self {
        CveId { year, number }
    }

    /// The year part.
    #[must_use]
    pub fn year(self) -> u16 {
        self.year
    }

    /// The sequence number part.
    #[must_use]
    pub fn number(self) -> u32 {
        self.number
    }
}

impl fmt::Display for CapecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CAPEC-{}", self.0)
    }
}

impl fmt::Display for CweId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CWE-{}", self.0)
    }
}

impl fmt::Display for CveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CVE-{}-{:04}", self.year, self.number)
    }
}

impl FromStr for CapecId {
    type Err = ParseIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.strip_prefix("CAPEC-")
            .and_then(|n| n.parse().ok())
            .map(CapecId)
            .ok_or_else(|| ParseIdError::new(s, "CAPEC"))
    }
}

impl FromStr for CweId {
    type Err = ParseIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.strip_prefix("CWE-")
            .and_then(|n| n.parse().ok())
            .map(CweId)
            .ok_or_else(|| ParseIdError::new(s, "CWE"))
    }
}

impl FromStr for CveId {
    type Err = ParseIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s
            .strip_prefix("CVE-")
            .ok_or_else(|| ParseIdError::new(s, "CVE"))?;
        let (year, number) = rest
            .split_once('-')
            .ok_or_else(|| ParseIdError::new(s, "CVE"))?;
        if number.len() < 4 {
            return Err(ParseIdError::new(s, "CVE"));
        }
        Ok(CveId {
            year: year.parse().map_err(|_| ParseIdError::new(s, "CVE"))?,
            number: number.parse().map_err(|_| ParseIdError::new(s, "CVE"))?,
        })
    }
}

/// An identifier of any attack vector record, across the three families.
///
/// This is the shared currency between the corpus, the search engine, and
/// the analysis layer: a match result is a list of `AttackVectorId`s with
/// scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttackVectorId {
    /// A CAPEC attack pattern.
    Pattern(CapecId),
    /// A CWE weakness.
    Weakness(CweId),
    /// A CVE vulnerability.
    Vulnerability(CveId),
}

impl AttackVectorId {
    /// Returns the pattern id if this is a pattern.
    #[must_use]
    pub fn as_pattern(self) -> Option<CapecId> {
        match self {
            AttackVectorId::Pattern(id) => Some(id),
            _ => None,
        }
    }

    /// Returns the weakness id if this is a weakness.
    #[must_use]
    pub fn as_weakness(self) -> Option<CweId> {
        match self {
            AttackVectorId::Weakness(id) => Some(id),
            _ => None,
        }
    }

    /// Returns the vulnerability id if this is a vulnerability.
    #[must_use]
    pub fn as_vulnerability(self) -> Option<CveId> {
        match self {
            AttackVectorId::Vulnerability(id) => Some(id),
            _ => None,
        }
    }
}

impl fmt::Display for AttackVectorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackVectorId::Pattern(id) => id.fmt(f),
            AttackVectorId::Weakness(id) => id.fmt(f),
            AttackVectorId::Vulnerability(id) => id.fmt(f),
        }
    }
}

impl From<CapecId> for AttackVectorId {
    fn from(id: CapecId) -> Self {
        AttackVectorId::Pattern(id)
    }
}

impl From<CweId> for AttackVectorId {
    fn from(id: CweId) -> Self {
        AttackVectorId::Weakness(id)
    }
}

impl From<CveId> for AttackVectorId {
    fn from(id: CveId) -> Self {
        AttackVectorId::Vulnerability(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capec_round_trips() {
        let id: CapecId = "CAPEC-88".parse().unwrap();
        assert_eq!(id, CapecId::new(88));
        assert_eq!(id.to_string(), "CAPEC-88");
    }

    #[test]
    fn cwe_round_trips() {
        let id: CweId = "CWE-78".parse().unwrap();
        assert_eq!(id, CweId::new(78));
        assert_eq!(id.to_string(), "CWE-78");
    }

    #[test]
    fn cve_round_trips_and_pads() {
        let id: CveId = "CVE-2018-0101".parse().unwrap();
        assert_eq!(id, CveId::new(2018, 101));
        assert_eq!(id.to_string(), "CVE-2018-0101");
        let big: CveId = "CVE-2021-44228".parse().unwrap();
        assert_eq!(big.to_string(), "CVE-2021-44228");
    }

    #[test]
    fn malformed_ids_are_rejected() {
        assert!("CAPEC88".parse::<CapecId>().is_err());
        assert!("CWE-".parse::<CweId>().is_err());
        assert!("CVE-2018".parse::<CveId>().is_err());
        assert!("CVE-2018-12".parse::<CveId>().is_err());
        assert!("cve-2018-0101".parse::<CveId>().is_err());
    }

    #[test]
    fn vector_id_display_delegates() {
        assert_eq!(AttackVectorId::from(CweId::new(78)).to_string(), "CWE-78");
        assert_eq!(
            AttackVectorId::from(CveId::new(2018, 101)).to_string(),
            "CVE-2018-0101"
        );
    }

    #[test]
    fn vector_id_accessors_discriminate() {
        let p = AttackVectorId::from(CapecId::new(1));
        assert!(p.as_pattern().is_some());
        assert!(p.as_weakness().is_none());
        assert!(p.as_vulnerability().is_none());
    }

    #[test]
    fn error_message_names_the_family() {
        let err = "x".parse::<CweId>().unwrap_err();
        assert!(err.to_string().contains("CWE"));
    }

    #[test]
    fn ordering_is_total_within_family() {
        assert!(CveId::new(2017, 999) < CveId::new(2018, 1));
        assert!(CveId::new(2018, 1) < CveId::new(2018, 2));
    }
}
