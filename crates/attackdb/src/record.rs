//! The three record families: attack patterns, weaknesses, vulnerabilities.
//!
//! Field selection follows the paper's usage: "high-level descriptions of
//! system components and interactions will tend to match attack pattern and
//! weakness instances; low-level or more specific descriptions of software
//! and hardware platforms will relate more closely to vulnerability
//! instances". Every record therefore exposes a `search_text` the matcher
//! indexes, and the cross-links (`related_weaknesses`, `weaknesses`) that
//! make exploit chains possible.

use core::fmt;
use core::str::FromStr;

use crate::{CapecId, CveId, CvssVector, CweId, Severity};

/// CAPEC abstraction level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Abstraction {
    /// A high-level class of attack (e.g. "Injection").
    Meta,
    /// A standard pattern (e.g. "OS Command Injection").
    Standard,
    /// A detailed, technology-specific pattern.
    Detailed,
}

impl Abstraction {
    /// All levels from most abstract to most detailed.
    pub const ALL: [Abstraction; 3] = [
        Abstraction::Meta,
        Abstraction::Standard,
        Abstraction::Detailed,
    ];

    /// Canonical capitalized name as used by CAPEC.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Abstraction::Meta => "Meta",
            Abstraction::Standard => "Standard",
            Abstraction::Detailed => "Detailed",
        }
    }
}

impl fmt::Display for Abstraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Abstraction {
    type Err = crate::ParseIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Abstraction::ALL
            .iter()
            .copied()
            .find(|a| a.as_str() == s)
            .ok_or_else(|| crate::id::parse_id_error(s, "abstraction"))
    }
}

/// Qualitative likelihood, as CAPEC reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Likelihood {
    /// Very unlikely to be attempted or to succeed.
    VeryLow,
    /// Unlikely.
    Low,
    /// Even odds.
    Medium,
    /// Likely.
    High,
    /// Very likely.
    VeryHigh,
}

impl Likelihood {
    /// All levels from lowest to highest.
    pub const ALL: [Likelihood; 5] = [
        Likelihood::VeryLow,
        Likelihood::Low,
        Likelihood::Medium,
        Likelihood::High,
        Likelihood::VeryHigh,
    ];

    /// Canonical name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Likelihood::VeryLow => "Very Low",
            Likelihood::Low => "Low",
            Likelihood::Medium => "Medium",
            Likelihood::High => "High",
            Likelihood::VeryHigh => "Very High",
        }
    }
}

impl fmt::Display for Likelihood {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A CAPEC-style attack pattern: the attacker's perspective.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackPattern {
    id: CapecId,
    name: String,
    description: String,
    abstraction: Abstraction,
    likelihood: Option<Likelihood>,
    typical_severity: Option<Severity>,
    related_weaknesses: Vec<CweId>,
    prerequisites: Vec<String>,
}

impl AttackPattern {
    /// Creates a pattern; use the builder-style `with_` methods to fill
    /// optional fields.
    pub fn new(
        id: CapecId,
        name: impl Into<String>,
        description: impl Into<String>,
        abstraction: Abstraction,
    ) -> Self {
        AttackPattern {
            id,
            name: name.into(),
            description: description.into(),
            abstraction,
            likelihood: None,
            typical_severity: None,
            related_weaknesses: Vec::new(),
            prerequisites: Vec::new(),
        }
    }

    /// Sets the qualitative likelihood of attack.
    #[must_use]
    pub fn with_likelihood(mut self, likelihood: Likelihood) -> Self {
        self.likelihood = Some(likelihood);
        self
    }

    /// Sets the typical severity.
    #[must_use]
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.typical_severity = Some(severity);
        self
    }

    /// Links a related weakness (duplicates ignored).
    #[must_use]
    pub fn with_weakness(mut self, cwe: CweId) -> Self {
        if !self.related_weaknesses.contains(&cwe) {
            self.related_weaknesses.push(cwe);
        }
        self
    }

    /// Adds a prerequisite statement.
    #[must_use]
    pub fn with_prerequisite(mut self, prerequisite: impl Into<String>) -> Self {
        self.prerequisites.push(prerequisite.into());
        self
    }

    /// Reserves room for exactly `weaknesses` more weakness links and
    /// `prerequisites` more prerequisites, for a decoder that reads the
    /// counts before the items.
    pub(crate) fn reserve(&mut self, weaknesses: usize, prerequisites: usize) {
        self.related_weaknesses.reserve_exact(weaknesses);
        self.prerequisites.reserve_exact(prerequisites);
    }

    /// The identifier.
    #[must_use]
    pub fn id(&self) -> CapecId {
        self.id
    }

    /// The pattern name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The long description.
    #[must_use]
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The abstraction level.
    #[must_use]
    pub fn abstraction(&self) -> Abstraction {
        self.abstraction
    }

    /// The qualitative likelihood of attack, if recorded.
    #[must_use]
    pub fn likelihood(&self) -> Option<Likelihood> {
        self.likelihood
    }

    /// The typical severity, if recorded.
    #[must_use]
    pub fn typical_severity(&self) -> Option<Severity> {
        self.typical_severity
    }

    /// Related weaknesses (CAPEC → CWE links).
    #[must_use]
    pub fn related_weaknesses(&self) -> &[CweId] {
        &self.related_weaknesses
    }

    /// Prerequisite statements.
    #[must_use]
    pub fn prerequisites(&self) -> &[String] {
        &self.prerequisites
    }

    /// The text the search engine indexes for this record.
    #[must_use]
    pub fn search_text(&self) -> String {
        let mut text = String::new();
        self.push_search_text(&mut text);
        text
    }

    /// Appends [`Self::search_text`] to `out`, so an index build can
    /// reuse one buffer across records.
    pub fn push_search_text(&self, out: &mut String) {
        out.push_str(&self.name);
        out.push(' ');
        out.push_str(&self.description);
        for p in &self.prerequisites {
            out.push(' ');
            out.push_str(p);
        }
    }
}

/// A CWE-style weakness: the defender's perspective on a flaw class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Weakness {
    id: CweId,
    name: String,
    description: String,
    platforms: Vec<String>,
    consequences: Vec<String>,
    mitigations: Vec<String>,
}

impl Weakness {
    /// Creates a weakness.
    pub fn new(id: CweId, name: impl Into<String>, description: impl Into<String>) -> Self {
        Weakness {
            id,
            name: name.into(),
            description: description.into(),
            platforms: Vec::new(),
            consequences: Vec::new(),
            mitigations: Vec::new(),
        }
    }

    /// Adds a potential mitigation statement (CWE's "Potential
    /// Mitigations" section).
    #[must_use]
    pub fn with_mitigation(mut self, mitigation: impl Into<String>) -> Self {
        self.mitigations.push(mitigation.into());
        self
    }

    /// Adds an applicable platform ("Linux", "Windows", "language-neutral").
    #[must_use]
    pub fn with_platform(mut self, platform: impl Into<String>) -> Self {
        self.platforms.push(platform.into());
        self
    }

    /// Adds a common consequence statement.
    #[must_use]
    pub fn with_consequence(mut self, consequence: impl Into<String>) -> Self {
        self.consequences.push(consequence.into());
        self
    }

    /// The identifier.
    #[must_use]
    pub fn id(&self) -> CweId {
        self.id
    }

    /// The weakness name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The long description.
    #[must_use]
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Applicable platforms.
    #[must_use]
    pub fn platforms(&self) -> &[String] {
        &self.platforms
    }

    /// Common consequences.
    #[must_use]
    pub fn consequences(&self) -> &[String] {
        &self.consequences
    }

    /// Potential mitigations.
    #[must_use]
    pub fn mitigations(&self) -> &[String] {
        &self.mitigations
    }

    /// The text the search engine indexes for this record.
    #[must_use]
    pub fn search_text(&self) -> String {
        let mut text = String::new();
        self.push_search_text(&mut text);
        text
    }

    /// Appends [`Self::search_text`] to `out`, so an index build can
    /// reuse one buffer across records.
    pub fn push_search_text(&self, out: &mut String) {
        out.push_str(&self.name);
        out.push(' ');
        out.push_str(&self.description);
        for text in self.platforms.iter().chain(&self.consequences) {
            out.push(' ');
            out.push_str(text);
        }
    }
}

/// A CPE-style product name identifying what a vulnerability affects.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpeName {
    vendor: String,
    product: String,
    version: Option<String>,
}

impl CpeName {
    /// Creates a vendor/product pair without version constraint.
    pub fn new(vendor: impl Into<String>, product: impl Into<String>) -> Self {
        CpeName {
            vendor: vendor.into(),
            product: product.into(),
            version: None,
        }
    }

    /// Constrains the name to one version.
    #[must_use]
    pub fn with_version(mut self, version: impl Into<String>) -> Self {
        self.version = Some(version.into());
        self
    }

    /// The vendor.
    #[must_use]
    pub fn vendor(&self) -> &str {
        &self.vendor
    }

    /// The product.
    #[must_use]
    pub fn product(&self) -> &str {
        &self.product
    }

    /// The version constraint, if any.
    #[must_use]
    pub fn version(&self) -> Option<&str> {
        self.version.as_deref()
    }
}

impl fmt::Display for CpeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.version {
            Some(v) => write!(f, "{}:{}:{v}", self.vendor, self.product),
            None => write!(f, "{}:{}", self.vendor, self.product),
        }
    }
}

/// A CVE/NVD-style vulnerability: a concrete flaw in concrete products.
#[derive(Debug, Clone, PartialEq)]
pub struct Vulnerability {
    id: CveId,
    description: String,
    cvss: Option<CvssVector>,
    weaknesses: Vec<CweId>,
    affected: Vec<CpeName>,
}

impl Vulnerability {
    /// Creates a vulnerability.
    pub fn new(id: CveId, description: impl Into<String>) -> Self {
        Vulnerability {
            id,
            description: description.into(),
            cvss: None,
            weaknesses: Vec::new(),
            affected: Vec::new(),
        }
    }

    /// Attaches a CVSS v3.1 base vector.
    #[must_use]
    pub fn with_cvss(mut self, cvss: CvssVector) -> Self {
        self.cvss = Some(cvss);
        self
    }

    /// Links the underlying weakness (NVD's CWE mapping), duplicates ignored.
    #[must_use]
    pub fn with_weakness(mut self, cwe: CweId) -> Self {
        if !self.weaknesses.contains(&cwe) {
            self.weaknesses.push(cwe);
        }
        self
    }

    /// Adds an affected product.
    #[must_use]
    pub fn with_affected(mut self, cpe: CpeName) -> Self {
        self.affected.push(cpe);
        self
    }

    /// Reserves room for exactly `weaknesses` more weakness links and
    /// `affected` more products, for a decoder that reads the counts
    /// before the items.
    pub(crate) fn reserve(&mut self, weaknesses: usize, affected: usize) {
        self.weaknesses.reserve_exact(weaknesses);
        self.affected.reserve_exact(affected);
    }

    /// The identifier.
    #[must_use]
    pub fn id(&self) -> CveId {
        self.id
    }

    /// The description.
    #[must_use]
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The CVSS vector, if scored.
    #[must_use]
    pub fn cvss(&self) -> Option<&CvssVector> {
        self.cvss.as_ref()
    }

    /// Severity band: the CVSS rating, or `None` if unscored.
    #[must_use]
    pub fn severity(&self) -> Option<Severity> {
        self.cvss.map(|v| v.severity())
    }

    /// Mapped weaknesses (CVE → CWE links).
    #[must_use]
    pub fn weaknesses(&self) -> &[CweId] {
        &self.weaknesses
    }

    /// Affected products.
    #[must_use]
    pub fn affected(&self) -> &[CpeName] {
        &self.affected
    }

    /// The text the search engine indexes for this record.
    #[must_use]
    pub fn search_text(&self) -> String {
        let mut text = String::new();
        self.push_search_text(&mut text);
        text
    }

    /// Appends [`Self::search_text`] to `out`, so an index build can
    /// reuse one buffer across records.
    pub fn push_search_text(&self, out: &mut String) {
        out.push_str(&self.description);
        for cpe in &self.affected {
            out.push(' ');
            out.push_str(cpe.vendor());
            out.push(' ');
            out.push_str(cpe.product());
            if let Some(v) = cpe.version() {
                out.push(' ');
                out.push_str(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cwe78() -> CweId {
        CweId::new(78)
    }

    #[test]
    fn pattern_builder_accumulates_links() {
        let p = AttackPattern::new(
            CapecId::new(88),
            "OS Command Injection",
            "An adversary injects commands",
            Abstraction::Standard,
        )
        .with_likelihood(Likelihood::High)
        .with_severity(Severity::High)
        .with_weakness(cwe78())
        .with_weakness(cwe78())
        .with_prerequisite("user-controllable input reaches a shell");
        assert_eq!(p.related_weaknesses(), &[cwe78()]);
        assert_eq!(p.likelihood(), Some(Likelihood::High));
        assert!(p.search_text().contains("shell"));
    }

    #[test]
    fn weakness_search_text_includes_platforms() {
        let w = Weakness::new(cwe78(), "OS Command Injection", "improper neutralization")
            .with_platform("Linux")
            .with_consequence("execute unauthorized commands");
        let text = w.search_text();
        assert!(text.contains("Linux"));
        assert!(text.contains("unauthorized"));
    }

    #[test]
    fn vulnerability_search_text_includes_cpe() {
        let v = Vulnerability::new(CveId::new(2018, 101), "remote code execution in web vpn")
            .with_affected(CpeName::new("cisco", "asa").with_version("9.6"));
        let text = v.search_text();
        assert!(text.contains("cisco"));
        assert!(text.contains("asa"));
        assert!(text.contains("9.6"));
    }

    #[test]
    fn vulnerability_severity_comes_from_cvss() {
        let v = Vulnerability::new(CveId::new(2018, 101), "rce").with_cvss(
            "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
                .parse()
                .unwrap(),
        );
        assert_eq!(v.severity(), Some(Severity::Critical));
        let unscored = Vulnerability::new(CveId::new(2018, 102), "x");
        assert_eq!(unscored.severity(), None);
    }

    #[test]
    fn cpe_display_includes_version_when_present() {
        assert_eq!(CpeName::new("ni", "labview").to_string(), "ni:labview");
        assert_eq!(
            CpeName::new("ni", "labview")
                .with_version("2019")
                .to_string(),
            "ni:labview:2019"
        );
    }

    #[test]
    fn abstraction_round_trips() {
        for a in Abstraction::ALL {
            assert_eq!(a.as_str().parse::<Abstraction>().unwrap(), a);
        }
        assert!("Fuzzy".parse::<Abstraction>().is_err());
    }

    #[test]
    fn likelihood_is_ordered() {
        assert!(Likelihood::VeryLow < Likelihood::VeryHigh);
        assert_eq!(Likelihood::VeryHigh.to_string(), "Very High");
    }
}
