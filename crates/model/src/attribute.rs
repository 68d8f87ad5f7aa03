//! Attributes: the security-relevant design information attached to model
//! elements.
//!
//! The paper's search process matches *attributes* (e.g. "Windows 7",
//! "NI cRIO 9063") against attack vector corpora; Table 1 is keyed by
//! attribute. An [`Attribute`] is a typed key/value pair plus the
//! [`Fidelity`] at which it becomes part of the model.

use core::fmt;
use core::str::FromStr;

use crate::{Fidelity, ModelError};

/// The semantic category of an attribute.
///
/// Categories matter to the matcher: product and operating-system attributes
/// relate to concrete vulnerabilities, function and description attributes
/// relate to attack patterns and weaknesses (§2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum AttributeKind {
    /// Hardware or software vendor ("Cisco", "National Instruments").
    Vendor,
    /// A concrete product ("ASA 5506-X", "cRIO 9063").
    Product,
    /// An operating system ("Windows 7", "NI RT Linux").
    OperatingSystem,
    /// Installed software ("LabVIEW", "MODBUS stack").
    Software,
    /// A hardware platform or part.
    Hardware,
    /// A communication protocol ("MODBUS/TCP").
    Protocol,
    /// A version string, qualifying the nearest product/software attribute.
    Version,
    /// The functional role in prose ("supervisory speed control").
    Function,
    /// Free-form descriptive text.
    Description,
    /// Anything else; carries its own key verbatim.
    Custom,
}

impl AttributeKind {
    /// All kinds in a fixed, stable order.
    pub const ALL: [AttributeKind; 10] = [
        AttributeKind::Vendor,
        AttributeKind::Product,
        AttributeKind::OperatingSystem,
        AttributeKind::Software,
        AttributeKind::Hardware,
        AttributeKind::Protocol,
        AttributeKind::Version,
        AttributeKind::Function,
        AttributeKind::Description,
        AttributeKind::Custom,
    ];

    /// Returns the canonical lowercase name used in GraphML interchange.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AttributeKind::Vendor => "vendor",
            AttributeKind::Product => "product",
            AttributeKind::OperatingSystem => "os",
            AttributeKind::Software => "software",
            AttributeKind::Hardware => "hardware",
            AttributeKind::Protocol => "protocol",
            AttributeKind::Version => "version",
            AttributeKind::Function => "function",
            AttributeKind::Description => "description",
            AttributeKind::Custom => "custom",
        }
    }

    /// Returns `true` for kinds that name concrete technology (and therefore
    /// drive vulnerability matching rather than pattern matching).
    #[must_use]
    pub fn is_concrete(self) -> bool {
        matches!(
            self,
            AttributeKind::Vendor
                | AttributeKind::Product
                | AttributeKind::OperatingSystem
                | AttributeKind::Software
                | AttributeKind::Hardware
                | AttributeKind::Version
        )
    }
}

impl fmt::Display for AttributeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for AttributeKind {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AttributeKind::ALL
            .iter()
            .copied()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| ModelError::UnknownKind(s.to_owned()))
    }
}

/// One piece of security-relevant design information.
///
/// # Examples
///
/// ```
/// use cpssec_model::{Attribute, AttributeKind, Fidelity};
///
/// let os = Attribute::new(AttributeKind::OperatingSystem, "Windows 7")
///     .at_fidelity(Fidelity::Implementation);
/// assert_eq!(os.value(), "Windows 7");
/// assert!(os.kind().is_concrete());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Attribute {
    kind: AttributeKind,
    key: String,
    value: String,
    fidelity: Fidelity,
}

impl Attribute {
    /// Creates an attribute of `kind` with the given value, visible at all
    /// fidelities, keyed by the kind's canonical name.
    pub fn new(kind: AttributeKind, value: impl Into<String>) -> Self {
        Attribute {
            kind,
            key: kind.as_str().to_owned(),
            value: value.into(),
            fidelity: Fidelity::Conceptual,
        }
    }

    /// Creates a [`AttributeKind::Custom`] attribute with an explicit key.
    pub fn custom(key: impl Into<String>, value: impl Into<String>) -> Self {
        Attribute {
            kind: AttributeKind::Custom,
            key: key.into(),
            value: value.into(),
            fidelity: Fidelity::Conceptual,
        }
    }

    /// Sets the fidelity at which this attribute enters the model.
    #[must_use]
    pub fn at_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// The semantic category.
    #[must_use]
    pub fn kind(&self) -> AttributeKind {
        self.kind
    }

    /// The attribute key (the kind's canonical name, or the custom key).
    #[must_use]
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The attribute value.
    #[must_use]
    pub fn value(&self) -> &str {
        &self.value
    }

    /// The fidelity at which this attribute becomes visible.
    #[must_use]
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.key, self.value)
    }
}

/// An ordered collection of attributes attached to one model element.
///
/// Insertion order is preserved; duplicate `(key, value)` pairs are
/// rejected on insert, but the same key may appear with several values
/// (a workstation can run more than one piece of software).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AttributeSet {
    entries: Vec<Attribute>,
}

impl AttributeSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        AttributeSet::default()
    }

    /// Adds an attribute; returns `false` (and leaves the set unchanged) if
    /// an identical `(key, value)` pair is already present.
    pub fn insert(&mut self, attribute: Attribute) -> bool {
        if self
            .entries
            .iter()
            .any(|a| a.key == attribute.key && a.value == attribute.value)
        {
            return false;
        }
        self.entries.push(attribute);
        true
    }

    /// Removes every attribute whose `(key, value)` matches; returns how
    /// many were removed (0 or 1 given the insert invariant).
    pub fn remove(&mut self, key: &str, value: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|a| !(a.key == key && a.value == value));
        before - self.entries.len()
    }

    /// Number of attributes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all attributes in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Attribute> {
        self.entries.iter()
    }

    /// Iterates over attributes visible at `level`.
    pub fn visible_at(&self, level: Fidelity) -> impl Iterator<Item = &Attribute> {
        self.entries
            .iter()
            .filter(move |a| a.fidelity().visible_at(level))
    }

    /// Returns the first value stored under `key`, if any.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|a| a.key == key)
            .map(|a| a.value.as_str())
    }

    /// Returns all values stored under `key` in insertion order.
    pub fn get_all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .filter(move |a| a.key == key)
            .map(|a| a.value.as_str())
    }

    /// Iterates over attributes of a given kind.
    pub fn of_kind(&self, kind: AttributeKind) -> impl Iterator<Item = &Attribute> {
        self.entries.iter().filter(move |a| a.kind == kind)
    }
}

impl FromIterator<Attribute> for AttributeSet {
    fn from_iter<I: IntoIterator<Item = Attribute>>(iter: I) -> Self {
        let mut set = AttributeSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<Attribute> for AttributeSet {
    fn extend<I: IntoIterator<Item = Attribute>>(&mut self, iter: I) {
        for attribute in iter {
            self.insert(attribute);
        }
    }
}

impl<'a> IntoIterator for &'a AttributeSet {
    type Item = &'a Attribute;
    type IntoIter = core::slice::Iter<'a, Attribute>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl IntoIterator for AttributeSet {
    type Item = Attribute;
    type IntoIter = std::vec::IntoIter<Attribute>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn win7() -> Attribute {
        Attribute::new(AttributeKind::OperatingSystem, "Windows 7")
            .at_fidelity(Fidelity::Implementation)
    }

    #[test]
    fn new_uses_canonical_key() {
        let attr = Attribute::new(AttributeKind::Product, "cRIO 9063");
        assert_eq!(attr.key(), "product");
        assert_eq!(attr.kind(), AttributeKind::Product);
    }

    #[test]
    fn custom_keeps_explicit_key() {
        let attr = Attribute::custom("rack-slot", "3");
        assert_eq!(attr.key(), "rack-slot");
        assert_eq!(attr.kind(), AttributeKind::Custom);
    }

    #[test]
    fn insert_rejects_exact_duplicates_but_allows_same_key() {
        let mut set = AttributeSet::new();
        assert!(set.insert(Attribute::new(AttributeKind::Software, "LabVIEW")));
        assert!(!set.insert(Attribute::new(AttributeKind::Software, "LabVIEW")));
        assert!(set.insert(Attribute::new(AttributeKind::Software, "MODBUS stack")));
        assert_eq!(set.len(), 2);
        assert_eq!(set.get_all("software").count(), 2);
    }

    #[test]
    fn remove_deletes_matching_pair_only() {
        let mut set: AttributeSet = [
            Attribute::new(AttributeKind::Software, "LabVIEW"),
            Attribute::new(AttributeKind::Software, "TIA Portal"),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.remove("software", "LabVIEW"), 1);
        assert_eq!(set.remove("software", "LabVIEW"), 0);
        assert_eq!(set.get("software"), Some("TIA Portal"));
    }

    #[test]
    fn visibility_filters_by_fidelity() {
        let mut set = AttributeSet::new();
        set.insert(Attribute::new(
            AttributeKind::Function,
            "separation control",
        ));
        set.insert(win7());
        assert_eq!(set.visible_at(Fidelity::Conceptual).count(), 1);
        assert_eq!(set.visible_at(Fidelity::Implementation).count(), 2);
    }

    #[test]
    fn display_is_key_equals_value() {
        assert_eq!(win7().to_string(), "os=Windows 7");
    }

    #[test]
    fn concrete_kinds_drive_vulnerability_matching() {
        assert!(AttributeKind::Product.is_concrete());
        assert!(AttributeKind::Version.is_concrete());
        assert!(!AttributeKind::Function.is_concrete());
        assert!(!AttributeKind::Description.is_concrete());
    }

    #[test]
    fn from_iterator_preserves_order() {
        let set: AttributeSet = [
            Attribute::new(AttributeKind::Vendor, "Cisco"),
            Attribute::new(AttributeKind::Product, "ASA"),
        ]
        .into_iter()
        .collect();
        let keys: Vec<_> = set.iter().map(Attribute::key).collect();
        assert_eq!(keys, ["vendor", "product"]);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in AttributeKind::ALL {
            assert_eq!(kind.as_str().parse::<AttributeKind>().unwrap(), kind);
        }
    }
}
