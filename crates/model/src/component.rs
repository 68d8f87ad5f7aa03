//! Components: the nodes of the architectural graph.

use core::fmt;
use core::str::FromStr;

use crate::{Attribute, AttributeSet, ComponentKind, Fidelity, ModelError};

/// Safety/mission criticality of a component.
///
/// Criticality weights posture metrics and selects the target set for
/// attack-surface path analysis: paths from entry points to
/// [`Criticality::SafetyCritical`] components are the ones whose compromise
/// the paper's thesis says IT-style modeling misses.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Criticality {
    /// Compromise is an inconvenience only.
    #[default]
    Low,
    /// Compromise degrades the mission.
    Medium,
    /// Compromise defeats the mission.
    High,
    /// Compromise can cause a physical hazard (loss of life, destruction).
    SafetyCritical,
}

impl Criticality {
    /// All levels from least to most critical.
    pub const ALL: [Criticality; 4] = [
        Criticality::Low,
        Criticality::Medium,
        Criticality::High,
        Criticality::SafetyCritical,
    ];

    /// Returns the canonical lowercase name used in GraphML interchange.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Criticality::Low => "low",
            Criticality::Medium => "medium",
            Criticality::High => "high",
            Criticality::SafetyCritical => "safety-critical",
        }
    }

    /// A weight in `[1, 4]` used by posture scoring.
    #[must_use]
    pub fn weight(self) -> u32 {
        match self {
            Criticality::Low => 1,
            Criticality::Medium => 2,
            Criticality::High => 3,
            Criticality::SafetyCritical => 4,
        }
    }
}

impl fmt::Display for Criticality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Criticality {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Criticality::ALL
            .iter()
            .copied()
            .find(|c| c.as_str() == s)
            .ok_or_else(|| ModelError::UnknownKind(s.to_owned()))
    }
}

/// A node of the architectural graph: one system element with its
/// security-relevant design information.
///
/// Components are created through
/// [`SystemModelBuilder`](crate::SystemModelBuilder) or
/// [`SystemModel::add_component`](crate::SystemModel::add_component); they
/// are addressed by unique name or by [`ComponentId`](crate::ComponentId).
///
/// # Examples
///
/// ```
/// use cpssec_model::{Component, ComponentKind, Attribute, AttributeKind, Criticality};
///
/// let mut sis = Component::new("SIS platform", ComponentKind::SafetySystem)
///     .with_criticality(Criticality::SafetyCritical);
/// sis.attributes_mut()
///     .insert(Attribute::new(AttributeKind::Product, "NI cRIO 9063"));
/// assert!(sis.kind().is_controlling());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    name: String,
    kind: ComponentKind,
    attributes: AttributeSet,
    criticality: Criticality,
    entry_point: bool,
}

impl Component {
    /// Creates a component with no attributes, [`Criticality::Low`], not an
    /// entry point.
    pub fn new(name: impl Into<String>, kind: ComponentKind) -> Self {
        Component {
            name: name.into(),
            kind,
            attributes: AttributeSet::new(),
            criticality: Criticality::default(),
            entry_point: false,
        }
    }

    /// Sets the criticality (builder style).
    #[must_use]
    pub fn with_criticality(mut self, criticality: Criticality) -> Self {
        self.criticality = criticality;
        self
    }

    /// Marks the component as an attacker entry point (builder style).
    ///
    /// Entry points are where the modeled adversary first touches the
    /// system: internet-facing interfaces, corporate network uplinks,
    /// removable media bays.
    #[must_use]
    pub fn with_entry_point(mut self, entry_point: bool) -> Self {
        self.entry_point = entry_point;
        self
    }

    /// Adds an attribute (builder style); exact duplicates are ignored.
    #[must_use]
    pub fn with_attribute(mut self, attribute: Attribute) -> Self {
        self.attributes.insert(attribute);
        self
    }

    /// The unique name within its model.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The architectural role.
    #[must_use]
    pub fn kind(&self) -> ComponentKind {
        self.kind
    }

    /// The attached attributes.
    #[must_use]
    pub fn attributes(&self) -> &AttributeSet {
        &self.attributes
    }

    /// Mutable access to the attached attributes.
    pub fn attributes_mut(&mut self) -> &mut AttributeSet {
        &mut self.attributes
    }

    /// The criticality level.
    #[must_use]
    pub fn criticality(&self) -> Criticality {
        self.criticality
    }

    /// Sets the criticality level.
    pub fn set_criticality(&mut self, criticality: Criticality) {
        self.criticality = criticality;
    }

    /// Whether the component is an attacker entry point.
    #[must_use]
    pub fn is_entry_point(&self) -> bool {
        self.entry_point
    }

    /// Marks or unmarks the component as an entry point.
    pub fn set_entry_point(&mut self, entry_point: bool) {
        self.entry_point = entry_point;
    }

    /// Returns a copy containing only attributes visible at `level`.
    #[must_use]
    pub fn at_fidelity(&self, level: Fidelity) -> Component {
        Component {
            name: self.name.clone(),
            kind: self.kind,
            attributes: self.attributes.visible_at(level).cloned().collect(),
            criticality: self.criticality,
            entry_point: self.entry_point,
        }
    }

    /// The searchable text of this component at `level`: its name plus every
    /// visible attribute value. This is exactly the text the paper's search
    /// process submits per model element.
    #[must_use]
    pub fn search_text(&self, level: Fidelity) -> String {
        let mut text = self.name.clone();
        for attr in self.attributes.visible_at(level) {
            text.push(' ');
            text.push_str(attr.value());
        }
        text
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <{}>", self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttributeKind;

    fn bpcs() -> Component {
        Component::new("BPCS platform", ComponentKind::Controller)
            .with_criticality(Criticality::High)
            .with_attribute(Attribute::new(AttributeKind::Product, "NI cRIO 9064"))
            .with_attribute(
                Attribute::new(AttributeKind::OperatingSystem, "NI RT Linux")
                    .at_fidelity(Fidelity::Implementation),
            )
    }

    #[test]
    fn builder_style_accumulates_state() {
        let c = bpcs();
        assert_eq!(c.name(), "BPCS platform");
        assert_eq!(c.criticality(), Criticality::High);
        assert_eq!(c.attributes().len(), 2);
        assert!(!c.is_entry_point());
    }

    #[test]
    fn at_fidelity_drops_invisible_attributes() {
        let c = bpcs();
        let conceptual = c.at_fidelity(Fidelity::Conceptual);
        assert_eq!(conceptual.attributes().len(), 1);
        let implementation = c.at_fidelity(Fidelity::Implementation);
        assert_eq!(implementation.attributes().len(), 2);
    }

    #[test]
    fn search_text_concatenates_name_and_visible_values() {
        let c = bpcs();
        let text = c.search_text(Fidelity::Implementation);
        assert!(text.contains("BPCS platform"));
        assert!(text.contains("NI cRIO 9064"));
        assert!(text.contains("NI RT Linux"));
        let abstract_text = c.search_text(Fidelity::Conceptual);
        assert!(!abstract_text.contains("RT Linux"));
    }

    #[test]
    fn criticality_weights_are_strictly_increasing() {
        let weights: Vec<_> = Criticality::ALL.iter().map(|c| c.weight()).collect();
        assert!(weights.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn criticality_names_round_trip() {
        for c in Criticality::ALL {
            assert_eq!(c.as_str().parse::<Criticality>().unwrap(), c);
        }
    }

    #[test]
    fn display_shows_name_and_kind() {
        assert_eq!(bpcs().to_string(), "BPCS platform <controller>");
    }

    #[test]
    fn entry_point_flag_survives_fidelity_projection() {
        let ws = Component::new("WS", ComponentKind::Workstation).with_entry_point(true);
        assert!(ws.at_fidelity(Fidelity::Conceptual).is_entry_point());
    }
}
