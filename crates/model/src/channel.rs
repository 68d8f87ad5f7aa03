//! Channels: the edges of the architectural graph.

use core::fmt;

use crate::{AttributeSet, ChannelKind, ComponentId, Direction, Fidelity};

/// An edge of the architectural graph: an interaction path between two
/// components, with its own medium, direction, and attributes.
///
/// Channels are created through
/// [`SystemModelBuilder`](crate::SystemModelBuilder) or
/// [`SystemModel::add_channel`](crate::SystemModel::add_channel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    from: ComponentId,
    to: ComponentId,
    kind: ChannelKind,
    direction: Direction,
    label: String,
    attributes: AttributeSet,
}

impl Channel {
    pub(crate) fn new(
        from: ComponentId,
        to: ComponentId,
        kind: ChannelKind,
        direction: Direction,
        label: String,
        attributes: AttributeSet,
    ) -> Self {
        Channel {
            from,
            to,
            kind,
            direction,
            label,
            attributes,
        }
    }

    /// The component at the `from` end.
    #[must_use]
    pub fn from(&self) -> ComponentId {
        self.from
    }

    /// The component at the `to` end.
    #[must_use]
    pub fn to(&self) -> ComponentId {
        self.to
    }

    /// The medium.
    #[must_use]
    pub fn kind(&self) -> ChannelKind {
        self.kind
    }

    /// The direction of flow.
    #[must_use]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// A short human-readable label (may be empty).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The attached attributes (protocols, link parameters).
    #[must_use]
    pub fn attributes(&self) -> &AttributeSet {
        &self.attributes
    }

    /// Mutable access to the attached attributes.
    pub fn attributes_mut(&mut self) -> &mut AttributeSet {
        &mut self.attributes
    }

    /// Returns `true` if traffic can flow from `source` toward the other
    /// end, honouring [`Direction::Forward`].
    #[must_use]
    pub fn carries_from(&self, source: ComponentId) -> bool {
        match self.direction {
            Direction::Bidirectional => source == self.from || source == self.to,
            Direction::Forward => source == self.from,
        }
    }

    /// Returns the opposite endpoint if `side` is one of the two ends.
    #[must_use]
    pub fn other_end(&self, side: ComponentId) -> Option<ComponentId> {
        if side == self.from {
            Some(self.to)
        } else if side == self.to {
            Some(self.from)
        } else {
            None
        }
    }

    /// The searchable text of this channel at `level`: its label, medium
    /// name, and every visible attribute value — the interaction-side
    /// counterpart of [`Component::search_text`](crate::Component::search_text).
    #[must_use]
    pub fn search_text(&self, level: Fidelity) -> String {
        let mut text = self.label.clone();
        if !text.is_empty() {
            text.push(' ');
        }
        text.push_str(self.kind.as_str());
        for attr in self.attributes.visible_at(level) {
            text.push(' ');
            text.push_str(attr.value());
        }
        text
    }

    /// Returns a copy containing only attributes visible at `level`.
    #[must_use]
    pub fn at_fidelity(&self, level: Fidelity) -> Channel {
        Channel {
            from: self.from,
            to: self.to,
            kind: self.kind,
            direction: self.direction,
            label: self.label.clone(),
            attributes: self.attributes.visible_at(level).cloned().collect(),
        }
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arrow = match self.direction {
            Direction::Bidirectional => "<->",
            Direction::Forward => "->",
        };
        write!(f, "{} {arrow} {} [{}]", self.from, self.to, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, AttributeKind};

    fn ids() -> (ComponentId, ComponentId) {
        (ComponentId(0), ComponentId(1))
    }

    fn link(direction: Direction) -> Channel {
        let (a, b) = ids();
        Channel::new(
            a,
            b,
            ChannelKind::Fieldbus,
            direction,
            "bus".into(),
            AttributeSet::new(),
        )
    }

    #[test]
    fn bidirectional_carries_from_both_ends() {
        let (a, b) = ids();
        let ch = link(Direction::Bidirectional);
        assert!(ch.carries_from(a));
        assert!(ch.carries_from(b));
    }

    #[test]
    fn forward_carries_only_from_source() {
        let (a, b) = ids();
        let ch = link(Direction::Forward);
        assert!(ch.carries_from(a));
        assert!(!ch.carries_from(b));
    }

    #[test]
    fn other_end_is_symmetric_and_checked() {
        let (a, b) = ids();
        let ch = link(Direction::Bidirectional);
        assert_eq!(ch.other_end(a), Some(b));
        assert_eq!(ch.other_end(b), Some(a));
        assert_eq!(ch.other_end(ComponentId(9)), None);
    }

    #[test]
    fn at_fidelity_filters_channel_attributes() {
        let (a, b) = ids();
        let mut attrs = AttributeSet::new();
        attrs.insert(
            Attribute::new(AttributeKind::Protocol, "MODBUS/TCP")
                .at_fidelity(Fidelity::Architectural),
        );
        let ch = Channel::new(
            a,
            b,
            ChannelKind::Ethernet,
            Direction::Bidirectional,
            String::new(),
            attrs,
        );
        assert!(ch.at_fidelity(Fidelity::Conceptual).attributes().is_empty());
        assert_eq!(
            ch.at_fidelity(Fidelity::Architectural).attributes().len(),
            1
        );
    }

    #[test]
    fn search_text_includes_label_kind_and_visible_attributes() {
        let (a, b) = ids();
        let mut attrs = AttributeSet::new();
        attrs.insert(
            Attribute::new(AttributeKind::Protocol, "MODBUS/TCP")
                .at_fidelity(Fidelity::Architectural),
        );
        let ch = Channel::new(
            a,
            b,
            ChannelKind::Fieldbus,
            Direction::Bidirectional,
            "control bus".into(),
            attrs,
        );
        let abstract_text = ch.search_text(Fidelity::Conceptual);
        assert!(abstract_text.contains("control bus"));
        assert!(abstract_text.contains("fieldbus"));
        assert!(!abstract_text.contains("MODBUS"));
        let concrete_text = ch.search_text(Fidelity::Architectural);
        assert!(concrete_text.contains("MODBUS/TCP"));
    }

    #[test]
    fn display_reflects_direction() {
        assert!(link(Direction::Bidirectional).to_string().contains("<->"));
        assert!(link(Direction::Forward).to_string().contains("->"));
    }
}
