//! Opaque identifiers for model elements.

use core::fmt;

/// Identifier of a [`Component`](crate::Component) within one
/// [`SystemModel`](crate::SystemModel).
///
/// Identifiers are dense indices assigned in insertion order. They are only
/// meaningful for the model that issued them; using an identifier from a
/// different model yields a lookup error, never a panic.
///
/// # Examples
///
/// ```
/// use cpssec_model::{SystemModelBuilder, ComponentKind};
///
/// # fn main() -> Result<(), cpssec_model::ModelError> {
/// let model = SystemModelBuilder::new("m")
///     .component("a", ComponentKind::Controller)
///     .build()?;
/// let id = model.component_id("a").unwrap();
/// assert_eq!(model.component(id).unwrap().name(), "a");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) u32);

/// Identifier of a [`Channel`](crate::Channel) within one
/// [`SystemModel`](crate::SystemModel).
///
/// See [`ComponentId`] for identifier semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub(crate) u32);

impl ComponentId {
    /// Returns the dense index backing this identifier.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ChannelId {
    /// Returns the dense index backing this identifier.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_graphml_convention() {
        assert_eq!(ComponentId(3).to_string(), "n3");
        assert_eq!(ChannelId(7).to_string(), "e7");
    }

    #[test]
    fn ordering_follows_insertion_index() {
        assert!(ComponentId(1) < ComponentId(2));
        assert!(ChannelId(0) < ChannelId(9));
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(ComponentId(42).index(), 42);
        assert_eq!(ChannelId(13).index(), 13);
    }
}
