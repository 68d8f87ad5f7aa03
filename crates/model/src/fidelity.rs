//! Model fidelity levels and refinement ordering.

use core::fmt;
use core::str::FromStr;

use crate::ModelError;

/// How close a model element is to the eventual implementation.
///
/// The paper argues the attack-vector result space is "highly sensitive to
/// the fidelity of the model": abstract models relate to attack patterns and
/// weaknesses, implementation-level models relate to concrete
/// vulnerabilities. Attributes carry the fidelity at which they become
/// visible, and [`SystemModel::at_fidelity`](crate::SystemModel::at_fidelity)
/// projects a model down to a chosen level.
///
/// The ordering is `Conceptual < Architectural < Implementation`; refining a
/// model only ever *adds* information.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Fidelity {
    /// Mission-level: functions and flows, no technology choices.
    #[default]
    Conceptual,
    /// Architecture-level: component roles, protocols, vendor families.
    Architectural,
    /// Implementation-level: exact products, versions, operating systems.
    Implementation,
}

impl Fidelity {
    /// All levels from most abstract to most concrete.
    pub const ALL: [Fidelity; 3] = [
        Fidelity::Conceptual,
        Fidelity::Architectural,
        Fidelity::Implementation,
    ];

    /// Returns the canonical lowercase name used in GraphML interchange.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Fidelity::Conceptual => "conceptual",
            Fidelity::Architectural => "architectural",
            Fidelity::Implementation => "implementation",
        }
    }

    /// Returns the next, more concrete level, or `None` at the bottom.
    ///
    /// # Examples
    ///
    /// ```
    /// use cpssec_model::Fidelity;
    /// assert_eq!(Fidelity::Conceptual.refined(), Some(Fidelity::Architectural));
    /// assert_eq!(Fidelity::Implementation.refined(), None);
    /// ```
    #[must_use]
    pub fn refined(self) -> Option<Fidelity> {
        match self {
            Fidelity::Conceptual => Some(Fidelity::Architectural),
            Fidelity::Architectural => Some(Fidelity::Implementation),
            Fidelity::Implementation => None,
        }
    }

    /// Returns the previous, more abstract level, or `None` at the top.
    #[must_use]
    pub fn abstracted(self) -> Option<Fidelity> {
        match self {
            Fidelity::Conceptual => None,
            Fidelity::Architectural => Some(Fidelity::Conceptual),
            Fidelity::Implementation => Some(Fidelity::Architectural),
        }
    }

    /// Returns `true` when an attribute introduced at `self` is visible in a
    /// model projected to `level`.
    #[must_use]
    pub fn visible_at(self, level: Fidelity) -> bool {
        self <= level
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Fidelity {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Fidelity::ALL
            .iter()
            .copied()
            .find(|l| l.as_str() == s)
            .ok_or_else(|| ModelError::UnknownKind(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_abstract_to_concrete() {
        assert!(Fidelity::Conceptual < Fidelity::Architectural);
        assert!(Fidelity::Architectural < Fidelity::Implementation);
    }

    #[test]
    fn refined_and_abstracted_are_inverse() {
        for level in Fidelity::ALL {
            if let Some(next) = level.refined() {
                assert_eq!(next.abstracted(), Some(level));
            }
            if let Some(prev) = level.abstracted() {
                assert_eq!(prev.refined(), Some(level));
            }
        }
    }

    #[test]
    fn visibility_is_monotone() {
        assert!(Fidelity::Conceptual.visible_at(Fidelity::Implementation));
        assert!(Fidelity::Implementation.visible_at(Fidelity::Implementation));
        assert!(!Fidelity::Implementation.visible_at(Fidelity::Conceptual));
    }

    #[test]
    fn names_round_trip() {
        for level in Fidelity::ALL {
            assert_eq!(level.as_str().parse::<Fidelity>().unwrap(), level);
        }
        assert!("exact".parse::<Fidelity>().is_err());
    }

    #[test]
    fn default_is_conceptual() {
        assert_eq!(Fidelity::default(), Fidelity::Conceptual);
    }
}
