//! Taxonomies for components and channels.
//!
//! The kinds below cover the vocabulary used by industrial control system
//! reference architectures (Purdue model levels 0–4) plus generic IT
//! elements, which is what the paper's SCADA demonstration requires.

use core::fmt;
use core::str::FromStr;

use crate::ModelError;

/// The architectural role of a [`Component`](crate::Component).
///
/// The taxonomy is deliberately closed: security association and posture
/// scoring treat kinds as analysis categories, so downstream code must be
/// able to match exhaustively. Anything that genuinely fits no category can
/// use [`ComponentKind::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum ComponentKind {
    /// A process controller (PLC, BPCS, DCS node).
    Controller,
    /// A dedicated safety instrumented system or safety monitor.
    SafetySystem,
    /// A sensor measuring a physical quantity.
    Sensor,
    /// An actuator driving a physical quantity.
    Actuator,
    /// The physical process under control (plant).
    PhysicalProcess,
    /// An engineering or operator workstation.
    Workstation,
    /// A human-machine interface panel.
    Hmi,
    /// A process data historian.
    Historian,
    /// A network firewall or data diode.
    Firewall,
    /// A switch, router, or other network fabric element.
    Network,
    /// A protocol or network gateway.
    Gateway,
    /// A remote terminal unit.
    Rtu,
    /// A server providing IT services (domain, files, databases).
    Server,
    /// A pure software component (application, runtime, library).
    Software,
    /// A component that fits no other category.
    Other,
}

impl ComponentKind {
    /// All kinds in a fixed, stable order.
    pub const ALL: [ComponentKind; 15] = [
        ComponentKind::Controller,
        ComponentKind::SafetySystem,
        ComponentKind::Sensor,
        ComponentKind::Actuator,
        ComponentKind::PhysicalProcess,
        ComponentKind::Workstation,
        ComponentKind::Hmi,
        ComponentKind::Historian,
        ComponentKind::Firewall,
        ComponentKind::Network,
        ComponentKind::Gateway,
        ComponentKind::Rtu,
        ComponentKind::Server,
        ComponentKind::Software,
        ComponentKind::Other,
    ];

    /// Returns the canonical lowercase name used in GraphML interchange.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ComponentKind::Controller => "controller",
            ComponentKind::SafetySystem => "safety-system",
            ComponentKind::Sensor => "sensor",
            ComponentKind::Actuator => "actuator",
            ComponentKind::PhysicalProcess => "physical-process",
            ComponentKind::Workstation => "workstation",
            ComponentKind::Hmi => "hmi",
            ComponentKind::Historian => "historian",
            ComponentKind::Firewall => "firewall",
            ComponentKind::Network => "network",
            ComponentKind::Gateway => "gateway",
            ComponentKind::Rtu => "rtu",
            ComponentKind::Server => "server",
            ComponentKind::Software => "software",
            ComponentKind::Other => "other",
        }
    }

    /// Returns `true` for kinds that interact with the physical environment.
    ///
    /// These are exactly the kinds for which the paper argues IT-centric
    /// threat modeling is insufficient: attacks on them have direct physical
    /// consequences.
    #[must_use]
    pub fn is_physical(self) -> bool {
        matches!(
            self,
            ComponentKind::Sensor | ComponentKind::Actuator | ComponentKind::PhysicalProcess
        )
    }

    /// Returns `true` for kinds that issue control actions.
    #[must_use]
    pub fn is_controlling(self) -> bool {
        matches!(
            self,
            ComponentKind::Controller
                | ComponentKind::SafetySystem
                | ComponentKind::Rtu
                | ComponentKind::Workstation
        )
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ComponentKind {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ComponentKind::ALL
            .iter()
            .copied()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| ModelError::UnknownKind(s.to_owned()))
    }
}

/// The medium of a [`Channel`](crate::Channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum ChannelKind {
    /// Switched Ethernet (possibly industrial Ethernet).
    Ethernet,
    /// Point-to-point serial (RS-232/RS-485).
    Serial,
    /// An industrial fieldbus (MODBUS, Profibus, CAN, ...).
    Fieldbus,
    /// A 4–20 mA loop or other analog electrical connection.
    Analog,
    /// Radio: Wi-Fi, cellular, proprietary ISM links.
    Wireless,
    /// Direct physical coupling (shaft, pipe, containment).
    Physical,
    /// A logical dependency without its own medium (e.g. software hosting).
    Logical,
}

impl ChannelKind {
    /// All kinds in a fixed, stable order.
    pub const ALL: [ChannelKind; 7] = [
        ChannelKind::Ethernet,
        ChannelKind::Serial,
        ChannelKind::Fieldbus,
        ChannelKind::Analog,
        ChannelKind::Wireless,
        ChannelKind::Physical,
        ChannelKind::Logical,
    ];

    /// Returns the canonical lowercase name used in GraphML interchange.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ChannelKind::Ethernet => "ethernet",
            ChannelKind::Serial => "serial",
            ChannelKind::Fieldbus => "fieldbus",
            ChannelKind::Analog => "analog",
            ChannelKind::Wireless => "wireless",
            ChannelKind::Physical => "physical",
            ChannelKind::Logical => "logical",
        }
    }

    /// Returns `true` if the medium carries digital traffic an attacker on
    /// the network could inject into.
    #[must_use]
    pub fn is_networked(self) -> bool {
        matches!(
            self,
            ChannelKind::Ethernet
                | ChannelKind::Serial
                | ChannelKind::Fieldbus
                | ChannelKind::Wireless
        )
    }
}

impl fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ChannelKind {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ChannelKind::ALL
            .iter()
            .copied()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| ModelError::UnknownKind(s.to_owned()))
    }
}

/// Direction of information or energy flow on a channel.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Flow in both directions (the common case for request/response buses).
    #[default]
    Bidirectional,
    /// Flow only from the channel's `from` end to its `to` end.
    Forward,
}

impl Direction {
    /// Returns the canonical lowercase name used in GraphML interchange.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Bidirectional => "bidirectional",
            Direction::Forward => "forward",
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Direction {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bidirectional" => Ok(Direction::Bidirectional),
            "forward" => Ok(Direction::Forward),
            other => Err(ModelError::UnknownKind(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_kind_round_trips_through_str() {
        for kind in ComponentKind::ALL {
            assert_eq!(kind.as_str().parse::<ComponentKind>().unwrap(), kind);
        }
    }

    #[test]
    fn channel_kind_round_trips_through_str() {
        for kind in ChannelKind::ALL {
            assert_eq!(kind.as_str().parse::<ChannelKind>().unwrap(), kind);
        }
    }

    #[test]
    fn direction_round_trips_through_str() {
        for dir in [Direction::Bidirectional, Direction::Forward] {
            assert_eq!(dir.as_str().parse::<Direction>().unwrap(), dir);
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!("quantum".parse::<ComponentKind>().is_err());
        assert!("telepathy".parse::<ChannelKind>().is_err());
        assert!("sideways".parse::<Direction>().is_err());
    }

    #[test]
    fn physical_kinds_are_the_plant_interface() {
        let physical: Vec<_> = ComponentKind::ALL
            .iter()
            .filter(|k| k.is_physical())
            .collect();
        assert_eq!(physical.len(), 3);
        assert!(ComponentKind::Sensor.is_physical());
        assert!(!ComponentKind::Firewall.is_physical());
    }

    #[test]
    fn controlling_kinds_include_safety_system() {
        assert!(ComponentKind::SafetySystem.is_controlling());
        assert!(!ComponentKind::Sensor.is_controlling());
    }

    #[test]
    fn networked_media_exclude_analog_and_physical() {
        assert!(ChannelKind::Fieldbus.is_networked());
        assert!(!ChannelKind::Analog.is_networked());
        assert!(!ChannelKind::Physical.is_networked());
        assert!(!ChannelKind::Logical.is_networked());
    }

    #[test]
    fn all_lists_are_duplicate_free() {
        let mut names: Vec<_> = ComponentKind::ALL.iter().map(|k| k.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ComponentKind::ALL.len());
    }
}
