//! The SCADA system model (Fig 1) with Table 1 attributes.
//!
//! The same system the simulation runs, expressed as a general
//! architectural model for the security toolchain. Attributes carry the
//! fidelity at which they enter the model, reproducing the paper's
//! refinement story: functions at the conceptual level, roles and protocols
//! at the architectural level, exact products and operating systems at the
//! implementation level. Querying the model at increasing fidelity yields
//! the increasingly vulnerability-heavy result spaces of §3.

use cpssec_model::{
    Attribute, AttributeKind, ChannelKind, ComponentKind, Criticality, Fidelity, SystemModel,
    SystemModelBuilder,
};

/// Component name constants, shared with
/// [`AttackScenario::target_component`](crate::AttackScenario::target_component).
pub mod names {
    /// The corporate network uplink (adversary entry point).
    pub const CORPORATE: &str = "Corporate network";
    /// The programming workstation.
    pub const WORKSTATION: &str = "Programming WS";
    /// The control firewall.
    pub const FIREWALL: &str = "Control firewall";
    /// The safety instrumented system platform.
    pub const SIS: &str = "SIS platform";
    /// The basic process control system platform.
    pub const BPCS: &str = "BPCS platform";
    /// The temperature probe.
    pub const TEMP_SENSOR: &str = "Temperature sensor";
    /// The centrifuge.
    pub const CENTRIFUGE: &str = "Centrifuge";
    /// The chiller.
    pub const COOLING: &str = "Cooling unit";
}

/// Builds the particle separation centrifuge model of Fig 1.
///
/// The returned model carries attributes at all three fidelity levels; use
/// [`SystemModel::at_fidelity`] to project it down for fidelity-sweep
/// experiments.
///
/// # Examples
///
/// ```
/// use cpssec_scada::model::{scada_model, names};
/// let model = scada_model();
/// assert_eq!(model.component_count(), 8);
/// assert!(model.component_by_name(names::SIS).is_some());
/// ```
#[must_use]
pub fn scada_model() -> SystemModel {
    SystemModelBuilder::new("particle-separation-centrifuge")
        .component_with(names::CORPORATE, ComponentKind::Network, |c| {
            c.with_entry_point(true).with_attribute(Attribute::new(
                AttributeKind::Function,
                "corporate IT network",
            ))
        })
        .component_with(names::WORKSTATION, ComponentKind::Workstation, |c| {
            c.with_criticality(Criticality::High)
                .with_attribute(Attribute::new(
                    AttributeKind::Function,
                    "centrifuge programming and operator monitoring",
                ))
                .with_attribute(
                    Attribute::new(AttributeKind::Product, "engineering workstation")
                        .at_fidelity(Fidelity::Architectural),
                )
                .with_attribute(
                    Attribute::new(AttributeKind::OperatingSystem, "Windows 7")
                        .at_fidelity(Fidelity::Implementation),
                )
                .with_attribute(
                    Attribute::new(AttributeKind::Software, "Labview")
                        .at_fidelity(Fidelity::Implementation),
                )
        })
        .component_with(names::FIREWALL, ComponentKind::Firewall, |c| {
            c.with_criticality(Criticality::High)
                .with_attribute(Attribute::new(
                    AttributeKind::Function,
                    "isolates the corporate network from the control network",
                ))
                .with_attribute(
                    Attribute::new(AttributeKind::Product, "industrial firewall appliance")
                        .at_fidelity(Fidelity::Architectural),
                )
                .with_attribute(
                    Attribute::new(AttributeKind::Product, "Cisco ASA")
                        .at_fidelity(Fidelity::Implementation),
                )
        })
        .component_with(names::SIS, ComponentKind::SafetySystem, |c| {
            c.with_criticality(Criticality::SafetyCritical)
                .with_attribute(Attribute::new(
                    AttributeKind::Function,
                    "redundant safety monitor for the centrifuge controller",
                ))
                .with_attribute(
                    Attribute::new(AttributeKind::Hardware, "safety controller")
                        .at_fidelity(Fidelity::Architectural),
                )
                .with_attribute(
                    Attribute::new(AttributeKind::Hardware, "NI cRIO 9063")
                        .at_fidelity(Fidelity::Implementation),
                )
                .with_attribute(
                    Attribute::new(AttributeKind::OperatingSystem, "NI RT Linux OS")
                        .at_fidelity(Fidelity::Implementation),
                )
        })
        .component_with(names::BPCS, ComponentKind::Controller, |c| {
            c.with_criticality(Criticality::SafetyCritical)
                .with_attribute(Attribute::new(
                    AttributeKind::Function,
                    "main centrifuge controller",
                ))
                .with_attribute(
                    Attribute::new(AttributeKind::Protocol, "MODBUS")
                        .at_fidelity(Fidelity::Architectural),
                )
                .with_attribute(
                    Attribute::new(AttributeKind::Hardware, "NI cRIO 9064")
                        .at_fidelity(Fidelity::Implementation),
                )
                .with_attribute(
                    Attribute::new(AttributeKind::OperatingSystem, "NI RT Linux OS")
                        .at_fidelity(Fidelity::Implementation),
                )
        })
        .component_with(names::TEMP_SENSOR, ComponentKind::Sensor, |c| {
            c.with_criticality(Criticality::High)
                .with_attribute(Attribute::new(
                    AttributeKind::Function,
                    "monitors the temperature of the solution",
                ))
                .with_attribute(
                    Attribute::new(
                        AttributeKind::Product,
                        "precision passive temperature probe",
                    )
                    .at_fidelity(Fidelity::Architectural),
                )
        })
        .component_with(names::CENTRIFUGE, ComponentKind::Actuator, |c| {
            c.with_criticality(Criticality::SafetyCritical)
                .with_attribute(Attribute::new(
                    AttributeKind::Function,
                    "particle separation by rotation",
                ))
                .with_attribute(
                    Attribute::new(
                        AttributeKind::Product,
                        "precision variable speed centrifuge",
                    )
                    .at_fidelity(Fidelity::Architectural),
                )
        })
        .component_with(names::COOLING, ComponentKind::Actuator, |c| {
            c.with_criticality(Criticality::High)
                .with_attribute(Attribute::new(
                    AttributeKind::Function,
                    "regulates the temperature of the solution",
                ))
                .with_attribute(
                    Attribute::new(AttributeKind::Product, "chiller unit")
                        .at_fidelity(Fidelity::Architectural),
                )
        })
        .channel(names::CORPORATE, names::WORKSTATION, ChannelKind::Ethernet)
        .channel(names::WORKSTATION, names::FIREWALL, ChannelKind::Ethernet)
        .channel(names::FIREWALL, names::BPCS, ChannelKind::Ethernet)
        .channel(names::FIREWALL, names::SIS, ChannelKind::Ethernet)
        .channel_with(
            names::BPCS,
            names::CENTRIFUGE,
            ChannelKind::Fieldbus,
            cpssec_model::Direction::Bidirectional,
            "drive command bus",
            vec![Attribute::new(AttributeKind::Protocol, "MODBUS")
                .at_fidelity(Fidelity::Architectural)],
        )
        .channel_with(
            names::BPCS,
            names::COOLING,
            ChannelKind::Fieldbus,
            cpssec_model::Direction::Bidirectional,
            "chiller command bus",
            vec![Attribute::new(AttributeKind::Protocol, "MODBUS")
                .at_fidelity(Fidelity::Architectural)],
        )
        .channel(names::BPCS, names::TEMP_SENSOR, ChannelKind::Analog)
        .channel(names::SIS, names::TEMP_SENSOR, ChannelKind::Analog)
        .channel(names::SIS, names::CENTRIFUGE, ChannelKind::Fieldbus)
        .channel(names::SIS, names::COOLING, ChannelKind::Fieldbus)
        .channel(names::CENTRIFUGE, names::TEMP_SENSOR, ChannelKind::Physical)
        .build()
        .expect("the reference model is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_has_the_fig1_topology() {
        let model = scada_model();
        assert_eq!(model.component_count(), 8);
        assert_eq!(model.channel_count(), 11);
        model.validate().unwrap();
    }

    #[test]
    fn entry_point_is_the_corporate_network() {
        let model = scada_model();
        let entries = model.entry_points();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            model.component(entries[0]).unwrap().name(),
            names::CORPORATE
        );
    }

    #[test]
    fn safety_critical_set_matches_the_paper() {
        let model = scada_model();
        let critical = model.components_at_criticality(Criticality::SafetyCritical);
        let names_found: Vec<&str> = critical
            .iter()
            .map(|id| model.component(*id).unwrap().name())
            .collect();
        assert!(names_found.contains(&names::SIS));
        assert!(names_found.contains(&names::BPCS));
        assert!(names_found.contains(&names::CENTRIFUGE));
    }

    #[test]
    fn table1_attributes_appear_at_implementation_fidelity() {
        let model = scada_model();
        let concrete = model.at_fidelity(Fidelity::Implementation);
        for (component, value) in [
            (names::FIREWALL, "Cisco ASA"),
            (names::WORKSTATION, "Windows 7"),
            (names::WORKSTATION, "Labview"),
            (names::SIS, "NI cRIO 9063"),
            (names::SIS, "NI RT Linux OS"),
            (names::BPCS, "NI cRIO 9064"),
        ] {
            let comp = concrete.component_by_name(component).unwrap();
            assert!(
                comp.attributes().iter().any(|a| a.value() == value),
                "{component} missing `{value}`"
            );
        }
    }

    #[test]
    fn conceptual_projection_hides_products() {
        let model = scada_model().at_fidelity(Fidelity::Conceptual);
        let ws = model.component_by_name(names::WORKSTATION).unwrap();
        assert!(ws.attributes().iter().all(|a| a.value() != "Windows 7"));
        assert!(ws.attributes().iter().any(|a| a.key() == "function"));
    }

    #[test]
    fn attack_paths_from_corporate_reach_the_centrifuge() {
        let model = scada_model();
        let entry = model.component_id(names::CORPORATE).unwrap();
        let target = model.component_id(names::CENTRIFUGE).unwrap();
        let path = model.shortest_path(entry, target).unwrap();
        // corporate -> WS -> firewall -> BPCS/SIS -> centrifuge
        assert_eq!(path.len(), 5);
    }

    #[test]
    fn attack_scenario_targets_exist_in_the_model() {
        let model = scada_model();
        for scenario in crate::attacks::all_scenarios() {
            assert!(
                model
                    .component_by_name(&scenario.target_component)
                    .is_some(),
                "scenario `{}` targets unknown component `{}`",
                scenario.name,
                scenario.target_component
            );
        }
    }

    #[test]
    fn graphml_round_trip_preserves_the_model() {
        let model = scada_model();
        let xml = cpssec_model::to_graphml(&model);
        let back = cpssec_model::from_graphml(&xml).unwrap();
        assert_eq!(back, model);
    }
}
