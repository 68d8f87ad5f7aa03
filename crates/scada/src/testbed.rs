//! The testbed table: every plant this crate runs, described once.
//!
//! A [`Testbed`] gives its system model, its attack scenario library,
//! the bus unit of each model component, and the units that play the
//! operator, controller, safety and field roles. The firewall
//! (`Testbed::firewall`), the one attack-effect interpreter
//! (`Testbed::arm`, shared by both harnesses and the staged runner) and
//! [`run_staged`](crate::staged::run_staged) read this table instead of
//! matching on the plant. A new testbed is one arm per `match` here plus
//! its plant and harness.

use core::fmt;

use cpssec_model::SystemModel;
use cpssec_sim::{
    DropMatching, Firewall, FirewallAction, FirewallRule, Injector, RegisterOverride,
    ResponseOverride, Tick, TickWindow, UnitId,
};

use crate::addresses;
use crate::attacks::{AttackEffect, AttackScenario};
use crate::model::names as cnames;
use crate::water::{names as wnames, units};
use crate::workstation::ScheduledWrite;

/// Which testbed a campaign compiles against and runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Testbed {
    /// The particle separation centrifuge (the paper's §3 system).
    Centrifuge,
    /// The chlorine dosing loop of the water-treatment plant.
    Water,
}

/// The bus units that play each role on a testbed's control network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UnitRoles {
    /// The operator station: the adversary's foothold on the control
    /// network, and the only station allowed to command the controller.
    pub(crate) operator: UnitId,
    /// The process controller.
    pub(crate) controller: UnitId,
    /// The safety controller.
    pub(crate) safety: UnitId,
    /// The field devices both controllers reach, in rule order.
    pub(crate) field: &'static [UnitId],
}

/// A scenario's effects resolved against one testbed: the firewall the
/// harness installs, the bus injectors in effect order, and the writes
/// the compromised operator station replays.
pub(crate) struct Armed {
    pub(crate) firewall: Firewall,
    pub(crate) injectors: Vec<Box<dyn Injector + Send>>,
    pub(crate) writes: Vec<ScheduledWrite>,
}

fn allow(src: UnitId, dst: UnitId) -> FirewallRule {
    FirewallRule::any(FirewallAction::Allow)
        .from_src(src)
        .to_dst(dst)
}

impl Testbed {
    /// Every testbed, in canonical order.
    pub const ALL: [Testbed; 2] = [Testbed::Centrifuge, Testbed::Water];

    /// Canonical name — matches the built-in model ids the server and
    /// CLI use ("scada", "water").
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Testbed::Centrifuge => "scada",
            Testbed::Water => "water",
        }
    }

    /// Parses a canonical name back to a testbed.
    #[must_use]
    pub fn parse(name: &str) -> Option<Testbed> {
        Testbed::ALL.into_iter().find(|t| t.as_str() == name)
    }

    /// The testbed's system model.
    #[must_use]
    pub fn model(self) -> SystemModel {
        match self {
            Testbed::Centrifuge => crate::model::scada_model(),
            Testbed::Water => crate::water::water_model(),
        }
    }

    /// The testbed's attack scenario library, in lookup order.
    #[must_use]
    pub fn scenario_library(self) -> Vec<AttackScenario> {
        match self {
            Testbed::Centrifuge => crate::attacks::all_scenarios(),
            Testbed::Water => crate::water::all_water_scenarios(),
        }
    }

    /// Model components that are bus stations, with their units.
    fn stations(self) -> &'static [(&'static str, UnitId)] {
        match self {
            Testbed::Centrifuge => &[
                (cnames::WORKSTATION, addresses::WORKSTATION),
                (cnames::SIS, addresses::SIS),
                (cnames::BPCS, addresses::BPCS),
                (cnames::TEMP_SENSOR, addresses::TEMP_SENSOR),
                (cnames::CENTRIFUGE, addresses::CENTRIFUGE),
                (cnames::COOLING, addresses::COOLING),
            ],
            Testbed::Water => &[
                (wnames::SCADA_SERVER, units::SCADA_SERVER),
                (wnames::INTERLOCK, units::INTERLOCK),
                (wnames::PLC, units::DOSING_PLC),
                (wnames::RESIDUAL, units::RESIDUAL_SENSOR),
                (wnames::PUMP, units::DOSING_PUMP),
            ],
        }
    }

    /// Maps a model component name to its bus unit, when it has one
    /// (network fabric such as an uplink or a firewall is not a bus
    /// station).
    #[must_use]
    pub fn unit_for_component(self, component: &str) -> Option<UnitId> {
        self.stations()
            .iter()
            .find(|(name, _)| *name == component)
            .map(|&(_, unit)| unit)
    }

    /// Which unit plays which role on the control network.
    #[must_use]
    pub(crate) fn roles(self) -> UnitRoles {
        match self {
            Testbed::Centrifuge => UnitRoles {
                operator: addresses::WORKSTATION,
                controller: addresses::BPCS,
                safety: addresses::SIS,
                field: &[
                    addresses::TEMP_SENSOR,
                    addresses::CENTRIFUGE,
                    addresses::COOLING,
                ],
            },
            Testbed::Water => UnitRoles {
                operator: units::SCADA_SERVER,
                controller: units::DOSING_PLC,
                safety: units::INTERLOCK,
                field: &[units::RESIDUAL_SENSOR, units::DOSING_PUMP],
            },
        }
    }

    /// The control-network firewall: the operator station may reach the
    /// controller, both controllers may reach every field device, and
    /// everything else is denied.
    pub(crate) fn firewall(self) -> Firewall {
        let roles = self.roles();
        let mut firewall =
            Firewall::new(FirewallAction::Deny).with_rule(allow(roles.operator, roles.controller));
        for controller in [roles.controller, roles.safety] {
            for &field in roles.field {
                firewall = firewall.with_rule(allow(controller, field));
            }
        }
        firewall
    }

    /// Interprets a scenario on this testbed, passing every effect tick
    /// through `tick`. Bus effects become injectors in effect order;
    /// `DisableFirewall` and `AllowWorkstationToSis` edit
    /// `Testbed::firewall`; the last `CompromisedWorkstation` scripts
    /// the operator station. `None` arms the nominal system.
    pub(crate) fn arm(
        self,
        attack: Option<&AttackScenario>,
        mut tick: impl FnMut(Tick) -> Tick,
    ) -> Armed {
        let mut armed = Armed {
            firewall: self.firewall(),
            injectors: Vec::new(),
            writes: Vec::new(),
        };
        let Some(attack) = attack else {
            return armed;
        };
        let name = || attack.name.clone();
        for effect in &attack.effects {
            match effect {
                AttackEffect::ForceRegister {
                    dst,
                    address,
                    value,
                    from,
                } => armed.injectors.push(Box::new(RegisterOverride::new(
                    name(),
                    TickWindow::from(tick(*from)),
                    *dst,
                    *address,
                    *value,
                ))),
                AttackEffect::SpoofResponse {
                    dst,
                    address,
                    value,
                    from,
                } => armed.injectors.push(Box::new(ResponseOverride::new(
                    name(),
                    TickWindow::from(tick(*from)),
                    *dst,
                    *address,
                    *value,
                ))),
                AttackEffect::DropWrites { dst, from } => armed.injectors.push(Box::new(
                    DropMatching::new(name(), TickWindow::from(tick(*from)), Some(*dst))
                        .writes_only(),
                )),
                AttackEffect::DisableFirewall => armed.firewall.set_enabled(false),
                AttackEffect::AllowWorkstationToSis => {
                    let roles = self.roles();
                    // Prepend so it wins over the default-deny evaluation order.
                    armed.firewall = Firewall::new(FirewallAction::Deny)
                        .with_rule(allow(roles.operator, roles.safety))
                        .merged_with(armed.firewall);
                }
                AttackEffect::CompromisedWorkstation(writes) => {
                    armed.writes = writes
                        .iter()
                        .map(|w| ScheduledWrite {
                            at: tick(w.at),
                            ..w.clone()
                        })
                        .collect();
                }
            }
        }
        armed
    }
}

impl fmt::Display for Testbed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_sim::BusRequest;

    #[test]
    fn testbed_names_round_trip() {
        for testbed in Testbed::ALL {
            assert_eq!(Testbed::parse(testbed.as_str()), Some(testbed));
        }
        assert_eq!(Testbed::parse("centrifuge"), None);
    }

    #[test]
    fn every_station_is_a_model_component_and_every_role_a_station() {
        for testbed in Testbed::ALL {
            let model = testbed.model();
            let units: Vec<UnitId> = testbed.stations().iter().map(|&(_, u)| u).collect();
            for (component, _) in testbed.stations() {
                assert!(model.component_id(component).is_some(), "{component}");
            }
            let roles = testbed.roles();
            for unit in [roles.operator, roles.controller, roles.safety]
                .iter()
                .chain(roles.field)
            {
                assert!(units.contains(unit), "{testbed}: {unit:?}");
            }
        }
    }

    #[test]
    fn engineering_access_opens_exactly_the_operator_to_safety_pair() {
        let misconfigured = AttackScenario {
            name: "engineering-access".into(),
            description: String::new(),
            weakness_ids: Vec::new(),
            pattern_ids: Vec::new(),
            target_component: String::new(),
            effects: vec![AttackEffect::AllowWorkstationToSis],
        };
        for testbed in Testbed::ALL {
            let roles = testbed.roles();
            let write = |src, dst| BusRequest::write(src, dst, 1, 0);
            let nominal = testbed.arm(None, |t| t).firewall;
            let open = testbed.arm(Some(&misconfigured), |t| t).firewall;
            assert_eq!(
                nominal.decide(&write(roles.operator, roles.safety)),
                FirewallAction::Deny
            );
            assert_eq!(
                open.decide(&write(roles.operator, roles.safety)),
                FirewallAction::Allow
            );
            // Nothing else moved: the controller still cannot reach the
            // safety controller, the operator still reaches the controller.
            for (src, dst) in [
                (roles.controller, roles.safety),
                (roles.operator, roles.controller),
            ] {
                assert_eq!(
                    nominal.decide(&write(src, dst)),
                    open.decide(&write(src, dst))
                );
            }
        }
    }
}
