//! Attack scenarios: from matched attack vectors to physical consequences.
//!
//! Each scenario names the attack vectors it instantiates (CWE/CAPEC
//! identifiers as strings, so this crate stays decoupled from the corpus
//! crate), the model component it targets, and a list of concrete
//! [`AttackEffect`]s that [`Testbed`](crate::Testbed) interprets on either
//! plant when its harness is assembled. The paper's §3 narrative — CWE-78
//! command injection on the BPCS/SIS platforms "manifesting in destruction
//! of the manufactured product or damage to the centrifuge itself", and the
//! Triton incident "where malware was used to disable the safety systems" —
//! maps to [`command_injection_bpcs`], [`sis_disable_overtemp`] and friends.

use cpssec_sim::Tick;

use crate::addresses::{self, centrifuge, cooling, sis, temp_sensor};
use crate::workstation::ScheduledWrite;

/// One concrete effect of a scenario on the assembled system.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AttackEffect {
    /// Rewrite write requests to `(dst, address)` to carry `value`.
    ForceRegister {
        /// Target unit.
        dst: cpssec_sim::UnitId,
        /// Target register.
        address: u16,
        /// Forced value.
        value: u16,
        /// Active from this tick on.
        from: Tick,
    },
    /// Forge read responses from `(dst, address)` to return `value`.
    SpoofResponse {
        /// Spoofed unit.
        dst: cpssec_sim::UnitId,
        /// Spoofed register.
        address: u16,
        /// Forged value.
        value: u16,
        /// Active from this tick on.
        from: Tick,
    },
    /// Drop write requests to `dst`.
    DropWrites {
        /// Target unit.
        dst: cpssec_sim::UnitId,
        /// Active from this tick on.
        from: Tick,
    },
    /// Disable the control firewall entirely.
    DisableFirewall,
    /// Add a firewall rule allowing the operator station to write the
    /// safety controller (the engineering-access misconfiguration Triton
    /// exploited): workstation→SIS on the centrifuge, SCADA
    /// server→interlock on the water plant.
    AllowWorkstationToSis,
    /// Scripted writes from the (compromised) operator station; when a
    /// scenario lists several, the last one wins.
    CompromisedWorkstation(Vec<ScheduledWrite>),
}

/// A named attack scenario with its vector provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackScenario {
    /// Short stable identifier (e.g. `bpcs-command-injection`).
    pub name: String,
    /// Prose description of the attack story.
    pub description: String,
    /// Weakness identifiers this scenario instantiates (e.g. `CWE-78`).
    pub weakness_ids: Vec<String>,
    /// Attack pattern identifiers (e.g. `CAPEC-88`).
    pub pattern_ids: Vec<String>,
    /// The model component the attack lands on (must match a component
    /// name in [`crate::model::scada_model`]).
    pub target_component: String,
    /// Concrete effects on the assembled system.
    pub effects: Vec<AttackEffect>,
}

/// CWE-78 / CAPEC-88 — OS command injection on the BPCS platform.
///
/// "An upstream attacker may inject all or part of an operating system
/// command onto an externally influenced input for the BPCS … disrupting
/// or manipulating the platform's operation" (§3). At the bus level the
/// injected command manifests as the BPCS's set point writes to the
/// centrifuge being forced to an overspeed value. With the SIS armed, the
/// expected outcome is a safety trip and a ruined batch; the attack
/// demonstrates product loss, not a hazard.
#[must_use]
pub fn command_injection_bpcs(from: Tick) -> AttackScenario {
    command_injection_bpcs_with(from, 10_500)
}

/// [`command_injection_bpcs`] with an explicit forced set point —
/// the magnitude axis of Monte-Carlo sweeps.
#[must_use]
pub fn command_injection_bpcs_with(from: Tick, overspeed_rpm: u16) -> AttackScenario {
    AttackScenario {
        name: "bpcs-command-injection".into(),
        description: "injected OS command on the BPCS forces centrifuge set point writes \
                      to an overspeed value"
            .into(),
        weakness_ids: vec!["CWE-78".into(), "CWE-20".into()],
        pattern_ids: vec!["CAPEC-88".into(), "CAPEC-248".into()],
        target_component: "BPCS platform".into(),
        effects: vec![AttackEffect::ForceRegister {
            dst: addresses::CENTRIFUGE,
            address: centrifuge::SETPOINT_RPM,
            value: overspeed_rpm,
            from,
        }],
    }
}

/// CAPEC-441 / CWE-306 — Triton-style disable of the safety system, then
/// the same command injection as [`command_injection_bpcs`].
///
/// With the SIS disabled through the unauthenticated engineering write,
/// the overspeed proceeds unchecked: rotor destruction.
#[must_use]
pub fn command_injection_with_sis_disabled(disable_at: Tick, inject_from: Tick) -> AttackScenario {
    command_injection_with_sis_disabled_with(disable_at, inject_from, 10_500)
}

/// [`command_injection_with_sis_disabled`] with an explicit forced set
/// point — the magnitude axis of Monte-Carlo sweeps.
#[must_use]
pub fn command_injection_with_sis_disabled_with(
    disable_at: Tick,
    inject_from: Tick,
    overspeed_rpm: u16,
) -> AttackScenario {
    AttackScenario {
        name: "sis-disable-command-injection".into(),
        description: "compromised workstation disables the SIS through its engineering \
                      register, then injected commands overspeed the centrifuge"
            .into(),
        weakness_ids: vec!["CWE-306".into(), "CWE-78".into()],
        pattern_ids: vec!["CAPEC-441".into(), "CAPEC-88".into()],
        target_component: "SIS platform".into(),
        effects: vec![
            AttackEffect::AllowWorkstationToSis,
            AttackEffect::CompromisedWorkstation(vec![ScheduledWrite {
                at: disable_at,
                dst: addresses::SIS,
                address: sis::ENABLED,
                value: 0,
            }]),
            AttackEffect::ForceRegister {
                dst: addresses::CENTRIFUGE,
                address: centrifuge::SETPOINT_RPM,
                value: overspeed_rpm,
                from: inject_from,
            },
        ],
    }
}

/// CAPEC-441 / CWE-306 + CWE-400 — disable the SIS, then suppress cooling:
/// the solution overheats to instability (the paper's "explosion/fire").
#[must_use]
pub fn sis_disable_overtemp(disable_at: Tick, suppress_from: Tick) -> AttackScenario {
    AttackScenario {
        name: "sis-disable-overtemperature".into(),
        description: "Triton-style SIS disable followed by forcing the chiller command to \
                      zero; the solution heats past the instability threshold"
            .into(),
        weakness_ids: vec!["CWE-306".into(), "CWE-400".into()],
        pattern_ids: vec!["CAPEC-441".into(), "CAPEC-153".into()],
        target_component: "SIS platform".into(),
        effects: vec![
            AttackEffect::AllowWorkstationToSis,
            AttackEffect::CompromisedWorkstation(vec![ScheduledWrite {
                at: disable_at,
                dst: addresses::SIS,
                address: sis::ENABLED,
                value: 0,
            }]),
            AttackEffect::ForceRegister {
                dst: addresses::COOLING,
                address: cooling::COMMAND_PERMILLE,
                value: 0,
                from: suppress_from,
            },
        ],
    }
}

/// CAPEC-148 / CWE-311 — spoof the shared temperature probe at a benign
/// value; both the BPCS and the blind SIS act on falsified data while the
/// real temperature runs away.
#[must_use]
pub fn sensor_spoof(from: Tick) -> AttackScenario {
    sensor_spoof_with(from, 350)
}

/// [`sensor_spoof`] with an explicit forged reading (tenths of °C) —
/// the magnitude axis of Monte-Carlo sweeps.
#[must_use]
pub fn sensor_spoof_with(from: Tick, value_x10: u16) -> AttackScenario {
    AttackScenario {
        name: "temperature-sensor-spoof".into(),
        description: "adversary-in-the-middle forges the temperature probe readings at a \
                      constant in-window value; the thermal loop stops cooling and the SIS \
                      is blind to the excursion"
            .into(),
        weakness_ids: vec!["CWE-311".into(), "CWE-20".into()],
        pattern_ids: vec!["CAPEC-148".into(), "CAPEC-94".into()],
        target_component: "Temperature sensor".into(),
        effects: vec![AttackEffect::SpoofResponse {
            dst: addresses::TEMP_SENSOR,
            address: temp_sensor::TEMPERATURE_X10,
            value: value_x10,
            from,
        }],
    }
}

/// CAPEC-153 / CWE-20 — tamper the operator set point just beyond the
/// product tolerance: no hazard, but the batch is quietly ruined.
#[must_use]
pub fn setpoint_tamper(from: Tick) -> AttackScenario {
    setpoint_tamper_with(from, 8050)
}

/// [`setpoint_tamper`] with an explicit tampered set point — the
/// magnitude axis of Monte-Carlo sweeps.
#[must_use]
pub fn setpoint_tamper_with(from: Tick, setpoint_rpm: u16) -> AttackScenario {
    AttackScenario {
        name: "setpoint-tamper".into(),
        description: "operator set point writes are rewritten +50 rpm — inside every \
                      safety margin, outside the ±20 rpm product tolerance"
            .into(),
        weakness_ids: vec!["CWE-20".into()],
        pattern_ids: vec!["CAPEC-153".into()],
        target_component: "BPCS platform".into(),
        effects: vec![AttackEffect::ForceRegister {
            dst: addresses::BPCS,
            address: crate::addresses::bpcs::OPERATOR_SETPOINT_RPM,
            value: setpoint_rpm,
            from,
        }],
    }
}

/// CAPEC-125 / CWE-400 — denial of service on the chiller command path;
/// the SIS catches the excursion and trips (product lost, plant safe).
#[must_use]
pub fn cooling_dos(from: Tick) -> AttackScenario {
    AttackScenario {
        name: "cooling-dos".into(),
        description: "write requests to the cooling unit are flooded/dropped; temperature \
                      rises until the SIS trips the emergency stop"
            .into(),
        weakness_ids: vec!["CWE-400".into()],
        pattern_ids: vec!["CAPEC-125".into()],
        target_component: "BPCS platform".into(),
        effects: vec![AttackEffect::DropWrites {
            dst: addresses::COOLING,
            from,
        }],
    }
}

/// CAPEC-153 / CWE-20 — force the chiller to full: the solution never
/// reaches the separation window and the product comes out viscous.
#[must_use]
pub fn chiller_tamper(from: Tick) -> AttackScenario {
    chiller_tamper_with(from, 1000)
}

/// [`chiller_tamper`] with an explicit forced chiller command (per
/// mille) — the magnitude axis of Monte-Carlo sweeps.
#[must_use]
pub fn chiller_tamper_with(from: Tick, command_permille: u16) -> AttackScenario {
    AttackScenario {
        name: "chiller-tamper".into(),
        description: "chiller commands are forced to full capacity; the solution stays \
                      below the productive window and the batch is viscous"
            .into(),
        weakness_ids: vec!["CWE-20".into()],
        pattern_ids: vec!["CAPEC-153".into()],
        target_component: "BPCS platform".into(),
        effects: vec![AttackEffect::ForceRegister {
            dst: addresses::COOLING,
            address: cooling::COMMAND_PERMILLE,
            value: command_permille,
            from,
        }],
    }
}

/// Every built-in scenario, at its default timing, for sweeps and reports.
#[must_use]
pub fn all_scenarios() -> Vec<AttackScenario> {
    vec![
        command_injection_bpcs(Tick::new(3000)),
        command_injection_with_sis_disabled(Tick::new(100), Tick::new(3000)),
        sis_disable_overtemp(Tick::new(100), Tick::new(1500)),
        sensor_spoof(Tick::new(100)),
        setpoint_tamper(Tick::new(100)),
        cooling_dos(Tick::new(500)),
        chiller_tamper(Tick::new(100)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProductQuality, ScadaConfig, ScadaHarness};

    fn run(attack: &AttackScenario, ticks: u64) -> crate::BatchReport {
        let mut harness = ScadaHarness::with_attack(ScadaConfig::default(), attack);
        harness.run_batch_for(ticks)
    }

    #[test]
    fn command_injection_with_sis_armed_trips_safely() {
        let report = run(&command_injection_bpcs(cpssec_sim::Tick::new(3000)), 4010);
        assert!(report.emergency_stopped, "{report:?}");
        assert!(!report.exploded);
        assert_eq!(report.product, ProductQuality::RuinedSpeed);
        assert!(report.hazards.is_empty(), "SIS should trip before hazards");
    }

    #[test]
    fn command_injection_with_sis_disabled_destroys_the_rotor() {
        let report = run(
            &command_injection_with_sis_disabled(
                cpssec_sim::Tick::new(100),
                cpssec_sim::Tick::new(3000),
            ),
            4010,
        );
        assert!(!report.emergency_stopped, "SIS is disabled: {report:?}");
        assert_eq!(report.product, ProductQuality::Destroyed);
        assert!(report.hazards.iter().any(|h| h.hazard == "rotor-overspeed"));
    }

    #[test]
    fn sis_disable_overtemp_reaches_instability() {
        let report = run(
            &sis_disable_overtemp(cpssec_sim::Tick::new(100), cpssec_sim::Tick::new(1500)),
            12_000,
        );
        assert!(report.exploded, "{report:?}");
        assert_eq!(report.product, ProductQuality::Destroyed);
        assert!(report.hazards.iter().any(|h| h.hazard == "explosion"));
        assert!(report.max_temperature_c >= 60.0);
    }

    #[test]
    fn sensor_spoof_blinds_both_controllers() {
        let report = run(&sensor_spoof(cpssec_sim::Tick::new(100)), 12_000);
        // The SIS reads the same spoofed probe, so no trip happens and the
        // temperature runs away to instability.
        assert!(!report.emergency_stopped, "{report:?}");
        assert!(report.exploded);
        assert_eq!(report.product, ProductQuality::Destroyed);
    }

    #[test]
    fn setpoint_tamper_ruins_product_without_any_hazard() {
        let report = run(&setpoint_tamper(cpssec_sim::Tick::new(100)), 4010);
        assert_eq!(report.product, ProductQuality::RuinedSpeed, "{report:?}");
        assert!(report.hazards.is_empty());
        assert!(!report.emergency_stopped);
        // Deviation is ~50 rpm: beyond tolerance, inside safety margins.
        assert!(report.max_speed_deviation_rpm > 20.0);
        assert!(report.max_speed_deviation_rpm < 200.0);
    }

    #[test]
    fn cooling_dos_is_caught_by_the_sis() {
        // Start the denial of service during warm-up, while the chiller
        // command is still zero; the frozen command lets the temperature
        // run until the SIS trips.
        let report = run(&cooling_dos(cpssec_sim::Tick::new(500)), 12_000);
        assert!(report.emergency_stopped, "{report:?}");
        assert!(!report.exploded);
        assert_ne!(report.product, ProductQuality::Nominal);
    }

    #[test]
    fn chiller_tamper_makes_viscous_product() {
        let report = run(&chiller_tamper(cpssec_sim::Tick::new(100)), 4010);
        assert_eq!(report.product, ProductQuality::RuinedViscous, "{report:?}");
        assert!(report.hazards.is_empty());
    }

    #[test]
    fn scenarios_carry_vector_provenance() {
        for scenario in all_scenarios() {
            assert!(!scenario.weakness_ids.is_empty(), "{}", scenario.name);
            assert!(!scenario.pattern_ids.is_empty(), "{}", scenario.name);
            assert!(!scenario.target_component.is_empty());
            assert!(scenario.weakness_ids.iter().all(|w| w.starts_with("CWE-")));
            assert!(scenario.pattern_ids.iter().all(|p| p.starts_with("CAPEC-")));
        }
    }

    #[test]
    fn ws_to_sis_write_is_blocked_without_the_misconfiguration() {
        // Same malicious write, but without AllowWorkstationToSis: the
        // firewall holds and the SIS still trips on the overspeed.
        let mut attack = command_injection_with_sis_disabled(
            cpssec_sim::Tick::new(100),
            cpssec_sim::Tick::new(3000),
        );
        attack
            .effects
            .retain(|e| !matches!(e, AttackEffect::AllowWorkstationToSis));
        let report = run(&attack, 4010);
        assert!(
            report.emergency_stopped,
            "firewall should protect the SIS: {report:?}"
        );
        assert_ne!(report.product, ProductQuality::Destroyed);
    }
}
