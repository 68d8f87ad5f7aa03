//! Staged execution: run an [`AttackScenario`] as a multi-stage campaign.
//!
//! The fleet engine injects a scenario's effects at fixed ticks, as if
//! the adversary were already on the control network. Staged execution
//! instead walks the scenario down a *model path* — initial access at
//! the entry point, a pivot per intermediate component, actuation at the
//! target — using the kernel's [`StagedInjection`] API: each stage dwells
//! before the next, and the actuation stage is additionally gated on an
//! observed bus delivery to the target unit, so a firewall that denies
//! the path really does block the campaign (the injector layer never
//! sees denied traffic).
//!
//! [`run_staged`] runs on any [`Testbed`] through the same effect
//! interpreter the harnesses use, with one difference: every effect tick
//! is *rebased* so that the earliest effect fires at the planned
//! actuation tick and all relative gaps are preserved. Firewall effects
//! and operator-station writes apply when the harness is assembled; the
//! bus injectors are armed only once the actuation stage activates.

use cpssec_sim::{
    HazardEvent, Injector, Plant, Simulation, Stage, StageTrigger, StagedInjection, Tick, UnitId,
};

use crate::attacks::AttackScenario;
use crate::system::{ScadaConfig, ScadaHarness};
use crate::testbed::{Armed, Testbed};
use crate::water::{WaterConfig, WaterHarness};
use crate::{CentrifugePlant, WaterPlant};

/// How a staged campaign run is laid out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedSpec {
    /// Component names from the entry point to the target, inclusive.
    pub path: Vec<String>,
    /// Ticks an adversary dwells on each foothold before moving on.
    pub dwell: u64,
    /// Simulation horizon, ticks.
    pub max_ticks: u64,
    /// Sensor-noise seed for this run.
    pub sensor_seed: u64,
}

impl StagedSpec {
    /// A spec over a model path with the default dwell (200 ticks),
    /// horizon (6000 ticks), and seed.
    #[must_use]
    pub fn new(path: Vec<String>) -> Self {
        StagedSpec {
            path,
            dwell: 200,
            max_ticks: 6000,
            sensor_seed: 42,
        }
    }

    /// Overrides the per-stage dwell.
    #[must_use]
    pub fn with_dwell(mut self, dwell: u64) -> Self {
        self.dwell = dwell.max(1);
        self
    }

    /// Overrides the simulation horizon.
    #[must_use]
    pub fn with_max_ticks(mut self, max_ticks: u64) -> Self {
        self.max_ticks = max_ticks;
        self
    }

    /// Overrides the sensor-noise seed.
    #[must_use]
    pub fn with_sensor_seed(mut self, seed: u64) -> Self {
        self.sensor_seed = seed;
        self
    }

    /// The tick at which the actuation stage is planned to fire when no
    /// stage is blocked: one dwell per path component.
    #[must_use]
    pub fn planned_actuate(&self) -> u64 {
        self.dwell.saturating_mul(self.path.len().max(1) as u64)
    }
}

/// The outcome of one staged campaign run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedOutcome {
    /// The scenario that was executed.
    pub scenario: String,
    /// Stage names, in plan order.
    pub stages: Vec<String>,
    /// Activation tick per stage; `None` for stages that never fired.
    pub activations: Vec<Option<u64>>,
    /// The first hazard that fired, if any.
    pub hazard: Option<HazardEvent>,
    /// Whether the safety system placed the plant in its safe state.
    pub emergency_stopped: bool,
    /// Ticks executed.
    pub ticks: u64,
}

impl StagedOutcome {
    /// Whether the campaign reached a physical hazard.
    #[must_use]
    pub fn reached_hazard(&self) -> bool {
        self.hazard.is_some()
    }

    /// Index of the first stage that never activated, if any.
    #[must_use]
    pub fn first_blocked(&self) -> Option<usize> {
        self.activations.iter().position(Option::is_none)
    }

    /// The tick at which the actuation (final) stage fired, if it did.
    #[must_use]
    pub fn actuate_tick(&self) -> Option<u64> {
        self.activations.last().copied().flatten()
    }

    /// Ticks from actuation to the first hazard, when both happened.
    #[must_use]
    pub fn time_to_hazard(&self) -> Option<u64> {
        let hazard_at = self.hazard.as_ref()?.at.count();
        Some(hazard_at.saturating_sub(self.actuate_tick()?))
    }
}

/// Arms `attack` on `testbed` with every effect tick rebased so that
/// the earliest lands on `actuate` and all relative gaps are kept.
fn arm_rebased(testbed: Testbed, attack: &AttackScenario, actuate: u64) -> Armed {
    // The interpreter visits exactly the ticks the effects name, so an
    // identity pass finds the earliest (and with none, it is never read).
    let mut earliest = u64::MAX;
    testbed.arm(Some(attack), |t| {
        earliest = earliest.min(t.count());
        t
    });
    testbed.arm(Some(attack), |t| {
        Tick::new(t.count().saturating_sub(earliest).saturating_add(actuate))
    })
}

/// Builds the staged injection for a path: initial access at the entry,
/// one pivot per intermediate component, actuation at the target gated
/// on an observed delivery to `target_unit` (when the target is a bus
/// station).
fn build_staged(
    name: &str,
    spec: &StagedSpec,
    target_unit: Option<UnitId>,
    mut effects: Vec<Box<dyn Injector + Send>>,
) -> StagedInjection {
    let mut stages = Vec::new();
    let last = spec.path.len().saturating_sub(1);
    for (i, component) in spec.path.iter().enumerate() {
        let trigger = if i == 0 {
            StageTrigger::AtTick(Tick::new(spec.dwell))
        } else {
            StageTrigger::AfterPrevious { dwell: spec.dwell }
        };
        let label = if i == 0 {
            format!("initial-access:{component}")
        } else if i == last {
            format!("actuate:{component}")
        } else {
            format!("pivot:{component}")
        };
        let mut stage = Stage::new(label, trigger);
        if i == last {
            if let Some(unit) = target_unit {
                stage = stage.require_delivery_to(unit);
            }
            for effect in std::mem::take(&mut effects) {
                stage = stage.with_effect(effect);
            }
        }
        stages.push(stage);
    }
    StagedInjection::new(name.to_owned(), stages)
}

/// Adds the staged injection last, runs the horizon, and returns the
/// first hazard and whether the plant ended in its safe state.
fn run_to<P: Plant>(
    sim: &mut Simulation<P>,
    staged: StagedInjection,
    ticks: u64,
    stopped: fn(&P) -> bool,
) -> (Option<HazardEvent>, bool) {
    sim.add_injector(staged);
    sim.run(ticks);
    (sim.hazards().first().cloned(), stopped(sim.plant()))
}

/// Runs a scenario as a staged campaign on a testbed.
#[must_use]
pub fn run_staged(testbed: Testbed, attack: &AttackScenario, spec: &StagedSpec) -> StagedOutcome {
    let mut armed = arm_rebased(testbed, attack, spec.planned_actuate());
    let target_unit = spec.path.last().and_then(|c| testbed.unit_for_component(c));
    let staged = build_staged(
        &attack.name,
        spec,
        target_unit,
        std::mem::take(&mut armed.injectors),
    );
    let log = staged.log();
    let (hazard, emergency_stopped) = match testbed {
        Testbed::Centrifuge => {
            let config = ScadaConfig {
                sensor_seed: spec.sensor_seed,
                ..ScadaConfig::default()
            };
            let mut harness = ScadaHarness::build(config, armed, None);
            run_to(
                harness.sim_mut(),
                staged,
                spec.max_ticks,
                CentrifugePlant::is_stopped,
            )
        }
        Testbed::Water => {
            let config = WaterConfig {
                sensor_seed: spec.sensor_seed,
                ..WaterConfig::default()
            };
            let mut harness = WaterHarness::build(config, armed);
            run_to(
                harness.sim_mut(),
                staged,
                spec.max_ticks,
                WaterPlant::is_stopped,
            )
        }
    };
    StagedOutcome {
        scenario: attack.name.clone(),
        stages: (0..log.stage_count())
            .map(|i| log.stage_name(i).to_owned())
            .collect(),
        activations: log.activation_ticks(),
        hazard,
        emergency_stopped,
        ticks: spec.max_ticks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::{self, AttackEffect};
    use crate::model::names as cnames;
    use crate::water::names as wnames;

    fn bpcs_path() -> Vec<String> {
        [
            cnames::CORPORATE,
            cnames::WORKSTATION,
            cnames::FIREWALL,
            cnames::BPCS,
        ]
        .map(str::to_owned)
        .to_vec()
    }

    fn sis_path() -> Vec<String> {
        [
            cnames::CORPORATE,
            cnames::WORKSTATION,
            cnames::FIREWALL,
            cnames::SIS,
        ]
        .map(str::to_owned)
        .to_vec()
    }

    #[test]
    fn sis_armed_command_injection_is_contained() {
        let attack = attacks::command_injection_bpcs(Tick::new(3000));
        let outcome = run_staged(Testbed::Centrifuge, &attack, &StagedSpec::new(bpcs_path()));
        assert_eq!(outcome.first_blocked(), None, "{outcome:?}");
        assert!(outcome.emergency_stopped, "SIS should trip");
        assert!(!outcome.reached_hazard());
        // All four stages fired, one dwell apart until the gated actuate.
        assert_eq!(outcome.activations.len(), 4);
        assert_eq!(outcome.activations[0], Some(200));
        assert_eq!(outcome.activations[1], Some(400));
    }

    #[test]
    fn sis_disabled_command_injection_reaches_the_hazard() {
        let attack = attacks::command_injection_with_sis_disabled(Tick::new(100), Tick::new(3000));
        let outcome = run_staged(Testbed::Centrifuge, &attack, &StagedSpec::new(sis_path()));
        assert_eq!(outcome.first_blocked(), None, "{outcome:?}");
        assert!(outcome.reached_hazard(), "{outcome:?}");
        let ttm = outcome.time_to_hazard().unwrap();
        assert!(ttm > 0, "hazard after actuation: {outcome:?}");
    }

    #[test]
    fn firewall_blocks_the_actuation_stage_without_the_misconfiguration() {
        let mut attack =
            attacks::command_injection_with_sis_disabled(Tick::new(100), Tick::new(3000));
        attack
            .effects
            .retain(|e| !matches!(e, AttackEffect::AllowWorkstationToSis));
        let outcome = run_staged(Testbed::Centrifuge, &attack, &StagedSpec::new(sis_path()));
        // No delivery to the SIS is ever observed, so the gated actuate
        // stage never fires and the plan is blocked at its last stage.
        assert_eq!(outcome.first_blocked(), Some(3), "{outcome:?}");
        assert!(!outcome.reached_hazard());
    }

    #[test]
    fn staged_water_dos_reaches_pathogen_breakthrough() {
        let attack = crate::water::dosing_dos(Tick::new(500));
        let path = [
            wnames::BUSINESS,
            wnames::FIREWALL,
            wnames::SCADA_SERVER,
            wnames::PLC,
        ]
        .map(str::to_owned)
        .to_vec();
        let outcome = run_staged(Testbed::Water, &attack, &StagedSpec::new(path));
        assert_eq!(outcome.first_blocked(), None, "{outcome:?}");
        assert!(outcome.reached_hazard(), "{outcome:?}");
        assert_eq!(
            outcome.hazard.as_ref().unwrap().hazard,
            "pathogen-breakthrough"
        );
    }

    #[test]
    fn staged_water_command_injection_is_contained_by_the_interlock() {
        let attack = crate::water::dosing_command_injection(Tick::new(3000));
        let path = [
            wnames::BUSINESS,
            wnames::FIREWALL,
            wnames::SCADA_SERVER,
            wnames::PLC,
        ]
        .map(str::to_owned)
        .to_vec();
        let outcome = run_staged(Testbed::Water, &attack, &StagedSpec::new(path));
        assert_eq!(outcome.first_blocked(), None, "{outcome:?}");
        assert!(!outcome.reached_hazard(), "{outcome:?}");
        assert!(outcome.emergency_stopped, "interlock should trip");
    }

    #[test]
    fn staged_runs_are_deterministic() {
        let attack = attacks::command_injection_with_sis_disabled(Tick::new(100), Tick::new(3000));
        let spec = StagedSpec::new(sis_path());
        let a = run_staged(Testbed::Centrifuge, &attack, &spec);
        let b = run_staged(Testbed::Centrifuge, &attack, &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn rebasing_preserves_relative_gaps() {
        let attack = attacks::command_injection_with_sis_disabled(Tick::new(100), Tick::new(3000));
        let actuate = 800;
        let armed = arm_rebased(Testbed::Centrifuge, &attack, actuate);
        // Disable write was the earliest effect (tick 100): lands at the
        // planned actuation tick; the injection keeps its 2900-tick gap.
        assert_eq!(armed.writes[0].at.count(), actuate);
        assert_eq!(armed.injectors.len(), 1);
    }
}
