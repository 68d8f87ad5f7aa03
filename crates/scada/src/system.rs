//! Assembly of the complete SCADA system and batch execution.

use core::fmt;

use cpssec_sim::{HazardEvent, HazardMonitor, Simulation, Tick};

use crate::attacks::AttackScenario;
use crate::bpcs::Bpcs;
use crate::devices::{CentrifugeDrive, CoolingUnit, TemperatureSensor};
use crate::faults::{FaultMode, FaultScenario, FaultScheduler, SensorFaultInjector};
use crate::physics::CentrifugePlant;
use crate::sis::Sis;
use crate::testbed::{Armed, Testbed};
use crate::workstation::Workstation;

/// Configuration of one batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScadaConfig {
    /// Kernel step, seconds.
    pub dt: f64,
    /// Operator speed set point, rpm.
    pub setpoint_rpm: u16,
    /// Tick at which the workstation starts the batch.
    pub batch_start: Tick,
    /// Ticks allowed for ramp-up and thermal settling before product
    /// quality is measured.
    pub settle_ticks: u64,
    /// Ticks of the quality-measurement window.
    pub measure_ticks: u64,
    /// Seed for the temperature sensor noise.
    pub sensor_seed: u64,
    /// Whether the control firewall enforces its rules.
    pub firewall_enabled: bool,
}

impl Default for ScadaConfig {
    fn default() -> Self {
        ScadaConfig {
            dt: 0.1,
            setpoint_rpm: 8000,
            batch_start: Tick::new(10),
            settle_ticks: 2500,
            measure_ticks: 1500,
            sensor_seed: 42,
            firewall_enabled: true,
        }
    }
}

impl ScadaConfig {
    /// Total ticks of one batch run.
    #[must_use]
    pub fn total_ticks(&self) -> u64 {
        self.batch_start.count() + self.settle_ticks + self.measure_ticks
    }
}

/// The quality of the separated product after a batch, per the paper's
/// envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProductQuality {
    /// Speed within ±20 rpm and temperature inside the window throughout
    /// the measurement window.
    Nominal,
    /// Rotor speed deviated beyond ±20 rpm of the set point ("the resultant
    /// product is not useful").
    RuinedSpeed,
    /// Temperature fell below the window ("the separation will not be
    /// productive and the result is a viscous product").
    RuinedViscous,
    /// Temperature exceeded the window without reaching instability.
    RuinedUnstable,
    /// The solution went unstable or the rotor overspeeded — physical
    /// destruction ("explosion/fire", damage to the centrifuge).
    Destroyed,
}

impl ProductQuality {
    /// Canonical lowercase name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ProductQuality::Nominal => "nominal",
            ProductQuality::RuinedSpeed => "ruined-speed",
            ProductQuality::RuinedViscous => "ruined-viscous",
            ProductQuality::RuinedUnstable => "ruined-unstable",
            ProductQuality::Destroyed => "destroyed",
        }
    }
}

impl fmt::Display for ProductQuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The outcome of one batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Product quality classification.
    pub product: ProductQuality,
    /// Hazard events that fired during the run.
    pub hazards: Vec<HazardEvent>,
    /// Whether the emergency stop engaged (the SIS trip path).
    pub emergency_stopped: bool,
    /// Whether the solution went unstable.
    pub exploded: bool,
    /// Highest temperature over the whole run, °C.
    pub max_temperature_c: f64,
    /// Lowest temperature inside the measurement window, °C.
    pub window_min_temperature_c: f64,
    /// Highest temperature inside the measurement window, °C.
    pub window_max_temperature_c: f64,
    /// Largest |speed − set point| inside the measurement window, rpm.
    pub max_speed_deviation_rpm: f64,
    /// Ticks executed.
    pub ticks: u64,
}

/// The assembled SCADA system: plant, six stations, firewall, monitors.
pub struct ScadaHarness {
    sim: Simulation<CentrifugePlant>,
    config: ScadaConfig,
}

impl ScadaHarness {
    /// Builds the nominal system (no attack, no fault).
    #[must_use]
    pub fn new(config: ScadaConfig) -> Self {
        ScadaHarness::build(config, Testbed::Centrifuge.arm(None, |t| t), None)
    }

    /// Builds the system with an attack scenario applied.
    #[must_use]
    pub fn with_attack(config: ScadaConfig, attack: &AttackScenario) -> Self {
        ScadaHarness::build(config, Testbed::Centrifuge.arm(Some(attack), |t| t), None)
    }

    /// Builds the system with an intrinsic fault scenario applied.
    #[must_use]
    pub fn with_fault(config: ScadaConfig, fault: &FaultScenario) -> Self {
        ScadaHarness::build(config, Testbed::Centrifuge.arm(None, |t| t), Some(fault))
    }

    /// Builds the system around an armed scenario (see [`Testbed`]): its
    /// injectors first, then the fault, the firewall, the six stations,
    /// the monitors and the probes.
    pub(crate) fn build(config: ScadaConfig, armed: Armed, fault: Option<&FaultScenario>) -> Self {
        let mut sim = Simulation::new(CentrifugePlant::new(), config.dt);
        for injector in armed.injectors {
            sim.add_boxed_injector(injector);
        }
        let mut chiller_events = Vec::new();
        for mode in fault.iter().flat_map(|f| &f.faults) {
            match *mode {
                FaultMode::StuckTemperatureProbe { value_x10, from } => {
                    sim.add_injector(SensorFaultInjector::stuck(value_x10, from));
                }
                FaultMode::DriftingTemperatureProbe {
                    rate_x10_per_tick,
                    from,
                } => sim.add_injector(SensorFaultInjector::drifting(rate_x10_per_tick, from)),
                FaultMode::ChillerDegradation { efficiency, from } => {
                    chiller_events.push((from, efficiency));
                }
            }
        }
        if !chiller_events.is_empty() {
            sim.add_device(FaultScheduler::new(chiller_events));
        }
        let mut firewall = armed.firewall;
        if !config.firewall_enabled {
            firewall.set_enabled(false);
        }
        sim.set_firewall(firewall);

        sim.add_device(TemperatureSensor::new(config.sensor_seed));
        sim.add_device(CentrifugeDrive::new(config.dt));
        sim.add_device(CoolingUnit::new());
        sim.add_device(Sis::new());
        sim.add_device(Bpcs::new(config.dt));
        sim.add_device(
            Workstation::new(Workstation::standard_recipe(
                config.batch_start,
                config.setpoint_rpm,
            ))
            .with_malicious_writes(armed.writes),
        );

        sim.add_monitor(HazardMonitor::new("explosion", |p: &CentrifugePlant| {
            p.has_exploded()
        }));
        sim.add_monitor(HazardMonitor::new(
            "overtemperature",
            |p: &CentrifugePlant| p.temperature_c() >= 50.0,
        ));
        sim.add_monitor(HazardMonitor::new(
            "rotor-overspeed",
            |p: &CentrifugePlant| p.speed_rpm() >= 10_200.0,
        ));

        sim.probe("temperature_c", CentrifugePlant::temperature_c);
        sim.probe("speed_rpm", CentrifugePlant::speed_rpm);
        sim.probe("cooling", CentrifugePlant::cooling);
        sim.probe("drive", CentrifugePlant::drive);

        ScadaHarness { sim, config }
    }

    /// The underlying simulation (plant state, bus log, trace).
    #[must_use]
    pub fn sim(&self) -> &Simulation<CentrifugePlant> {
        &self.sim
    }

    /// Mutable access to the underlying simulation.
    pub fn sim_mut(&mut self) -> &mut Simulation<CentrifugePlant> {
        &mut self.sim
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ScadaConfig {
        &self.config
    }

    /// Runs one full batch and classifies the outcome.
    pub fn run_batch(&mut self) -> BatchReport {
        self.run_batch_for(self.config.total_ticks())
    }

    /// Runs for an explicit number of ticks (≥ the configured total when a
    /// scenario needs extra time to reach its consequence) and classifies
    /// the outcome. The quality window is the final
    /// [`measure_ticks`](ScadaConfig::measure_ticks) of the run.
    pub fn run_batch_for(&mut self, ticks: u64) -> BatchReport {
        let window_start = ticks.saturating_sub(self.config.measure_ticks);
        let setpoint = f64::from(self.config.setpoint_rpm);
        let mut max_temperature_c = f64::NEG_INFINITY;
        let mut window_min_temperature_c = f64::INFINITY;
        let mut window_max_temperature_c = f64::NEG_INFINITY;
        let mut max_speed_deviation_rpm: f64 = 0.0;

        for tick in 0..ticks {
            self.sim.step();
            let plant = self.sim.plant();
            max_temperature_c = max_temperature_c.max(plant.temperature_c());
            if tick >= window_start {
                window_min_temperature_c = window_min_temperature_c.min(plant.temperature_c());
                window_max_temperature_c = window_max_temperature_c.max(plant.temperature_c());
                max_speed_deviation_rpm =
                    max_speed_deviation_rpm.max((plant.speed_rpm() - setpoint).abs());
            }
        }

        let plant = self.sim.plant();
        let overspeed = self
            .sim
            .hazards()
            .iter()
            .any(|h| h.hazard == "rotor-overspeed");
        let product = if plant.has_exploded() || overspeed {
            ProductQuality::Destroyed
        } else if max_speed_deviation_rpm > 20.0 {
            ProductQuality::RuinedSpeed
        } else if window_min_temperature_c < CentrifugePlant::WINDOW_LOW_C {
            ProductQuality::RuinedViscous
        } else if window_max_temperature_c > CentrifugePlant::WINDOW_HIGH_C {
            ProductQuality::RuinedUnstable
        } else {
            ProductQuality::Nominal
        };

        BatchReport {
            product,
            hazards: self.sim.hazards().to_vec(),
            emergency_stopped: plant.is_stopped(),
            exploded: plant.has_exploded(),
            max_temperature_c,
            window_min_temperature_c,
            window_max_temperature_c,
            max_speed_deviation_rpm,
            ticks,
        }
    }
}

impl fmt::Debug for ScadaHarness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScadaHarness")
            .field("config", &self.config)
            .field("now", &self.sim.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addresses;
    use cpssec_sim::FirewallAction;

    #[test]
    fn nominal_batch_is_nominal() {
        let mut harness = ScadaHarness::new(ScadaConfig::default());
        let report = harness.run_batch();
        assert_eq!(report.product, ProductQuality::Nominal, "{report:?}");
        assert!(report.hazards.is_empty());
        assert!(!report.emergency_stopped);
        assert!(report.max_speed_deviation_rpm < 20.0);
        assert!(report.window_min_temperature_c >= CentrifugePlant::WINDOW_LOW_C);
        assert!(report.window_max_temperature_c <= CentrifugePlant::WINDOW_HIGH_C);
    }

    #[test]
    fn nominal_speed_regulation_is_tight() {
        let mut harness = ScadaHarness::new(ScadaConfig::default());
        let report = harness.run_batch();
        // The drive spec is ±1 rpm; allow a little for sensor/loop latency.
        assert!(
            report.max_speed_deviation_rpm < 5.0,
            "deviation {}",
            report.max_speed_deviation_rpm
        );
    }

    #[test]
    fn batch_is_deterministic() {
        let run = || {
            let mut harness = ScadaHarness::new(ScadaConfig::default());
            harness.run_batch()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_sensor_seed_changes_details_not_outcome() {
        let mut a = ScadaHarness::new(ScadaConfig {
            sensor_seed: 1,
            ..ScadaConfig::default()
        });
        let mut b = ScadaHarness::new(ScadaConfig {
            sensor_seed: 2,
            ..ScadaConfig::default()
        });
        let ra = a.run_batch();
        let rb = b.run_batch();
        assert_eq!(ra.product, ProductQuality::Nominal);
        assert_eq!(rb.product, ProductQuality::Nominal);
        assert_ne!(
            ra.window_max_temperature_c, rb.window_max_temperature_c,
            "noise should differ across seeds"
        );
    }

    #[test]
    fn firewall_blocks_stray_traffic_by_default() {
        let harness = ScadaHarness::new(ScadaConfig::default());
        let fw = harness.sim().bus().firewall().unwrap();
        use cpssec_sim::BusRequest;
        // Workstation cannot write the SIS enable register.
        let ws_to_sis = BusRequest::write(addresses::WORKSTATION, addresses::SIS, 1, 0);
        assert_eq!(fw.decide(&ws_to_sis), FirewallAction::Deny);
        // Workstation may command the BPCS.
        let ws_to_bpcs = BusRequest::write(addresses::WORKSTATION, addresses::BPCS, 0, 8000);
        assert_eq!(fw.decide(&ws_to_bpcs), FirewallAction::Allow);
    }

    #[test]
    fn disabling_the_firewall_in_config_allows_everything() {
        let harness = ScadaHarness::new(ScadaConfig {
            firewall_enabled: false,
            ..ScadaConfig::default()
        });
        use cpssec_sim::BusRequest;
        let ws_to_sis = BusRequest::write(addresses::WORKSTATION, addresses::SIS, 1, 0);
        assert_eq!(
            harness.sim().bus().firewall().unwrap().decide(&ws_to_sis),
            FirewallAction::Allow
        );
    }

    #[test]
    fn trace_probes_are_registered() {
        let mut harness = ScadaHarness::new(ScadaConfig::default());
        harness.sim_mut().run(10);
        for probe in ["temperature_c", "speed_rpm", "cooling", "drive"] {
            assert!(harness.sim().trace().series(probe).is_some(), "{probe}");
        }
    }

    #[test]
    fn total_ticks_add_up() {
        let config = ScadaConfig::default();
        assert_eq!(
            config.total_ticks(),
            10 + config.settle_ticks + config.measure_ticks
        );
    }

    #[test]
    fn product_quality_names_are_stable() {
        assert_eq!(ProductQuality::Nominal.to_string(), "nominal");
        assert_eq!(ProductQuality::Destroyed.to_string(), "destroyed");
    }
}
