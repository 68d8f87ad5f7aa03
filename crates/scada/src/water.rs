//! The water-treatment testbed: a second first-class system.
//!
//! Promoted from `examples/water_treatment.rs` so verdicts can be
//! compared across two system classes (the SLR's motivation): a chlorine
//! dosing loop — residual analyzer, dosing pump, dosing PLC, a hardwired
//! dosing interlock (the SIS analog), and a SCADA server (the operator
//! entry point) behind a perimeter firewall. [`Testbed::Water`] places
//! those stations in the testbed table, so the [`AttackScenario`]
//! vocabulary and its one interpreter drive this plant too: register
//! forcing, response spoofing, write denial, and the interlock disable
//! through the engineering register, which `AllowWorkstationToSis` opens
//! as the server→interlock pair.
//!
//! Physics envelope: residual chlorine must stay inside the potable
//! window (0.5–2.0 mg/L). Above [`WaterPlant::OVERDOSE_MG_L`] the water
//! is acutely over-chlorinated (the "chlorine-overdose" hazard, as in
//! the Oldsmar incident); a cumulative minute spent below
//! [`WaterPlant::UNDERDOSE_MG_L`] loses disinfection and latches the
//! "pathogen-breakthrough" hazard. The interlock trips a pump shutoff at
//! [`TRIP_CHLORINE_MG_L`] and places the plant in a safe hold.

use core::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cpssec_sim::{
    BusRequest, BusResponse, Device, ExceptionCode, HazardEvent, HazardMonitor, Outbox, Pid, Plant,
    Simulation, Tick, UnitId,
};

use cpssec_model::{
    Attribute, AttributeKind, ChannelKind, ComponentKind, Criticality, Fidelity, SystemModel,
    SystemModelBuilder,
};

use crate::addresses::mode;
use crate::attacks::{AttackEffect, AttackScenario};
use crate::testbed::{Armed, Testbed};
use crate::workstation::ScheduledWrite;

/// Bus unit ids of the water-treatment system.
pub mod units {
    use cpssec_sim::UnitId;

    /// SCADA server (operator/engineering station, the entry foothold).
    pub const SCADA_SERVER: UnitId = UnitId::new(1);
    /// Hardwired dosing interlock (safety system analog).
    pub const INTERLOCK: UnitId = UnitId::new(10);
    /// Chlorine dosing PLC (process controller).
    pub const DOSING_PLC: UnitId = UnitId::new(20);
    /// Residual chlorine analyzer.
    pub const RESIDUAL_SENSOR: UnitId = UnitId::new(30);
    /// Chlorine dosing pump.
    pub const DOSING_PUMP: UnitId = UnitId::new(40);
}

/// Residual analyzer registers.
pub mod residual {
    /// Measured residual chlorine, 0.01 mg/L per count.
    pub const CHLORINE_X100: u16 = 0;
}

/// Dosing pump registers.
pub mod pump {
    /// Dose command in per-mille of full stroke (read/write).
    pub const COMMAND_PERMILLE: u16 = 0;
    /// Shutoff latch; writing a nonzero value closes the pump and holds
    /// the plant safe.
    pub const SHUTOFF: u16 = 1;
}

/// Dosing PLC registers (served to the SCADA server).
pub mod plc {
    /// Operator residual set point, 0.01 mg/L per count (read/write).
    pub const OPERATOR_SETPOINT_X100: u16 = 0;
    /// Mode: 0 = idle, 1 = run (read/write).
    pub const MODE: u16 = 1;
    /// Last residual reading, 0.01 mg/L per count (read only).
    pub const CHLORINE_X100: u16 = 2;
    /// Last commanded dose in per-mille (read only).
    pub const DOSE_PERMILLE: u16 = 3;
}

/// Interlock registers.
pub mod interlock {
    /// Trip latch: 1 once tripped (read only).
    pub const TRIPPED: u16 = 0;
    /// Enable flag: writing 0 disables the interlock (the engineering
    /// write a Triton-style campaign abuses).
    pub const ENABLED: u16 = 1;
}

/// Component name constants of the water model, shared with
/// [`AttackScenario::target_component`].
pub mod names {
    /// The business network uplink (adversary entry point).
    pub const BUSINESS: &str = "business network";
    /// The SCADA server.
    pub const SCADA_SERVER: &str = "scada server";
    /// The perimeter firewall.
    pub const FIREWALL: &str = "perimeter firewall";
    /// The chlorine dosing PLC.
    pub const PLC: &str = "dosing plc";
    /// The hardwired dosing interlock.
    pub const INTERLOCK: &str = "dosing interlock";
    /// The chlorine dosing pump.
    pub const PUMP: &str = "chlorine pump";
    /// The residual chlorine analyzer.
    pub const RESIDUAL: &str = "residual sensor";
    /// The turbidity sensor.
    pub const TURBIDITY: &str = "turbidity sensor";
}

/// Residual chlorine above which the interlock trips, mg/L.
pub const TRIP_CHLORINE_MG_L: f64 = 3.0;

/// The treated-water contact basin: residual chlorine dynamics.
#[derive(Debug, Clone, PartialEq)]
pub struct WaterPlant {
    chlorine_mg_l: f64,
    dose: f64,
    shutdown: bool,
    overdosed: bool,
    underdose_s: f64,
}

impl WaterPlant {
    /// Full-stroke dosing gain, mg/L per second.
    pub const DOSE_GAIN: f64 = 0.06;
    /// First-order chlorine decay rate, 1/s.
    pub const DECAY_RATE: f64 = 0.01;
    /// Constant chlorine demand of the raw water, mg/L per second.
    pub const DEMAND: f64 = 0.002;
    /// Lower edge of the potable residual window, mg/L.
    pub const WINDOW_LOW_MG_L: f64 = 0.5;
    /// Upper edge of the potable residual window, mg/L.
    pub const WINDOW_HIGH_MG_L: f64 = 2.0;
    /// Acute over-chlorination threshold (latched hazard), mg/L.
    pub const OVERDOSE_MG_L: f64 = 4.0;
    /// Residual below which disinfection is lost, mg/L.
    pub const UNDERDOSE_MG_L: f64 = 0.2;
    /// Cumulative seconds below the underdose floor before pathogen
    /// breakthrough latches.
    pub const UNDERDOSE_LIMIT_S: f64 = 60.0;
    /// Residual of the incoming (source) water, mg/L.
    pub const SOURCE_MG_L: f64 = 0.5;

    /// A basin at the source residual with the pump idle.
    #[must_use]
    pub fn new() -> Self {
        WaterPlant {
            chlorine_mg_l: Self::SOURCE_MG_L,
            dose: 0.0,
            shutdown: false,
            overdosed: false,
            underdose_s: 0.0,
        }
    }

    /// Current residual chlorine, mg/L.
    #[must_use]
    pub fn chlorine_mg_l(&self) -> f64 {
        self.chlorine_mg_l
    }

    /// Current dose command in `[0, 1]`.
    #[must_use]
    pub fn dose(&self) -> f64 {
        self.dose
    }

    /// Sets the dose command (clamped to `[0, 1]`; ignored after the
    /// safe-hold shutdown).
    pub fn set_dose(&mut self, dose: f64) {
        if !self.shutdown {
            self.dose = dose.clamp(0.0, 1.0);
        }
    }

    /// Trips the safe hold: pump closed, intake valves shut, latched.
    /// A held plant neither doses nor passes water, so neither hazard
    /// can develop further.
    pub fn emergency_stop(&mut self) {
        self.shutdown = true;
        self.dose = 0.0;
    }

    /// Whether the safe hold has been tripped.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.shutdown
    }

    /// Whether acute over-chlorination occurred (latched).
    #[must_use]
    pub fn has_overdosed(&self) -> bool {
        self.overdosed
    }

    /// Cumulative seconds spent below the underdose floor.
    #[must_use]
    pub fn underdose_s(&self) -> f64 {
        self.underdose_s
    }

    /// Whether disinfection was lost long enough for pathogen
    /// breakthrough.
    #[must_use]
    pub fn pathogen_breakthrough(&self) -> bool {
        self.underdose_s >= Self::UNDERDOSE_LIMIT_S
    }

    /// Whether the residual is inside the potable window.
    #[must_use]
    pub fn in_window(&self) -> bool {
        (Self::WINDOW_LOW_MG_L..=Self::WINDOW_HIGH_MG_L).contains(&self.chlorine_mg_l)
    }
}

impl Default for WaterPlant {
    fn default() -> Self {
        WaterPlant::new()
    }
}

impl Plant for WaterPlant {
    fn integrate(&mut self, dt: f64) {
        if self.shutdown {
            // Safe hold: no flow, no dosing — the basin state is frozen.
            return;
        }
        let rate =
            Self::DOSE_GAIN * self.dose - Self::DECAY_RATE * self.chlorine_mg_l - Self::DEMAND;
        self.chlorine_mg_l = (self.chlorine_mg_l + rate * dt).max(0.0);
        if self.chlorine_mg_l >= Self::OVERDOSE_MG_L {
            self.overdosed = true;
        }
        if self.chlorine_mg_l < Self::UNDERDOSE_MG_L {
            self.underdose_s += dt;
        }
    }
}

/// The amperometric residual chlorine analyzer (seeded noise, σ ≈ 0.01
/// mg/L).
#[derive(Debug)]
pub struct ResidualSensor {
    rng: StdRng,
}

impl ResidualSensor {
    /// Creates the analyzer with a noise seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ResidualSensor {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn noise(&mut self) -> f64 {
        // Irwin–Hall(3) centered, scaled to σ ≈ 0.01 mg/L.
        let sum: f64 = (0..3).map(|_| self.rng.gen::<f64>()).sum::<f64>() - 1.5;
        sum * 0.02
    }
}

impl Device<WaterPlant> for ResidualSensor {
    fn unit_id(&self) -> UnitId {
        units::RESIDUAL_SENSOR
    }

    fn name(&self) -> &str {
        "residual-sensor"
    }

    fn poll(&mut self, _plant: &mut WaterPlant, _outbox: &mut Outbox) {}

    fn handle(&mut self, plant: &mut WaterPlant, request: &BusRequest) -> BusResponse {
        if request.function.is_write() {
            return BusResponse::exception(ExceptionCode::IllegalFunction);
        }
        if request.address != residual::CHLORINE_X100 {
            return BusResponse::exception(ExceptionCode::IllegalDataAddress);
        }
        let measured = plant.chlorine_mg_l() + self.noise();
        let counts = (measured * 100.0).round().clamp(0.0, f64::from(u16::MAX));
        BusResponse::ok(vec![counts as u16])
    }
}

/// The chlorine dosing pump with a command watchdog: if no fresh command
/// arrives within [`DosingPump::WATCHDOG_TICKS`], the stroke fails safe
/// to zero (which is exactly what a write-denial attack weaponizes —
/// losing dosing loses disinfection).
#[derive(Debug)]
pub struct DosingPump {
    command_permille: u16,
    ticks_since_command: u64,
    shutoff: bool,
}

impl DosingPump {
    /// Ticks without a fresh command before the stroke fails safe.
    pub const WATCHDOG_TICKS: u64 = 50;

    /// Creates the pump, idle and open.
    #[must_use]
    pub fn new() -> Self {
        DosingPump {
            command_permille: 0,
            ticks_since_command: 0,
            shutoff: false,
        }
    }

    /// Whether the shutoff latch is closed.
    #[must_use]
    pub fn is_shut_off(&self) -> bool {
        self.shutoff
    }
}

impl Default for DosingPump {
    fn default() -> Self {
        DosingPump::new()
    }
}

impl Device<WaterPlant> for DosingPump {
    fn unit_id(&self) -> UnitId {
        units::DOSING_PUMP
    }

    fn name(&self) -> &str {
        "dosing-pump"
    }

    fn poll(&mut self, plant: &mut WaterPlant, _outbox: &mut Outbox) {
        self.ticks_since_command = self.ticks_since_command.saturating_add(1);
        let applied = if self.ticks_since_command > Self::WATCHDOG_TICKS {
            0
        } else {
            self.command_permille
        };
        plant.set_dose(f64::from(applied) / 1000.0);
    }

    fn handle(&mut self, plant: &mut WaterPlant, request: &BusRequest) -> BusResponse {
        match (request.function.is_write(), request.address) {
            (true, pump::COMMAND_PERMILLE) => {
                self.command_permille = request.values[0].min(1000);
                self.ticks_since_command = 0;
                BusResponse::ok(request.values.clone())
            }
            (true, pump::SHUTOFF) => {
                if request.values[0] != 0 {
                    self.shutoff = true;
                    plant.emergency_stop();
                }
                BusResponse::ok(request.values.clone())
            }
            (false, pump::COMMAND_PERMILLE) => BusResponse::ok(vec![self.command_permille]),
            (false, pump::SHUTOFF) => BusResponse::ok(vec![u16::from(self.shutoff)]),
            _ => BusResponse::exception(ExceptionCode::IllegalDataAddress),
        }
    }
}

/// The hardwired dosing interlock: independently reads the residual
/// analyzer and closes the pump shutoff above [`TRIP_CHLORINE_MG_L`].
/// Its enable register is writable — the engineering path a campaign
/// disables before forcing an overdose.
#[derive(Debug)]
pub struct Interlock {
    enabled: bool,
    tripped: bool,
    last_chlorine_x100: u16,
}

impl Interlock {
    /// Creates an armed, untripped interlock.
    #[must_use]
    pub fn new() -> Self {
        Interlock {
            enabled: true,
            tripped: false,
            last_chlorine_x100: 0,
        }
    }

    /// Whether the safety function is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the interlock has tripped.
    #[must_use]
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }
}

impl Default for Interlock {
    fn default() -> Self {
        Interlock::new()
    }
}

impl Device<WaterPlant> for Interlock {
    fn unit_id(&self) -> UnitId {
        units::INTERLOCK
    }

    fn name(&self) -> &str {
        "dosing-interlock"
    }

    fn poll(&mut self, _plant: &mut WaterPlant, outbox: &mut Outbox) {
        if !self.enabled || self.tripped {
            return;
        }
        outbox.send(BusRequest::read(
            units::INTERLOCK,
            units::RESIDUAL_SENSOR,
            residual::CHLORINE_X100,
            1,
        ));
        let chlorine = f64::from(self.last_chlorine_x100) / 100.0;
        if chlorine > TRIP_CHLORINE_MG_L {
            self.tripped = true;
            outbox.send(BusRequest::write(
                units::INTERLOCK,
                units::DOSING_PUMP,
                pump::SHUTOFF,
                1,
            ));
        }
    }

    fn handle(&mut self, _plant: &mut WaterPlant, request: &BusRequest) -> BusResponse {
        match (request.function.is_write(), request.address) {
            (true, interlock::ENABLED) => {
                self.enabled = request.values[0] != 0;
                BusResponse::ok(request.values.clone())
            }
            (false, interlock::ENABLED) => BusResponse::ok(vec![u16::from(self.enabled)]),
            (false, interlock::TRIPPED) => BusResponse::ok(vec![u16::from(self.tripped)]),
            (true, interlock::TRIPPED) => BusResponse::exception(ExceptionCode::IllegalDataValue),
            _ => BusResponse::exception(ExceptionCode::IllegalDataAddress),
        }
    }

    fn on_response(&mut self, _plant: &mut WaterPlant, request: &BusRequest, resp: &BusResponse) {
        let Some(values) = resp.values() else {
            return;
        };
        if request.dst == units::RESIDUAL_SENSOR {
            self.last_chlorine_x100 = values[0];
        }
    }
}

/// The chlorine dosing PLC: reads the analyzer, runs the residual PI
/// loop, commands the pump, and serves the operator registers.
#[derive(Debug)]
pub struct DosingPlc {
    operator_setpoint_x100: u16,
    mode: u16,
    last_chlorine_x100: u16,
    last_dose_permille: u16,
    pid: Pid,
    dt: f64,
}

impl DosingPlc {
    /// Creates the controller in idle mode; `dt` is the kernel step.
    #[must_use]
    pub fn new(dt: f64) -> Self {
        DosingPlc {
            operator_setpoint_x100: 0,
            mode: mode::IDLE,
            last_chlorine_x100: 0,
            last_dose_permille: 0,
            pid: Pid::new(1.0, 0.02, 0.0).with_output_limits(0.0, 1.0),
            dt,
        }
    }

    /// The last residual reading, mg/L.
    #[must_use]
    pub fn last_chlorine_mg_l(&self) -> f64 {
        f64::from(self.last_chlorine_x100) / 100.0
    }

    /// The current mode register value.
    #[must_use]
    pub fn mode(&self) -> u16 {
        self.mode
    }
}

impl Device<WaterPlant> for DosingPlc {
    fn unit_id(&self) -> UnitId {
        units::DOSING_PLC
    }

    fn name(&self) -> &str {
        "dosing-plc"
    }

    fn poll(&mut self, _plant: &mut WaterPlant, outbox: &mut Outbox) {
        outbox.send(BusRequest::read(
            units::DOSING_PLC,
            units::RESIDUAL_SENSOR,
            residual::CHLORINE_X100,
            1,
        ));
        let dose = if self.mode == mode::RUN {
            self.pid.update(
                f64::from(self.operator_setpoint_x100) / 100.0,
                self.last_chlorine_mg_l(),
                self.dt,
            )
        } else {
            0.0
        };
        self.last_dose_permille = (dose * 1000.0).round() as u16;
        outbox.send(BusRequest::write(
            units::DOSING_PLC,
            units::DOSING_PUMP,
            pump::COMMAND_PERMILLE,
            self.last_dose_permille,
        ));
    }

    fn handle(&mut self, _plant: &mut WaterPlant, request: &BusRequest) -> BusResponse {
        match (request.function.is_write(), request.address) {
            (true, plc::OPERATOR_SETPOINT_X100) => {
                self.operator_setpoint_x100 = request.values[0];
                BusResponse::ok(request.values.clone())
            }
            (true, plc::MODE) => {
                self.mode = request.values[0];
                if self.mode == mode::IDLE {
                    self.pid.reset();
                }
                BusResponse::ok(request.values.clone())
            }
            (false, plc::OPERATOR_SETPOINT_X100) => {
                BusResponse::ok(vec![self.operator_setpoint_x100])
            }
            (false, plc::MODE) => BusResponse::ok(vec![self.mode]),
            (false, plc::CHLORINE_X100) => BusResponse::ok(vec![self.last_chlorine_x100]),
            (false, plc::DOSE_PERMILLE) => BusResponse::ok(vec![self.last_dose_permille]),
            _ => BusResponse::exception(ExceptionCode::IllegalDataAddress),
        }
    }

    fn on_response(&mut self, _plant: &mut WaterPlant, request: &BusRequest, resp: &BusResponse) {
        let Some(values) = resp.values() else {
            return;
        };
        if request.dst == units::RESIDUAL_SENSOR && request.address == residual::CHLORINE_X100 {
            self.last_chlorine_x100 = values[0];
        }
    }
}

/// The SCADA server: runs the dosing recipe, re-asserts it HMI-style,
/// polls the PLC for the operator display, and — when compromised —
/// replays scripted malicious writes.
#[derive(Debug)]
pub struct ScadaServer {
    recipe: Vec<ScheduledWrite>,
    malicious: Vec<ScheduledWrite>,
    monitor_every: u64,
    reassert_every: u64,
    now: Tick,
}

impl ScadaServer {
    /// Creates the server with a dosing recipe.
    #[must_use]
    pub fn new(recipe: Vec<ScheduledWrite>) -> Self {
        ScadaServer {
            recipe,
            malicious: Vec::new(),
            monitor_every: 10,
            reassert_every: 50,
            now: Tick::ZERO,
        }
    }

    /// The standard recipe: residual set point then run mode at `start`.
    #[must_use]
    pub fn standard_recipe(start: Tick, setpoint_x100: u16) -> Vec<ScheduledWrite> {
        vec![
            ScheduledWrite {
                at: start,
                dst: units::DOSING_PLC,
                address: plc::OPERATOR_SETPOINT_X100,
                value: setpoint_x100,
            },
            ScheduledWrite {
                at: start.next(),
                dst: units::DOSING_PLC,
                address: plc::MODE,
                value: mode::RUN,
            },
        ]
    }

    /// Adds compromised-server writes (builder style).
    #[must_use]
    pub fn with_malicious_writes(mut self, writes: Vec<ScheduledWrite>) -> Self {
        self.malicious = writes;
        self
    }
}

impl Device<WaterPlant> for ScadaServer {
    fn unit_id(&self) -> UnitId {
        units::SCADA_SERVER
    }

    fn name(&self) -> &str {
        "scada-server"
    }

    fn poll(&mut self, _plant: &mut WaterPlant, outbox: &mut Outbox) {
        self.now = self.now.next();
        for write in self.recipe.iter().chain(self.malicious.iter()) {
            if write.at == self.now {
                outbox.send(BusRequest::write(
                    units::SCADA_SERVER,
                    write.dst,
                    write.address,
                    write.value,
                ));
            }
        }
        if self.now.count() % self.reassert_every == 0 {
            let mut seen: Vec<(UnitId, u16)> = Vec::new();
            for write in self.recipe.iter().rev() {
                if write.at < self.now && !seen.contains(&(write.dst, write.address)) {
                    seen.push((write.dst, write.address));
                    outbox.send(BusRequest::write(
                        units::SCADA_SERVER,
                        write.dst,
                        write.address,
                        write.value,
                    ));
                }
            }
        }
        if self.now.count() % self.monitor_every == 0 {
            outbox.send(BusRequest::read(
                units::SCADA_SERVER,
                units::DOSING_PLC,
                plc::CHLORINE_X100,
                1,
            ));
            outbox.send(BusRequest::read(
                units::SCADA_SERVER,
                units::DOSING_PLC,
                plc::DOSE_PERMILLE,
                1,
            ));
        }
    }

    fn handle(&mut self, _plant: &mut WaterPlant, _request: &BusRequest) -> BusResponse {
        BusResponse::exception(ExceptionCode::IllegalFunction)
    }
}

/// Configuration of one water-treatment run.
#[derive(Debug, Clone, PartialEq)]
pub struct WaterConfig {
    /// Kernel step, seconds.
    pub dt: f64,
    /// Operator residual set point, 0.01 mg/L counts.
    pub setpoint_x100: u16,
    /// Tick at which the server starts dosing.
    pub batch_start: Tick,
    /// Ticks allowed for the loop to settle before quality is measured.
    pub settle_ticks: u64,
    /// Ticks of the quality-measurement window.
    pub measure_ticks: u64,
    /// Seed for the analyzer noise.
    pub sensor_seed: u64,
    /// Whether the perimeter firewall enforces its rules.
    pub firewall_enabled: bool,
}

impl Default for WaterConfig {
    fn default() -> Self {
        WaterConfig {
            dt: 0.1,
            setpoint_x100: 100,
            batch_start: Tick::new(10),
            settle_ticks: 2500,
            measure_ticks: 1500,
            sensor_seed: 42,
            firewall_enabled: true,
        }
    }
}

impl WaterConfig {
    /// Total ticks of one run.
    #[must_use]
    pub fn total_ticks(&self) -> u64 {
        self.batch_start.count() + self.settle_ticks + self.measure_ticks
    }
}

/// The quality of the treated water over the measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WaterQuality {
    /// Residual inside the potable window throughout.
    Nominal,
    /// Residual fell below the window (under-disinfected, short of
    /// breakthrough).
    OffSpecLow,
    /// Residual exceeded the window (taste/odor complaints, short of
    /// acute overdose).
    OffSpecHigh,
    /// A hazard latched: acute overdose or pathogen breakthrough.
    Unsafe,
}

impl WaterQuality {
    /// Canonical lowercase name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            WaterQuality::Nominal => "nominal",
            WaterQuality::OffSpecLow => "offspec-low",
            WaterQuality::OffSpecHigh => "offspec-high",
            WaterQuality::Unsafe => "unsafe",
        }
    }
}

impl fmt::Display for WaterQuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The outcome of one water-treatment run.
#[derive(Debug, Clone, PartialEq)]
pub struct WaterReport {
    /// Water quality classification.
    pub quality: WaterQuality,
    /// Hazard events that fired during the run.
    pub hazards: Vec<HazardEvent>,
    /// Whether the interlock's safe hold engaged.
    pub emergency_stopped: bool,
    /// Whether acute over-chlorination latched.
    pub overdosed: bool,
    /// Highest residual over the whole run, mg/L.
    pub max_chlorine_mg_l: f64,
    /// Lowest residual inside the measurement window, mg/L.
    pub window_min_mg_l: f64,
    /// Highest residual inside the measurement window, mg/L.
    pub window_max_mg_l: f64,
    /// Ticks executed.
    pub ticks: u64,
}

/// The assembled water-treatment system: basin, five stations, perimeter
/// firewall, hazard monitors.
pub struct WaterHarness {
    sim: Simulation<WaterPlant>,
    config: WaterConfig,
}

impl WaterHarness {
    /// Builds the nominal system (no attack).
    #[must_use]
    pub fn new(config: WaterConfig) -> Self {
        WaterHarness::build(config, Testbed::Water.arm(None, |t| t))
    }

    /// Builds the system with an attack scenario applied.
    #[must_use]
    pub fn with_attack(config: WaterConfig, attack: &AttackScenario) -> Self {
        WaterHarness::build(config, Testbed::Water.arm(Some(attack), |t| t))
    }

    /// Builds the system around an armed scenario (see [`Testbed`]): its
    /// injectors first, then the firewall, the five stations, the
    /// monitors and the probes.
    pub(crate) fn build(config: WaterConfig, armed: Armed) -> Self {
        let mut sim = Simulation::new(WaterPlant::new(), config.dt);
        for injector in armed.injectors {
            sim.add_boxed_injector(injector);
        }
        let mut firewall = armed.firewall;
        if !config.firewall_enabled {
            firewall.set_enabled(false);
        }
        sim.set_firewall(firewall);

        sim.add_device(ResidualSensor::new(config.sensor_seed));
        sim.add_device(DosingPump::new());
        sim.add_device(Interlock::new());
        sim.add_device(DosingPlc::new(config.dt));
        sim.add_device(
            ScadaServer::new(ScadaServer::standard_recipe(
                config.batch_start,
                config.setpoint_x100,
            ))
            .with_malicious_writes(armed.writes),
        );

        sim.add_monitor(HazardMonitor::new("chlorine-overdose", |p: &WaterPlant| {
            p.has_overdosed()
        }));
        sim.add_monitor(HazardMonitor::new(
            "pathogen-breakthrough",
            |p: &WaterPlant| p.pathogen_breakthrough(),
        ));

        sim.probe("chlorine_mg_l", WaterPlant::chlorine_mg_l);
        sim.probe("dose", WaterPlant::dose);

        WaterHarness { sim, config }
    }

    /// The underlying simulation (plant state, bus log, trace).
    #[must_use]
    pub fn sim(&self) -> &Simulation<WaterPlant> {
        &self.sim
    }

    /// Mutable access to the underlying simulation.
    pub fn sim_mut(&mut self) -> &mut Simulation<WaterPlant> {
        &mut self.sim
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &WaterConfig {
        &self.config
    }

    /// Runs one full batch and classifies the outcome.
    pub fn run_batch(&mut self) -> WaterReport {
        self.run_batch_for(self.config.total_ticks())
    }

    /// Runs for an explicit number of ticks and classifies the outcome;
    /// the quality window is the final
    /// [`measure_ticks`](WaterConfig::measure_ticks) of the run.
    pub fn run_batch_for(&mut self, ticks: u64) -> WaterReport {
        let window_start = ticks.saturating_sub(self.config.measure_ticks);
        let mut max_chlorine = f64::NEG_INFINITY;
        let mut window_min = f64::INFINITY;
        let mut window_max = f64::NEG_INFINITY;
        for tick in 0..ticks {
            self.sim.step();
            let plant = self.sim.plant();
            max_chlorine = max_chlorine.max(plant.chlorine_mg_l());
            if tick >= window_start {
                window_min = window_min.min(plant.chlorine_mg_l());
                window_max = window_max.max(plant.chlorine_mg_l());
            }
        }
        let plant = self.sim.plant();
        let quality = if plant.has_overdosed() || plant.pathogen_breakthrough() {
            WaterQuality::Unsafe
        } else if window_min < WaterPlant::WINDOW_LOW_MG_L {
            WaterQuality::OffSpecLow
        } else if window_max > WaterPlant::WINDOW_HIGH_MG_L {
            WaterQuality::OffSpecHigh
        } else {
            WaterQuality::Nominal
        };
        WaterReport {
            quality,
            hazards: self.sim.hazards().to_vec(),
            emergency_stopped: plant.is_stopped(),
            overdosed: plant.has_overdosed(),
            max_chlorine_mg_l: max_chlorine,
            window_min_mg_l: window_min,
            window_max_mg_l: window_max,
            ticks,
        }
    }
}

impl fmt::Debug for WaterHarness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WaterHarness")
            .field("config", &self.config)
            .field("now", &self.sim.now())
            .finish()
    }
}

/// CWE-78 / CAPEC-88 — command injection on the dosing PLC: the pump
/// command writes are forced to full stroke. The interlock catches the
/// rising residual and closes the shutoff: off-spec water, no hazard.
#[must_use]
pub fn dosing_command_injection(from: Tick) -> AttackScenario {
    dosing_command_injection_with(from, 1000)
}

/// [`dosing_command_injection`] with an explicit forced stroke.
#[must_use]
pub fn dosing_command_injection_with(from: Tick, stroke_permille: u16) -> AttackScenario {
    AttackScenario {
        name: "dosing-command-injection".into(),
        description: "injected command on the dosing PLC forces pump stroke writes to full; \
                      the hardwired interlock trips the shutoff"
            .into(),
        weakness_ids: vec!["CWE-78".into(), "CWE-20".into()],
        pattern_ids: vec!["CAPEC-88".into(), "CAPEC-248".into()],
        target_component: names::PLC.into(),
        effects: vec![AttackEffect::ForceRegister {
            dst: units::DOSING_PUMP,
            address: pump::COMMAND_PERMILLE,
            value: stroke_permille,
            from,
        }],
    }
}

/// CAPEC-441 / CWE-306 — disable the dosing interlock through its
/// engineering register, then force the pump to full stroke: acute
/// over-chlorination with nothing left to trip.
#[must_use]
pub fn interlock_disable_overdose(disable_at: Tick, inject_from: Tick) -> AttackScenario {
    AttackScenario {
        name: "interlock-disable-overdose".into(),
        description: "compromised SCADA server disables the dosing interlock, then forced \
                      full-stroke dosing drives the residual past the acute threshold"
            .into(),
        weakness_ids: vec!["CWE-306".into(), "CWE-78".into()],
        pattern_ids: vec!["CAPEC-441".into(), "CAPEC-88".into()],
        target_component: names::INTERLOCK.into(),
        effects: vec![
            AttackEffect::AllowWorkstationToSis,
            AttackEffect::CompromisedWorkstation(vec![ScheduledWrite {
                at: disable_at,
                dst: units::INTERLOCK,
                address: interlock::ENABLED,
                value: 0,
            }]),
            AttackEffect::ForceRegister {
                dst: units::DOSING_PUMP,
                address: pump::COMMAND_PERMILLE,
                value: 1000,
                from: inject_from,
            },
        ],
    }
}

/// CAPEC-148 / CWE-311 — spoof the shared residual analyzer low; the PLC
/// doses at full stroke to chase the forged reading and the interlock,
/// blind on the same channel, never trips.
#[must_use]
pub fn residual_sensor_spoof(from: Tick) -> AttackScenario {
    residual_sensor_spoof_with(from, 20)
}

/// [`residual_sensor_spoof`] with an explicit forged reading (0.01 mg/L
/// counts).
#[must_use]
pub fn residual_sensor_spoof_with(from: Tick, value_x100: u16) -> AttackScenario {
    AttackScenario {
        name: "residual-sensor-spoof".into(),
        description: "adversary-in-the-middle forges the residual analyzer low; the dosing \
                      loop overdoses while the interlock reads the same forged channel"
            .into(),
        weakness_ids: vec!["CWE-311".into(), "CWE-20".into()],
        pattern_ids: vec!["CAPEC-148".into(), "CAPEC-94".into()],
        target_component: names::RESIDUAL.into(),
        effects: vec![AttackEffect::SpoofResponse {
            dst: units::RESIDUAL_SENSOR,
            address: residual::CHLORINE_X100,
            value: value_x100,
            from,
        }],
    }
}

/// CAPEC-125 / CWE-400 — denial of service on the pump command path;
/// the stroke watchdog fails safe to zero, disinfection is lost, and
/// pathogen breakthrough latches.
#[must_use]
pub fn dosing_dos(from: Tick) -> AttackScenario {
    AttackScenario {
        name: "dosing-dos".into(),
        description: "write requests to the dosing pump are flooded/dropped; the stroke \
                      watchdog zeroes the dose and the residual collapses"
            .into(),
        weakness_ids: vec!["CWE-400".into()],
        pattern_ids: vec!["CAPEC-125".into()],
        target_component: names::PLC.into(),
        effects: vec![AttackEffect::DropWrites {
            dst: units::DOSING_PUMP,
            from,
        }],
    }
}

/// Every built-in water scenario, at its default timing.
#[must_use]
pub fn all_water_scenarios() -> Vec<AttackScenario> {
    vec![
        dosing_command_injection(Tick::new(3000)),
        interlock_disable_overdose(Tick::new(100), Tick::new(3000)),
        residual_sensor_spoof(Tick::new(100)),
        dosing_dos(Tick::new(500)),
    ]
}

/// Builds the water-treatment system model (promoted from the example,
/// extended with the dosing interlock and residual analyzer the running
/// system has).
#[must_use]
pub fn water_model() -> SystemModel {
    SystemModelBuilder::new("water-treatment")
        .component_with(names::BUSINESS, ComponentKind::Network, |c| {
            c.with_entry_point(true).with_attribute(Attribute::new(
                AttributeKind::Function,
                "business IT network",
            ))
        })
        .component_with(names::SCADA_SERVER, ComponentKind::Server, |c| {
            c.with_criticality(Criticality::High)
                .with_attribute(Attribute::new(
                    AttributeKind::Function,
                    "dosing supervision and operator monitoring",
                ))
                .with_attribute(Attribute::new(AttributeKind::OperatingSystem, "Windows 7"))
                .with_attribute(
                    Attribute::new(AttributeKind::Software, "historian database")
                        .at_fidelity(Fidelity::Architectural),
                )
        })
        .component_with(names::FIREWALL, ComponentKind::Firewall, |c| {
            c.with_criticality(Criticality::High)
                .with_attribute(Attribute::new(
                    AttributeKind::Function,
                    "isolates the business network from the treatment control network",
                ))
                .with_attribute(
                    Attribute::new(AttributeKind::Product, "Cisco ASA")
                        .at_fidelity(Fidelity::Implementation),
                )
        })
        .component_with(names::PLC, ComponentKind::Controller, |c| {
            c.with_criticality(Criticality::SafetyCritical)
                .with_attribute(Attribute::new(
                    AttributeKind::Function,
                    "chlorine dosing control",
                ))
                .with_attribute(
                    Attribute::new(AttributeKind::Protocol, "MODBUS")
                        .at_fidelity(Fidelity::Architectural),
                )
                .with_attribute(
                    Attribute::new(AttributeKind::OperatingSystem, "NI RT Linux OS")
                        .at_fidelity(Fidelity::Implementation),
                )
        })
        .component_with(names::INTERLOCK, ComponentKind::SafetySystem, |c| {
            c.with_criticality(Criticality::SafetyCritical)
                .with_attribute(Attribute::new(
                    AttributeKind::Function,
                    "hardwired residual interlock for the dosing loop",
                ))
                .with_attribute(
                    Attribute::new(AttributeKind::Hardware, "NI cRIO 9063")
                        .at_fidelity(Fidelity::Implementation),
                )
                .with_attribute(
                    Attribute::new(AttributeKind::OperatingSystem, "NI RT Linux OS")
                        .at_fidelity(Fidelity::Implementation),
                )
        })
        .component_with(names::PUMP, ComponentKind::Actuator, |c| {
            c.with_criticality(Criticality::SafetyCritical)
                .with_attribute(Attribute::new(
                    AttributeKind::Function,
                    "chlorine dosing into the contact basin",
                ))
        })
        .component_with(names::RESIDUAL, ComponentKind::Sensor, |c| {
            c.with_criticality(Criticality::High)
                .with_attribute(Attribute::new(
                    AttributeKind::Function,
                    "monitors residual chlorine concentration",
                ))
                .with_attribute(
                    Attribute::new(AttributeKind::Product, "amperometric chlorine analyzer")
                        .at_fidelity(Fidelity::Architectural),
                )
        })
        .component_with(names::TURBIDITY, ComponentKind::Sensor, |c| {
            c.with_attribute(Attribute::new(
                AttributeKind::Function,
                "monitors filter effluent turbidity",
            ))
        })
        .channel(names::BUSINESS, names::FIREWALL, ChannelKind::Ethernet)
        .channel(names::FIREWALL, names::SCADA_SERVER, ChannelKind::Ethernet)
        .channel(names::SCADA_SERVER, names::PLC, ChannelKind::Ethernet)
        .channel(names::SCADA_SERVER, names::INTERLOCK, ChannelKind::Ethernet)
        .channel(names::PLC, names::PUMP, ChannelKind::Analog)
        .channel(names::PLC, names::RESIDUAL, ChannelKind::Analog)
        .channel(names::PLC, names::TURBIDITY, ChannelKind::Analog)
        .channel(names::INTERLOCK, names::RESIDUAL, ChannelKind::Analog)
        .channel(names::INTERLOCK, names::PUMP, ChannelKind::Analog)
        .build()
        .expect("the water model is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_model_matches_the_expected_table_1_counts() {
        // Table-1-style rows for the water testbed: per-component
        // `(patterns, weaknesses, vulnerabilities)` counts against the
        // seed corpus at implementation fidelity. Pinned so attribute or
        // corpus edits that shift the attack surface fail loudly here.
        let expected = [
            ("business network", 0, 0, 1),
            ("scada server", 2, 1, 6),
            ("perimeter firewall", 3, 0, 6),
            ("dosing plc", 4, 1, 6),
            ("dosing interlock", 1, 1, 6),
            ("chlorine pump", 0, 0, 0),
            ("residual sensor", 1, 0, 0),
            ("turbidity sensor", 1, 0, 0),
        ];
        let corpus = cpssec_attackdb::seed::seed_corpus();
        let engine = cpssec_search::SearchEngine::build(&corpus);
        let measured: Vec<(String, usize, usize, usize)> = engine
            .match_model(&water_model(), cpssec_model::Fidelity::Implementation)
            .into_iter()
            .map(|(component, set)| {
                let (p, w, v) = set.counts();
                (component, p, w, v)
            })
            .collect();
        let expected: Vec<(String, usize, usize, usize)> = expected
            .into_iter()
            .map(|(c, p, w, v)| (c.to_owned(), p, w, v))
            .collect();
        assert_eq!(measured, expected);
    }

    #[test]
    fn nominal_run_holds_the_residual_window() {
        let mut harness = WaterHarness::new(WaterConfig::default());
        let report = harness.run_batch();
        assert_eq!(report.quality, WaterQuality::Nominal, "{report:?}");
        assert!(report.hazards.is_empty());
        assert!(!report.emergency_stopped);
        assert!(report.window_min_mg_l >= WaterPlant::WINDOW_LOW_MG_L);
        assert!(report.window_max_mg_l <= WaterPlant::WINDOW_HIGH_MG_L);
        // The loop regulates near the 1.0 mg/L set point.
        assert!((harness.sim().plant().chlorine_mg_l() - 1.0).abs() < 0.1);
    }

    #[test]
    fn run_is_deterministic() {
        let run = || {
            let mut harness = WaterHarness::new(WaterConfig::default());
            harness.run_batch()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn command_injection_is_contained_by_the_interlock() {
        let attack = dosing_command_injection(Tick::new(3000));
        let mut harness = WaterHarness::with_attack(WaterConfig::default(), &attack);
        let report = harness.run_batch_for(6000);
        assert!(report.emergency_stopped, "{report:?}");
        assert!(!report.overdosed);
        assert!(report.hazards.is_empty(), "interlock should trip first");
        assert_eq!(report.quality, WaterQuality::OffSpecHigh);
    }

    #[test]
    fn interlock_disable_reaches_the_overdose_hazard() {
        let attack = interlock_disable_overdose(Tick::new(100), Tick::new(3000));
        let mut harness = WaterHarness::with_attack(WaterConfig::default(), &attack);
        let report = harness.run_batch_for(6000);
        assert!(
            !report.emergency_stopped,
            "interlock is disabled: {report:?}"
        );
        assert!(report.overdosed);
        assert!(report
            .hazards
            .iter()
            .any(|h| h.hazard == "chlorine-overdose"));
        assert_eq!(report.quality, WaterQuality::Unsafe);
    }

    #[test]
    fn sensor_spoof_blinds_loop_and_interlock() {
        let attack = residual_sensor_spoof(Tick::new(100));
        let mut harness = WaterHarness::with_attack(WaterConfig::default(), &attack);
        let report = harness.run_batch_for(6000);
        assert!(!report.emergency_stopped, "{report:?}");
        assert!(report.overdosed);
        assert_eq!(report.quality, WaterQuality::Unsafe);
    }

    #[test]
    fn dosing_dos_loses_disinfection() {
        let attack = dosing_dos(Tick::new(500));
        let mut harness = WaterHarness::with_attack(WaterConfig::default(), &attack);
        let report = harness.run_batch_for(6000);
        assert!(
            report
                .hazards
                .iter()
                .any(|h| h.hazard == "pathogen-breakthrough"),
            "{report:?}"
        );
        assert_eq!(report.quality, WaterQuality::Unsafe);
        assert!(!report.overdosed);
    }

    #[test]
    fn server_to_interlock_write_is_blocked_without_the_misconfiguration() {
        let mut attack = interlock_disable_overdose(Tick::new(100), Tick::new(3000));
        attack
            .effects
            .retain(|e| !matches!(e, AttackEffect::AllowWorkstationToSis));
        let mut harness = WaterHarness::with_attack(WaterConfig::default(), &attack);
        let report = harness.run_batch_for(6000);
        assert!(
            report.emergency_stopped,
            "firewall should protect the interlock: {report:?}"
        );
        assert!(!report.overdosed);
    }

    #[test]
    fn pump_watchdog_fails_safe_without_commands() {
        let mut plant = WaterPlant::new();
        let mut p = DosingPump::new();
        p.handle(
            &mut plant,
            &BusRequest::write(
                units::DOSING_PLC,
                units::DOSING_PUMP,
                pump::COMMAND_PERMILLE,
                400,
            ),
        );
        let mut outbox = Outbox::default();
        p.poll(&mut plant, &mut outbox);
        assert!((plant.dose() - 0.4).abs() < 1e-9);
        for _ in 0..DosingPump::WATCHDOG_TICKS + 1 {
            p.poll(&mut plant, &mut outbox);
        }
        assert_eq!(plant.dose(), 0.0, "watchdog should zero the stroke");
    }

    #[test]
    fn interlock_trips_and_latches_on_high_residual() {
        let mut plant = WaterPlant::new();
        let mut il = Interlock::new();
        let req = BusRequest::read(
            units::INTERLOCK,
            units::RESIDUAL_SENSOR,
            residual::CHLORINE_X100,
            1,
        );
        il.on_response(&mut plant, &req, &BusResponse::ok(vec![320]));
        let mut outbox = Outbox::default();
        il.poll(&mut plant, &mut outbox);
        assert!(il.is_tripped());
        assert!(outbox
            .requests()
            .iter()
            .any(|r| r.dst == units::DOSING_PUMP && r.address == pump::SHUTOFF));
        // Latched: later polls go quiet.
        il.on_response(&mut plant, &req, &BusResponse::ok(vec![100]));
        let mut outbox2 = Outbox::default();
        il.poll(&mut plant, &mut outbox2);
        assert!(outbox2.is_empty());
        assert!(il.is_tripped());
    }

    #[test]
    fn disabled_interlock_ignores_violations() {
        let mut plant = WaterPlant::new();
        let mut il = Interlock::new();
        il.handle(
            &mut plant,
            &BusRequest::write(units::SCADA_SERVER, units::INTERLOCK, interlock::ENABLED, 0),
        );
        assert!(!il.is_enabled());
        let req = BusRequest::read(
            units::INTERLOCK,
            units::RESIDUAL_SENSOR,
            residual::CHLORINE_X100,
            1,
        );
        il.on_response(&mut plant, &req, &BusResponse::ok(vec![500]));
        let mut outbox = Outbox::default();
        il.poll(&mut plant, &mut outbox);
        assert!(!il.is_tripped());
        assert!(outbox.is_empty());
    }

    #[test]
    fn safe_hold_freezes_the_basin() {
        let mut p = WaterPlant::new();
        p.set_dose(1.0);
        for _ in 0..100 {
            p.integrate(0.1);
        }
        let before = p.chlorine_mg_l();
        p.emergency_stop();
        p.set_dose(1.0); // ignored
        for _ in 0..100 {
            p.integrate(0.1);
        }
        assert_eq!(p.chlorine_mg_l(), before);
        assert_eq!(p.dose(), 0.0);
        assert!(p.is_stopped());
    }

    #[test]
    fn model_topology_and_scenario_targets_agree() {
        let model = water_model();
        assert_eq!(model.component_count(), 8);
        assert_eq!(model.channel_count(), 9);
        model.validate().unwrap();
        let entries = model.entry_points();
        assert_eq!(entries.len(), 1);
        assert_eq!(model.component(entries[0]).unwrap().name(), names::BUSINESS);
        for scenario in all_water_scenarios() {
            assert!(
                model
                    .component_by_name(&scenario.target_component)
                    .is_some(),
                "scenario `{}` targets unknown component `{}`",
                scenario.name,
                scenario.target_component
            );
            assert!(scenario.weakness_ids.iter().all(|w| w.starts_with("CWE-")));
            assert!(scenario.pattern_ids.iter().all(|p| p.starts_with("CAPEC-")));
        }
    }

    #[test]
    fn every_bus_component_has_a_path_from_the_entry_point() {
        let model = water_model();
        let entry = model.component_id(names::BUSINESS).unwrap();
        for (component, _) in [
            (names::SCADA_SERVER, ()),
            (names::INTERLOCK, ()),
            (names::PLC, ()),
            (names::RESIDUAL, ()),
            (names::PUMP, ()),
        ] {
            assert!(Testbed::Water.unit_for_component(component).is_some());
            let target = model.component_id(component).unwrap();
            assert!(
                model.shortest_path(entry, target).is_some(),
                "no path to {component}"
            );
        }
        assert!(Testbed::Water
            .unit_for_component(names::TURBIDITY)
            .is_none());
    }
}
