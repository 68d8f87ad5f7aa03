//! The particle separation centrifuge demonstration (§3 of the paper).
//!
//! This crate builds the paper's use case twice, from the same constants:
//!
//! * as a **running closed-loop simulation** ([`ScadaHarness`]) on top of
//!   [`cpssec_sim`] — programming workstation, control firewall, BPCS,
//!   SIS, temperature sensor, cooling unit, and the centrifuge itself,
//!   talking MODBUS-style over the fieldbus; and
//! * as a **system model** ([`model::scada_model`]) on top of
//!   [`cpssec_model`] — the Fig 1 topology with the Table 1 attributes at
//!   their appropriate fidelity levels.
//!
//! The physical envelope follows the paper: separation is highly sensitive
//! to temperature (too low → viscous product; too high → unstable solution,
//! explosion/fire), rotor speed must stay within ±20 rpm of the set point
//! for a useful product, the centrifuge reaches at most 10,000 rpm and
//! regulates to ±1 rpm.
//!
//! A second plant, the water-treatment dosing loop ([`water`]), runs the
//! same way; [`Testbed`] describes both once (model, scenarios, bus
//! units and their roles) for the firewall, the attack-effect
//! interpreter and the staged runner ([`run_staged`]).
//!
//! Attack scenarios ([`attacks`]) connect matched attack vectors (e.g.
//! CWE-78 OS command injection on the BPCS/SIS platforms, the Triton-style
//! safety-system disable) to their physical consequences.
//!
//! # Examples
//!
//! ```
//! use cpssec_scada::{ScadaConfig, ScadaHarness, ProductQuality};
//!
//! let mut harness = ScadaHarness::new(ScadaConfig::default());
//! let report = harness.run_batch();
//! assert_eq!(report.product, ProductQuality::Nominal);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addresses;
pub mod attacks;
mod bpcs;
pub mod campaign;
mod devices;
pub mod faults;
pub mod model;
mod physics;
mod sis;
pub mod staged;
mod system;
pub mod testbed;
pub mod water;
mod workstation;

pub use attacks::{AttackEffect, AttackScenario};
pub use bpcs::Bpcs;
pub use campaign::{
    run_campaign, run_campaign_with_progress, run_scenario, AttackFamily, CampaignSpec,
    ScenarioRecord,
};
pub use devices::{CentrifugeDrive, CoolingUnit, TemperatureSensor};
pub use faults::{FaultMode, FaultScenario};
pub use physics::CentrifugePlant;
pub use sis::Sis;
pub use staged::{run_staged, StagedOutcome, StagedSpec};
pub use system::{BatchReport, ProductQuality, ScadaConfig, ScadaHarness};
pub use testbed::Testbed;
pub use water::{
    all_water_scenarios, water_model, WaterConfig, WaterHarness, WaterPlant, WaterQuality,
    WaterReport,
};
pub use workstation::Workstation;
