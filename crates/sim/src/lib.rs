//! Deterministic discrete-event simulation kernel for cyber-physical systems.
//!
//! The paper's thesis is that security tooling must connect attacks to
//! *physical consequences*. This crate is the substrate that makes the
//! connection executable: an event-scheduled kernel ([`Simulation`]
//! driven by a min-heap [`EventQueue`]) coupling a physical [`Plant`] to
//! digital [`Device`]s over a MODBUS-flavoured [`Fieldbus`] with a
//! [`Firewall`], plus message-level attack [`Injector`]s, latching
//! [`HazardMonitor`]s, and a [`TraceRecorder`]. The fleet module scales
//! single scenarios into seeded Monte-Carlo campaigns ([`run_fleet`],
//! [`derive_seed`]) whose results are independent of thread count.
//!
//! Everything is deterministic: events pop in `(tick, phase, FIFO)`
//! order, devices are polled in registration order, requests are routed
//! in issue order, and all randomness (e.g. sensor noise in downstream
//! crates) is seeded explicitly.
//!
//! # Examples
//!
//! A one-device closed loop over a first-order plant:
//!
//! ```
//! use cpssec_sim::{Device, Outbox, BusRequest, BusResponse, Simulation, UnitId};
//!
//! struct Tank { level: f64, inflow: f64 }
//! impl cpssec_sim::Plant for Tank {
//!     fn integrate(&mut self, dt: f64) {
//!         self.level += (self.inflow - 0.1 * self.level) * dt;
//!     }
//! }
//!
//! struct Controller;
//! impl Device<Tank> for Controller {
//!     fn unit_id(&self) -> UnitId { UnitId::new(1) }
//!     fn name(&self) -> &str { "controller" }
//!     fn poll(&mut self, plant: &mut Tank, _outbox: &mut Outbox) {
//!         plant.inflow = if plant.level < 5.0 { 1.0 } else { 0.0 };
//!     }
//!     fn handle(&mut self, _plant: &mut Tank, _req: &BusRequest) -> BusResponse {
//!         BusResponse::exception(cpssec_sim::ExceptionCode::IllegalFunction)
//!     }
//! }
//!
//! let mut sim = Simulation::new(Tank { level: 0.0, inflow: 0.0 }, 0.1);
//! sim.add_device(Controller);
//! sim.run(1000);
//! assert!((sim.plant().level - 5.0).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod control;
mod device;
mod fleet;
mod inject;
mod kernel;
mod monitor;
mod scheduler;
mod time;
mod trace;

pub use bus::{
    BusFunction, BusLogEntry, BusOutcome, BusRequest, BusResponse, ExceptionCode, Fieldbus,
    Firewall, FirewallAction, FirewallRule, UnitId,
};
pub use control::Pid;
pub use device::{Device, Outbox};
pub use fleet::{active_workers, derive_seed, run_fleet, SplitMix64};
pub use inject::{
    DropMatching, Injector, RegisterOverride, ResponseOverride, Stage, StageLog, StageTrigger,
    StagedInjection, TickWindow, Verdict,
};
pub use kernel::{Plant, Simulation};
pub use monitor::{HazardEvent, HazardMonitor};
pub use scheduler::EventQueue;
pub use time::Tick;
pub use trace::{SeriesSummary, TraceRecorder};
