//! The event-scheduled simulation kernel.

use core::fmt;

use crate::{
    BusLogEntry, BusOutcome, BusRequest, Device, EventQueue, Fieldbus, Firewall, FirewallAction,
    HazardEvent, HazardMonitor, Injector, Outbox, Tick, TraceRecorder, UnitId, Verdict,
};

/// A physical process integrated once per tick.
pub trait Plant {
    /// Advances the continuous dynamics by `dt` seconds.
    fn integrate(&mut self, dt: f64);
}

/// Event phase classes: within one tick, lower classes run first. The
/// ranks follow the phase order (integrate, arm, poll, route,
/// bookkeeping, monitor, record).
const CLASS_INTEGRATE: u8 = 0;
const CLASS_ARM: u8 = 1;
const CLASS_POLL: u8 = 2;
const CLASS_FLUSH: u8 = 3;
const CLASS_BOOKKEEP: u8 = 4;
const CLASS_MONITOR: u8 = 5;
const CLASS_RECORD: u8 = 6;

/// The kernel's own event vocabulary. Recurring events reschedule
/// themselves after executing; one-shot events (arming) do not.
enum KernelEvent {
    /// Advance the plant by `dt`.
    Integrate,
    /// Activate a not-yet-armed injector.
    ArmInjector { index: usize },
    /// Let one device do physical I/O and queue bus requests.
    Poll { device: usize },
    /// Route every request queued by this tick's polls.
    FlushBus,
    /// One device's end-of-tick bookkeeping.
    Bookkeep { device: usize },
    /// Check all hazard monitors.
    Monitor,
    /// Sample the trace probes.
    Record,
}

/// An injector plus its armed state; unarmed injectors are skipped on
/// the bus until their arming event fires.
struct ArmedInjector {
    injector: Box<dyn Injector + Send>,
    armed: bool,
}

/// The simulation: one plant, any number of devices, a bus, injectors,
/// monitors, and a trace.
///
/// Work is ordered by a [`Tick`]-keyed min-heap of events. Within one
/// tick, events run by phase class, in six phases:
///
/// 1. **integrate** — the plant advances by `dt`;
/// 2. **poll** — devices do physical I/O and queue bus requests, in
///    registration order (plus injector arming just before);
/// 3. **route** — each queued request passes the firewall, then every
///    armed injector (which may rewrite or drop it), then reaches the
///    target device; the response passes the injectors again and returns
///    to the requester, all logged;
/// 4. **bookkeeping** — every device's [`Device::after_tick`] runs;
/// 5. **monitor** — hazard monitors check the plant state;
/// 6. **record** — the trace recorder samples its probes.
///
/// Exact ties within a class pop FIFO, so registration order is
/// preserved. With every event at period 1 this is a fixed six-phase
/// step per tick; [`Simulation::set_poll_period`] stretches a device's poll
/// interval without disturbing anything else.
pub struct Simulation<P> {
    plant: P,
    dt: f64,
    now: Tick,
    bus: Fieldbus,
    devices: Vec<Box<dyn Device<P> + Send>>,
    poll_periods: Vec<u64>,
    injectors: Vec<ArmedInjector>,
    monitors: Vec<HazardMonitor<P>>,
    hazards: Vec<HazardEvent>,
    trace: TraceRecorder<P>,
    queue: EventQueue<KernelEvent>,
    pending: Vec<BusRequest>,
    primed: bool,
}

impl<P: Plant> Simulation<P> {
    /// Creates a simulation over `plant` with a step of `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    #[must_use]
    pub fn new(plant: P, dt: f64) -> Self {
        assert!(dt > 0.0, "dt must be positive");
        Simulation {
            plant,
            dt,
            now: Tick::ZERO,
            bus: Fieldbus::new(),
            devices: Vec::new(),
            poll_periods: Vec::new(),
            injectors: Vec::new(),
            monitors: Vec::new(),
            hazards: Vec::new(),
            trace: TraceRecorder::new(),
            queue: EventQueue::new(),
            pending: Vec::new(),
            primed: false,
        }
    }

    /// Registers a device (polled every tick until
    /// [`Simulation::set_poll_period`] says otherwise).
    ///
    /// # Panics
    ///
    /// Panics if another device already uses the same unit id — unit ids
    /// are bus addresses and must be unique.
    pub fn add_device(&mut self, device: impl Device<P> + Send + 'static) {
        assert!(
            self.devices.iter().all(|d| d.unit_id() != device.unit_id()),
            "duplicate unit id {}",
            device.unit_id()
        );
        self.devices.push(Box::new(device));
        self.poll_periods.push(1);
        if self.primed {
            // The running schedule was seeded without this device; give it
            // events from the next tick on. FIFO tie-breaking puts them
            // after every earlier registration.
            let index = self.devices.len() - 1;
            let at = self.now.next();
            self.queue
                .schedule(at, CLASS_POLL, KernelEvent::Poll { device: index });
            self.queue
                .schedule(at, CLASS_BOOKKEEP, KernelEvent::Bookkeep { device: index });
        }
    }

    /// Sets how many ticks elapse between polls of `unit` (default 1).
    /// Takes effect when the device's next already-scheduled poll fires.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or no device uses `unit`.
    pub fn set_poll_period(&mut self, unit: UnitId, period: u64) {
        assert!(period >= 1, "poll period must be at least 1 tick");
        let index = self
            .devices
            .iter()
            .position(|d| d.unit_id() == unit)
            .unwrap_or_else(|| panic!("no device with unit id {unit}"));
        self.poll_periods[index] = period;
    }

    /// Installs the bus firewall.
    pub fn set_firewall(&mut self, firewall: Firewall) {
        self.bus.set_firewall(firewall);
    }

    /// Registers an attack injector, armed immediately; injectors run in
    /// registration order.
    pub fn add_injector(&mut self, injector: impl Injector + Send + 'static) {
        self.add_boxed_injector(Box::new(injector));
    }

    /// [`Simulation::add_injector`] for an injector that is already a trait
    /// object, so it is not boxed a second time.
    pub fn add_boxed_injector(&mut self, injector: Box<dyn Injector + Send>) {
        self.injectors.push(ArmedInjector {
            injector,
            armed: true,
        });
    }

    /// Registers an injector that stays dormant until its arming event
    /// fires at `arm_at` — the event-queue form of a staged intrusion.
    /// (The injector's own [`crate::TickWindow`] still applies on top.)
    pub fn add_injector_at(&mut self, injector: impl Injector + Send + 'static, arm_at: Tick) {
        let index = self.injectors.len();
        self.injectors.push(ArmedInjector {
            injector: Box::new(injector),
            armed: false,
        });
        self.queue
            .schedule(arm_at, CLASS_ARM, KernelEvent::ArmInjector { index });
    }

    /// Registers a hazard monitor.
    pub fn add_monitor(&mut self, monitor: HazardMonitor<P>) {
        self.monitors.push(monitor);
    }

    /// Registers a trace probe.
    pub fn probe(&mut self, name: impl Into<String>, probe: impl Fn(&P) -> f64 + Send + 'static) {
        self.trace.probe(name, probe);
    }

    /// Enables or disables trace sampling (fleet campaigns disable it to
    /// run thousands of scenarios without accumulating columns).
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// Advances one tick: pops and executes every event due at (or
    /// overdue by) the new tick. Recurring events reschedule themselves,
    /// so the queue always holds the next tick's schedule when this
    /// returns.
    pub fn step(&mut self) {
        self.now = self.now.next();
        if !self.primed {
            self.prime();
        }
        while let Some((_, _, event)) = self.queue.pop_due(self.now) {
            self.execute(event);
        }
    }

    /// Seeds the recurring schedule at the first stepped tick. Lazy so
    /// that devices and monitors registered between construction and the
    /// first step are all covered without special cases.
    fn prime(&mut self) {
        self.primed = true;
        let t = self.now;
        self.queue
            .schedule(t, CLASS_INTEGRATE, KernelEvent::Integrate);
        for index in 0..self.devices.len() {
            self.queue
                .schedule(t, CLASS_POLL, KernelEvent::Poll { device: index });
        }
        self.queue.schedule(t, CLASS_FLUSH, KernelEvent::FlushBus);
        for index in 0..self.devices.len() {
            self.queue
                .schedule(t, CLASS_BOOKKEEP, KernelEvent::Bookkeep { device: index });
        }
        self.queue.schedule(t, CLASS_MONITOR, KernelEvent::Monitor);
        self.queue.schedule(t, CLASS_RECORD, KernelEvent::Record);
    }

    fn execute(&mut self, event: KernelEvent) {
        match event {
            KernelEvent::Integrate => {
                self.plant.integrate(self.dt);
                self.queue
                    .schedule(self.now.next(), CLASS_INTEGRATE, KernelEvent::Integrate);
            }
            KernelEvent::ArmInjector { index } => {
                self.injectors[index].armed = true;
            }
            KernelEvent::Poll { device } => {
                let mut outbox = Outbox::default();
                self.devices[device].poll(&mut self.plant, &mut outbox);
                self.pending.extend(outbox.requests);
                let period = self.poll_periods[device];
                self.queue
                    .schedule(self.now + period, CLASS_POLL, KernelEvent::Poll { device });
            }
            KernelEvent::FlushBus => {
                let queued = std::mem::take(&mut self.pending);
                for original in queued {
                    self.route(original);
                }
                self.queue
                    .schedule(self.now.next(), CLASS_FLUSH, KernelEvent::FlushBus);
            }
            KernelEvent::Bookkeep { device } => {
                self.devices[device].after_tick(&mut self.plant, self.now);
                self.queue.schedule(
                    self.now.next(),
                    CLASS_BOOKKEEP,
                    KernelEvent::Bookkeep { device },
                );
            }
            KernelEvent::Monitor => {
                for monitor in &mut self.monitors {
                    if let Some(event) = monitor.check(self.now, &self.plant) {
                        self.hazards.push(event);
                    }
                }
                self.queue
                    .schedule(self.now.next(), CLASS_MONITOR, KernelEvent::Monitor);
            }
            KernelEvent::Record => {
                self.trace.sample(&self.plant);
                self.queue
                    .schedule(self.now.next(), CLASS_RECORD, KernelEvent::Record);
            }
        }
    }

    fn route(&mut self, original: BusRequest) {
        if self.bus.decide(&original) == FirewallAction::Deny {
            self.bus.record(BusLogEntry {
                tick: self.now,
                request: original,
                tampered: false,
                outcome: BusOutcome::FirewallDenied,
            });
            return;
        }
        let mut request = original.clone();
        for armed in self.injectors.iter_mut().filter(|a| a.armed) {
            if armed.injector.intercept_request(self.now, &mut request) == Verdict::Drop {
                let by = armed.injector.name().to_owned();
                self.bus.record(BusLogEntry {
                    tick: self.now,
                    request,
                    tampered: true,
                    outcome: BusOutcome::InjectorDropped { by },
                });
                return;
            }
        }
        let tampered = request != original;
        // Protocol-level validation (MODBUS limits): register quantity must
        // be 1..=123 and writes must carry exactly `quantity` values. A
        // malformed request draws an exception response without reaching
        // the device — like a real protocol stack.
        if let Some(code) = validate_request(&request) {
            let response = crate::BusResponse::exception(code);
            if let Some(src_index) = self.devices.iter().position(|d| d.unit_id() == request.src) {
                self.devices[src_index].on_response(&mut self.plant, &request, &response);
            }
            self.bus.record(BusLogEntry {
                tick: self.now,
                request,
                tampered,
                outcome: BusOutcome::Answered(response),
            });
            return;
        }
        let Some(dst_index) = self.devices.iter().position(|d| d.unit_id() == request.dst) else {
            self.bus.record(BusLogEntry {
                tick: self.now,
                request,
                tampered,
                outcome: BusOutcome::NoSuchUnit,
            });
            return;
        };
        let mut response = self.devices[dst_index].handle(&mut self.plant, &request);
        for armed in self.injectors.iter_mut().filter(|a| a.armed) {
            armed
                .injector
                .intercept_response(self.now, &request, &mut response);
        }
        if let Some(src_index) = self.devices.iter().position(|d| d.unit_id() == request.src) {
            self.devices[src_index].on_response(&mut self.plant, &request, &response);
        }
        self.bus.record(BusLogEntry {
            tick: self.now,
            request,
            tampered,
            outcome: BusOutcome::Answered(response),
        });
    }

    /// Advances `ticks` steps.
    pub fn run(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.step();
        }
    }

    /// Runs until a hazard fires or `max_ticks` elapse; returns the first
    /// hazard if one occurred.
    pub fn run_until_hazard(&mut self, max_ticks: u64) -> Option<HazardEvent> {
        for _ in 0..max_ticks {
            let before = self.hazards.len();
            self.step();
            if self.hazards.len() > before {
                return Some(self.hazards[before].clone());
            }
        }
        None
    }

    /// The current tick.
    #[must_use]
    pub fn now(&self) -> Tick {
        self.now
    }

    /// The kernel step in seconds.
    #[must_use]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Elapsed simulated seconds.
    #[must_use]
    pub fn elapsed_seconds(&self) -> f64 {
        self.now.as_seconds(self.dt)
    }

    /// The plant.
    #[must_use]
    pub fn plant(&self) -> &P {
        &self.plant
    }

    /// Mutable access to the plant (scenario setup, fault injection).
    pub fn plant_mut(&mut self) -> &mut P {
        &mut self.plant
    }

    /// The bus (message log, firewall).
    #[must_use]
    pub fn bus(&self) -> &Fieldbus {
        &self.bus
    }

    /// Mutable access to the bus.
    pub fn bus_mut(&mut self) -> &mut Fieldbus {
        &mut self.bus
    }

    /// All hazard events so far, in order of occurrence.
    #[must_use]
    pub fn hazards(&self) -> &[HazardEvent] {
        &self.hazards
    }

    /// The trace recorder.
    #[must_use]
    pub fn trace(&self) -> &TraceRecorder<P> {
        &self.trace
    }

    /// Number of events currently waiting in the kernel's queue (zero
    /// until the first step primes the schedule).
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Number of registered devices.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Looks up a device's registration index by unit id.
    #[must_use]
    pub fn has_unit(&self, unit: UnitId) -> bool {
        self.devices.iter().any(|d| d.unit_id() == unit)
    }
}

/// MODBUS-style request validation: quantity in `1..=123` and, for
/// writes, a value payload matching the quantity.
fn validate_request(request: &BusRequest) -> Option<crate::ExceptionCode> {
    if request.quantity == 0 || request.quantity > 123 {
        return Some(crate::ExceptionCode::IllegalDataValue);
    }
    if request.function.is_write() && request.values.len() != usize::from(request.quantity) {
        return Some(crate::ExceptionCode::IllegalDataValue);
    }
    None
}

impl<P: fmt::Debug> fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("dt", &self.dt)
            .field("devices", &self.devices.len())
            .field("injectors", &self.injectors.len())
            .field("pending_events", &self.queue.len())
            .field("hazards", &self.hazards.len())
            .field("plant", &self.plant)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BusResponse, DropMatching, ExceptionCode, FirewallRule, RegisterOverride, ResponseOverride,
        TickWindow,
    };

    #[derive(Debug)]
    struct Tank {
        level: f64,
        inflow: f64,
    }

    impl Plant for Tank {
        fn integrate(&mut self, dt: f64) {
            self.level += (self.inflow - 0.1 * self.level) * dt;
        }
    }

    const SENSOR: UnitId = UnitId::new(10);
    const CONTROLLER: UnitId = UnitId::new(1);
    const ACTUATOR: UnitId = UnitId::new(20);

    /// Serves the tank level (scaled x100) at register 0.
    struct LevelSensor;
    impl Device<Tank> for LevelSensor {
        fn unit_id(&self) -> UnitId {
            SENSOR
        }
        fn name(&self) -> &str {
            "level-sensor"
        }
        fn poll(&mut self, _plant: &mut Tank, _outbox: &mut Outbox) {}
        fn handle(&mut self, plant: &mut Tank, request: &BusRequest) -> BusResponse {
            if request.address == 0 && !request.function.is_write() {
                BusResponse::ok(vec![(plant.level * 100.0) as u16])
            } else {
                BusResponse::exception(ExceptionCode::IllegalDataAddress)
            }
        }
    }

    /// Applies register 0 writes (scaled x100) as the inflow command.
    struct InflowValve;
    impl Device<Tank> for InflowValve {
        fn unit_id(&self) -> UnitId {
            ACTUATOR
        }
        fn name(&self) -> &str {
            "inflow-valve"
        }
        fn poll(&mut self, _plant: &mut Tank, _outbox: &mut Outbox) {}
        fn handle(&mut self, plant: &mut Tank, request: &BusRequest) -> BusResponse {
            if request.function.is_write() && request.address == 0 {
                plant.inflow = f64::from(request.values[0]) / 100.0;
                BusResponse::ok(request.values.clone())
            } else {
                BusResponse::exception(ExceptionCode::IllegalFunction)
            }
        }
    }

    /// Bang-bang controller reading the sensor and commanding the valve.
    struct Controller {
        setpoint: f64,
        last_level: f64,
    }
    impl Device<Tank> for Controller {
        fn unit_id(&self) -> UnitId {
            CONTROLLER
        }
        fn name(&self) -> &str {
            "controller"
        }
        fn poll(&mut self, _plant: &mut Tank, outbox: &mut Outbox) {
            outbox.send(BusRequest::read(CONTROLLER, SENSOR, 0, 1));
            let command = if self.last_level < self.setpoint {
                100u16
            } else {
                0
            };
            outbox.send(BusRequest::write(CONTROLLER, ACTUATOR, 0, command));
        }
        fn handle(&mut self, _plant: &mut Tank, _request: &BusRequest) -> BusResponse {
            BusResponse::exception(ExceptionCode::IllegalFunction)
        }
        fn on_response(&mut self, _plant: &mut Tank, request: &BusRequest, response: &BusResponse) {
            if request.dst == SENSOR {
                if let Some(values) = response.values() {
                    self.last_level = f64::from(values[0]) / 100.0;
                }
            }
        }
    }

    fn closed_loop() -> Simulation<Tank> {
        let mut sim = Simulation::new(
            Tank {
                level: 0.0,
                inflow: 0.0,
            },
            0.1,
        );
        sim.add_device(LevelSensor);
        sim.add_device(InflowValve);
        sim.add_device(Controller {
            setpoint: 5.0,
            last_level: 0.0,
        });
        sim
    }

    #[test]
    fn closed_loop_regulates_to_setpoint() {
        let mut sim = closed_loop();
        sim.run(2000);
        assert!(
            (sim.plant().level - 5.0).abs() < 0.5,
            "level {}",
            sim.plant().level
        );
        assert!(sim.bus().message_count() > 0);
    }

    #[test]
    fn duplicate_unit_ids_panic() {
        let mut sim = closed_loop();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.add_device(LevelSensor);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn firewall_denial_is_logged_and_blocks_control() {
        let mut sim = closed_loop();
        sim.set_firewall(
            Firewall::new(FirewallAction::Allow).with_rule(
                FirewallRule::any(FirewallAction::Deny)
                    .from_src(CONTROLLER)
                    .to_dst(ACTUATOR),
            ),
        );
        sim.run(500);
        // The valve never opens, so the tank stays empty.
        assert!(sim.plant().level < 0.1);
        assert!(sim
            .bus()
            .log()
            .iter()
            .any(|e| e.outcome == BusOutcome::FirewallDenied));
    }

    #[test]
    fn register_override_forces_the_actuator() {
        let mut sim = closed_loop();
        // Force every inflow command to zero: the tank can never fill.
        sim.add_injector(RegisterOverride::new(
            "force-closed",
            TickWindow::always(),
            ACTUATOR,
            0,
            0,
        ));
        sim.run(1000);
        assert!(sim.plant().level < 0.1);
        assert!(sim.bus().log().iter().any(|e| e.tampered));
    }

    #[test]
    fn response_override_blinds_the_controller() {
        let mut sim = closed_loop();
        // Spoof the level reading to zero: controller keeps filling forever.
        sim.add_injector(ResponseOverride::new(
            "spoof-level",
            TickWindow::always(),
            SENSOR,
            0,
            0,
        ));
        sim.run(3000);
        assert!(sim.plant().level > 7.0, "level {}", sim.plant().level);
    }

    #[test]
    fn drop_injector_is_attributed_in_the_log() {
        let mut sim = closed_loop();
        sim.add_injector(DropMatching::new("dos", TickWindow::always(), Some(SENSOR)));
        sim.run(10);
        assert!(sim.bus().log().iter().any(|e| matches!(
            &e.outcome,
            BusOutcome::InjectorDropped { by } if by == "dos"
        )));
    }

    #[test]
    fn unknown_destination_is_logged() {
        struct Babbler;
        impl Device<Tank> for Babbler {
            fn unit_id(&self) -> UnitId {
                UnitId::new(99)
            }
            fn name(&self) -> &str {
                "babbler"
            }
            fn poll(&mut self, _plant: &mut Tank, outbox: &mut Outbox) {
                outbox.send(BusRequest::read(UnitId::new(99), UnitId::new(42), 0, 1));
            }
            fn handle(&mut self, _plant: &mut Tank, _req: &BusRequest) -> BusResponse {
                BusResponse::exception(ExceptionCode::IllegalFunction)
            }
        }
        let mut sim = Simulation::new(
            Tank {
                level: 0.0,
                inflow: 0.0,
            },
            0.1,
        );
        sim.add_device(Babbler);
        sim.step();
        assert_eq!(sim.bus().log()[0].outcome, BusOutcome::NoSuchUnit);
    }

    #[test]
    fn monitors_latch_and_run_until_hazard_stops() {
        let mut sim = closed_loop();
        sim.add_monitor(HazardMonitor::new("half-full", |t: &Tank| t.level > 2.5));
        let event = sim.run_until_hazard(5000).expect("tank passes 2.5");
        assert_eq!(event.hazard, "half-full");
        assert_eq!(sim.hazards().len(), 1);
        // Continue running: latched, no further events.
        sim.run(100);
        assert_eq!(sim.hazards().len(), 1);
    }

    #[test]
    fn trace_samples_every_tick() {
        let mut sim = closed_loop();
        sim.probe("level", |t: &Tank| t.level);
        sim.run(50);
        assert_eq!(sim.trace().sample_count(), 50);
        let summary = sim.trace().summary("level").unwrap();
        assert!(summary.max <= 6.0);
    }

    #[test]
    fn determinism_two_identical_runs_agree() {
        let run = || {
            let mut sim = closed_loop();
            sim.probe("level", |t: &Tank| t.level);
            sim.run(500);
            (
                sim.plant().level.to_bits(),
                sim.bus().message_count(),
                sim.trace().series("level").unwrap().to_vec(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn malformed_requests_draw_protocol_exceptions() {
        struct Malformed {
            responses: Vec<BusResponse>,
        }
        impl Device<Tank> for Malformed {
            fn unit_id(&self) -> UnitId {
                UnitId::new(88)
            }
            fn name(&self) -> &str {
                "malformed"
            }
            fn poll(&mut self, _plant: &mut Tank, outbox: &mut Outbox) {
                // Zero quantity, oversized quantity, mismatched payload.
                outbox.send(BusRequest::read(UnitId::new(88), SENSOR, 0, 0));
                outbox.send(BusRequest::read(UnitId::new(88), SENSOR, 0, 500));
                let mut bad_write = BusRequest::write(UnitId::new(88), ACTUATOR, 0, 1);
                bad_write.quantity = 2; // payload has one value
                outbox.send(bad_write);
            }
            fn handle(&mut self, _plant: &mut Tank, _req: &BusRequest) -> BusResponse {
                BusResponse::exception(ExceptionCode::IllegalFunction)
            }
            fn on_response(&mut self, _plant: &mut Tank, _req: &BusRequest, resp: &BusResponse) {
                self.responses.push(resp.clone());
            }
        }
        let mut sim = closed_loop();
        sim.add_device(Malformed {
            responses: Vec::new(),
        });
        sim.step();
        // All three malformed requests were answered with exceptions and
        // never reached a device handler.
        let exceptions = sim
            .bus()
            .log()
            .iter()
            .filter(|e| {
                matches!(
                    &e.outcome,
                    BusOutcome::Answered(BusResponse::Exception(ExceptionCode::IllegalDataValue))
                )
            })
            .count();
        assert_eq!(exceptions, 3);
    }

    #[test]
    fn after_tick_runs_once_per_tick_per_device() {
        struct Counter {
            ticks_seen: u64,
        }
        impl Device<Tank> for Counter {
            fn unit_id(&self) -> UnitId {
                UnitId::new(77)
            }
            fn name(&self) -> &str {
                "counter"
            }
            fn poll(&mut self, _plant: &mut Tank, _outbox: &mut Outbox) {}
            fn handle(&mut self, _plant: &mut Tank, _req: &BusRequest) -> BusResponse {
                BusResponse::exception(ExceptionCode::IllegalFunction)
            }
            fn after_tick(&mut self, plant: &mut Tank, now: Tick) {
                self.ticks_seen += 1;
                assert_eq!(now.count(), self.ticks_seen);
                // Bookkeeping may touch the plant.
                plant.inflow = plant.inflow.max(0.0);
            }
        }
        let mut sim = Simulation::new(
            Tank {
                level: 0.0,
                inflow: 0.0,
            },
            0.1,
        );
        sim.add_device(Counter { ticks_seen: 0 });
        sim.run(25);
        assert_eq!(sim.now().count(), 25);
    }

    #[test]
    fn elapsed_seconds_track_ticks() {
        let mut sim = closed_loop();
        sim.run(100);
        assert_eq!(sim.now(), Tick::new(100));
        assert!((sim.elapsed_seconds() - 10.0).abs() < 1e-9);
        assert!(sim.has_unit(SENSOR));
        assert!(!sim.has_unit(UnitId::new(123)));
        assert_eq!(sim.device_count(), 3);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_is_rejected() {
        let _ = Simulation::new(
            Tank {
                level: 0.0,
                inflow: 0.0,
            },
            0.0,
        );
    }

    /// The closed loop with everything observable wired up: two probes,
    /// a hazard monitor, and a sensor override between ticks 40 and 60.
    fn instrumented_loop() -> Simulation<Tank> {
        let mut sim = closed_loop();
        sim.probe("level", |t: &Tank| t.level);
        sim.probe("inflow", |t: &Tank| t.inflow);
        sim.add_monitor(HazardMonitor::new("half-full", |t: &Tank| t.level > 2.5));
        sim.add_injector(ResponseOverride::new(
            "nudge",
            TickWindow::between(Tick::new(40), Tick::new(60)),
            SENSOR,
            0,
            0,
        ));
        sim
    }

    /// Runs `sim` for `ticks` and fingerprints everything observable:
    /// trace CSV bytes, bus log lines, hazards, plant bits.
    fn fingerprint(
        mut sim: Simulation<Tank>,
        ticks: u64,
    ) -> (String, Vec<String>, Vec<String>, u64) {
        sim.run(ticks);
        let log: Vec<String> = sim
            .bus()
            .log()
            .iter()
            .map(|e| format!("{} {:?} {:?}", e.tick, e.request, e.outcome))
            .collect();
        let hazards: Vec<String> = sim
            .hazards()
            .iter()
            .map(|h| format!("{}@{}", h.hazard, h.at))
            .collect();
        (
            sim.trace().to_csv(),
            log,
            hazards,
            sim.plant().level.to_bits(),
        )
    }

    #[test]
    fn closed_loop_matches_its_pinned_fingerprint() {
        // Pinned when the event queue reproduced the original fixed
        // six-phase loop byte for byte; each part is pinned on its own
        // so a failure names what diverged.
        let (trace, log, hazards, level) = fingerprint(instrumented_loop(), 300);
        let wide = |text: &str| cpssec_model::fnv1a_64_wide(text.as_bytes());
        assert_eq!(wide(&trace), 0x4976b9945127d0b8, "trace CSV diverged");
        assert_eq!(
            wide(&log.join("\n")),
            0x63cd4b23275e6577,
            "bus log diverged"
        );
        assert_eq!(
            wide(&hazards.join("\n")),
            0x9ce1e6edc8fd2939,
            "hazards diverged"
        );
        assert_eq!(level, 0x401416c6035adcce, "plant state diverged");
    }

    #[test]
    fn poll_period_halves_a_devices_traffic() {
        let mut sim = closed_loop();
        sim.run(100);
        let every_tick = sim.bus().message_count();

        let mut slow = closed_loop();
        slow.set_poll_period(CONTROLLER, 2);
        slow.run(100);
        // The controller is the only requester, so its traffic halves.
        assert_eq!(slow.bus().message_count(), every_tick / 2);
        // The loop still regulates — just with a slower control rate.
        slow.run(3000);
        assert!((slow.plant().level - 5.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "poll period must be at least 1 tick")]
    fn zero_poll_period_is_rejected() {
        let mut sim = closed_loop();
        sim.set_poll_period(CONTROLLER, 0);
    }

    #[test]
    #[should_panic(expected = "no device with unit id")]
    fn poll_period_for_unknown_unit_panics() {
        let mut sim = closed_loop();
        sim.set_poll_period(UnitId::new(200), 1);
    }

    #[test]
    fn devices_added_mid_run_join_the_schedule() {
        struct Chatter {
            polls: u64,
        }
        impl Device<Tank> for Chatter {
            fn unit_id(&self) -> UnitId {
                UnitId::new(66)
            }
            fn name(&self) -> &str {
                "chatter"
            }
            fn poll(&mut self, _plant: &mut Tank, outbox: &mut Outbox) {
                self.polls += 1;
                outbox.send(BusRequest::read(UnitId::new(66), SENSOR, 0, 1));
            }
            fn handle(&mut self, _plant: &mut Tank, _req: &BusRequest) -> BusResponse {
                BusResponse::exception(ExceptionCode::IllegalFunction)
            }
        }
        let mut sim = closed_loop();
        sim.run(10);
        let before = sim.bus().message_count();
        sim.add_device(Chatter { polls: 0 });
        sim.run(10);
        // 2 controller requests + 1 chatter request per tick.
        assert_eq!(sim.bus().message_count(), before + 30);
    }

    #[test]
    fn injector_armed_by_event_stays_dormant_until_its_tick() {
        let mut sim = closed_loop();
        // Window is "always", but arming happens at tick 50: before that
        // the spoof must not bite.
        sim.add_injector_at(
            ResponseOverride::new("late-spoof", TickWindow::always(), SENSOR, 0, 0),
            Tick::new(50),
        );
        sim.run(49);
        assert!(!sim.bus().log().iter().any(|e| e.tampered));
        let level_at_49 = sim.plant().level;
        sim.run(2951);
        // Once armed, the controller is blind and overfills past setpoint.
        assert!(
            sim.plant().level > level_at_49.max(7.0),
            "level {}",
            sim.plant().level
        );
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut sim = closed_loop();
        sim.probe("level", |t: &Tank| t.level);
        sim.set_trace_enabled(false);
        sim.run(50);
        assert_eq!(sim.trace().sample_count(), 0);
        sim.set_trace_enabled(true);
        sim.run(10);
        assert_eq!(sim.trace().sample_count(), 10);
    }

    #[test]
    fn queue_stays_bounded_across_a_long_run() {
        let mut sim = closed_loop();
        sim.run(1);
        let after_one = sim.pending_events();
        sim.run(999);
        // Recurring events replace themselves 1:1 — no growth.
        assert_eq!(sim.pending_events(), after_one);
    }
}
