//! Pinned reports of both harnesses under every built-in scenario.
//!
//! Each run's report collapses to one canonical line: the quality or
//! product class, every hazard with its tick, the stop and overdose (or
//! explosion) flags, the exact `f64` bits of every numeric field, and
//! the tick count. The line's FNV-1a hash is pinned per run, so a change
//! to how scenarios, faults or firewalls are applied that moves any
//! report by one bit fails here and names the run.
//!
//! Four centrifuge runs (`sis-disable-overtemperature`,
//! `temperature-sensor-spoof` and the stuck and drifting probes) share
//! one report, at `run_batch`'s default horizon and past their t4038
//! overtemperature latch alike, so a mistake in the effects of one of
//! them (say, a shifted tick for the compromised workstation's writes)
//! would not move its hash.
//! The centrifuge runs are therefore pinned a second time over
//! [`LONG_HORIZON`] ticks with the whole bus message log folded into the
//! hash: every firewall decision, every tampered or dropped request and
//! every answer. Each run then hashes apart from the others in its table.
//! `temperature-sensor-spoof` and `stuck-temperature-probe` still match
//! each other across the two tables: the spoofed and the stuck reading
//! put the same bytes on the bus, which is the paper's point that an
//! attack can look exactly like a fault.

use cpssec_model::{fnv1a_64, Fnv64};
use cpssec_scada::faults::all_fault_scenarios;
use cpssec_scada::{
    all_water_scenarios, attacks::all_scenarios, BatchReport, ScadaConfig, ScadaHarness,
    WaterConfig, WaterHarness, WaterReport,
};
use cpssec_sim::HazardEvent;

#[rustfmt::skip]
const CENTRIFUGE_ATTACKS: &[(&str, u64)] = &[
    ("bpcs-command-injection", 0x3d3df1137013e804),
    ("sis-disable-command-injection", 0x0f95764ab7c41d60),
    ("sis-disable-overtemperature", 0x128032813a84a18b),
    ("temperature-sensor-spoof", 0x128032813a84a18b),
    ("setpoint-tamper", 0x29bc3675ebc7451d),
    ("cooling-dos", 0x9414b8afd172669d),
    ("chiller-tamper", 0xae2ecfc2b4037983),
];

#[rustfmt::skip]
const CENTRIFUGE_FAULTS: &[(&str, u64)] = &[
    ("stuck-temperature-probe", 0x128032813a84a18b),
    ("drifting-temperature-probe", 0x128032813a84a18b),
    ("chiller-degradation", 0xa047033a18629a4d),
];

/// Ticks of the second centrifuge pass: past the t4038 overtemperature
/// latch that the default 4,010-tick batch window misses.
const LONG_HORIZON: u64 = 6_000;

#[rustfmt::skip]
const CENTRIFUGE_ATTACKS_LONG: &[(&str, u64)] = &[
    ("bpcs-command-injection", 0xdd20eae0c3f46da3),
    ("sis-disable-command-injection", 0xf7442a9ed148fca8),
    ("sis-disable-overtemperature", 0x81c664a9e4263320),
    ("temperature-sensor-spoof", 0x1f3d5c3bc63f0952),
    ("setpoint-tamper", 0xbef0fdca3af81e77),
    ("cooling-dos", 0xaea9cd574a4e866e),
    ("chiller-tamper", 0xeff1e40da6eb3aa3),
];

#[rustfmt::skip]
const CENTRIFUGE_FAULTS_LONG: &[(&str, u64)] = &[
    ("stuck-temperature-probe", 0x1f3d5c3bc63f0952),
    ("drifting-temperature-probe", 0x5b2877a5d25a3118),
    ("chiller-degradation", 0x116041133d65ac9e),
];

#[rustfmt::skip]
const WATER_ATTACKS: &[(&str, u64)] = &[
    ("dosing-command-injection", 0xf5bb562c35953765),
    ("interlock-disable-overdose", 0x6eff6245cdd5e2a1),
    ("residual-sensor-spoof", 0xd7f19ec0221a14a0),
    ("dosing-dos", 0xeac0cfabc524f4ee),
];

fn hazards_line(hazards: &[HazardEvent]) -> String {
    hazards
        .iter()
        .map(|h| format!("{}@{}", h.hazard, h.at.count()))
        .collect::<Vec<_>>()
        .join(";")
}

fn batch_line(r: &BatchReport) -> String {
    format!(
        "{}|{}|stop={}|exploded={}|{:016x}|{:016x}|{:016x}|{:016x}|{}",
        r.product,
        hazards_line(&r.hazards),
        r.emergency_stopped,
        r.exploded,
        r.max_temperature_c.to_bits(),
        r.window_min_temperature_c.to_bits(),
        r.window_max_temperature_c.to_bits(),
        r.max_speed_deviation_rpm.to_bits(),
        r.ticks,
    )
}

fn water_line(r: &WaterReport) -> String {
    format!(
        "{}|{}|stop={}|overdosed={}|{:016x}|{:016x}|{:016x}|{}",
        r.quality,
        hazards_line(&r.hazards),
        r.emergency_stopped,
        r.overdosed,
        r.max_chlorine_mg_l.to_bits(),
        r.window_min_mg_l.to_bits(),
        r.window_max_mg_l.to_bits(),
        r.ticks,
    )
}

/// Compares measured `(name, hash)` pairs with the pins, reporting every
/// run that moved (and the full measured table, ready to paste).
fn check(label: &str, pins: &[(&str, u64)], measured: &[(String, u64)]) {
    let table: String = measured
        .iter()
        .map(|(name, hash)| format!("    (\"{name}\", 0x{hash:016x}),\n"))
        .collect();
    let names: Vec<&str> = measured.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = pins.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "{label}: run list moved; measured:\n{table}");
    let moved: Vec<&str> = measured
        .iter()
        .zip(pins)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(
        moved.is_empty(),
        "{label}: reports moved for {moved:?}; measured:\n{table}"
    );
}

/// Hashes the centrifuge harness's report under every built-in attack,
/// over `ticks` or the default batch window.
fn centrifuge_attacks(ticks: Option<u64>) -> Vec<(String, u64)> {
    all_scenarios()
        .iter()
        .map(|attack| {
            let harness = ScadaHarness::with_attack(ScadaConfig::default(), attack);
            (attack.name.clone(), batch_hash(harness, ticks))
        })
        .collect()
}

/// Hashes the centrifuge harness's report under every built-in fault.
fn centrifuge_faults(ticks: Option<u64>) -> Vec<(String, u64)> {
    all_fault_scenarios()
        .iter()
        .map(|fault| {
            let harness = ScadaHarness::with_fault(ScadaConfig::default(), fault);
            (fault.name.clone(), batch_hash(harness, ticks))
        })
        .collect()
}

/// Hashes the report over the default batch window, or the report and
/// then every bus log entry over `ticks`.
fn batch_hash(mut harness: ScadaHarness, ticks: Option<u64>) -> u64 {
    let Some(ticks) = ticks else {
        return fnv1a_64(batch_line(&harness.run_batch()).as_bytes());
    };
    let report = harness.run_batch_for(ticks);
    let mut hash = Fnv64::new();
    hash.write_str(&batch_line(&report));
    for entry in harness.sim().bus().log() {
        hash.write_str(&format!("\n{entry:?}"));
    }
    hash.finish()
}

#[test]
fn centrifuge_attack_reports_are_pinned() {
    check(
        "centrifuge attacks",
        CENTRIFUGE_ATTACKS,
        &centrifuge_attacks(None),
    );
}

#[test]
fn centrifuge_fault_reports_are_pinned() {
    check(
        "centrifuge faults",
        CENTRIFUGE_FAULTS,
        &centrifuge_faults(None),
    );
}

#[test]
fn centrifuge_attack_reports_are_pinned_past_the_batch_window() {
    check(
        "centrifuge attacks, long horizon",
        CENTRIFUGE_ATTACKS_LONG,
        &centrifuge_attacks(Some(LONG_HORIZON)),
    );
}

#[test]
fn centrifuge_fault_reports_are_pinned_past_the_batch_window() {
    check(
        "centrifuge faults, long horizon",
        CENTRIFUGE_FAULTS_LONG,
        &centrifuge_faults(Some(LONG_HORIZON)),
    );
}

#[test]
fn water_attack_reports_are_pinned() {
    let measured: Vec<(String, u64)> = all_water_scenarios()
        .iter()
        .map(|attack| {
            let report = WaterHarness::with_attack(WaterConfig::default(), attack).run_batch();
            (
                attack.name.clone(),
                fnv1a_64(water_line(&report).as_bytes()),
            )
        })
        .collect();
    check("water attacks", WATER_ATTACKS, &measured);
}
