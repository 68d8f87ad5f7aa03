//! Pinned fingerprints of the event-driven kernel on the full testbed.
//!
//! The centrifuge's nominal batch and every built-in attack scenario run
//! for 4,000 ticks, and each observable part — trace CSV, bus log,
//! hazards, batch report — must hash to its pinned value. The pins were
//! taken while the min-heap event queue reproduced the original
//! fixed-tick six-phase loop byte for byte, so they keep that proof.
//! Each part is pinned on its own, so a failure names what diverged.

use cpssec_model::fnv1a_64_wide;
use cpssec_scada::{attacks, ScadaConfig, ScadaHarness};

const TICKS: u64 = 4000;

/// Per run: `fnv1a_64_wide` of the trace CSV, the bus log lines, the
/// hazard lines (lines newline-joined) and the batch report's `Debug`.
#[rustfmt::skip]
const PINS: &[(&str, [u64; 4])] = &[
    ("nominal", [0x555c1ae8cfe4ad1f, 0x45a442c7c1539719, 0xaf63bd4c8601b7df, 0xe217b5b1ceacb00b]),
    ("bpcs-command-injection", [0xd5b6e0f68d6766af, 0x225c64c96bf0584d, 0xaf63bd4c8601b7df, 0x0252155cf903ddc3]),
    ("sis-disable-command-injection", [0xf769189dc364fb6a, 0xf0bb3cf475689a1a, 0xbb810462372c875d, 0x770e5a444cccba0f]),
    ("sis-disable-overtemperature", [0x241ef5db092da4e0, 0xe207da991e677f2c, 0xaf63bd4c8601b7df, 0xfead09cb70757c1a]),
    ("temperature-sensor-spoof", [0x241ef5db092da4e0, 0x37e928bcd2c98b69, 0xaf63bd4c8601b7df, 0xfead09cb70757c1a]),
    ("setpoint-tamper", [0xe40ccf63df850813, 0xe5f6b23b3c73faa3, 0xaf63bd4c8601b7df, 0x75f137dee7f27fe6]),
    ("cooling-dos", [0x86894d412acf16db, 0x74d800aaaa9ee7c2, 0xaf63bd4c8601b7df, 0x6f65c30b86912de5]),
    ("chiller-tamper", [0x1996f18d888e9bee, 0xafa00289a1275bda, 0xaf63bd4c8601b7df, 0x87f0eefce148e376]),
];

/// Everything observable after a batch.
struct Fingerprint {
    trace_csv: String,
    bus_log: Vec<String>,
    hazards: Vec<String>,
    report: String,
}

impl Fingerprint {
    fn hashes(&self) -> [u64; 4] {
        [
            fnv1a_64_wide(self.trace_csv.as_bytes()),
            fnv1a_64_wide(self.bus_log.join("\n").as_bytes()),
            fnv1a_64_wide(self.hazards.join("\n").as_bytes()),
            fnv1a_64_wide(self.report.as_bytes()),
        ]
    }
}

/// The testbed, attacked by the scenario named `attack` if any.
fn harness(attack: Option<&str>) -> ScadaHarness {
    let config = ScadaConfig::default();
    match attack {
        Some(name) => {
            let scenario = attacks::all_scenarios()
                .into_iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("no scenario named {name}"));
            ScadaHarness::with_attack(config, &scenario)
        }
        None => ScadaHarness::new(config),
    }
}

fn fingerprint(mut harness: ScadaHarness) -> Fingerprint {
    let report = harness.run_batch_for(TICKS);
    let sim = harness.sim();
    Fingerprint {
        trace_csv: sim.trace().to_csv(),
        bus_log: sim
            .bus()
            .log()
            .iter()
            .map(|e| format!("{} {:?} {:?}", e.tick, e.request, e.outcome))
            .collect(),
        hazards: sim
            .hazards()
            .iter()
            .map(|h| format!("{}@{}", h.hazard, h.at))
            .collect(),
        report: format!("{report:?}"),
    }
}

fn assert_pinned(attack: Option<&str>) {
    let label = attack.unwrap_or("nominal");
    let pinned = PINS
        .iter()
        .find(|(name, _)| *name == label)
        .unwrap_or_else(|| panic!("{label}: no pinned fingerprint"))
        .1;
    let actual = fingerprint(harness(attack)).hashes();
    for (part, (got, want)) in ["trace CSV", "bus log", "hazards", "batch report"]
        .iter()
        .zip(actual.iter().zip(&pinned))
    {
        assert_eq!(got, want, "{label}: {part} diverged from its pin");
    }
}

#[test]
fn nominal_batch_matches_its_pinned_fingerprint() {
    assert_pinned(None);
}

#[test]
fn every_attack_scenario_matches_its_pinned_fingerprint() {
    let scenarios = attacks::all_scenarios();
    for scenario in &scenarios {
        assert_pinned(Some(&scenario.name));
    }
    // One pin per scenario plus the nominal batch: a new scenario needs
    // a pin, and a removed one takes its pin with it.
    assert_eq!(PINS.len(), scenarios.len() + 1);
}
