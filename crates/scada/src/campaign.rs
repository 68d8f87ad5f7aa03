//! Monte-Carlo attack campaigns over the centrifuge testbed.
//!
//! A campaign runs N scenarios, each drawing an attack family from
//! [`FAMILIES`], an injection tick, an attack magnitude, and a
//! sensor-noise seed from its own [`SplitMix64`] stream seeded by
//! [`derive_seed`]`(campaign_seed, i)`. Scenario *i* is therefore a pure
//! function of `(campaign_seed, i)`: it can be replayed standalone
//! ([`run_scenario`]) and must reproduce its in-fleet record
//! bit-for-bit, and the whole campaign produces identical records at any
//! thread count ([`run_campaign`]).
//!
//! [`FAMILIES`] is the one description of each family: its name, the
//! magnitude range sampled and the attack built from the draws. Specs,
//! records and statistics carry the family's name.
//!
//! This is the paper's consequence analysis at distribution scale:
//! instead of one trajectory per attack story, each family yields
//! P(hazard | family) and a time-to-hazard distribution.

use std::sync::atomic::AtomicU64;

use cpssec_sim::{derive_seed, run_fleet, SplitMix64, Tick};

use crate::attacks::{self, AttackScenario};
use crate::system::{ProductQuality, ScadaConfig, ScadaHarness};

/// One parametric attack family a campaign samples from.
#[derive(Debug, Clone, Copy)]
pub struct AttackFamily {
    /// Canonical kebab-case name.
    pub name: &'static str,
    /// The magnitude range sampled (`lo..hi`), or `None` when the family
    /// has no magnitude axis.
    pub magnitude: Option<(u64, u64)>,
    /// Builds the attack from the injection tick, the magnitude and the
    /// SIS disable tick; `None` is the nominal baseline.
    pub build: Option<fn(Tick, u16, Tick) -> AttackScenario>,
}

/// Every attack family, in canonical order.
pub static FAMILIES: [AttackFamily; 7] = [
    // No attack — the baseline batch.
    AttackFamily {
        name: "nominal",
        magnitude: None,
        build: None,
    },
    // CWE-78 command injection on the BPCS, SIS armed. Forced set point
    // beyond the 10,200 rpm overspeed threshold.
    AttackFamily {
        name: "command-injection",
        magnitude: Some((10_300, 11_000)),
        build: Some(|from, rpm, _| attacks::command_injection_bpcs_with(from, rpm)),
    },
    // Triton-style SIS disable followed by the same injection.
    AttackFamily {
        name: "sis-disabled-injection",
        magnitude: Some((10_300, 11_000)),
        build: Some(|from, rpm, disable_at| {
            attacks::command_injection_with_sis_disabled_with(disable_at, from, rpm)
        }),
    },
    // Spoofed temperature probe blinding both controllers. Forged
    // in-window reading, tenths of °C.
    AttackFamily {
        name: "sensor-spoof",
        magnitude: Some((300, 400)),
        build: Some(|from, value, _| attacks::sensor_spoof_with(from, value)),
    },
    // Operator set point tampered just past the ±20 rpm product
    // tolerance.
    AttackFamily {
        name: "setpoint-tamper",
        magnitude: Some((8030, 8200)),
        build: Some(|from, rpm, _| attacks::setpoint_tamper_with(from, rpm)),
    },
    // Denial of service on the chiller command path.
    AttackFamily {
        name: "cooling-dos",
        magnitude: None,
        build: Some(|from, _, _| attacks::cooling_dos(from)),
    },
    // Chiller command forced high, well above the thermal equilibrium
    // need — overcooled, viscous product.
    AttackFamily {
        name: "chiller-tamper",
        magnitude: Some((500, 1000)),
        build: Some(|from, permille, _| attacks::chiller_tamper_with(from, permille)),
    },
];

/// The family named `name`, if there is one.
#[must_use]
pub fn family(name: &str) -> Option<&'static AttackFamily> {
    FAMILIES.iter().find(|family| family.name == name)
}

/// Parameters of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Number of scenarios to run.
    pub scenarios: u64,
    /// Campaign seed; every scenario seed derives from it.
    pub seed: u64,
    /// Names of the [`FAMILIES`] sampled uniformly per scenario.
    pub classes: Vec<&'static str>,
    /// Ticks each scenario runs for.
    pub max_ticks: u64,
    /// Worker threads ([`run_campaign`] only; never affects results).
    pub threads: usize,
}

impl CampaignSpec {
    /// A spec over every attack family with the default horizon and one
    /// thread per available core.
    #[must_use]
    pub fn new(scenarios: u64, seed: u64) -> Self {
        CampaignSpec {
            scenarios,
            seed,
            classes: FAMILIES.iter().map(|family| family.name).collect(),
            max_ticks: 6000,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }
}

/// The outcome of one scenario — everything the aggregate layer needs,
/// and nothing scheduling-dependent.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// Scenario index within the campaign.
    pub index: u64,
    /// The derived per-scenario seed.
    pub seed: u64,
    /// Name of the sampled attack family.
    pub class: &'static str,
    /// Sampled injection tick (0 for the nominal family).
    pub inject_tick: u64,
    /// Sampled family-specific magnitude (rpm, tenths of °C, or per
    /// mille; 0 where the family has no magnitude axis).
    pub magnitude: u16,
    /// Product quality classification.
    pub product: ProductQuality,
    /// First hazard, as `(name, tick)`, if any fired.
    pub hazard: Option<(String, u64)>,
    /// Whether the SIS emergency stop engaged.
    pub emergency_stopped: bool,
    /// Ticks executed.
    pub ticks: u64,
}

impl ScenarioRecord {
    /// Ticks from injection to the first hazard, if one fired.
    #[must_use]
    pub fn ticks_to_hazard(&self) -> Option<u64> {
        self.hazard
            .as_ref()
            .map(|&(_, at)| at.saturating_sub(self.inject_tick))
    }
}

/// Runs scenario `index` of the campaign standalone, bit-for-bit equal
/// to its in-fleet execution.
///
/// # Panics
///
/// If `spec.classes` is empty or names a family outside [`FAMILIES`].
#[must_use]
pub fn run_scenario(spec: &CampaignSpec, index: u64) -> ScenarioRecord {
    let seed = derive_seed(spec.seed, index);
    let mut rng = SplitMix64::new(seed);

    assert!(
        !spec.classes.is_empty(),
        "campaign needs at least one class"
    );
    let class = spec.classes[rng.gen_range(0, spec.classes.len() as u64) as usize];
    let family = family(class).unwrap_or_else(|| panic!("unknown attack family `{class}`"));
    let (inject_tick, magnitude, attack) = match family.build {
        None => (0, 0, None),
        Some(build) => {
            let inject_tick = rng.gen_range(100, 3000);
            let magnitude = family
                .magnitude
                .map_or(0, |(lo, hi)| rng.gen_range(lo, hi) as u16);
            // SIS disable lands during warm-up, always before the injection.
            let disable_at = rng.gen_range(50, 100);
            let attack = build(Tick::new(inject_tick), magnitude, Tick::new(disable_at));
            (inject_tick, magnitude, Some(attack))
        }
    };
    let sensor_seed = rng.next_u64();

    let config = ScadaConfig {
        sensor_seed,
        ..ScadaConfig::default()
    };
    let mut harness = match &attack {
        Some(attack) => ScadaHarness::with_attack(config, attack),
        None => ScadaHarness::new(config),
    };
    // Fleets only need outcomes; per-tick probe columns would dominate
    // the memory bill at thousands of scenarios.
    harness.sim_mut().set_trace_enabled(false);
    let report = harness.run_batch_for(spec.max_ticks);

    ScenarioRecord {
        index,
        seed,
        class,
        inject_tick,
        magnitude,
        product: report.product,
        hazard: report
            .hazards
            .first()
            .map(|h| (h.hazard.clone(), h.at.count())),
        emergency_stopped: report.emergency_stopped,
        ticks: report.ticks,
    }
}

/// Runs the whole campaign across `spec.threads` workers; records come
/// back in index order and are identical at any thread count.
#[must_use]
pub fn run_campaign(spec: &CampaignSpec) -> Vec<ScenarioRecord> {
    run_campaign_with_progress(spec, None)
}

/// [`run_campaign`] with an optional live progress counter, incremented
/// once per completed scenario (poll it from another thread).
#[must_use]
pub fn run_campaign_with_progress(
    spec: &CampaignSpec,
    progress: Option<&AtomicU64>,
) -> Vec<ScenarioRecord> {
    run_fleet(
        spec.scenarios,
        spec.seed,
        spec.threads,
        progress,
        |index, _seed| run_scenario(spec, index),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            scenarios: 24,
            seed: 0xC0FFEE,
            threads: 3,
            ..CampaignSpec::new(24, 0xC0FFEE)
        }
    }

    #[test]
    fn class_names_round_trip() {
        for row in &FAMILIES {
            assert_eq!(family(row.name).map(|f| f.name), Some(row.name));
        }
        assert!(family("no-such-class").is_none());
    }

    #[test]
    fn records_are_identical_at_any_thread_count() {
        let spec = small_spec();
        let three = run_campaign(&spec);
        let one = run_campaign(&CampaignSpec {
            threads: 1,
            ..spec.clone()
        });
        let five = run_campaign(&CampaignSpec { threads: 5, ..spec });
        assert_eq!(three, one);
        assert_eq!(three, five);
    }

    #[test]
    fn standalone_replay_matches_the_fleet() {
        let spec = small_spec();
        let fleet = run_campaign(&spec);
        for index in [0, 7, 23] {
            assert_eq!(fleet[index as usize], run_scenario(&spec, index));
        }
    }

    #[test]
    fn campaign_covers_classes_and_finds_hazards() {
        let mut spec = CampaignSpec::new(40, 7);
        spec.threads = 2;
        let records = run_campaign(&spec);
        assert_eq!(records.len(), 40);
        let classes: std::collections::BTreeSet<&str> = records.iter().map(|r| r.class).collect();
        assert!(classes.len() >= 5, "40 draws should hit most classes");
        // SIS-disabled overspeed always reaches the hazard inside the
        // horizon, so a 40-scenario campaign has hazards.
        assert!(records.iter().any(|r| r.hazard.is_some()));
        // Nominal scenarios never produce hazards.
        assert!(records
            .iter()
            .filter(|r| r.class == "nominal")
            .all(|r| r.hazard.is_none() && r.product == ProductQuality::Nominal));
    }

    #[test]
    fn ticks_to_hazard_is_relative_to_injection() {
        let record = ScenarioRecord {
            index: 0,
            seed: 0,
            class: "command-injection",
            inject_tick: 500,
            magnitude: 10_500,
            product: ProductQuality::Destroyed,
            hazard: Some(("rotor-overspeed".into(), 740)),
            emergency_stopped: false,
            ticks: 6000,
        };
        assert_eq!(record.ticks_to_hazard(), Some(240));
    }

    #[test]
    #[should_panic(expected = "unknown attack family `quantum`")]
    fn unknown_family_name_is_rejected() {
        let mut spec = CampaignSpec::new(1, 1);
        spec.classes = vec!["quantum"];
        let _ = run_scenario(&spec, 0);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_class_list_is_rejected() {
        let mut spec = CampaignSpec::new(1, 1);
        spec.classes.clear();
        let _ = run_scenario(&spec, 0);
    }
}
