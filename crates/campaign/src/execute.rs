//! The campaign executor and scorer.
//!
//! Every compiled chain runs as a staged injection on the event kernel
//! (see [`cpssec_scada::staged`]) with its own
//! [`derive_seed`](cpssec_sim::derive_seed)-derived
//! sensor seed, fanned out over [`run_fleet`] so the records come back
//! in chain order and are identical at any thread count. The scorer
//! collapses each run to one of three verdicts:
//!
//! * [`CampaignVerdict::ReachedHazard`] — a hazard monitor latched;
//! * [`CampaignVerdict::Contained`] — some stage never fired (a firewall
//!   blocked the route), or every stage fired and a barrier (safety
//!   system or the process envelope itself) absorbed the actuation;
//! * [`CampaignVerdict::TextualOnly`] — the chain matched the model but
//!   compiled to nothing executable.

use core::fmt;
use std::sync::atomic::AtomicU64;

use cpssec_attackdb::seed::seed_corpus;
use cpssec_model::fnv1a_64;
use cpssec_scada::staged::{run_staged_centrifuge, run_staged_water, StagedOutcome, StagedSpec};
use cpssec_sim::run_fleet;

use crate::compile::{compile_chains_with, ChainPlan, Testbed};

/// Parameters of one campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRun {
    /// The testbed to compile against and execute on.
    pub testbed: Testbed,
    /// Campaign seed; every chain's sensor seed derives from it.
    pub seed: u64,
    /// Worker threads (never affects results).
    pub threads: usize,
    /// Per-stage adversary dwell, ticks.
    pub dwell: u64,
    /// Simulation horizon per chain, ticks.
    pub max_ticks: u64,
    /// Chains mined per component.
    pub chain_limit: usize,
}

impl CampaignRun {
    /// A run over a testbed with the default dwell (200), horizon
    /// (6000), per-component chain cap (64), and one thread per core.
    #[must_use]
    pub fn new(testbed: Testbed, seed: u64) -> Self {
        CampaignRun {
            testbed,
            seed,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            dwell: 200,
            max_ticks: 6000,
            chain_limit: 64,
        }
    }
}

/// The consequence-level verdict on one chain.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CampaignVerdict {
    /// The staged campaign drove the plant into a hazard.
    ReachedHazard {
        /// The hazard monitor that latched.
        hazard: String,
        /// Ticks from the actuation stage firing to the hazard.
        time_to_hazard: u64,
    },
    /// The campaign was stopped short of a hazard.
    Contained {
        /// Index of the stage at which progress ended: the first stage
        /// that never fired, or the stage count when every stage fired
        /// but a barrier absorbed the actuation.
        blocked_at_stage: usize,
        /// What contained it: the name of the unfired stage, or
        /// `safety-instrumented-system` / `process-envelope` when all
        /// stages ran.
        barrier: String,
    },
    /// Matched the model textually; nothing executable follows.
    TextualOnly,
}

impl CampaignVerdict {
    /// The verdict kind, kebab-case.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            CampaignVerdict::ReachedHazard { .. } => "reached-hazard",
            CampaignVerdict::Contained { .. } => "contained",
            CampaignVerdict::TextualOnly => "textual-only",
        }
    }
}

impl fmt::Display for CampaignVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignVerdict::ReachedHazard {
                hazard,
                time_to_hazard,
            } => write!(f, "reached-hazard:{hazard}@{time_to_hazard}"),
            CampaignVerdict::Contained {
                blocked_at_stage,
                barrier,
            } => write!(f, "contained:{barrier}@{blocked_at_stage}"),
            CampaignVerdict::TextualOnly => f.write_str("textual-only"),
        }
    }
}

/// The outcome of one chain — everything the report layer needs, and
/// nothing scheduling-dependent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainRecord {
    /// Chain index within the campaign (compile order).
    pub index: u64,
    /// The derived per-chain seed.
    pub seed: u64,
    /// The chain, in `CVE -> CWE -> CAPEC` display form.
    pub chain: String,
    /// The component the chain attached to.
    pub component: String,
    /// The scenario that executed it, when one applied.
    pub scenario: Option<String>,
    /// Stage names of the plan (empty for textual-only chains).
    pub stages: Vec<String>,
    /// The consequence verdict.
    pub verdict: CampaignVerdict,
}

impl ChainRecord {
    /// Canonical record line; the campaign hash is computed over these.
    #[must_use]
    pub fn record_line(&self) -> String {
        format!(
            "{},{},{},{},{},{},{}",
            self.index,
            self.seed,
            self.chain,
            self.component,
            self.scenario.as_deref().unwrap_or("-"),
            self.stages.len(),
            self.verdict,
        )
    }
}

/// FNV-1a hash over all canonical record lines — the campaign identity
/// pinned by tests and CI at multiple thread counts.
#[must_use]
pub fn records_hash(records: &[ChainRecord]) -> u64 {
    let mut text = String::new();
    for record in records {
        text.push_str(&record.record_line());
        text.push('\n');
    }
    fnv1a_64(text.as_bytes())
}

/// Counts records per verdict kind: `(reached, contained, textual)`.
#[must_use]
pub fn verdict_counts(records: &[ChainRecord]) -> (usize, usize, usize) {
    let mut reached = 0;
    let mut contained = 0;
    let mut textual = 0;
    for record in records {
        match record.verdict {
            CampaignVerdict::ReachedHazard { .. } => reached += 1,
            CampaignVerdict::Contained { .. } => contained += 1,
            CampaignVerdict::TextualOnly => textual += 1,
        }
    }
    (reached, contained, textual)
}

/// Scores one staged outcome into a verdict.
#[must_use]
pub fn score(outcome: &StagedOutcome) -> CampaignVerdict {
    if outcome.reached_hazard() {
        let hazard = outcome
            .hazard
            .as_ref()
            .map(|h| h.hazard.clone())
            .unwrap_or_default();
        CampaignVerdict::ReachedHazard {
            hazard,
            time_to_hazard: outcome.time_to_hazard().unwrap_or(0),
        }
    } else if let Some(blocked) = outcome.first_blocked() {
        CampaignVerdict::Contained {
            blocked_at_stage: blocked,
            barrier: outcome
                .stages
                .get(blocked)
                .cloned()
                .unwrap_or_else(|| "unknown-stage".to_owned()),
        }
    } else {
        CampaignVerdict::Contained {
            blocked_at_stage: outcome.stages.len(),
            barrier: if outcome.emergency_stopped {
                "safety-instrumented-system".to_owned()
            } else {
                "process-envelope".to_owned()
            },
        }
    }
}

fn execute_plan(run: &CampaignRun, plan: &ChainPlan, index: u64, seed: u64) -> ChainRecord {
    let _span = cpssec_obs::span!("campaign-chain");
    let base = ChainRecord {
        index,
        seed,
        chain: plan.chain.to_string(),
        component: plan.component.clone(),
        scenario: plan.scenario.clone(),
        stages: Vec::new(),
        verdict: CampaignVerdict::TextualOnly,
    };
    if !plan.is_executable() {
        return base;
    }
    let library = run.testbed.scenario_library();
    let Some(attack) = library
        .iter()
        .find(|s| Some(&s.name) == plan.scenario.as_ref())
    else {
        return base;
    };
    let spec = StagedSpec::new(plan.path.clone())
        .with_dwell(run.dwell)
        .with_max_ticks(run.max_ticks)
        .with_sensor_seed(seed);
    let outcome = match run.testbed {
        Testbed::Centrifuge => run_staged_centrifuge(attack, &spec),
        Testbed::Water => run_staged_water(attack, &spec),
    };
    ChainRecord {
        stages: outcome.stages.clone(),
        verdict: score(&outcome),
        ..base
    }
}

/// Compiles and runs the whole campaign; records come back in chain
/// order and are identical at any thread count.
#[must_use]
pub fn run_campaign(run: &CampaignRun) -> Vec<ChainRecord> {
    run_campaign_with_progress(run, None)
}

/// [`run_campaign`] with an optional live progress counter, incremented
/// once per completed chain (poll it from another thread).
#[must_use]
pub fn run_campaign_with_progress(
    run: &CampaignRun,
    progress: Option<&AtomicU64>,
) -> Vec<ChainRecord> {
    let corpus = seed_corpus();
    let plans = compile_chains_with(
        &run.testbed.model(),
        &corpus,
        &run.testbed.scenario_library(),
        run.chain_limit,
        run.threads > 1,
    );
    run_fleet(
        plans.len() as u64,
        run.seed,
        run.threads,
        progress,
        |index, seed| execute_plan(run, &plans[index as usize], index, seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(testbed: Testbed, threads: usize) -> CampaignRun {
        CampaignRun {
            threads,
            chain_limit: 8,
            ..CampaignRun::new(testbed, 0xCA3)
        }
    }

    #[test]
    fn verdict_display_is_canonical() {
        let reached = CampaignVerdict::ReachedHazard {
            hazard: "rotor-overspeed".into(),
            time_to_hazard: 103,
        };
        assert_eq!(reached.to_string(), "reached-hazard:rotor-overspeed@103");
        assert_eq!(reached.kind(), "reached-hazard");
        let contained = CampaignVerdict::Contained {
            blocked_at_stage: 3,
            barrier: "actuate:SIS platform".into(),
        };
        assert_eq!(contained.to_string(), "contained:actuate:SIS platform@3");
        assert_eq!(CampaignVerdict::TextualOnly.to_string(), "textual-only");
    }

    #[test]
    fn centrifuge_campaign_distinguishes_all_three_verdicts() {
        let records = run_campaign(&quick(Testbed::Centrifuge, 4));
        let (reached, contained, textual) = verdict_counts(&records);
        assert!(reached > 0, "{records:?}");
        assert!(contained > 0, "{records:?}");
        assert!(textual > 0, "{records:?}");
        assert_eq!(reached + contained + textual, records.len());
    }

    #[test]
    fn water_campaign_distinguishes_all_three_verdicts() {
        let records = run_campaign(&quick(Testbed::Water, 4));
        let (reached, contained, textual) = verdict_counts(&records);
        assert!(reached > 0, "{records:?}");
        assert!(contained > 0, "{records:?}");
        assert!(textual > 0, "{records:?}");
    }

    #[test]
    fn records_are_identical_at_any_thread_count() {
        let one = run_campaign(&quick(Testbed::Centrifuge, 1));
        let four = run_campaign(&quick(Testbed::Centrifuge, 4));
        assert_eq!(one, four);
        assert_eq!(records_hash(&one), records_hash(&four));
    }

    #[test]
    fn textual_only_chains_carry_no_stages() {
        let records = run_campaign(&quick(Testbed::Centrifuge, 2));
        for record in &records {
            match record.verdict {
                CampaignVerdict::TextualOnly => assert!(record.stages.is_empty()),
                _ => assert!(!record.stages.is_empty()),
            }
        }
    }
}
