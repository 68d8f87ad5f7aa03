//! The chain compiler: matched exploit chains → ordered stage plans.
//!
//! For every component of the model, the compiler takes the exploit
//! chains mined from that component's match set and decides how — and
//! whether — each chain can be *executed* on the testbed:
//!
//! 1. the chain attaches to the component whose matches produced it;
//! 2. a testbed scenario is looked up whose `target_component` is that
//!    component and whose CWE or CAPEC provenance contains the chain's
//!    weakness or pattern (first match in library order wins);
//! 3. the stage plan is the model's shortest entry-point→component path:
//!    initial access at the entry, one pivot per intermediate component,
//!    actuation at the target.
//!
//! A chain with no matching scenario or no topological path compiles to
//! a *textual-only* plan: the association holds on paper, but nothing
//! executable follows from it — exactly the distinction the paper says
//! pure attack-vector matching cannot make.

use cpssec_attackdb::Corpus;
use cpssec_model::{Fidelity, SystemModel};
use cpssec_scada::AttackScenario;
use cpssec_search::{exploit_chains, ExploitChain, SearchEngine};

/// One compiled chain: where it attaches, what it can execute, and how
/// it gets there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainPlan {
    /// The mined exploit chain.
    pub chain: ExploitChain,
    /// The component whose match set produced the chain.
    pub component: String,
    /// The scenario that executes the chain, when one applies.
    pub scenario: Option<String>,
    /// Entry-point→component path (stage plan); empty when the topology
    /// offers no route.
    pub path: Vec<String>,
}

impl ChainPlan {
    /// Whether the chain compiled to something executable: a scenario
    /// attached AND a topological route exists.
    #[must_use]
    pub fn is_executable(&self) -> bool {
        self.scenario.is_some() && !self.path.is_empty()
    }

    /// Canonical one-line form, used for byte-identity checks:
    /// `chain|component|scenario|path`.
    #[must_use]
    pub fn canonical_line(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.chain,
            self.component,
            self.scenario.as_deref().unwrap_or("-"),
            self.path.join(">"),
        )
    }
}

/// Compiles every matched chain of the model into a stage plan, in
/// deterministic order (component name, then chain order).
///
/// `limit_per_component` caps the chains mined per component (the
/// [`exploit_chains`] cap). Matching runs at implementation fidelity —
/// the level at which CVE-bearing attributes exist.
#[must_use]
pub fn compile_chains(
    model: &SystemModel,
    corpus: &Corpus,
    scenarios: &[AttackScenario],
    limit_per_component: usize,
) -> Vec<ChainPlan> {
    compile_chains_with(model, corpus, scenarios, limit_per_component, false)
}

/// [`compile_chains`] with an explicit parallelism switch for the model
/// match pass. The output is byte-identical either way ([`SearchEngine`]'s
/// parallel fan-out is order-preserving); the switch exists so campaign
/// callers on many-core hosts can use it and tests can pin the identity.
#[must_use]
pub fn compile_chains_with(
    model: &SystemModel,
    corpus: &Corpus,
    scenarios: &[AttackScenario],
    limit_per_component: usize,
    parallel: bool,
) -> Vec<ChainPlan> {
    let engine = SearchEngine::build(corpus);
    let matches = if parallel {
        engine.par_match_model(model, Fidelity::Implementation)
    } else {
        engine.match_model(model, Fidelity::Implementation)
    };
    let entry = model.entry_points().first().copied();

    let mut plans = Vec::new();
    for (component, set) in matches {
        for chain in exploit_chains(&set, corpus, limit_per_component) {
            let weakness = chain.weakness.to_string();
            let pattern = chain.pattern.to_string();
            let scenario = scenarios
                .iter()
                .find(|s| {
                    s.target_component == component
                        && (s.weakness_ids.contains(&weakness) || s.pattern_ids.contains(&pattern))
                })
                .map(|s| s.name.clone());
            let path = match (entry, model.component_id(&component)) {
                (Some(entry), Some(target)) => model
                    .shortest_path(entry, target)
                    .map(|ids| {
                        ids.iter()
                            .filter_map(|id| model.component(*id))
                            .map(|c| c.name().to_owned())
                            .collect()
                    })
                    .unwrap_or_default(),
                _ => Vec::new(),
            };
            plans.push(ChainPlan {
                chain,
                component: component.clone(),
                scenario,
                path,
            });
        }
    }
    plans.sort_by(|a, b| (&a.component, a.chain).cmp(&(&b.component, b.chain)));
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::seed::seed_corpus;
    use cpssec_scada::Testbed;

    #[test]
    fn centrifuge_compiles_executable_and_textual_plans() {
        let testbed = Testbed::Centrifuge;
        let corpus = seed_corpus();
        let plans = compile_chains(&testbed.model(), &corpus, &testbed.scenario_library(), 100);
        assert!(!plans.is_empty());
        assert!(plans.iter().any(ChainPlan::is_executable));
        assert!(plans.iter().any(|p| !p.is_executable()));
        // The Triton-style chains on the SIS compile to the SIS-disable
        // scenario through the CWE-306 provenance.
        assert!(plans.iter().any(|p| {
            p.component == "SIS platform"
                && p.scenario.as_deref() == Some("sis-disable-command-injection")
        }));
        // Chains on the firewall match textually but nothing executes
        // there: the distinction the verdict taxonomy is built on.
        assert!(plans
            .iter()
            .filter(|p| p.component == "Control firewall")
            .all(|p| p.scenario.is_none()));
    }

    #[test]
    fn water_compiles_executable_and_textual_plans() {
        let testbed = Testbed::Water;
        let corpus = seed_corpus();
        let plans = compile_chains(&testbed.model(), &corpus, &testbed.scenario_library(), 100);
        assert!(plans.iter().any(ChainPlan::is_executable));
        assert!(plans.iter().any(|p| !p.is_executable()));
        // CWE-400 chains on the dosing PLC execute the DoS scenario.
        assert!(plans.iter().any(|p| {
            p.component == "dosing plc" && p.scenario.as_deref() == Some("dosing-dos")
        }));
    }

    #[test]
    fn executable_paths_start_at_the_entry_point() {
        for testbed in Testbed::ALL {
            let corpus = seed_corpus();
            let model = testbed.model();
            let entry = model.entry_points()[0];
            let entry_name = model.component(entry).unwrap().name();
            for plan in compile_chains(&model, &corpus, &testbed.scenario_library(), 100) {
                if plan.is_executable() {
                    assert_eq!(plan.path.first().map(String::as_str), Some(entry_name));
                    assert_eq!(
                        plan.path.last().map(String::as_str),
                        Some(plan.component.as_str())
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_compile_is_byte_identical() {
        let testbed = Testbed::Centrifuge;
        let corpus = seed_corpus();
        let library = testbed.scenario_library();
        let serial: Vec<String> =
            compile_chains_with(&testbed.model(), &corpus, &library, 50, false)
                .iter()
                .map(ChainPlan::canonical_line)
                .collect();
        let parallel: Vec<String> =
            compile_chains_with(&testbed.model(), &corpus, &library, 50, true)
                .iter()
                .map(ChainPlan::canonical_line)
                .collect();
        assert_eq!(serial, parallel);
    }
}
