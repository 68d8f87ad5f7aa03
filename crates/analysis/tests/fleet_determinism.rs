//! Fleet determinism at smoke scale: a 200-scenario campaign produces
//! identical records — and therefore an identical aggregate hash — at
//! any thread count, every scenario replays standalone bit-for-bit, and
//! the campaign actually finds hazards.

use cpssec_analysis::{aggregate, aggregate_hash};
use cpssec_scada::campaign::FAMILIES;
use cpssec_scada::{run_campaign, run_scenario, CampaignSpec};

fn smoke_spec(threads: usize) -> CampaignSpec {
    let mut spec = CampaignSpec::new(200, 0xD15EA5E);
    spec.max_ticks = 2500;
    spec.threads = threads;
    spec
}

#[test]
fn two_hundred_scenarios_are_thread_count_invariant() {
    let parallel = run_campaign(&smoke_spec(4));
    let serial = run_campaign(&smoke_spec(1));
    assert_eq!(parallel.len(), 200);
    assert_eq!(
        parallel, serial,
        "thread count must never change the records"
    );
    assert_eq!(aggregate_hash(&parallel), aggregate_hash(&serial));

    // Scenario i standalone == scenario i in-fleet, across the range.
    let spec = smoke_spec(4);
    for index in [0, 31, 99, 150, 199] {
        assert_eq!(parallel[index as usize], run_scenario(&spec, index));
    }

    // The smoke fleet is statistically alive: hazards fired, every class
    // got sampled, and the nominal class stayed clean.
    let agg = aggregate(&parallel);
    assert!(agg.hazards > 0, "200 scenarios must include hazards");
    assert_eq!(agg.per_class.len(), FAMILIES.len());
    let by_class: u64 = agg.per_class.iter().map(|c| c.scenarios).sum();
    assert_eq!(by_class, 200);
    let nominal = agg
        .per_class
        .iter()
        .find(|c| c.class == "nominal")
        .expect("nominal sampled");
    assert_eq!(nominal.hazards, 0);
    // SIS-disabled overspeed injections reach the hazard quickly, so the
    // overall time-to-hazard distribution is populated.
    assert_eq!(agg.time_to_hazard.count, agg.hazards);
}

#[test]
fn aggregate_hash_is_reproducible_across_runs() {
    let first = aggregate_hash(&run_campaign(&smoke_spec(2)));
    let second = aggregate_hash(&run_campaign(&smoke_spec(3)));
    assert_eq!(first, second, "same campaign seed, same statistics");
}
