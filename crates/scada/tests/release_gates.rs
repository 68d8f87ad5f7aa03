//! Release-mode gate for the scenario fleet: E15's thread scaling.
//!
//! `#[ignore]`d because its bound is a timing that only means something
//! in an optimized build. Run it with
//! `cargo test --release -p cpssec-scada --test release_gates -- --ignored`.
//! That the thread count never changes the statistics is pinned by
//! `cpssec-analysis`'s `fleet_determinism` tests and CI's fleet smoke step.

use std::time::Instant;

use cpssec_scada::{run_campaign, CampaignSpec};

/// E15: 24 scenarios x 3,000 ticks run at least 1.15x faster at one
/// thread per core than at one thread, on a machine with 2 or more cores.
#[test]
#[ignore = "release-mode gate"]
fn e15_the_fleet_scales_with_cores() {
    let scenarios = 24;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rate_at = |threads: usize| {
        let mut spec = CampaignSpec::new(scenarios, 0xF1EE7);
        spec.max_ticks = 3000;
        spec.threads = threads;
        let started = Instant::now();
        std::hint::black_box(run_campaign(&spec));
        scenarios as f64 / started.elapsed().as_secs_f64().max(1e-9)
    };
    let rate_one = rate_at(1);
    let rate_many = rate_at(cores);
    println!(
        "E15: {rate_one:.1} scenarios/s at 1 thread, {rate_many:.1} at {cores} ({:.2}x)",
        rate_many / rate_one
    );
    // Scaling needs parallel hardware; one core can show none.
    if cores >= 2 {
        assert!(
            rate_many > rate_one * 1.15,
            "fleet must scale with cores: {rate_one:.1}/s at 1 thread vs {rate_many:.1}/s at {cores}"
        );
    }
}
