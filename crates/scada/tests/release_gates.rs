//! Release-mode gate for the scenario fleet: E15's thread scaling.
//!
//! `#[ignore]`d because its bound is a timing that only means something
//! in an optimized build. Run it with
//! `cargo test --release -p cpssec-scada --test release_gates -- --ignored --nocapture`.
//! That the thread count never changes the statistics is pinned by
//! `cpssec-analysis`'s `fleet_determinism` tests and CI's fleet smoke step.
//!
//! One side of the comparison runs for about 0.2 s, short enough for a
//! stolen vCPU to decide it. So the gate measures the fleet, not the
//! host: the 1-thread and N-thread sides alternate over [`ROUNDS`]
//! rounds, each side reads the host's steal from `/proc/stat` around its
//! run, and a side the host stole more than [`MAX_STEAL`] of is measured
//! again, up to [`ATTEMPTS`] times. A side stolen on every attempt fails
//! the gate and says so; it is never skipped. The verdict is the median
//! of the per-round speedups.

use std::time::Instant;

use cpssec_scada::{run_campaign, CampaignSpec};

/// Scenarios per side (each runs 3,000 ticks).
const SCENARIOS: u64 = 24;
/// Rounds of interleaved 1-thread / N-thread measurement.
const ROUNDS: usize = 5;
/// Largest share of all CPU time the host may steal from one side.
const MAX_STEAL: f64 = 0.10;
/// Measurements of one side before a stolen side fails the gate.
const ATTEMPTS: usize = 5;
/// Smallest accepted median speedup at one thread per core.
const BOUND: f64 = 1.15;

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`, where present.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user and nice.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// One unstolen measurement of the fleet at a thread count.
struct Side {
    /// Scenarios per second.
    rate: f64,
    /// Share of all CPU time the host stole while it ran.
    steal: f64,
}

/// Runs the fleet at `threads` until an attempt is not stolen; on
/// failure, returns the steal of every attempt.
fn measure(threads: usize) -> Result<Side, Vec<f64>> {
    let mut stolen = Vec::new();
    for _ in 0..ATTEMPTS {
        let mut spec = CampaignSpec::new(SCENARIOS, 0xF1EE7);
        spec.max_ticks = 3000;
        spec.threads = threads;
        let before = cpu_ticks();
        let started = Instant::now();
        std::hint::black_box(run_campaign(&spec));
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        let steal = match (before, cpu_ticks()) {
            (Some(b), Some(a)) => (a.0 - b.0) as f64 / (a.1 - b.1).max(1) as f64,
            _ => 0.0,
        };
        if steal <= MAX_STEAL {
            return Ok(Side {
                rate: SCENARIOS as f64 / elapsed,
                steal,
            });
        }
        stolen.push(steal);
    }
    Err(stolen)
}

fn measure_or_fail(threads: usize, round: usize) -> Side {
    measure(threads).unwrap_or_else(|stolen| {
        let shares: Vec<String> = stolen
            .iter()
            .map(|s| format!("{:.1}%", s * 100.0))
            .collect();
        panic!(
            "E15 round {round}: all {ATTEMPTS} attempts at {threads} thread(s) were stolen \
             (steal {}, limit {:.0}%), so this host cannot measure the fleet now",
            shares.join(", "),
            MAX_STEAL * 100.0
        )
    })
}

/// E15: 24 scenarios x 3,000 ticks run at least 1.15x faster at one
/// thread per core than at one thread, on a machine with 2 or more cores.
#[test]
#[ignore = "release-mode gate"]
fn e15_the_fleet_scales_with_cores() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut speedups = Vec::with_capacity(ROUNDS);
    let mut worst_steal: f64 = 0.0;
    for round in 0..ROUNDS {
        // Alternate which side goes first, so a drift in host speed
        // across a round lands on each side equally often.
        let (one, many) = if round % 2 == 0 {
            let one = measure_or_fail(1, round);
            (one, measure_or_fail(cores, round))
        } else {
            let many = measure_or_fail(cores, round);
            (measure_or_fail(1, round), many)
        };
        let speedup = many.rate / one.rate;
        println!(
            "E15 round {round}: {:.1} scenarios/s at 1 thread (steal {:.1}%), \
             {:.1} at {cores} (steal {:.1}%), {speedup:.2}x",
            one.rate,
            one.steal * 100.0,
            many.rate,
            many.steal * 100.0,
        );
        worst_steal = worst_steal.max(one.steal).max(many.steal);
        speedups.push(speedup);
    }
    speedups.sort_by(f64::total_cmp);
    let median = speedups[ROUNDS / 2];
    println!(
        "E15: median speedup {median:.2}x at {cores} threads over {ROUNDS} rounds \
         (bound > {BOUND}x, steal at most {:.1}% per side)",
        worst_steal * 100.0
    );
    // Scaling needs parallel hardware; one core can show none.
    if cores >= 2 {
        assert!(
            median > BOUND,
            "fleet must scale with cores: median {median:.2}x at {cores} threads \
             (per round {speedups:.2?}), bound > {BOUND}x"
        );
    }
}
