//! How busy the host is, second by second.
//!
//! On a shared virtual machine the program's speed moves with the other
//! tenants of the host. Two things show it. Steal is CPU time the
//! hypervisor gave to another guest. Memory contention comes from other
//! tenants on the same caches and memory bus; no counter reports it, and
//! on a 2-vCPU virtual machine it was the larger effect: a fixed pointer
//! chase through a 2 MiB table took anywhere from 6.2 to 8.8 ms from one
//! second to the next on an idle guest, while a register-only loop held
//! within 2%. So the sampler measures it: a
//! few times a second it times a short chase through a table of its own,
//! in the thread's CPU time, which leaves out waiting for a CPU. The
//! chase is the benchmark's own code and calls nothing in the program.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Table entries: 2 MiB of `u32`, larger than a core's L2 cache.
const TABLE: usize = 1 << 19;
/// Reads per probe: about a millisecond on a quiet host.
const CHASE: usize = 1 << 15;
/// Pause between probes; about 2% of one CPU goes to probing.
const PAUSE: Duration = Duration::from_millis(50);

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`, where present.
pub fn cpu_ticks() -> Option<(u64, u64)> {
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

/// CPU time this thread has run, in ns, where the kernel reports it.
fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A table in a seeded random order: following `table[at]` visits the
/// entries in a cycle the prefetcher cannot predict.
fn chase_table() -> Vec<u32> {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut order: Vec<u32> = (0..TABLE as u32).collect();
    for i in (1..TABLE).rev() {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let j = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    let mut table = vec![0u32; TABLE];
    for pair in order.windows(2) {
        table[pair[0] as usize] = pair[1];
    }
    table[order[TABLE - 1] as usize] = order[0];
    table
}

/// One probe: `CHASE` dependent reads, timed in thread CPU time (wall
/// time where that is missing), in ms.
fn probe(table: &[u32], at: &mut u32) -> f64 {
    let (wall, cpu) = (Instant::now(), thread_cpu_ns());
    for _ in 0..CHASE {
        *at = table[*at as usize];
    }
    black_box(*at);
    match (cpu, thread_cpu_ns()) {
        (Some(before), Some(after)) => (after - before) as f64 / 1e6,
        _ => wall.elapsed().as_secs_f64() * 1e3,
    }
}

/// Scores every whole second from `started` until stopped: the median
/// probe time of the second, divided by the share of CPU time the host
/// left to its guests. Lower is quieter.
pub struct HostSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<f64>>,
}

impl HostSampler {
    /// Starts sampling on a thread of its own.
    pub fn start(started: Instant) -> HostSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let table = chase_table();
            let mut at = 0;
            let mut scores = Vec::new();
            let mut previous = cpu_ticks();
            loop {
                let next = started + Duration::from_secs(scores.len() as u64 + 1);
                let mut probes = Vec::new();
                while Instant::now() < next {
                    if flag.load(Ordering::SeqCst) {
                        return scores;
                    }
                    probes.push(probe(&table, &mut at));
                    std::thread::sleep(PAUSE);
                }
                let current = cpu_ticks();
                let steal = match (previous, current) {
                    (Some(p), Some(c)) => (c.0 - p.0) as f64 / (c.1 - p.1).max(1) as f64,
                    _ => 0.0,
                };
                previous = current;
                scores.push(crate::stats::median(&probes) / (1.0 - steal).max(0.05));
            }
        });
        HostSampler { stop, handle }
    }

    /// Stops sampling; returns the score of each whole second.
    pub fn stop(self) -> Vec<f64> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("host sampler")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_visits_every_entry_once_per_cycle() {
        let table = chase_table();
        let mut seen = vec![false; TABLE];
        let mut at = 0u32;
        for _ in 0..TABLE {
            assert!(!seen[at as usize], "entry {at} visited twice");
            seen[at as usize] = true;
            at = table[at as usize];
        }
        assert_eq!(at, 0, "the walk closes its cycle");
    }
}
