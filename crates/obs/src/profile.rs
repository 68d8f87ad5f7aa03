//! Continuous span-stack profiler.
//!
//! Every thread that opens spans publishes its *current* span stack
//! into a registered per-thread slot: a fixed array of stage ids plus
//! a depth counter, guarded by the same safe seqlock discipline as the
//! flight rings (writer bumps the sequence odd, stores, bumps it even;
//! readers retry on odd or changed sequences). Only the owning thread
//! ever writes its slot, so publishing is two uncontended `fetch_add`s
//! and a couple of relaxed stores per span boundary.
//!
//! A sampler thread ([`Sampler`]) walks every registered slot at a
//! configurable frequency and accumulates the observed stacks into a
//! weighted [`FlameGraph`]: each observation adds one sampling period
//! of wall time to the sampled path, so the flame graph's root weight
//! approximates elapsed wall-clock × live thread count. Threads caught
//! outside any span are accounted under the reserved [`IDLE_STAGE`]
//! path, which keeps that identity exact instead of silently dropping
//! idle time.
//!
//! Publishing is gated on the recorder's profile flag
//! ([`crate::Recorder::profile_enabled`]); samplers hold the flag via a
//! refcount ([`ProfileGuard`]) so overlapping profile windows compose
//! and spans stay at their one-atomic-load disabled cost otherwise.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use crate::trace::escape_json;

/// Deepest published stack; deeper spans still run, they just are not
/// visible to the sampler below this depth.
pub const MAX_PROFILE_DEPTH: usize = 32;

/// Reserved pseudo-stage for threads sampled outside any span.
pub const IDLE_STAGE: u16 = u16::MAX;

/// One thread's published current-stack slot.
struct ThreadSlot {
    /// Seqlock: odd while the owner is updating, even when stable.
    seq: AtomicU64,
    /// Current span nesting depth (may exceed `MAX_PROFILE_DEPTH`).
    depth: AtomicU64,
    /// Stage id per level, valid for `depth.min(MAX_PROFILE_DEPTH)`.
    stack: [AtomicU64; MAX_PROFILE_DEPTH],
}

impl ThreadSlot {
    fn new() -> Self {
        ThreadSlot {
            seq: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            stack: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Consistent read of the published stack, or `None` if the owner
    /// kept racing us (it will be sampled next tick instead).
    fn read(&self) -> Option<Vec<u16>> {
        for _ in 0..4 {
            let seq = self.seq.load(Ordering::Acquire);
            if seq % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let depth = (self.depth.load(Ordering::Relaxed) as usize).min(MAX_PROFILE_DEPTH);
            let mut stack = Vec::with_capacity(depth);
            for level in self.stack.iter().take(depth) {
                stack.push(level.load(Ordering::Relaxed) as u16);
            }
            if self.seq.load(Ordering::Acquire) == seq {
                return Some(stack);
            }
        }
        None
    }
}

/// Registry of every live thread's slot. Threads register on first
/// span; the registry holds weak references so exited threads prune
/// themselves on the next sweep.
static REGISTRY: OnceLock<Mutex<Vec<Weak<ThreadSlot>>>> = OnceLock::new();

fn registry() -> &'static Mutex<Vec<Weak<ThreadSlot>>> {
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static SLOT: Arc<ThreadSlot> = {
        let slot = Arc::new(ThreadSlot::new());
        let mut reg = registry().lock().unwrap();
        reg.retain(|w| w.strong_count() > 0);
        reg.push(Arc::downgrade(&slot));
        slot
    };
}

/// Publish a span push on this thread's slot. Called by the recorder
/// when the profile flag is on.
pub(crate) fn publish_push(stage: u16) {
    SLOT.with(|slot| {
        let depth = slot.depth.load(Ordering::Relaxed) as usize;
        slot.seq.fetch_add(1, Ordering::AcqRel); // even -> odd
        if depth < MAX_PROFILE_DEPTH {
            slot.stack[depth].store(stage as u64, Ordering::Relaxed);
        }
        slot.depth.store(depth as u64 + 1, Ordering::Relaxed);
        slot.seq.fetch_add(1, Ordering::Release); // odd -> even
    });
}

/// Publish a span pop on this thread's slot.
pub(crate) fn publish_pop() {
    SLOT.with(|slot| {
        let depth = slot.depth.load(Ordering::Relaxed);
        slot.seq.fetch_add(1, Ordering::AcqRel);
        slot.depth.store(depth.saturating_sub(1), Ordering::Relaxed);
        slot.seq.fetch_add(1, Ordering::Release);
    });
}

/// Live threads currently registered with the profiler.
pub fn registered_threads() -> usize {
    registry()
        .lock()
        .unwrap()
        .iter()
        .filter(|w| w.strong_count() > 0)
        .count()
}

/// Refcount behind the recorder's profile flag, so overlapping
/// samplers (e.g. two concurrent `/debug/profile` windows) compose.
static PROFILE_USERS: AtomicU32 = AtomicU32::new(0);

/// RAII guard that keeps stack publishing enabled while any sampler
/// holds one.
pub struct ProfileGuard(());

impl ProfileGuard {
    pub fn acquire() -> ProfileGuard {
        if PROFILE_USERS.fetch_add(1, Ordering::AcqRel) == 0 {
            crate::recorder().set_profile(true);
        }
        ProfileGuard(())
    }
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        if PROFILE_USERS.fetch_sub(1, Ordering::AcqRel) == 1 {
            crate::recorder().set_profile(false);
        }
    }
}

/// Weighted flame tree accumulated from stack samples. Weights are
/// microseconds of attributed wall time (samples × sampling period).
#[derive(Debug, Clone, Default)]
pub struct FlameGraph {
    /// Observed stack → attributed µs. The empty-stack observation is
    /// stored under the single-element `[IDLE_STAGE]` path.
    paths: HashMap<Vec<u16>, u64>,
    /// Total stack observations (thread-samples).
    pub samples: u64,
    /// Sampling ticks that ran.
    pub ticks: u64,
    /// Wall-clock covered by the sampling window, µs.
    pub elapsed_us: u64,
    /// Configured sampling frequency.
    pub hz: u64,
}

impl FlameGraph {
    /// Add one observed stack with `weight_us` of attributed time.
    pub fn observe(&mut self, stack: &[u16], weight_us: u64) {
        let key = if stack.is_empty() {
            vec![IDLE_STAGE]
        } else {
            stack.to_vec()
        };
        *self.paths.entry(key).or_insert(0) += weight_us;
        self.samples += 1;
    }

    /// Total attributed µs (the flame tree's root weight).
    pub fn root_us(&self) -> u64 {
        self.paths.values().sum()
    }

    /// Self-time per stage (µs attributed to samples where the stage
    /// was the innermost frame), sorted heaviest first.
    pub fn self_us(&self) -> Vec<(u16, u64)> {
        let mut acc: HashMap<u16, u64> = HashMap::new();
        for (path, &us) in &self.paths {
            if let Some(&leaf) = path.last() {
                *acc.entry(leaf).or_insert(0) += us;
            }
        }
        let mut out: Vec<(u16, u64)> = acc.into_iter().collect();
        out.sort_by_key(|&(stage, us)| (std::cmp::Reverse(us), stage));
        out
    }

    /// Total time per stage (µs attributed to samples where the stage
    /// appears anywhere on the stack, counted once per sample).
    pub fn total_us(&self) -> Vec<(u16, u64)> {
        let mut acc: HashMap<u16, u64> = HashMap::new();
        for (path, &us) in &self.paths {
            let mut seen: Vec<u16> = Vec::with_capacity(path.len());
            for &stage in path {
                if !seen.contains(&stage) {
                    seen.push(stage);
                    *acc.entry(stage).or_insert(0) += us;
                }
            }
        }
        let mut out: Vec<(u16, u64)> = acc.into_iter().collect();
        out.sort_by_key(|&(stage, us)| (std::cmp::Reverse(us), stage));
        out
    }

    /// Collapsed-stack text (`a;b;c weight_us` per line, flamegraph.pl
    /// compatible), sorted for deterministic output.
    pub fn collapsed(&self, resolve: impl Fn(u16) -> String) -> String {
        let mut lines: Vec<String> = self
            .paths
            .iter()
            .map(|(path, us)| {
                let names: Vec<String> = path.iter().map(|&s| resolve(s)).collect();
                format!("{} {us}", names.join(";"))
            })
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// d3-flamegraph JSON: nested `{name, value, children}` objects
    /// where every node's value is its subtree total in µs.
    pub fn flame_json(&self, resolve: impl Fn(u16) -> String) -> String {
        #[derive(Default)]
        struct Node {
            self_us: u64,
            children: BTreeMap<u16, Node>,
        }
        fn insert(node: &mut Node, path: &[u16], us: u64) {
            match path.split_first() {
                None => node.self_us += us,
                Some((&head, rest)) => insert(node.children.entry(head).or_default(), rest, us),
            }
        }
        fn total(node: &Node) -> u64 {
            node.self_us + node.children.values().map(total).sum::<u64>()
        }
        fn render(out: &mut String, name: &str, node: &Node, resolve: &impl Fn(u16) -> String) {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"value\":{}",
                escape_json(name),
                total(node)
            ));
            if !node.children.is_empty() {
                out.push_str(",\"children\":[");
                for (i, (&stage, child)) in node.children.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render(out, &resolve(stage), child, resolve);
                }
                out.push(']');
            }
            out.push('}');
        }
        let mut root = Node::default();
        for (path, &us) in &self.paths {
            insert(&mut root, path, us);
        }
        let mut out = String::new();
        render(&mut out, "root", &root, &resolve);
        out
    }

    /// Text table of the top-`n` stages by self time.
    pub fn table(&self, n: usize, resolve: impl Fn(u16) -> String) -> String {
        let totals: HashMap<u16, u64> = self.total_us().into_iter().collect();
        let root = self.root_us().max(1);
        let mut out = format!(
            "{:<24} {:>12} {:>12} {:>7}\n",
            "stage", "self µs", "total µs", "self %"
        );
        for (stage, self_us) in self.self_us().into_iter().take(n) {
            let total = totals.get(&stage).copied().unwrap_or(self_us);
            out.push_str(&format!(
                "{:<24} {:>12} {:>12} {:>6.1}%\n",
                resolve(stage),
                self_us,
                total,
                100.0 * self_us as f64 / root as f64
            ));
        }
        out.push_str(&format!(
            "{} samples over {} ticks at {} Hz, {} µs root weight\n",
            self.samples,
            self.ticks,
            self.hz,
            self.root_us()
        ));
        out
    }
}

/// Take one sample of every registered thread into `graph`.
fn sample_once(graph: &mut FlameGraph, weight_us: u64) {
    let slots: Vec<Arc<ThreadSlot>> = {
        let mut reg = registry().lock().unwrap();
        reg.retain(|w| w.strong_count() > 0);
        reg.iter().filter_map(Weak::upgrade).collect()
    };
    for slot in slots {
        if let Some(stack) = slot.read() {
            graph.observe(&stack, weight_us);
        }
    }
    graph.ticks += 1;
}

/// A running sampler thread; [`Sampler::stop`] joins it and returns
/// the accumulated flame graph.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<FlameGraph>,
}

impl Sampler {
    /// Start sampling every registered thread at `hz` (clamped to
    /// 1..=10_000). Holds a [`ProfileGuard`] for its lifetime.
    pub fn start(hz: u64) -> Sampler {
        let hz = hz.clamp(1, 10_000);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cpssec-profiler".into())
            .spawn(move || {
                let guard = ProfileGuard::acquire();
                let period = Duration::from_nanos(1_000_000_000 / hz);
                let weight_us = period.as_micros().max(1) as u64;
                let started = Instant::now();
                let mut graph = FlameGraph {
                    hz,
                    ..FlameGraph::default()
                };
                while !stop_flag.load(Ordering::Relaxed) {
                    sample_once(&mut graph, weight_us);
                    std::thread::sleep(period);
                }
                // One closing sample: a window shorter than the period
                // would otherwise only ever see its opening tick, taken
                // before the workload's threads registered.
                sample_once(&mut graph, weight_us);
                graph.elapsed_us = started.elapsed().as_micros() as u64;
                drop(guard);
                graph
            })
            .expect("spawn profiler thread");
        Sampler { stop, handle }
    }

    /// Stop sampling and return the flame graph.
    pub fn stop(self) -> FlameGraph {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_default()
    }
}

/// Sample for a fixed window (blocking) and return the flame graph.
pub fn sample_for(window: Duration, hz: u64) -> FlameGraph {
    let sampler = Sampler::start(hz);
    std::thread::sleep(window);
    sampler.stop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_aggregates_paths_and_idle() {
        let mut g = FlameGraph::default();
        g.observe(&[1, 2], 10);
        g.observe(&[1, 2], 10);
        g.observe(&[1], 5);
        g.observe(&[], 7);
        assert_eq!(g.samples, 4);
        assert_eq!(g.root_us(), 32);
        let self_us: HashMap<u16, u64> = g.self_us().into_iter().collect();
        assert_eq!(self_us.get(&2), Some(&20));
        assert_eq!(self_us.get(&1), Some(&5));
        assert_eq!(self_us.get(&IDLE_STAGE), Some(&7));
        let total: HashMap<u16, u64> = g.total_us().into_iter().collect();
        assert_eq!(total.get(&1), Some(&25));
        assert_eq!(total.get(&2), Some(&20));
    }

    #[test]
    fn recursive_stacks_count_total_once_per_sample() {
        let mut g = FlameGraph::default();
        g.observe(&[3, 3, 3], 9);
        let total: HashMap<u16, u64> = g.total_us().into_iter().collect();
        assert_eq!(total.get(&3), Some(&9));
        let self_us: HashMap<u16, u64> = g.self_us().into_iter().collect();
        assert_eq!(self_us.get(&3), Some(&9));
    }

    #[test]
    fn collapsed_output_is_sorted_and_weighted() {
        let mut g = FlameGraph::default();
        g.observe(&[1, 2], 10);
        g.observe(&[1], 4);
        let text = g.collapsed(|s| format!("s{s}"));
        assert_eq!(text, "s1 4\ns1;s2 10\n");
    }

    #[test]
    fn flame_json_nests_with_subtree_totals() {
        let mut g = FlameGraph::default();
        g.observe(&[1, 2], 10);
        g.observe(&[1], 4);
        let json = g.flame_json(|s| format!("s{s}"));
        assert!(json.starts_with("{\"name\":\"root\",\"value\":14"));
        assert!(json.contains("\"name\":\"s1\",\"value\":14"));
        assert!(json.contains("\"name\":\"s2\",\"value\":10"));
    }

    #[test]
    fn slot_read_is_consistent_under_concurrent_updates() {
        let slot = Arc::new(ThreadSlot::new());
        let writer = Arc::clone(&slot);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_w = Arc::clone(&stop);
        let t = std::thread::spawn(move || {
            let mut depth = 0usize;
            while !stop_w.load(Ordering::Relaxed) {
                writer.seq.fetch_add(1, Ordering::AcqRel);
                if depth < MAX_PROFILE_DEPTH {
                    writer.stack[depth].store(depth as u64, Ordering::Relaxed);
                }
                depth = (depth + 1) % 8;
                writer.depth.store(depth as u64, Ordering::Relaxed);
                writer.seq.fetch_add(1, Ordering::Release);
            }
        });
        for _ in 0..10_000 {
            if let Some(stack) = slot.read() {
                // A consistent read is exactly [0, 1, .., depth-1].
                for (i, &s) in stack.iter().enumerate() {
                    assert_eq!(s as usize, i);
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        t.join().unwrap();
    }

    #[test]
    fn sampler_sees_published_spans() {
        let rec = crate::recorder();
        rec.enable_spans();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_w = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            while !stop_w.load(Ordering::Relaxed) {
                let _outer = crate::span!("t-prof-outer");
                let _inner = crate::span!("t-prof-inner");
                std::thread::sleep(Duration::from_micros(300));
            }
        });
        let graph = sample_for(Duration::from_millis(120), 997);
        stop.store(true, Ordering::Relaxed);
        worker.join().unwrap();
        assert!(graph.samples > 0, "sampler saw no threads");
        assert!(graph.root_us() > 0);
        let names: Vec<String> = graph
            .self_us()
            .iter()
            .map(|&(s, _)| crate::stage_label(s))
            .collect();
        assert!(
            names.iter().any(|n| n == "t-prof-inner"),
            "expected t-prof-inner among {names:?}"
        );
        // The collapsed view nests inner under outer.
        let collapsed = graph.collapsed(crate::stage_label);
        assert!(
            collapsed.contains("t-prof-outer;t-prof-inner"),
            "no nested path in:\n{collapsed}"
        );
    }

    #[test]
    fn profile_guard_refcounts_the_flag() {
        let rec = crate::recorder();
        let a = ProfileGuard::acquire();
        assert!(rec.profile_enabled());
        let b = ProfileGuard::acquire();
        drop(a);
        assert!(rec.profile_enabled(), "second guard must keep the flag");
        drop(b);
        assert!(!rec.profile_enabled());
    }
}
