//! End-to-end and per-layer benchmark of the cpssec analysis service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-cold --seed 7 --seconds 20 --trace 0
//! ```
//!
//! Every run boots the real server several times (the median boot is
//! `setup_s`), drives it over HTTP in a closed loop for `--seconds`, checks
//! the replies, and prints one line per metric followed by a single JSON
//! object on the last line of stdout. `--trace 1` adds a traced in-process
//! replay of the same seeded inputs and reports the per-layer metrics
//! instead. See `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod fleet;
mod growth;
mod host;
mod layers;
mod net;
mod serve;
mod stats;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Whether to run the traced per-layer replay.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted in the timed window (plus traced replays).
    pub attempted: u64,
    /// Failed ops: transport errors, unexpected statuses, failed checks.
    pub failed: u64,
    /// Correctness checks, `(what, passed)`.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics (always measured).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a check. A failed check makes the run incorrect; the ops it
    /// failed are counted in `failed` where they happen, once each.
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Adds a free-form note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "p50_ms",
    "heavy_ms",
    "throughput_per_s",
    "rss_mb",
];

/// Adds the end-to-end metrics common to every workload. `primary` holds
/// the latencies of the ops `p50_ms` describes, in ms and in completion
/// order; `heavy` is the heavy op class's typical latency in ms and its
/// sample count.
///
/// The tail is printed, not gated: on a small virtual machine a p99 moves
/// with the host's CPU steal by more than any bound a regression gate can
/// use.
pub fn common_e2e(
    report: &mut Report,
    setup_s: &[f64],
    primary: &[f64],
    heavy: (f64, usize),
    throughput_per_s: f64,
    peak_rss_mb: f64,
) {
    report.e2e("setup_s", stats::median(setup_s), "s", setup_s.len());
    report.e2e("p50_ms", stats::median(primary), "ms", primary.len());
    report.e2e("heavy_ms", heavy.0, "ms", heavy.1);
    report.e2e("throughput_per_s", throughput_per_s, "1/s", primary.len());
    report.e2e("rss_mb", peak_rss_mb, "MiB", 1);
    report.note(format!(
        "p99_ms {:.4} ms over {} primary ops (printed, not gated)",
        stats::quantile(primary, 0.99).unwrap_or(0.0),
        primary.len()
    ));
    match stats::highest_supported(primary.len()) {
        Some(p) => report.note(format!(
            "tail: p{} = {:.4} ms over {} primary ops ({} beyond it)",
            p * 100.0,
            stats::quantile(primary, p).unwrap_or(0.0),
            primary.len(),
            stats::beyond(primary.len(), p)
        )),
        None => report.note(format!(
            "tail: {} primary ops support no percentile with ten samples beyond it",
            primary.len()
        )),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <serve-cold|serve-hot|corpus-growth|fleet-campaign> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Config) {
    let mut workload = None;
    let mut config = Config {
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => config.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                config.seconds = value.parse().unwrap_or_else(|_| usage());
                if !(config.seconds > 0.0 && config.seconds <= 600.0) {
                    usage();
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    (workload.unwrap_or_else(|| usage()), config)
}

/// A JSON number: finite values print with every digit Rust keeps.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn print(report: &Report, trace: bool) {
    for note in &report.notes {
        println!("# {note}");
    }
    for (what, passed) in &report.checks {
        println!("check {}: {what}", if *passed { "ok" } else { "FAILED" });
    }
    for metric in report.end_to_end.iter().chain(&report.per_layer) {
        println!(
            "{:<30} {:>16.4} {:<6} n={}",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    let emitted = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let metrics: Vec<String> = emitted
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = report.failed == 0 && report.checks.iter().all(|(_, passed)| *passed);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let [_, flag, kind] = args.as_slice() {
        if flag == "--serve-child" {
            net::serve_child(kind);
            return;
        }
    }
    let (workload, config) = parse_args();
    let cpu_before = host::cpu_ticks();
    let mut report = match workload.as_str() {
        "serve-cold" => serve::run(&config, serve::Mode::Cold),
        "serve-hot" => serve::run(&config, serve::Mode::Hot),
        "corpus-growth" => growth::run(&config),
        "fleet-campaign" => fleet::run(&config),
        _ => usage(),
    };
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_before, host::cpu_ticks()) {
        report.note(format!(
            "host steal during the run: {:.1}% of CPU time (a virtual machine's CPU \
             taken by its host; above a few percent every timing here inflates)",
            (steal1 - steal0) as f64 * 100.0 / (total1 - total0).max(1) as f64
        ));
    }
    debug_assert!(report
        .end_to_end
        .iter()
        .map(|m| m.name)
        .eq(END_TO_END.iter().copied()));
    print(&report, config.trace);
}
