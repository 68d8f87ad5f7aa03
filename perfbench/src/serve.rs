//! `serve-cold` and `serve-hot`: the paper's interactive analysis loop
//! against a server booted on the paper-scale corpus.
//!
//! * `serve-cold` sends only specs the server has never seen, so every
//!   request misses the response cache and runs search and analysis.
//! * `serve-hot` replays the 80/15/5 healthz/table1/associate mix over a
//!   24-key working set, warmed before timing, so every analysis request is
//!   a cache hit and the serving core owns the time.

use cpssec_attackdb::Corpus;
use cpssec_server::router::dispatch;
use cpssec_server::AppState;
use cpssec_sim::SplitMix64;

use crate::layers::{self, Traced, Untraced};
use crate::net::{self, Boot, Op, Running};
use crate::{common_e2e, stats, Config, Report};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every request misses the response cache.
    Cold,
    /// Every analysis request hits the response cache.
    Hot,
}

/// Boots per run; `setup_s` is their median.
const BOOTS: usize = 7;
/// Ops per shuffled block of the seeded mix.
const BLOCK: u64 = 20;

const FIDELITIES: [&str; 3] = ["conceptual", "architectural", "implementation"];
const SCORINGS: [&str; 2] = ["tfidf", "bm25"];
/// The specs what-if requests reuse, warmed before timing so their
/// association priors are cached: `(fidelity, scoring)`.
const WARM_SPECS: [(&str, &str); 3] = [
    ("implementation", "tfidf"),
    ("implementation", "bm25"),
    ("architectural", "tfidf"),
];
/// Components of the `scada` model that what-if edits touch.
const EDITED: [&str; 4] = [
    "BPCS%20platform",
    "SIS%20platform",
    "Programming%20WS",
    "Control%20firewall",
];
const EDITED_NAMES: [&str; 4] = [
    "BPCS platform",
    "SIS platform",
    "Programming WS",
    "Control firewall",
];
const PRODUCTS: [&str; 5] = [
    "Windows 7",
    "NI RT Linux OS",
    "Labview",
    "Cisco ASA",
    "Siemens S7-1500",
];

/// The paper-scale corpus: curated seed plus the paper-2020 synthetic
/// corpus at scale 1.0 (33,581 records).
pub fn paper_corpus() -> Corpus {
    let mut corpus = cpssec_attackdb::seed::seed_corpus();
    cpssec_attackdb::synth::stream_into(
        &mut corpus,
        &cpssec_attackdb::synth::SynthSpec::paper2020(2020, 1.0),
    )
    .expect("synthetic ids are disjoint from the seed corpus");
    corpus
}

/// Position of op `index` inside its block, after the block's seeded
/// shuffle: every block holds the same class counts in a seeded order.
fn slot(seed: u64, index: u64) -> usize {
    let block = index / BLOCK;
    let mut order: Vec<usize> = (0..BLOCK as usize).collect();
    let mut rng = SplitMix64::new(seed ^ block.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0, i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order[(index % BLOCK) as usize]
}

/// A `minScore` no other request carries: far below every score, so it
/// filters nothing, but it makes the cache key new.
fn fresh_min_score(seed: u64, index: u64) -> String {
    format!("0.{:015}", (seed % 1000) * 1_000_000_000 + index + 1)
}

/// Serve-cold op `index`. Each block of 20 holds, in a seeded order:
///
/// | ops | request | typical cost |
/// |---|---|---|
/// | 2 | associate, conceptual/architectural, `topK=10` | ~1 ms |
/// | 2 | associate, conceptual/architectural, whole model | ~2 ms |
/// | 2 | Table 1, implementation | ~3.5 ms |
/// | 8 | associate, implementation, `topK` 10 or 20 | ~4.5 ms |
/// | 2 | associate, implementation, whole model | ~10 ms |
/// | 4 | what-if on a warm spec | ~12.5 ms |
///
/// Sorted by cost the classes stack to 0.1, 0.2, 0.3, 0.7, 0.8 and 1.0 of
/// all ops, so the median falls mid-way through the 8-op class and p99
/// inside the what-ifs — neither on a class boundary.
pub fn cold_op(seed: u64, index: u64) -> Op {
    let k = slot(seed, index);
    let fresh = fresh_min_score(seed, index);
    let scoring = SCORINGS[k % 2];
    let associate = |class, fidelity: &str, top_k: &str| Op {
        class,
        method: "GET",
        target: format!(
            "/models/scada/associate?fidelity={fidelity}&scoring={scoring}&minScore={fresh}{top_k}"
        ),
        body: Vec::new(),
    };
    match k {
        0..=1 => associate("assoc-coarse-topk", FIDELITIES[k], "&topK=10"),
        2..=3 => associate("assoc-coarse", FIDELITIES[k - 2], ""),
        4..=5 => Op {
            class: "table1",
            method: "GET",
            target: format!("/table1?fidelity=implementation&scoring={scoring}&minScore={fresh}"),
            body: Vec::new(),
        },
        6..=13 => associate(
            "assoc-impl-topk",
            "implementation",
            if k < 10 { "&topK=10" } else { "&topK=20" },
        ),
        14..=15 => associate("assoc-impl", "implementation", ""),
        _ => {
            // Each block edits every component once, so the what-if cost
            // mix is the same for every seed.
            let (fidelity, scoring) = WARM_SPECS[(k - 16) % WARM_SPECS.len()];
            let component = EDITED_NAMES[(k - 16) % EDITED_NAMES.len()];
            let mut rng = SplitMix64::new(seed ^ index.rotate_left(17));
            let product = PRODUCTS[rng.gen_range(0, PRODUCTS.len() as u64) as usize];
            let body = format!(
                "{{\"changes\":[{{\"op\":\"add\",\"component\":\"{component}\",\
                 \"kind\":\"software\",\"value\":\"{product} build {}\"}}]}}",
                rng.gen_range(1, 1_000_000_000)
            );
            Op {
                class: "whatif",
                method: "POST",
                target: format!("/models/scada/whatif?fidelity={fidelity}&scoring={scoring}"),
                body: body.into_bytes(),
            }
        }
    }
}

/// The serve-hot working set: 12 Table 1 specs and 12 associate specs
/// (six whole-model, six single-component) — 24 keys against a 256-entry
/// response cache.
pub fn hot_working_set() -> Vec<Op> {
    let mut ops = Vec::new();
    for fidelity in FIDELITIES {
        for scoring in SCORINGS {
            for top_k in ["", "&topK=5"] {
                ops.push(Op {
                    class: "table1",
                    method: "GET",
                    target: format!("/table1?fidelity={fidelity}&scoring={scoring}{top_k}"),
                    body: Vec::new(),
                });
            }
            ops.push(Op {
                class: "associate",
                method: "GET",
                target: format!("/models/scada/associate?fidelity={fidelity}&scoring={scoring}"),
                body: Vec::new(),
            });
        }
    }
    for (i, component) in EDITED.iter().cycle().take(6).enumerate() {
        ops.push(Op {
            class: "associate",
            method: "GET",
            target: format!(
                "/models/scada/associate?fidelity={}&scoring={}&component={component}",
                FIDELITIES[2 - i % 2],
                SCORINGS[i / 3]
            ),
            body: Vec::new(),
        });
    }
    ops
}

/// Serve-hot op `index`: per block of 20, 16 healthz, 3 Table 1 and 1
/// associate, the key drawn from the working set.
pub fn hot_op(seed: u64, index: u64, working_set: &[Op]) -> Op {
    let k = slot(seed, index);
    let mut rng = SplitMix64::new(seed ^ index.rotate_left(23));
    let pick = |class: &str, rng: &mut SplitMix64| {
        let keys: Vec<&Op> = working_set.iter().filter(|op| op.class == class).collect();
        keys[rng.gen_range(0, keys.len() as u64) as usize].clone()
    };
    match k {
        0..=15 => Op {
            class: "healthz",
            method: "GET",
            target: "/healthz".to_owned(),
            body: Vec::new(),
        },
        16..=18 => pick("table1", &mut rng),
        _ => pick("associate", &mut rng),
    }
}

/// Whether reply `index` joins the correctness sample.
fn sampled(seed: u64, index: u64, every: u64) -> bool {
    SplitMix64::new(seed ^ index.wrapping_mul(0xD134_2543_DE82_EF95))
        .next_u64()
        .is_multiple_of(every)
}

/// Runs one serving workload.
pub fn run(config: &Config, mode: Mode) -> Report {
    let seed = config.seed;
    let corpus = paper_corpus();
    let working_set = hot_working_set();
    let op_of = |index: u64| match mode {
        Mode::Cold => cold_op(seed, index),
        Mode::Hot => hot_op(seed, index, &working_set),
    };
    let every = match mode {
        Mode::Cold => 40,
        Mode::Hot => 2_000,
    };
    let mut report = Report::default();

    let (mut server, setup) = Running::boot_repeatedly(BOOTS, &Boot::Paper);
    let warm_ops: Vec<Op> = match mode {
        Mode::Cold => WARM_SPECS
            .iter()
            .map(|(fidelity, scoring)| Op {
                class: "warm",
                method: "GET",
                target: format!("/models/scada/associate?fidelity={fidelity}&scoring={scoring}"),
                body: Vec::new(),
            })
            .collect(),
        Mode::Hot => working_set.clone(),
    };
    let mut conn = net::Conn::open(server.addr());
    for op in &warm_ops {
        let reply = conn.send(&op.raw()).expect("warm-up request");
        assert_eq!(reply.status, 200, "warm-up {}", op.target);
    }
    drop(conn);
    let before = server.stats();
    if config.trace {
        server.sample_pool();
    }
    let drive = net::drive(server.addr(), config.seconds, &op_of, &|i| {
        sampled(seed, i, every)
    });
    let after = server.stats();
    server.stop();

    let quiet = drive.quiet();
    let all = &quiet.in_order;
    let heavy_class = match mode {
        Mode::Cold => "whatif",
        Mode::Hot => "associate",
    };
    let heavy = quiet
        .by_class
        .get(heavy_class)
        .map_or(&[][..], Vec::as_slice);
    common_e2e(
        &mut report,
        &setup,
        all,
        (stats::median(heavy), heavy.len()),
        quiet.rate,
        after.peak_rss_mb,
    );
    report.attempted = drive.attempted;
    report.failed = drive.failed;
    class_notes(&mut report, &quiet, true);

    let diff = |after: (u64, u64), before: (u64, u64)| (after.0 - before.0, after.1 - before.1);
    let untraced = Untraced {
        p50_ms: stats::median(all),
        responses: diff(after.responses, before.responses),
        priors: diff(after.priors, before.priors),
        shed_total: after.shed_total,
        pool: after.pool,
    };
    report.check(
        format!("shed_total is 0 (was {})", untraced.shed_total),
        untraced.shed_total == 0,
    );
    // A shed op already failed with its 429; a cache lookup that went the
    // wrong way fails its op here.
    let (hits, misses) = untraced.responses;
    match mode {
        Mode::Cold => {
            report.failed += hits;
            report.check(
                format!("serve-cold never hits the response cache ({hits} hits / {misses} misses)"),
                hits == 0,
            );
        }
        Mode::Hot => {
            report.failed += misses;
            report.check(
                format!("serve-hot analysis requests all hit the response cache ({hits} hits / {misses} misses)"),
                misses == 0 && hits > 0,
            );
        }
    }

    // Byte-equality of the sampled replies against a fresh in-process
    // state built from the same corpus.
    let fresh = AppState::new(corpus.clone());
    let mut mismatches = 0;
    for (index, status, body) in &drive.sampled {
        let op = op_of(*index);
        let (_, expected) = dispatch(&fresh, &net::parse(&op.raw()));
        if expected.status != *status || expected.body != *body {
            eprintln!(
                "reply to op {index} ({}) differs from in-process dispatch",
                op.target
            );
            mismatches += 1;
        }
    }
    report.failed += mismatches;
    report.check(
        format!(
            "{} sampled reply bodies byte-equal to router::dispatch on a fresh state ({mismatches} differ)",
            drive.sampled.len()
        ),
        mismatches == 0 && !drive.sampled.is_empty(),
    );
    drop(fresh);

    if config.trace {
        let cold_ops: Vec<Op> = (0..match mode {
            Mode::Cold => 60,
            Mode::Hot => 20,
        })
            .map(|i| cold_op(seed, i))
            .collect();
        let (primary, warm) = match mode {
            Mode::Cold => (
                cold_ops.iter().map(Op::raw).collect(),
                warm_ops.iter().map(Op::raw).collect(),
            ),
            Mode::Hot => (
                (0..4_000)
                    .map(|i| hot_op(seed, i, &working_set).raw())
                    .collect(),
                working_set.iter().map(Op::raw).collect(),
            ),
        };
        let base = {
            let engine = cpssec_search::SearchEngine::build(&corpus);
            cpssec_search::snapshot::encode(&corpus, &engine).into()
        };
        let traced = Traced {
            fresh_state: &|| AppState::new(corpus.clone()),
            warm,
            primary,
            primary_hit: mode == Mode::Hot,
            cold_ops,
            hot_ops: hot_probe_ops(seed),
            corpus_base: base,
            delta_seed: seed,
            deltas: 4,
            batches: crate::fleet::batch_specs(seed, 2),
            campaigns: crate::fleet::campaign_list(seed, 1),
            untraced,
        };
        layers::run(&traced, &mut report);
    }
    report
}

/// Which seconds were kept, per-class sample counts and medians, and the
/// mode-boundary guard when the reported quantiles are taken over the mix
/// of all classes (`guard`).
pub fn class_notes(report: &mut Report, quiet: &net::Quiet, guard: bool) {
    report.note(format!(
        "kept the ops of the {} of {} whole seconds with the least host contention",
        quiet.windows.0, quiet.windows.1
    ));
    let classes: Vec<stats::ClassShare> = quiet
        .by_class
        .iter()
        .map(|(name, samples)| stats::ClassShare {
            name,
            count: samples.len(),
            median: stats::median(samples),
        })
        .collect();
    for class in &classes {
        report.note(format!(
            "class {}: n={} median {:.4} ms",
            class.name, class.count, class.median
        ));
    }
    if !guard {
        return;
    }
    for warning in stats::boundary_warnings(&classes, &[0.5, 0.99]) {
        eprintln!("warning: {warning}");
        report.note(format!("mix guard: {warning}"));
    }
}

/// The first 100 cacheable serve-hot ops: the traced run's probes of the
/// hit path and `Cache::get`.
pub fn hot_probe_ops(seed: u64) -> Vec<Op> {
    let working_set = hot_working_set();
    (0..2_000)
        .map(|i| hot_op(seed, i, &working_set))
        .filter(|op| op.class != "healthz")
        .take(100)
        .collect()
}
