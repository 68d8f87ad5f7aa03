//! The traced run: per-layer timings and counts from outside the program.
//!
//! After the untraced HTTP run has stopped its server, the traced run
//! replays the workload's seeded inputs in-process and times each layer's
//! public functions one call at a time. It makes three passes, each on a
//! fresh in-process state:
//!
//! * two traced passes time every layer and count allocations. Timings
//!   pool both; a count must repeat exactly across them or it is dropped
//!   (reported as -1 with a note);
//! * between them, an untraced pass times only whole ops (parse +
//!   dispatch), with no per-layer timers and the allocation counter off.
//!   Against the second traced pass it gives the tracing overhead.
//!
//! Every pass covers all three layer groups — serving, corpus and
//! fleet — so every per-layer metric is present on every workload. A
//! workload drives its own group with its own inputs and sample counts;
//! the other groups run a few probe calls on the same state.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cpssec_analysis::render::{association_json, text_table, whatif_json};
use cpssec_analysis::{
    aggregate, aggregate_json, attribute_rows, campaign_aggregate, campaign_json, whatif,
    AssociationMap, SystemPosture,
};
use cpssec_campaign::{compile_chains, run_campaign, CampaignRun, Testbed};
use cpssec_scada::{run_scenario, CampaignSpec};
use cpssec_search::{apply_delta, build_delta, compact_verified, snapshot, view, ScoringModel};
use cpssec_server::router::{dispatch, parse_changes, parse_spec};
use cpssec_server::AppState;

use crate::net::{self, Op};
use crate::{alloc, stats, Metric, Report};

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("http.parse_us", "us"),
    ("router.dispatch_us", "us"),
    ("router.dispatch_hit_us", "us"),
    ("cache.get_us", "us"),
    ("analysis.associate_us", "us"),
    ("search.match_model_us", "us"),
    ("search.filter_us", "us"),
    ("analysis.posture_us", "us"),
    ("analysis.whatif_us", "us"),
    ("analysis.render_us", "us"),
    ("search.hits", "count"),
    ("router.dispatch_allocs", "count"),
    ("search.match_model_allocs", "count"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.prior_hit_ratio", "ratio"),
    ("server.handler_share", "ratio"),
    ("admission.shed_total", "count"),
    ("pool.queued_max", "count"),
    ("pool.utilization", "ratio"),
    ("snapshot.open_verified_us", "us"),
    ("snapshot.decode_us", "us"),
    ("corpus.clone_us", "us"),
    ("delta.apply_us", "us"),
    ("delta.apply_allocs", "count"),
    ("search.rescore_us", "us"),
    ("delta.compact_us", "us"),
    ("snapshot.encode_us", "us"),
    ("scada.scenario_us", "us"),
    ("scada.scenario_p99_us", "us"),
    ("scada.ticks", "count"),
    ("sim.fleet_efficiency", "ratio"),
    ("analysis.fleet_aggregate_us", "us"),
    ("campaign.compile_us", "us"),
    ("campaign.run_us", "us"),
    ("analysis.verdict_us", "us"),
    ("reconcile.e2e_ms", "ms"),
    ("reconcile.layer_sum_ms", "ms"),
    ("reconcile.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Counts that must repeat exactly across the two traced passes.
const DETERMINISTIC: [&str; 5] = [
    "search.hits",
    "router.dispatch_allocs",
    "search.match_model_allocs",
    "delta.apply_allocs",
    "scada.ticks",
];

/// What the untraced HTTP run observed that the traced report needs.
#[derive(Debug, Clone, Default)]
pub struct Untraced {
    /// Client p50 of the workload's primary ops, ms.
    pub p50_ms: f64,
    /// Response-cache `(hits, misses)` after the run.
    pub responses: (u64, u64),
    /// What-if prior cache `(hits, misses)` after the run.
    pub priors: (u64, u64),
    /// `Admission::shed_total()` after the run.
    pub shed_total: u64,
    /// `(max queued, mean utilization, samples)` of the pool gauges.
    pub pool: (u64, f64, usize),
}

/// The inputs of one traced run.
pub struct Traced<'a> {
    /// Builds a fresh in-process state (untimed).
    pub fresh_state: &'a dyn Fn() -> Arc<AppState>,
    /// Requests dispatched before the primary replay. When the primary
    /// ops are cache hits these are their misses, timed as
    /// `router.dispatch_us`; otherwise they are dispatched untimed.
    pub warm: Vec<Vec<u8>>,
    /// The workload's own ops, replayed through parse + dispatch.
    pub primary: Vec<Vec<u8>>,
    /// Whether the primary ops are cache hits (`router.dispatch_hit_us`).
    pub primary_hit: bool,
    /// Serve-cold style ops decomposed into analysis and search layers.
    pub cold_ops: Vec<Op>,
    /// Cacheable ops probed for hits and `Cache::get` once warmed.
    pub hot_ops: Vec<Op>,
    /// Snapshot the corpus group grows with deltas.
    pub corpus_base: Arc<[u8]>,
    /// Seed of the delta batches.
    pub delta_seed: u64,
    /// Deltas the corpus group applies (every 4th compacts).
    pub deltas: usize,
    /// Fleet batch specs run scenario by scenario.
    pub batches: Vec<CampaignSpec>,
    /// Campaigns compiled and run: `(testbed, seed)`.
    pub campaigns: Vec<(Testbed, u64)>,
    /// What the untraced run observed.
    pub untraced: Untraced,
}

/// Samples of one pass, by metric.
#[derive(Default)]
struct Pass {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Whole-op times (parse + dispatch) of the primary replay, µs.
    op_us: Vec<f64>,
    /// Dispatch times of the primary replay, µs.
    dispatch_us: Vec<f64>,
    failed: u64,
}

impl Pass {
    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = black_box(call());
        self.push(name, micros(started));
        out
    }

    fn counted<T>(
        &mut self,
        name: &'static str,
        allocs: &'static str,
        call: impl FnOnce() -> T,
    ) -> T {
        let before = alloc::allocations();
        let started = Instant::now();
        let out = black_box(call());
        let us = micros(started);
        self.push(allocs, (alloc::allocations() - before) as f64);
        self.push(name, us);
        out
    }
}

fn micros(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

/// Runs the three passes and appends every per-layer metric to `report`.
pub fn run(traced: &Traced<'_>, report: &mut Report) {
    // Spans on, as `Server::run` sets them, so the replay runs the served
    // code path. The flight recorder, which serving also turns on, stays
    // off: its per-thread rings register in a list that prunes exited
    // threads as it goes, so a fan-out thread allocates one more or one
    // less time depending on when earlier ones finished exiting.
    cpssec_obs::recorder().enable_spans();
    cpssec_obs::flight::set_enabled(false);
    // The untraced pass runs between the traced ones, so neither side of
    // the overhead ratio is the process's first replay.
    alloc::set_counting(true);
    let first = replay_pass(traced, true);
    alloc::set_counting(false);
    let baseline = replay_pass(traced, false);
    alloc::set_counting(true);
    let second = replay_pass(traced, true);
    alloc::set_counting(false);
    report.failed += baseline.failed + first.failed + second.failed;
    report.attempted += 3 * traced.primary.len() as u64;

    let mut pooled: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for pass in [&first, &second] {
        for (name, samples) in &pass.samples {
            pooled.entry(name).or_default().extend(samples);
        }
    }
    let untraced = &traced.untraced;
    let (resp_hits, resp_misses) = untraced.responses;
    let (prior_hits, prior_misses) = untraced.priors;
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let op_traced_ms = stats::median(&[first.op_us.clone(), second.op_us.clone()].concat()) / 1e3;
    let op_untraced_ms = stats::median(&baseline.op_us) / 1e3;
    let overhead = stats::median(&second.op_us) / stats::median(&baseline.op_us);
    let dispatch_ms =
        stats::median(&[first.dispatch_us.clone(), second.dispatch_us.clone()].concat()) / 1e3;
    let e2e_ms = untraced.p50_ms;

    for (name, unit) in PER_LAYER {
        let (value, samples) = match name {
            "server.cache_hit_ratio" => (
                ratio(resp_hits, resp_misses),
                (resp_hits + resp_misses) as usize,
            ),
            "server.prior_hit_ratio" => (
                ratio(prior_hits, prior_misses),
                (prior_hits + prior_misses) as usize,
            ),
            "server.handler_share" => (dispatch_ms / e2e_ms, first.dispatch_us.len()),
            "admission.shed_total" => (untraced.shed_total as f64, 1),
            "pool.queued_max" => (untraced.pool.0 as f64, untraced.pool.2),
            "pool.utilization" => (untraced.pool.1, untraced.pool.2),
            "scada.scenario_p99_us" => {
                let samples = pooled
                    .get("scada.scenario_us")
                    .map_or(&[][..], Vec::as_slice);
                (stats::quantile(samples, 0.99).unwrap_or(0.0), samples.len())
            }
            "reconcile.e2e_ms" => (e2e_ms, 1),
            "reconcile.layer_sum_ms" => (op_traced_ms, first.op_us.len() + second.op_us.len()),
            "reconcile.unattributed_share" => (1.0 - op_traced_ms / e2e_ms, first.op_us.len()),
            "trace.overhead_ratio" => (overhead, baseline.op_us.len()),
            name if DETERMINISTIC.contains(&name) => {
                // The reported count is the median per call, and it
                // must repeat exactly; single calls may still differ
                // (a rebuild iterates randomly seeded hash maps), which
                // is noted.
                let a = first.samples.get(name).cloned().unwrap_or_default();
                let b = second.samples.get(name).cloned().unwrap_or_default();
                let differing: Vec<String> = a
                    .iter()
                    .zip(&b)
                    .enumerate()
                    .filter(|(_, (x, y))| x != y)
                    .map(|(i, (x, y))| format!("call {i}: {x} vs {y}"))
                    .collect();
                let (median_a, median_b) = (stats::median(&a), stats::median(&b));
                if !differing.is_empty() {
                    report.note(format!(
                        "{name}: {} of {} calls counted differently in the two traced \
                             passes (e.g. {}); medians {median_a} vs {median_b}",
                        differing.len(),
                        a.len(),
                        differing
                            .iter()
                            .take(3)
                            .cloned()
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
                if a.len() == b.len() && median_a == median_b {
                    (median_a, a.len())
                } else {
                    report.note(format!(
                        "dropped {name}: its median does not repeat across two traced \
                             passes of the same seed; reported as -1"
                    ));
                    (-1.0, a.len())
                }
            }
            name => {
                let samples = pooled.get(name).map_or(&[][..], Vec::as_slice);
                (stats::median(samples), samples.len())
            }
        };
        if samples == 0 {
            report.note(format!("{name}: no samples on this workload"));
        }
        report.per_layer.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }
    report.note(format!(
        "reconciliation: parse + dispatch {op_traced_ms:.4} ms (traced, in-process) against the \
         {e2e_ms:.4} ms end-to-end p50; unattributed {:.1}% is reactor, socket, admission, pool \
         hand-off and per-request observability time",
        (1.0 - op_traced_ms / e2e_ms) * 100.0
    ));
    report.note(format!(
        "tracing overhead: second traced pass op median {:.4} ms vs the untraced pass before it \
         {op_untraced_ms:.4} ms, in-process ({:+.1}%)",
        stats::median(&second.op_us) / 1e3,
        (overhead - 1.0) * 100.0
    ));
    report.note(format!(
        "cache base: responses {resp_hits} hits / {} lookups, priors {prior_hits} hits / {} lookups",
        resp_hits + resp_misses,
        prior_hits + prior_misses
    ));
}

/// One pass over every layer group; with `full == false` only whole
/// primary ops are timed.
fn replay_pass(traced: &Traced<'_>, full: bool) -> Pass {
    let mut pass = Pass::default();
    let state = (traced.fresh_state)();
    for raw in &traced.warm {
        let request = net::parse(raw);
        let (_, response) = if full && traced.primary_hit {
            pass.time("router.dispatch_us", || dispatch(&state, &request))
        } else {
            dispatch(&state, &request)
        };
        settle();
        expect_ok(&mut pass, response.status, "warm-up");
    }
    let dispatch_name = if traced.primary_hit {
        "router.dispatch_hit_us"
    } else {
        "router.dispatch_us"
    };
    for raw in &traced.primary {
        let started = Instant::now();
        let status = if full {
            let request = pass.time("http.parse_us", || net::parse(raw));
            let dispatch_started = Instant::now();
            let (_, response) = pass.counted(dispatch_name, "router.dispatch_allocs", || {
                dispatch(&state, &request)
            });
            pass.dispatch_us.push(micros(dispatch_started));
            response.status
        } else {
            let request = net::parse(raw);
            black_box(dispatch(&state, &request)).1.status
        };
        pass.op_us.push(micros(started));
        settle();
        expect_ok(&mut pass, status, "primary replay");
    }
    if !full {
        return pass;
    }
    serve_group(&mut pass, traced, &state);
    corpus_group(&mut pass, traced);
    fleet_group(&mut pass, traced);
    pass
}

/// Drains the per-request thread-locals the router fills (cache
/// annotations, the model note), as the server does after each request;
/// left to accumulate, they would reallocate on a different call in each
/// pass.
fn settle() {
    drop(cpssec_obs::take_annotations());
    drop(cpssec_obs::take_note());
}

fn expect_ok(pass: &mut Pass, status: u16, what: &str) {
    if !(200..300).contains(&status) {
        eprintln!("traced {what}: status {status}");
        pass.failed += 1;
    }
}

/// The model a request names: `/models/{id}/…` or `?model=` (default
/// `scada`, as the router does).
fn model_id(request: &cpssec_server::http::Request) -> String {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["models", id, ..] => (*id).to_owned(),
        _ => request.query_param("model").unwrap_or("scada").to_owned(),
    }
}

/// Search and analysis layers under serve-cold style ops, then cache hits.
fn serve_group(pass: &mut Pass, traced: &Traced<'_>, state: &AppState) {
    let mut priors: BTreeMap<String, Arc<AssociationMap>> = BTreeMap::new();
    // One unrecorded fan-out first: its one-time set-up (span labels,
    // thread-local buffers) must not land in the first counted call.
    if let Some(op) = traced.cold_ops.first() {
        let request = net::parse(&op.raw());
        let spec = parse_spec(&request).expect("generated spec parses");
        let stored = state
            .sessions
            .get(&model_id(&request))
            .expect("model exists");
        black_box(
            state
                .engine(spec.scoring)
                .par_match_model(&stored.model, spec.fidelity),
        );
    }
    for op in &traced.cold_ops {
        let request = net::parse(&op.raw());
        let spec = parse_spec(&request).expect("generated spec parses");
        let stored = state
            .sessions
            .get(&model_id(&request))
            .expect("model exists");
        let model = &stored.model;
        let engine = state.engine(spec.scoring);
        let corpus = state.corpus();
        match op.class {
            class if class.starts_with("assoc") => {
                let raw =
                    pass.counted("search.match_model_us", "search.match_model_allocs", || {
                        engine.par_match_model(model, spec.fidelity)
                    });
                pass.push(
                    "search.hits",
                    raw.iter().map(|(_, set)| set.total()).sum::<usize>() as f64,
                );
                pass.time("search.filter_us", || {
                    for (_, set) in &raw {
                        black_box(spec.filters.apply(set, &corpus));
                    }
                });
                let map = pass.time("analysis.associate_us", || {
                    AssociationMap::build(model, &engine, &corpus, spec.fidelity, &spec.filters)
                });
                let posture = pass.time("analysis.posture_us", || {
                    SystemPosture::compute(model, &corpus, &map)
                });
                pass.time("analysis.render_us", || {
                    association_json(model, &map, &posture).to_text()
                });
            }
            "whatif" => {
                let changes = parse_changes(&request.body).expect("generated changes parse");
                let prior = priors
                    .entry(spec.key_prefix(stored.hash))
                    .or_insert_with(|| {
                        Arc::new(AssociationMap::build(
                            model,
                            &engine,
                            &corpus,
                            spec.fidelity,
                            &spec.filters,
                        ))
                    })
                    .clone();
                let report = pass.time("analysis.whatif_us", || {
                    whatif::evaluate_with_prior(
                        model,
                        &changes,
                        &prior,
                        &engine,
                        &corpus,
                        &spec.filters,
                    )
                    .expect("generated what-if applies")
                });
                pass.time("analysis.render_us", || {
                    whatif_json(model.name(), spec.fidelity, &report).to_text()
                });
            }
            "table1" => {
                let rows = attribute_rows(model, &engine, &corpus, spec.fidelity, &spec.filters);
                let cells: Vec<Vec<String>> = rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.attribute.clone(),
                            r.patterns.to_string(),
                            r.weaknesses.to_string(),
                            r.vulnerabilities.to_string(),
                        ]
                    })
                    .collect();
                pass.time("analysis.render_us", || {
                    text_table(
                        &[
                            "Attribute",
                            "Attack Patterns",
                            "Weaknesses",
                            "Vulnerabilities",
                        ],
                        &cells,
                    )
                });
            }
            _ => {}
        }
    }

    // Cache hits: warm each cacheable op once, then time the hit dispatch
    // (unless the primary replay already did) and the bare cache lookup.
    let hot: Vec<(Op, cpssec_server::http::Request)> = traced
        .hot_ops
        .iter()
        .map(|op| (op.clone(), net::parse(&op.raw())))
        .collect();
    for (_, request) in &hot {
        let (_, response) = dispatch(state, request);
        settle();
        expect_ok(pass, response.status, "hot warm-up");
    }
    for (op, request) in &hot {
        if !traced.primary_hit {
            pass.time("router.dispatch_hit_us", || dispatch(state, request));
            settle();
        }
        let Some(key) = cache_key(state, op, request) else {
            continue;
        };
        let hit = pass.time("cache.get_us", || state.responses.get(&key));
        if hit.is_none() {
            eprintln!("traced cache probe missed on {key}: the router's key format moved");
            pass.failed += 1;
        }
    }
}

/// The response-cache key the router uses for a cacheable GET.
fn cache_key(state: &AppState, op: &Op, request: &cpssec_server::http::Request) -> Option<String> {
    let spec = parse_spec(request).ok()?;
    let stored = state.sessions.get(&model_id(request))?;
    let prefix = spec.key_prefix(stored.hash);
    match op.class {
        "table1" => Some(format!("table1/{prefix}")),
        "associate" => Some(format!(
            "assoc/{prefix}/{}",
            request.query_param("component").unwrap_or("-")
        )),
        _ => None,
    }
}

/// Snapshot open/thaw and delta growth on an owned corpus + engine pair.
fn corpus_group(pass: &mut Pass, traced: &Traced<'_>) {
    for _ in 0..3 {
        pass.time("snapshot.open_verified_us", || {
            view::open_verified(Arc::clone(&traced.corpus_base)).expect("base snapshot verifies")
        });
    }
    let (mut corpus, mut engine) = pass.time("snapshot.decode_us", || {
        snapshot::decode(&traced.corpus_base).expect("base snapshot decodes")
    });
    let mut state_id = snapshot::inspect(&traced.corpus_base)
        .expect("base snapshot inspects")
        .snapshot_id;
    for serial in 0..traced.deltas {
        let delta = delta_bytes(traced.delta_seed, serial as u32, state_id);
        let (mut grown, mut grown_engine) =
            pass.time("corpus.clone_us", || (corpus.clone(), engine.clone()));
        let info = pass.counted("delta.apply_us", "delta.apply_allocs", || {
            apply_delta(&mut grown, &mut grown_engine, &delta, state_id).expect("delta applies")
        });
        pass.time("search.rescore_us", || {
            grown_engine.with_scoring(ScoringModel::Bm25)
        });
        if (serial + 1) % cpssec_server::COMPACTION_EVERY as usize == 0 {
            let base = pass.time("delta.compact_us", || {
                compact_verified(&grown, &grown_engine).expect("compaction verifies")
            });
            pass.time("snapshot.encode_us", || {
                snapshot::encode(&grown, &grown_engine)
            });
            state_id = snapshot::inspect(&base)
                .expect("compacted snapshot")
                .snapshot_id;
        } else {
            state_id = info.child_id;
        }
        corpus = grown;
        engine = grown_engine;
    }
}

/// The `.cpsdelta` bytes of batch `serial` chained onto `parent`: 1,000
/// records of the synthetic delta feed.
pub fn delta_bytes(seed: u64, serial: u32, parent: u64) -> Vec<u8> {
    build_delta(
        parent,
        &cpssec_attackdb::synth::delta_batch(seed, 1_000, serial),
    )
}

/// Fleet scenarios, their aggregate, fleet scaling, and staged campaigns.
fn fleet_group(pass: &mut Pass, traced: &Traced<'_>) {
    for spec in &traced.batches {
        let records: Vec<_> = (0..spec.scenarios)
            .map(|index| pass.time("scada.scenario_us", || run_scenario(spec, index)))
            .collect();
        pass.push(
            "scada.ticks",
            records.iter().map(|r| r.ticks).sum::<u64>() as f64,
        );
        pass.time("analysis.fleet_aggregate_us", || {
            aggregate_json(&aggregate(&records)).to_text()
        });
    }
    if let Some(spec) = traced.batches.first() {
        let fleet = |threads: usize| {
            let spec = CampaignSpec {
                scenarios: 16,
                threads,
                ..spec.clone()
            };
            let started = Instant::now();
            black_box(cpssec_scada::run_campaign(&spec));
            started.elapsed().as_secs_f64()
        };
        let one = fleet(1);
        let two = fleet(2);
        pass.push("sim.fleet_efficiency", one / (2.0 * two));
    }
    let corpus = cpssec_attackdb::seed::seed_corpus();
    for &(testbed, seed) in &traced.campaigns {
        let run = CampaignRun {
            threads: 2,
            ..CampaignRun::new(testbed, seed)
        };
        pass.time("campaign.compile_us", || {
            compile_chains(
                &testbed.model(),
                &corpus,
                &testbed.scenario_library(),
                run.chain_limit,
            )
        });
        let records = pass.time("campaign.run_us", || run_campaign(&run));
        pass.time("analysis.verdict_us", || {
            campaign_json(&campaign_aggregate(testbed.as_str(), &records)).to_text()
        });
    }
}
