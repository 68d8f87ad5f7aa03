//! `fleet-campaign`: CPU-bound consequence analysis on the paper-scale
//! server — 3,000-tick Monte-Carlo fleet batches interleaved with staged
//! exploit-chain campaigns on both testbeds.

use cpssec_attackdb::json::{parse as parse_json, JsonValue};
use cpssec_campaign::{records_hash, run_campaign, CampaignRun, Testbed};
use cpssec_scada::CampaignSpec;
use cpssec_server::AppState;
use cpssec_sim::derive_seed;

use crate::layers::{self, Traced, Untraced};
use crate::net::{self, Boot, Op, Running};
use crate::{common_e2e, serve, stats, Config, Report};

/// Boots per run; `setup_s` is their median.
const BOOTS: usize = 7;
/// Scenarios per fleet batch; small batches give p99 enough samples.
const SCENARIOS: u64 = 2;
/// Simulation horizon per scenario.
const TICKS: u64 = 3_000;
/// Worker threads the server runs each batch and campaign on.
const THREADS: u64 = 2;
/// Every `CAMPAIGN_EVERY`-th op is a campaign; the rest are batches.
const CAMPAIGN_EVERY: u64 = 20;
/// Pinned campaign identities at seed 42: centrifuge (`scada`), water.
const PINNED_42: [(&str, &str); 2] = [("scada", "a56a84ca63b8d320"), ("water", "16c6925f7d6602de")];

/// Seeds travel as JSON numbers (`f64`): keep them exact.
const JSON_EXACT: u64 = (1 << 53) - 1;

/// The seed of the fleet batch sent as op `index`.
fn batch_seed(seed: u64, index: u64) -> u64 {
    derive_seed(seed ^ 0xF1EE_7BA7, index) & JSON_EXACT
}

/// Op `index`: a fleet batch, or every 20th op a campaign alternating
/// between the two testbeds.
fn op(seed: u64, index: u64) -> Op {
    if index % CAMPAIGN_EVERY == CAMPAIGN_EVERY - 1 {
        let model = campaign_model(index);
        Op {
            class: if model == "scada" {
                "campaign-scada"
            } else {
                "campaign-water"
            },
            method: "POST",
            target: format!("/models/{model}/campaigns?wait=true"),
            body: format!("{{\"seed\":{seed},\"threads\":{THREADS}}}").into_bytes(),
        }
    } else {
        Op {
            class: "batch",
            method: "POST",
            target: "/scenarios/batch?wait=true".to_owned(),
            body: format!(
                "{{\"scenarios\":{SCENARIOS},\"seed\":{},\"maxTicks\":{TICKS},\"threads\":{THREADS}}}",
                batch_seed(seed, index)
            )
            .into_bytes(),
        }
    }
}

/// The testbed model of campaign op `index`.
fn campaign_model(index: u64) -> &'static str {
    ["scada", "water"][((index / CAMPAIGN_EVERY) % 2) as usize]
}

/// The in-process spec equal to batch op `index`'s body.
fn spec_of(seed: u64, index: u64, threads: usize) -> CampaignSpec {
    CampaignSpec {
        max_ticks: TICKS,
        threads,
        ..CampaignSpec::new(SCENARIOS, batch_seed(seed, index))
    }
}

/// The specs of the first `n` batch ops.
pub fn batch_specs(seed: u64, n: usize) -> Vec<CampaignSpec> {
    (0..)
        .filter(|index| index % CAMPAIGN_EVERY != CAMPAIGN_EVERY - 1)
        .take(n)
        .map(|index| spec_of(seed, index, THREADS as usize))
        .collect()
}

/// `reps` campaigns per testbed at the workload seed.
pub fn campaign_list(seed: u64, reps: usize) -> Vec<(Testbed, u64)> {
    (0..reps)
        .flat_map(|_| [(Testbed::Centrifuge, seed), (Testbed::Water, seed)])
        .collect()
}

/// `result.recordsHash` of a finished job reply.
fn records_hash_of(body: &[u8]) -> Option<String> {
    let value = parse_json(std::str::from_utf8(body).ok()?).ok()?;
    match value.get("result")?.get("recordsHash")? {
        JsonValue::String(hash) => Some(hash.clone()),
        _ => None,
    }
}

/// Runs the fleet-campaign workload.
pub fn run(config: &Config) -> Report {
    let seed = config.seed & JSON_EXACT;
    let corpus = serve::paper_corpus();
    let mut report = Report::default();
    let (mut server, setup) = Running::boot_repeatedly(BOOTS, &Boot::Paper);

    // Every campaign and one batch in 25 join the correctness sample.
    let sample =
        |index: u64| index % CAMPAIGN_EVERY == CAMPAIGN_EVERY - 1 || index.is_multiple_of(25);
    if config.trace {
        server.sample_pool();
    }
    let drive = net::drive(server.addr(), config.seconds, &|i| op(seed, i), &sample);
    let server_stats = server.stats();
    server.stop();
    let quiet = drive.quiet();
    let batches = quiet.by_class.get("batch").cloned().unwrap_or_default();
    let batch_seconds = batches.iter().sum::<f64>() / 1e3;
    // The two testbeds' campaigns cost differently and alternate, so one
    // median over both would sit on the boundary between them: `heavy_ms`
    // is the mean of the per-testbed medians.
    let per_testbed: Vec<&Vec<f64>> = ["campaign-scada", "campaign-water"]
        .iter()
        .filter_map(|class| quiet.by_class.get(class))
        .collect();
    let heavy = per_testbed.iter().map(|s| stats::median(s)).sum::<f64>() / 2.0;
    let campaigns = per_testbed.iter().map(|s| s.len()).sum();
    common_e2e(
        &mut report,
        &setup,
        &batches,
        (heavy, campaigns),
        (batches.len() as u64 * SCENARIOS) as f64 / batch_seconds.max(1e-9),
        server_stats.peak_rss_mb,
    );
    report.attempted = drive.attempted;
    report.failed = drive.failed;
    // p50_ms and p99_ms cover one class here, so no mix boundary applies.
    serve::class_notes(&mut report, &quiet, false);
    let untraced = Untraced {
        p50_ms: stats::median(&batches),
        responses: server_stats.responses,
        priors: server_stats.priors,
        shed_total: server_stats.shed_total,
        pool: server_stats.pool,
    };
    report.check(
        format!("shed_total is 0 (was {})", untraced.shed_total),
        untraced.shed_total == 0,
    );

    // Sampled batch hashes against an in-process run at one thread; every
    // campaign hash against an in-process run, and the pins at seed 42.
    let mut expected_campaign = std::collections::BTreeMap::new();
    let mut mismatches = 0;
    let (mut batch_checks, mut campaign_checks) = (0, 0);
    for (index, _, body) in &drive.sampled {
        let got = records_hash_of(body);
        let want = if index % CAMPAIGN_EVERY == CAMPAIGN_EVERY - 1 {
            campaign_checks += 1;
            let model = campaign_model(*index);
            expected_campaign
                .entry(model)
                .or_insert_with(|| {
                    let testbed = Testbed::parse(model).expect("built-in testbed");
                    let run = CampaignRun {
                        threads: 1,
                        ..CampaignRun::new(testbed, seed)
                    };
                    format!("{:016x}", records_hash(&run_campaign(&run)))
                })
                .clone()
        } else {
            batch_checks += 1;
            let records = cpssec_scada::run_campaign(&spec_of(seed, *index, 1));
            format!("{:016x}", cpssec_analysis::aggregate(&records).records_hash)
        };
        if got.as_deref() != Some(want.as_str()) {
            eprintln!("op {index}: recordsHash {got:?}, in-process {want}");
            mismatches += 1;
        }
    }
    report.failed += mismatches;
    report.check(
        format!(
            "{batch_checks} sampled batch and {campaign_checks} campaign recordsHash values equal \
             in-process runs at 1 thread ({mismatches} differ)"
        ),
        mismatches == 0 && batch_checks > 0 && campaign_checks > 0,
    );
    if seed == 42 {
        for (model, pinned) in PINNED_42 {
            let got = expected_campaign.get(model).cloned();
            report.check(
                format!("seed 42 {model} campaign hash {got:?} equals the pinned {pinned}"),
                got.as_deref() == Some(pinned),
            );
        }
    }

    if config.trace {
        let primary: Vec<Vec<u8>> = (0..14)
            .filter(|index| index % CAMPAIGN_EVERY != CAMPAIGN_EVERY - 1)
            .map(|index| op(seed, index).raw())
            .collect();
        let base = {
            let engine = cpssec_search::SearchEngine::build(&corpus);
            cpssec_search::snapshot::encode(&corpus, &engine).into()
        };
        let traced = Traced {
            fresh_state: &|| AppState::new(corpus.clone()),
            warm: Vec::new(),
            primary,
            primary_hit: false,
            cold_ops: (0..12).map(|i| serve::cold_op(seed, i)).collect(),
            hot_ops: serve::hot_probe_ops(seed),
            corpus_base: base,
            delta_seed: seed,
            deltas: 4,
            batches: batch_specs(seed, 12),
            campaigns: campaign_list(seed, 2),
            untraced,
        };
        layers::run(&traced, &mut report);
    }
    report
}
