//! E12 — Binary snapshot cold start: JSONL parse + index build versus one
//! `.cpsnap` decode, plus the sharded index build and the adaptive
//! parallel fan-out ablation (E12b).
//!
//! The snapshot stores the indices as term frequencies and document
//! lengths, so the decoded engine answers queries immediately, computing
//! bit-identical weights at query time. `CPSSEC_BENCH_FAST=1` (CI test mode) shrinks sample
//! counts; `CPSSEC_SCALE` picks the corpus scale (default 0.3 here — the
//! paper-shaped 11k-record corpus the acceptance target is stated at).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

use cpssec_model::Fidelity;
use cpssec_scada::model::scada_model;
use cpssec_search::{snapshot, InvertedIndex, SearchEngine};

fn fast_mode() -> bool {
    std::env::var("CPSSEC_BENCH_FAST").is_ok_and(|v| v == "1")
}

/// This bench defaults to the 11k-record scale instead of the harness-wide
/// 0.05 so the headline number matches the acceptance criterion.
fn bench_scale() -> f64 {
    std::env::var("CPSSEC_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.3)
}

fn mean_us(rounds: usize, mut work: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..rounds {
        work();
    }
    started.elapsed().as_secs_f64() * 1e6 / rounds.max(1) as f64
}

fn bench_snapshot_load(c: &mut Criterion) {
    let fast = fast_mode();
    let scale = bench_scale();
    let corpus = cpssec_bench::corpus_at(scale);
    let records = corpus.stats().total() as u64;
    let jsonl = cpssec_attackdb::jsonl::to_jsonl(&corpus);
    let engine = SearchEngine::build(&corpus);
    let snap = snapshot::encode(&corpus, &engine);

    // E12 headline: cold start, parse+build vs decode.
    let rounds = if fast { 2 } else { 5 };
    let cold_us = mean_us(rounds, || {
        let parsed = cpssec_attackdb::jsonl::from_jsonl(&jsonl).expect("parse");
        black_box(SearchEngine::build(&parsed));
    });
    let thaw_us = mean_us(rounds, || {
        black_box(snapshot::decode(&snap).expect("decode"));
    });
    println!("\nE12 — cold start at scale {scale} ({records} records):");
    println!(
        "  jsonl parse + build : {cold_us:>10.0} us  ({} JSONL bytes)",
        jsonl.len()
    );
    println!(
        "  snapshot decode     : {thaw_us:>10.0} us  ({} snapshot bytes)",
        snap.len()
    );
    println!(
        "  speedup             : {:>10.1}x",
        cold_us / thaw_us.max(1.0)
    );

    // Sharded build: same documents, explicit shard counts. On a single
    // hardware thread the sharded path pays only the merge; with real
    // cores it splits tokenization+interning across workers.
    let texts: Vec<&str> = corpus.vulnerabilities().map(|v| v.description()).collect();
    println!("  sharded build of {} docs:", texts.len());
    for shards in [1usize, 2, 4, 8] {
        let us = mean_us(rounds, || {
            black_box(InvertedIndex::from_documents_sharded(&texts, shards));
        });
        println!("    shards={shards:<2} {us:>10.0} us");
    }

    // E12b — adaptive fan-out ablation: whole-model association below and
    // above the sequential-fallback threshold (32 items).
    let model = scada_model();
    let seq_us = mean_us(rounds * 4, || {
        black_box(engine.match_model(&model, Fidelity::Implementation));
    });
    let par_us = mean_us(rounds * 4, || {
        black_box(engine.par_match_model(&model, Fidelity::Implementation));
    });
    println!(
        "E12b — fan-out on {} components (threshold 32):",
        model.component_count()
    );
    println!("  sequential          : {seq_us:>10.0} us");
    println!("  par_match_model     : {par_us:>10.0} us (adaptive: sequential below threshold)");

    let mut group = c.benchmark_group("snapshot_load");
    group.sample_size(if fast { 2 } else { 10 });
    group.throughput(Throughput::Elements(records));
    group.bench_with_input(
        BenchmarkId::new("parse_build", format!("{records}rec")),
        &jsonl,
        |b, jsonl| {
            b.iter(|| {
                let parsed = cpssec_attackdb::jsonl::from_jsonl(jsonl).expect("parse");
                black_box(SearchEngine::build(&parsed))
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("snapshot_decode", format!("{records}rec")),
        &snap,
        |b, snap| b.iter(|| black_box(snapshot::decode(snap).expect("decode"))),
    );
    group.bench_with_input(
        BenchmarkId::new("snapshot_encode", format!("{records}rec")),
        &corpus,
        |b, corpus| b.iter(|| black_box(snapshot::encode(corpus, &engine))),
    );
    group.finish();

    assert!(
        cold_us / thaw_us.max(1.0) >= 10.0 || records < 5_000,
        "snapshot decode must be >=10x faster than parse+build at the 11k scale \
         (cold {cold_us:.0} us vs thaw {thaw_us:.0} us)"
    );
}

criterion_group!(benches, bench_snapshot_load);
criterion_main!(benches);
