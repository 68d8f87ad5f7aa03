//! E17 — Snapshot mapping at corpus scale: `view::open` versus the full
//! `snapshot::decode`, plus incremental `.cpsdelta` growth versus
//! rebuild-from-scratch.
//!
//! The view validates the header and section geometry in *O(header)*, so
//! its open cost stays flat while the full decode — what a snapshot boot
//! runs before it answers — grows with the corpus. The
//! acceptance criterion is a >=50x open speedup at the 100k-record scale
//! (`CPSSEC_SCALE=3`); the assertion is guarded below 50k records so the
//! default 11k run reports without failing. `CPSSEC_BENCH_FAST=1` (CI
//! test mode) shrinks sample counts. Results land in
//! `BENCH_snapshot_scale.json` for the experiment log.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cpssec_attackdb::synth::delta_batch;
use cpssec_search::{apply_delta, build_delta, snapshot, view, SearchEngine};

fn fast_mode() -> bool {
    std::env::var("CPSSEC_BENCH_FAST").is_ok_and(|v| v == "1")
}

/// Defaults to the paper-shaped 11k-record scale; CI's scale sweep sets
/// `CPSSEC_SCALE=3` for the 100k acceptance run.
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

/// Resident set size in kilobytes via `/proc/self/statm` (0 where
/// unavailable) — the E17 log pairs open times with memory footprints.
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|pages| pages.parse::<u64>().ok())
        })
        .map_or(0, |pages| pages * 4096 / 1024)
}

fn bench_snapshot_scale(c: &mut Criterion) {
    let fast = fast_mode();
    let scale = bench_scale();
    let corpus = cpssec_bench::corpus_at(scale);
    let records = corpus.stats().total() as u64;
    let engine = SearchEngine::build(&corpus);
    let snap = snapshot::encode(&corpus, &engine);
    let mapped: Arc<[u8]> = snap.clone().into();
    let query = "Microsoft Windows 7 remote code execution";

    // Headline: borrowed open (O(header)) vs owned decode (O(payload)).
    let decode_rounds = if fast { 2 } else { 5 };
    let open_rounds = if fast { 50 } else { 500 };
    let rss_before_kb = rss_kb();
    let decode_us = mean_us(decode_rounds, || {
        black_box(snapshot::decode(&snap).expect("decode"));
    });
    let rss_owned_kb = rss_kb();
    let open_us = mean_us(open_rounds, || {
        black_box(view::open(Arc::clone(&mapped)).expect("open"));
    });
    let verified_us = mean_us(decode_rounds, || {
        black_box(view::open_verified(Arc::clone(&mapped)).expect("open_verified"));
    });
    let speedup = decode_us / open_us.max(1e-3);

    // Time-to-first-answer from cold bytes: the snapshot boot's decode.
    let first_query_owned_us = mean_us(decode_rounds, || {
        let (_, thawed) = snapshot::decode(&snap).expect("decode");
        black_box(thawed.match_text(query));
    });

    // Incremental growth: one 1k-record `.cpsdelta` applied to the live
    // pair, against a full rebuild of the grown corpus.
    let parent = snapshot::inspect(&snap).expect("inspect").snapshot_id;
    let batch = delta_batch(42, 1_000, 0);
    let delta = build_delta(parent, &batch);
    let apply_us = mean_us(decode_rounds, || {
        let mut grown_corpus = corpus.clone();
        let mut grown_engine = engine.clone();
        apply_delta(&mut grown_corpus, &mut grown_engine, &delta, parent).expect("apply");
        black_box(&grown_engine);
    });
    let mut grown_corpus = corpus.clone();
    let mut grown_engine = engine.clone();
    apply_delta(&mut grown_corpus, &mut grown_engine, &delta, parent).expect("apply");
    let rebuild_us = mean_us(decode_rounds, || {
        black_box(SearchEngine::build(&grown_corpus));
    });

    println!("\nE17 — zero-copy mapping at scale {scale} ({records} records):");
    println!("  snapshot size       : {:>10} bytes", snap.len());
    println!("  owned decode        : {decode_us:>10.0} us  (rss {rss_owned_kb} kB, baseline {rss_before_kb} kB)");
    println!("  view open           : {open_us:>10.2} us  ({speedup:.0}x faster than decode)");
    println!("  view open_verified  : {verified_us:>10.0} us  (adds the checksum pass)");
    println!("  first query (owned) : {first_query_owned_us:>10.0} us");
    println!("  delta size (1k rec) : {:>10} bytes", delta.len());
    println!(
        "  delta apply (1k rec): {apply_us:>10.0} us  vs rebuild {rebuild_us:>10.0} us ({:.1}x)",
        rebuild_us / apply_us.max(1.0)
    );

    let json = format!(
        "{{\"scale\":{scale},\"records\":{records},\"snapshotBytes\":{},\
         \"decodeUs\":{decode_us:.1},\"viewOpenUs\":{open_us:.2},\
         \"viewOpenVerifiedUs\":{verified_us:.1},\"openSpeedup\":{speedup:.1},\
         \"firstQueryOwnedUs\":{first_query_owned_us:.1},\
         \"deltaBytes\":{},\"deltaApplyUs\":{apply_us:.1},\"rebuildUs\":{rebuild_us:.1},\
         \"rssOwnedKb\":{rss_owned_kb}}}",
        snap.len(),
        delta.len()
    );
    std::fs::write("BENCH_snapshot_scale.json", &json).expect("write bench artifact");
    println!("  wrote BENCH_snapshot_scale.json");

    let mut group = c.benchmark_group("snapshot_scale");
    group.sample_size(if fast { 2 } else { 10 });
    group.throughput(Throughput::Elements(records));
    group.bench_with_input(
        BenchmarkId::new("view_open", format!("{records}rec")),
        &mapped,
        |b, mapped| b.iter(|| black_box(view::open(Arc::clone(mapped)).expect("open"))),
    );
    group.bench_with_input(
        BenchmarkId::new("owned_decode", format!("{records}rec")),
        &snap,
        |b, snap| b.iter(|| black_box(snapshot::decode(snap).expect("decode"))),
    );
    group.bench_with_input(
        BenchmarkId::new("delta_apply_1k", format!("{records}rec")),
        &delta,
        |b, delta| {
            b.iter(|| {
                let mut grown_corpus = corpus.clone();
                let mut grown_engine = engine.clone();
                apply_delta(&mut grown_corpus, &mut grown_engine, delta, parent).expect("apply");
                black_box(&grown_engine);
            })
        },
    );
    group.finish();

    assert!(
        speedup >= 50.0 || records < 50_000,
        "zero-copy open must be >=50x faster than the owned decode at the \
         100k scale (open {open_us:.2} us vs decode {decode_us:.0} us, {speedup:.1}x)"
    );
}

criterion_group!(benches, bench_snapshot_scale);
criterion_main!(benches);
