//! Release-mode gates for the index and snapshot paths: E12 (snapshot
//! cold start), E13 (observability overhead on the match path) and E17
//! (zero-copy view open at 100k records).
//!
//! Each gate is `#[ignore]`d because its bound is a timing that only
//! means something in an optimized build. Run them with
//! `cargo test --release -p cpssec-search --test release_gates -- --ignored`.
//! They hold a shared lock, so no two time each other, and E13's
//! recorder modes (process-global) cannot leak into another gate.

use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use cpssec_attackdb::seed::seed_corpus;
use cpssec_attackdb::synth::{generate, SynthSpec};
use cpssec_attackdb::Corpus;
use cpssec_model::Fidelity;
use cpssec_scada::model::scada_model;
use cpssec_search::{snapshot, view, SearchEngine};

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn corpus_at(scale: f64) -> Corpus {
    let mut corpus = seed_corpus();
    corpus
        .merge(generate(&SynthSpec::paper2020(2020, scale)))
        .expect("seed and synthetic id spaces are disjoint");
    corpus
}

fn mean_us(rounds: usize, mut work: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..rounds {
        work();
    }
    started.elapsed().as_secs_f64() * 1e6 / rounds.max(1) as f64
}

/// E12: one `.cpsnap` decode is at least 10x faster than a JSONL parse
/// plus index build. The bound is stated for the 11k-record corpus; at
/// this gate's scale 0.02 (2,147 records) the `records < 5_000` guard
/// makes it vacuous, and the gate then only proves both paths run.
/// Raise `SCALE` to 0.3 to check the bound itself.
#[test]
#[ignore = "release-mode gate"]
fn e12_a_snapshot_decode_beats_parse_and_build() {
    const SCALE: f64 = 0.02;
    let _serial = serial();
    let corpus = corpus_at(SCALE);
    let records = corpus.stats().total();
    let jsonl = cpssec_attackdb::jsonl::to_jsonl(&corpus);
    let snap = snapshot::encode(&corpus, &SearchEngine::build(&corpus));
    let rounds = 2;
    let cold_us = mean_us(rounds, || {
        let parsed = cpssec_attackdb::jsonl::from_jsonl(&jsonl).expect("parse");
        black_box(SearchEngine::build(&parsed));
    });
    let decode_us = mean_us(rounds, || {
        black_box(snapshot::decode(&snap).expect("decode"));
    });
    let speedup = cold_us / decode_us.max(1.0);
    println!(
        "E12 at scale {SCALE} ({records} records): parse+build {cold_us:.0} us, \
         decode {decode_us:.0} us ({speedup:.1}x)"
    );
    assert!(
        speedup >= 10.0 || records < 5_000,
        "snapshot decode must be >=10x faster than parse+build at the 11k scale \
         (cold {cold_us:.0} us vs decode {decode_us:.0} us)"
    );
}

/// Mean cost of one `span!` open and drop, in ns, under the recorder's
/// current mode.
fn span_site_ns(iterations: u64) -> f64 {
    let started = Instant::now();
    for _ in 0..iterations {
        drop(black_box(cpssec_obs::span!("gate-probe")));
    }
    started.elapsed().as_secs_f64() * 1e9 / iterations.max(1) as f64
}

/// E13 at scale 0.01 (1,826 records): a disabled span site costs under
/// 200 ns (one relaxed load), and the whole-model match path costs at
/// most 1.25x + 50 µs of its disabled time with span aggregation on and
/// 1.35x + 50 µs with the trace ring on. The match-path bounds hold from
/// 1,000 records up.
#[test]
#[ignore = "release-mode gate"]
fn e13_span_sites_and_enabled_recorders_stay_in_budget() {
    const SCALE: f64 = 0.01;
    let _serial = serial();
    let corpus = corpus_at(SCALE);
    let records = corpus.stats().total();
    let engine = SearchEngine::build(&corpus);
    let model = scada_model();
    let rec = cpssec_obs::recorder();
    let (rounds, span_iters) = (8, 200_000);
    let mut work = || {
        black_box(
            engine
                .match_model(&model, Fidelity::Implementation)
                .iter()
                .map(|(_, set)| set.total())
                .sum::<usize>(),
        );
    };
    // Each mode warms up first (the first enabled rounds pay one-off
    // costs: stage interning, histogram pages, the trace ring), and the
    // figure is the best of 5 chunk means, which shrugs off scheduler
    // interference on a shared core.
    let best_of = |work: &mut dyn FnMut()| {
        for _ in 0..rounds / 2 {
            work();
        }
        (0..5)
            .map(|_| mean_us(rounds, &mut *work))
            .fold(f64::INFINITY, f64::min)
    };
    rec.disable();
    let disabled_us = best_of(&mut work);
    let disabled_span_ns = span_site_ns(span_iters);
    rec.enable_spans();
    let spans_us = best_of(&mut work);
    rec.enable_trace();
    let trace_us = best_of(&mut work);
    rec.disable();
    println!(
        "E13 at scale {SCALE} ({records} records): match_model disabled {disabled_us:.0} us, \
         spans {spans_us:.0} us, trace {trace_us:.0} us; disabled span site \
         {disabled_span_ns:.1} ns"
    );
    assert!(
        disabled_span_ns < 200.0,
        "disabled span site costs {disabled_span_ns:.1} ns; expected an atomic load"
    );
    assert!(
        spans_us <= disabled_us * 1.25 + 50.0 || records < 1_000,
        "span aggregation overhead too high: {spans_us:.0} us vs {disabled_us:.0} us disabled"
    );
    assert!(
        trace_us <= disabled_us * 1.35 + 50.0 || records < 1_000,
        "trace overhead too high: {trace_us:.0} us vs {disabled_us:.0} us disabled"
    );
}

/// E17 at scale 3 (at least 95,000 records): `view::open`, which checks
/// only the header and section geometry, is at least 50x faster than
/// the owned `snapshot::decode` a snapshot boot runs. Set `SCALE` to
/// 0.3 or 31 for the 11k and 1M rows of EXPERIMENTS.
#[test]
#[ignore = "release-mode gate"]
fn e17_a_view_open_beats_the_owned_decode_at_100k_records() {
    const SCALE: f64 = 3.0;
    let _serial = serial();
    let corpus = corpus_at(SCALE);
    let records = corpus.stats().total();
    let snap = snapshot::encode(&corpus, &SearchEngine::build(&corpus));
    drop(corpus);
    let mapped: Arc<[u8]> = snap.clone().into();
    let decode_us = mean_us(2, || {
        black_box(snapshot::decode(&snap).expect("decode"));
    });
    let open_us = mean_us(50, || {
        black_box(view::open(Arc::clone(&mapped)).expect("open"));
    });
    let speedup = decode_us / open_us.max(1e-3);
    println!(
        "E17 at scale {SCALE} ({records} records, {} bytes): decode {decode_us:.0} us, \
         view open {open_us:.2} us ({speedup:.0}x)",
        snap.len()
    );
    assert!(
        records >= 95_000,
        "scale {SCALE} gave only {records} records"
    );
    assert!(
        speedup >= 50.0,
        "zero-copy open must be >=50x faster than the owned decode at 100k records \
         (open {open_us:.2} us vs decode {decode_us:.0} us, {speedup:.1}x)"
    );
}
