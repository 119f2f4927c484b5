//! Criterion benches for the inference hot path (the Fig. 3 CPU numbers),
//! plus two *paired* interleaved studies (see `crates/bench/README.md` for
//! the methodology):
//!
//! * the EP engine-farm scaling study — sequential vs multi-threaded
//!   sweeps on a 64-site model (`ep_farm_speedup_*`);
//! * the warm-vs-cold corrector study — incremental warm-started chained
//!   correction vs the cold per-chunk re-solve baseline on the fig6-style
//!   workload (`corrector_warm_speedup`). With `BENCH_GATE=1` the warm
//!   arm rides the same paired interval gate as `bench_json`'s
//!   `cold_over_warm` entry: the one-sided 99.5% interval on the mean
//!   per-pair cold/warm ratio must clear 1.11× — a CI sanity floor, far
//!   below the ≥3× the warm path actually delivers.

use bayesperf_bench::gate::GateConfig;
use bayesperf_core::corrector::{Corrector, CorrectorConfig};
use bayesperf_core::model::{ChunkEngine, ModelConfig};
use bayesperf_events::{Arch, Catalog};
use bayesperf_inference::{EpConfig, ExpectationPropagation, FnSite, Gaussian};
use bayesperf_simcpu::{pack_round_robin, MultiplexRun, Pmu, PmuConfig, Sample};
use bayesperf_workloads::kmeans;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

fn chunk_fixture(cat: &Catalog) -> Vec<Vec<Sample>> {
    let mut truth = kmeans().instantiate(cat, 0);
    let pmu = Pmu::new(cat, PmuConfig::for_catalog(cat));
    let events = bayesperf_bench::derived_event_hpcs(cat);
    let schedule = pack_round_robin(cat, &events).unwrap();
    let run = pmu.run_multiplexed(&mut truth, &schedule, 4);
    run.windows.iter().map(|w| w.samples.clone()).collect()
}

/// A 64-site engine-farm model: 32 chained variables, one observation site
/// each, plus 31 pairwise coupling sites and one long-range site.
fn farm_model() -> ExpectationPropagation {
    let n = 32;
    let prior = vec![Gaussian::new(5.0, 50.0); n];
    let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
    for v in 0..n {
        let center = 2.0 + v as f64 * 0.25;
        ep.add_site(FnSite::new(vec![v], move |x: &[f64]| {
            Gaussian::new(center, 0.5).log_pdf(x[0])
        }));
    }
    for v in 0..n - 1 {
        ep.add_site(FnSite::new(vec![v, v + 1], |x: &[f64]| {
            Gaussian::new(0.25, 0.1).log_pdf(x[1] - x[0])
        }));
    }
    ep.add_site(FnSite::new(vec![0, n - 1], move |x: &[f64]| {
        Gaussian::new((n - 1) as f64 * 0.25, 1.0).log_pdf(x[1] - x[0])
    }));
    ep
}

fn bench_ep_chunk(c: &mut Criterion) {
    let cat = Catalog::new(Arch::X86SkyLake);
    let windows = chunk_fixture(&cat);
    let cfg = ModelConfig {
        cycles_per_window: 1.0e7,
        ..ModelConfig::for_run(
            &bayesperf_simcpu::Pmu::new(&cat, PmuConfig::for_catalog(&cat)).run_polling(
                &mut kmeans().instantiate(&cat, 0),
                &[],
                1,
            ),
        )
    };
    c.bench_function("ep_chunk_inference", |b| {
        b.iter(|| {
            let mut engine = ChunkEngine::with_slices(&cat, &cfg, cfg.fast_ep(), windows.len());
            engine.load_cold(&windows);
            std::hint::black_box(engine.run_farm(1, 1));
        })
    });
}

fn bench_corrector_run(c: &mut Criterion) {
    let cat = Catalog::new(Arch::X86SkyLake);
    let mut truth = kmeans().instantiate(&cat, 0);
    let pmu = Pmu::new(&cat, PmuConfig::for_catalog(&cat));
    let events = bayesperf_bench::derived_event_hpcs(&cat);
    let schedule = pack_round_robin(&cat, &events).unwrap();
    let run = pmu.run_multiplexed(&mut truth, &schedule, 8);
    c.bench_function("corrector_8_windows", |b| {
        b.iter(|| {
            let mut corrector = Corrector::new(&cat, CorrectorConfig::for_run(&run));
            std::hint::black_box(corrector.correct_run(&run));
        })
    });
}

fn bench_engine_farm(c: &mut Criterion) {
    c.bench_function("ep_farm_64sites_sequential", |b| {
        b.iter(|| std::hint::black_box(farm_model().run_parallel(1, 1)))
    });
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = hw.clamp(2, 8);
    c.bench_function("ep_farm_64sites_parallel", |b| {
        b.iter(|| std::hint::black_box(farm_model().run_parallel(1, threads)))
    });
    // Honor the same CLI name filter bench_function applies, so e.g.
    // `cargo bench ... ep_chunk_inference` doesn't pay for ~32 unrequested
    // farm runs.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    if filter.is_none_or(|f| "ep_farm_speedup".contains(f.as_str())) {
        report_paired_speedup(threads, hw);
    }
}

/// Paired interleaved speedup measurement on the shared
/// [`GateConfig::run_paired`] harness: alternate sequential and parallel
/// runs back to back so drift affects both arms equally, and report the
/// mean per-pair seq/par ratio with its Student-t interval. Report-only —
/// the trivially-true `>= 0` bound means the harness is used purely for
/// its interleaving and interval math, never to block.
fn report_paired_speedup(threads: usize, hw: usize) {
    let pairs = if std::env::var_os("BENCH_QUICK").is_some() {
        3
    } else {
        15
    };
    // One warm-up pair, discarded.
    let _ = time(|| farm_model().run_parallel(0, 1));
    let _ = time(|| farm_model().run_parallel(0, threads));
    // Per-arm pair counters: each arm runs once per pair, so both see the
    // same sweep seed within a pair (matched workloads, like the old loop).
    let mut p_seq = 0u64;
    let mut p_par = 0u64;
    let verdict = GateConfig::at_least("ep_farm_speedup", 0.0)
        .samples(pairs, pairs)
        .seed(0xFA12)
        .run_paired(
            || {
                let t = time(|| farm_model().run_parallel(p_par, threads));
                p_par += 1;
                t
            },
            || {
                let t = time(|| farm_model().run_parallel(p_seq, 1));
                p_seq += 1;
                t
            },
        );
    println!(
        "ep_farm_speedup_{threads}threads            ratio: [{:.2}x {:.2}x {:.2}x] \
         (paired, n={pairs}, {hw} hw threads)",
        verdict.lo, verdict.stat, verdict.hi,
    );
    if hw == 1 {
        println!(
            "    note: single-CPU host — parallel arm cannot exceed 1.0x here; \
             see crates/bench/README.md"
        );
    }
}

fn time<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64()
}

fn bench_warm_vs_cold(c: &mut Criterion) {
    // Long enough that the one unavoidable cold chunk (chunk 0 warms the
    // engine up) stops dominating the per-window average — the quantity of
    // interest is the steady-state sliding-window cost.
    let n_windows = 96;
    let (cat, run) = bayesperf_bench::fig6_fixture(n_windows);
    c.bench_function("corrector_96w_chained_cold", |b| {
        b.iter(|| {
            let mut corrector = Corrector::new(&cat, CorrectorConfig::for_run(&run).cold_start());
            std::hint::black_box(corrector.correct_run(&run));
        })
    });
    c.bench_function("corrector_96w_chained_warm", |b| {
        b.iter(|| {
            let mut corrector = Corrector::new(&cat, CorrectorConfig::for_run(&run));
            std::hint::black_box(corrector.correct_run(&run));
        })
    });
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    if filter.is_none_or(|f| "corrector_warm_speedup".contains(f.as_str())) {
        report_warm_speedup(&cat, &run, n_windows);
    }
}

/// Paired interleaved warm-vs-cold measurement on the shared
/// [`GateConfig::run_paired`] harness: run the cold baseline (every chunk
/// re-solved from vacuous messages with the full budget) and the
/// warm-started incremental path back to back (seeded
/// coin-flip order inside each pair) on the same recorded run, and report
/// the mean per-pair ratio with its one-sided 99.5% Student-t interval
/// plus per-window times.
///
/// The warm arm measures the **steady state**: one persistent corrector
/// streams the run's chunks through [`Corrector::push_chunk`] without ever
/// resetting, so every measured chunk is warm-started — matching a
/// production monitor, where the single cold chunk at stream start
/// amortizes to nothing over an unbounded window stream. (The
/// `corrector_96w_chained_warm` criterion line above measures the same
/// path *including* that cold start, for comparison.)
///
/// `BENCH_GATE=1` turns the sanity floor (warm must finish in < 0.9× the
/// cold time) into a hard assertion for CI, decided on the interval via
/// [`bayesperf_bench::gate::GateVerdict::holds`] rather than a raw point
/// comparison.
fn report_warm_speedup(cat: &Catalog, run: &MultiplexRun, n_windows: usize) {
    let pairs = if std::env::var_os("BENCH_QUICK").is_some() {
        3
    } else {
        10
    };
    let windows: Vec<&[Sample]> = run.windows.iter().map(|w| w.samples.as_slice()).collect();
    let k = CorrectorConfig::for_run(run).model.slices.max(1);
    // Both arms must cover the same windows: the warm arm streams whole
    // chunks, so the fixture length must be chunk-aligned.
    assert_eq!(
        n_windows % k,
        0,
        "fixture windows must be a multiple of the chunk size"
    );
    let chunks: Vec<&[&[Sample]]> = windows.chunks(k).collect();
    let mut warm_corr = Corrector::new(cat, CorrectorConfig::for_run(run));
    // One cold corrector reused across pairs: cold mode carries no state
    // between calls, and constructing it outside the timed region keeps
    // engine construction out of both arms equally.
    let mut cold_corr = Corrector::new(cat, CorrectorConfig::for_run(run).cold_start());
    let mut cold_once = || {
        std::hint::black_box(cold_corr.correct_run(run));
    };
    let mut warm_once = || {
        for chunk in &chunks {
            std::hint::black_box(warm_corr.push_chunk(chunk));
        }
    };
    // One warm-up pair, discarded (this also takes the streaming corrector
    // past its cold first chunk).
    let _ = time(&mut cold_once);
    let _ = time(&mut warm_once);
    // Arm A is the warm baseline and arm B the cold candidate, so the gate
    // statistic is the mean per-pair cold/warm ratio — the speedup.
    let verdict = GateConfig::at_least("corrector_warm_speedup", 1.0 / 0.9)
        .samples(pairs, 2 * pairs)
        .seed(0xA1)
        .max_wall(Duration::from_secs(300))
        .run_paired(|| time(&mut warm_once) * 1e9, || time(&mut cold_once) * 1e9);
    let per_window = |mean_ns: f64| mean_ns / n_windows as f64;
    println!(
        "corrector_warm_speedup                  ratio: [{:.2}x {:.2}x {:.2}x] \
         (paired, n={}; cold {:.0} ns/window, warm {:.0} ns/window)",
        verdict.lo,
        verdict.stat,
        verdict.hi,
        verdict.n_a,
        per_window(verdict.mean_b),
        per_window(verdict.mean_a),
    );
    if std::env::var_os("BENCH_GATE").is_some() {
        assert!(
            verdict.holds(),
            "warm-start regression — {}",
            verdict.summary()
        );
        println!(
            "corrector_warm_speedup                  gate: {}",
            verdict.summary()
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ep_chunk, bench_corrector_run, bench_engine_farm, bench_warm_vs_cold
}
criterion_main!(benches);
