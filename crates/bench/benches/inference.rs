//! Criterion benches for the inference hot path (the Fig. 3 CPU numbers),
//! all report-only timings: one chunk's load and solve, an 8-window
//! batch correction, and a 96-window chained correction on the
//! fig6-style workload. The gated per-window cost lives in `bench_json`
//! (`solve_ns_per_window`; see `crates/bench/README.md`).

use bayesperf_core::corrector::{Corrector, CorrectorConfig};
use bayesperf_core::model::{ChunkEngine, ModelConfig};
use bayesperf_events::{Arch, Catalog};
use bayesperf_simcpu::{pack_round_robin, PmuConfig, Sample};
use bayesperf_workloads::kmeans;
use criterion::{criterion_group, criterion_main, Criterion};

fn chunk_fixture(cat: &Catalog) -> Vec<Vec<Sample>> {
    let mut truth = kmeans().instantiate(cat, 0);
    let pmu = bayesperf_simcpu::Pmu::new(cat, PmuConfig::for_catalog(cat));
    let events = bayesperf_bench::derived_event_hpcs(cat);
    let schedule = pack_round_robin(cat, &events).unwrap();
    let run = pmu.run_multiplexed(&mut truth, &schedule, 4);
    run.windows.iter().map(|w| w.samples.clone()).collect()
}

fn bench_chunk_solve(c: &mut Criterion) {
    let cat = Catalog::new(Arch::X86SkyLake);
    let windows = chunk_fixture(&cat);
    let cfg = ModelConfig {
        slices: windows.len(),
        cycles_per_window: 1.0e7,
    };
    let mut engine = ChunkEngine::new(&cat, &cfg);
    c.bench_function("chunk_solve", |b| {
        b.iter(|| {
            engine.load(&windows);
            std::hint::black_box(engine.solve());
        })
    });
}

fn bench_corrector_run(c: &mut Criterion) {
    let cat = Catalog::new(Arch::X86SkyLake);
    let mut truth = kmeans().instantiate(&cat, 0);
    let pmu = bayesperf_simcpu::Pmu::new(&cat, PmuConfig::for_catalog(&cat));
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

fn bench_chained(c: &mut Criterion) {
    let (cat, run) = bayesperf_bench::fig6_fixture(96);
    c.bench_function("corrector_96w_chained", |b| {
        b.iter(|| {
            let mut corrector = Corrector::new(&cat, CorrectorConfig::for_run(&run));
            std::hint::black_box(corrector.correct_run(&run));
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_chunk_solve, bench_corrector_run, bench_chained
}
criterion_main!(benches);
