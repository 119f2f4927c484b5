//! Machine-readable inference perf baseline: runs every perf gate as an
//! interleaved, interval-bounded measurement (`bayesperf_bench::gate`) on
//! the fig6-style workload, plus the calibration gates on the suite
//! workloads, and writes `BENCH_inference.json` — the trajectory file
//! future PRs diff their hot path against, with error bars.
//!
//! Every gated quantity is measured the same way: the two arms (or the
//! one arm, for absolute-deadline gates) run under a seeded coin-flip
//! interleaving schedule, a Welch's-t confidence interval (a Student-t
//! one on per-pair ratios, for the paired gates) brackets the ratio of
//! means, and the gate passes/fails on the **interval bound**,
//! never on a raw point estimate — see `crates/bench/README.md` for the
//! methodology and the full gate table. With `BENCH_GATE=1` a verdict
//! that does not hold aborts the run; without it the verdicts are only
//! reported. `BENCH_QUICK=1` shrinks sample budgets for CI smoke runs;
//! `BENCH_JSON_PATH` overrides the output path.
//!
//! Schema (all times wall-clock, single process, fixed seeds; every entry
//! carries a `gate` object — or two, where one section holds two gates —
//! with the point estimate, its `[lo, hi]` interval, per-arm sample
//! counts `n_a`/`n_b`, the bound, and the three-way verdict):
//!
//! ```json
//! {
//!   "bench": "inference",
//!   "workload": "kmeans",
//!   "windows": 96,
//!   "chunk_slices": 6,
//!   "alpha": 0.005,
//!   "solve": { "ns_per_window": 0.0, "site_updates_total": 0,
//!              "gate": { "stat": 0.0, "lo": 0.0, "hi": 0.0, "n_a": 0,
//!                        "n_b": 0, "rel": "<=", "bound": 1000000.0,
//!                        "alpha": 0.005, "verdict": "pass" } },
//!   "kernel": { "dim": 174, "band": 29, "simd": "avx2",
//!               "reference_ns_per_cycle": 0.0,
//!               "production_ns_per_cycle": 0.0, "gate": { ... } },
//!   "calibration": { "cells": 24, "windows": 48, "events": 16,
//!                    "cov68": 0.0, "cov95": 0.0, "cov997": 0.0,
//!                    "worst_cell_cov95": 0.0, "z_p50": 0.0, "z_p90": 0.0,
//!                    "bayesperf_dtw_pct": 0.0, "linux_dtw_pct": 0.0,
//!                    "cov95_gate": { ... }, "dtw_gate": { ... } },
//!   "shim_read": { "reads": 0, "timer_ns": 0.0, "p50_ns": 0.0,
//!                  "p99_ns": 0.0, "push_chunk_ns": 0.0, "gate": { ... } },
//!   "fleet_read": { "shards": 8, "reads": 0, "timer_ns": 0.0,
//!                   "p50_ns": 0.0, "p99_ns": 0.0,
//!                   "gate": { ... }, "shim_gate": { ... } },
//!   "fleet_scrape": { "shards": 8, "passes_per_sample": 0,
//!                     "ns_per_shard": 0.0, "bytes_per_pass": 0,
//!                     "gate": { ... } },
//!   "fleet_scrape_net": { "shards": 32, "active_ns_per_round": 0.0,
//!                         "idle_ns_per_round": 0.0,
//!                         "active_bytes_per_round": 0.0,
//!                         "idle_bytes_per_round": 0.0,
//!                         "lossy_drop_prob": 0.1, "staleness_p99_rounds": 0,
//!                         "delta_gate": { ... }, "staleness_gate": { ... } },
//!   "mux_schedule": { "groups": 3, "windows": 48, "seeds": 20,
//!                     "rr_err_pct": 0.0, "rr_cov95": 0.0 },
//!   "supervised_recovery": { "cycles": 0, "restart_p50_ns": 0.0,
//!                            "restart_p99_ns": 0.0, "reads_during_recovery": 0,
//!                            "read_failures": 0, "guard_ns_per_window": 0.0,
//!                            "restart_gate": { ... }, "guard_gate": { ... } },
//!   "multi_source_fuse": { "windows": 18, "sources": 4,
//!                          "pmu_only_ns_per_window": 0.0,
//!                          "fused_ns_per_window": 0.0,
//!                          "pmu_only_gauge_sd": 0.0, "fused_gauge_sd": 0.0,
//!                          "gate": { ... } },
//!   "obs_overhead": { "stream_ns_per_window": 0.0,
//!                     "telemetry_ns_per_window": 0.0, "gate": { ... } }
//! }
//! ```
//!
//! The gates (statistic → bound; each decided on the one-sided
//! `1 - α` interval bound, α = 0.005):
//!
//! * `solve` — ns per window of the streaming corrector over the
//!   fixture's 16 chunks; upper bound ≤ 1 ms, fail-closed (a sanity
//!   ceiling — the per-PR benchmark A/B against the parent is what holds
//!   the cost).
//! * `kernel` — one IRLS cycle (two mean-only solves and one full solve)
//!   of a chunk-shaped system, 6 slices × 29 variables at bandwidth 29,
//!   by `AnalyticScratch` over the same cycle by the bit-identical
//!   reference kernels (`bayesperf_bench::reference`), paired; upper
//!   bound ≤ 0.6, fail-closed (the register-window kernels keep their
//!   gain; both instantiations read about 0.3, and each sample is a
//!   back-to-back pair, so a preempted sample moves one ratio instead of
//!   widening the interval past the bound). `simd` names the
//!   instantiation that ran: `"avx2"` or `"portable"`.
//! * `calibration.cov95_gate` — per-cell share of (window, event) pairs
//!   whose truth lies within 1.96 posterior sd of the mean, over x86 and
//!   ppc64 × TeraSort, ALS, Scan, Join × seeds 0–2; lower bound ≥ 0.90,
//!   fail-closed (the stated uncertainty must be true).
//! * `calibration.dtw_gate` — Linux scaling's DTW error over BayesPerf's
//!   on the same cells; lower bound ≥ 4.5 (the Fig. 6 bar), fail-closed.
//! * `shim_read` — one `push_chunk` over the mean `Session::read`
//!   (the Fig. 3 property); lower bound ≥ 10× (reads never pay for
//!   inference).
//! * `fleet_read` — mean 8-shard `FleetSession::read` over mean
//!   single-session read; upper bound ≤ 5× (shard count must not leak
//!   into the read path).
//! * `fleet_read.shim_gate` — 512-read batches of `Session::read` over
//!   8-shard `FleetSession::read`, paired; upper bound ≤ 1.5, fail-closed
//!   (each read is one snapshot-cell acquisition around the same cheap
//!   checks, so the ratio is about 1; a session read that also acquired
//!   the supervisor's state cell would read about 2).
//! * `fleet_scrape` — ns per full scrape-encode-decode-fuse pass at 8
//!   shards; upper bound ≤ 1 ms (a loose absolute sanity ceiling).
//! * `fleet_scrape_net.delta_gate` — idle-round bytes over active-round
//!   bytes at 32 networked shards; upper bound ≤ 0.2 (the delta-scrape
//!   payoff).
//! * `fleet_scrape_net.staleness_gate` — mean per-round worst contributor
//!   age under 10% drop; upper bound ≤ 5 rounds (retries + backoff
//!   recover faster than the fleet decays).
//! * `supervised_recovery.restart_gate` — mean crash-to-Running wall
//!   clock at a pinned 1 ms backoff; upper bound ≤ 100 ms. (The
//!   no-read-fails-mid-recovery check stays an exact invariant — it is a
//!   correctness property, not a noisy measurement.)
//! * `supervised_recovery.guard_gate` — divergence-guard ns/window (the
//!   chunk engine's `Sample::is_well_formed` load guard over every sample
//!   plus the service's publish check over every posterior) over
//!   streaming inference ns/window; upper bound ≤ 0.02 (containment is a
//!   ≤ 2% tax).
//! * `multi_source_fuse` — fused over PMU-only mean gauge posterior
//!   spread across interleaved seeds; upper bound ≤ 1 (gauge evidence may
//!   only tighten gauge posteriors).
//! * `obs_overhead` — the service loop's per-chunk telemetry traffic
//!   (counters, histograms, spans) ns/window over streaming inference
//!   ns/window, paired; upper bound ≤ 0.02 (observation is a ≤ 2% tax).
//!
//! The `p50_ns` and `p99_ns` of `shim_read` and `fleet_read` time one
//! read each between two `Instant::now()` calls, net of `timer_ns`: the
//! median of an empty region timed the same way in the same loop. The
//! gates time 512-read batches, where the clock is negligible.
//!
//! `mux_schedule` carries no gate. It reports round-robin's closed-loop
//! truth `err_pct` and `cov95` (the schedule's round-robin rotation, an
//! unscheduled window left unobserved, corrected and scored against the
//! simulated truth over kmeans seeds 0–19 at 48 windows, in quick and
//! full mode alike): deterministic figures that a model change should
//! hold. CI diffs the entry a run writes against the committed one.

use bayesperf_baselines::{LinuxScaling, SeriesEstimator};
use bayesperf_bench::fig6_fixture;
use bayesperf_bench::gate::{GateConfig, GateVerdict};
use bayesperf_bench::reference::{Chain, ReferenceScratch};
use bayesperf_core::corrector::{CorrectionStats, Corrector, CorrectorConfig};
use bayesperf_core::metrics::dtw_relative_error;
use bayesperf_core::scheduler::ScheduleTransformer;
use bayesperf_core::{Monitor, ServiceState, ShimError, SnapshotView, SupervisorPolicy};
use bayesperf_events::{Arch, Catalog, EventId};
use bayesperf_fleet::{
    wire, Aggregator, Fleet, FleetConfig, FleetScraper, HealthState, ScrapeConfig, ScrapeResponder,
    ShardId, ShardLabel, SimTransport, SnapshotSource,
};
use bayesperf_inference::{AnalyticScratch, EpRunStats, Gaussian};
use bayesperf_mlsched::mux::{hetero_demo_events, run_closed_loop, GroupSchedule};
use bayesperf_obs::{Stage, Telemetry};
use bayesperf_simcpu::{LinkProfile, LinkState, Pmu, PmuConfig, Sample};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_WINDOWS: usize = 96;

fn quick() -> bool {
    std::env::var_os("BENCH_QUICK").is_some()
}

/// Per-arm (min, max) sample budget, switched on `BENCH_QUICK`.
fn budget(quick_minmax: (usize, usize), full_minmax: (usize, usize)) -> (usize, usize) {
    if quick() {
        quick_minmax
    } else {
        full_minmax
    }
}

fn with_budget(cfg: GateConfig, q: (usize, usize), f: (usize, usize)) -> GateConfig {
    let (min, max) = budget(q, f);
    cfg.samples(min, max).max_wall(Duration::from_secs(300))
}

/// Reports the verdict, and under `BENCH_GATE=1` enforces it.
fn check(v: &GateVerdict) {
    eprintln!("gate {}", v.summary());
    if std::env::var_os("BENCH_GATE").is_some() {
        assert!(v.holds(), "BENCH_GATE failed — {}", v.summary());
    }
}

/// A shard stand-in for the networked-scrape bench: its snapshot is a
/// pure function of a version counter, so "the shard corrected another
/// chunk" is one atomic bump — no Monitor machinery in the timed loop.
struct NetSource {
    shard: u32,
    version: AtomicU64,
    events: usize,
}

impl NetSource {
    fn bump(&self) {
        self.version.fetch_add(1, Ordering::Relaxed);
    }
}

impl SnapshotSource for NetSource {
    fn source_stamp(&self) -> Result<(u32, u64), ShimError> {
        let v = self.version.load(Ordering::Relaxed);
        Ok((v as u32 * 6, v))
    }

    fn source_view(&self) -> Result<SnapshotView, ShimError> {
        let v = self.version.load(Ordering::Relaxed);
        Ok(SnapshotView {
            window: v as u32 * 6,
            chunk: v,
            stats: EpRunStats::default(),
            late_by_source: Vec::new(),
            posteriors: (0..self.events)
                .map(|e| {
                    Gaussian::new(
                        50.0 + f64::from(self.shard) * 0.1 + e as f64 + v as f64 * 0.01,
                        0.5 + (f64::from(self.shard) % 7.0) * 0.3 + e as f64 * 0.2,
                    )
                })
                .collect(),
        })
    }
}

/// Builds a SimTransport fleet of `shards` synthetic sources behind
/// per-shard derived link profiles, returning the scraper plus the bump
/// handles.
fn net_fleet(
    events: usize,
    shards: u32,
    template: &LinkProfile,
) -> (FleetScraper, Vec<Arc<NetSource>>) {
    let mut scraper = FleetScraper::new(
        events,
        ScrapeConfig {
            deadline: Duration::from_millis(5),
            ..ScrapeConfig::default()
        },
    );
    let mut sources = Vec::new();
    for shard in 0..shards {
        let source = Arc::new(NetSource {
            shard,
            version: AtomicU64::new(1),
            events,
        });
        let label = ShardLabel::new(format!("m{shard}"), shard % 2);
        let responder = Arc::new(ScrapeResponder::new(
            ShardId::from_raw(shard),
            label.clone(),
            Arc::clone(&source),
        ));
        scraper.add_endpoint(
            ShardId::from_raw(shard),
            label,
            Box::new(SimTransport::new(
                responder,
                LinkState::new(template.derive(shard)),
            )),
        );
        sources.push(source);
    }
    (scraper, sources)
}

/// Times `reads` single calls of `read`, each between two
/// `Instant::now()` calls, and after each an empty region timed the same
/// way. A clock pair costs about as much as a read, so the read's p50
/// and p99 are returned net of the empty region's median, which is
/// returned third (`timer_ns`).
fn net_read_percentiles(reads: usize, mut read: impl FnMut()) -> (f64, f64, f64) {
    let mut read_ns = Vec::with_capacity(reads);
    let mut timer_ns = Vec::with_capacity(reads);
    for _ in 0..reads {
        let t = Instant::now();
        read();
        read_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        timer_ns.push(t.elapsed().as_nanos() as f64);
    }
    read_ns.sort_by(f64::total_cmp);
    timer_ns.sort_by(f64::total_cmp);
    let timer = timer_ns[reads / 2];
    (
        read_ns[reads / 2] - timer,
        read_ns[reads * 99 / 100] - timer,
        timer,
    )
}

fn main() {
    let (cat, run) = fig6_fixture(N_WINDOWS);
    // Chunking must match the corrector's configured slice count, or
    // push_chunk panics on a window-count mismatch.
    let slices = CorrectorConfig::for_run(&run).model.slices.max(1);
    assert_eq!(N_WINDOWS % slices, 0, "fixture must be chunk-aligned");
    let windows: Vec<&[Sample]> = run.windows.iter().map(|w| w.samples.as_slice()).collect();
    let chunks: Vec<&[&[Sample]]> = windows.chunks(slices).collect();

    // The streaming corrector every timed inference arm runs: one pass
    // pushes the fixture's 16 chunks through it.
    let mut corr = Corrector::new(&cat, CorrectorConfig::for_run(&run));
    let stream_once = |corr: &mut Corrector| -> (f64, CorrectionStats) {
        let mut stats = CorrectionStats::default();
        let t = Instant::now();
        for chunk in &chunks {
            stats.absorb_run(&std::hint::black_box(corr.push_chunk(chunk)));
        }
        (t.elapsed().as_nanos() as f64, stats)
    };
    // Warm-up pass, discarded.
    let _ = stream_once(&mut corr);

    // Gate 1 — the solve's cost per window, a one-arm level gate against
    // a loose absolute ceiling of 1 ms: a sanity bound like
    // `scrape_pass_ns`. The benchmark's A/B against the parent commit is
    // what holds the cost from PR to PR.
    let mut solve_stats = CorrectionStats::default();
    let solve_gate = with_budget(
        GateConfig::at_most("solve_ns_per_window", 1e6)
            .seed(0xA1)
            .fail_closed(),
        (3, 6),
        (6, 12),
    )
    .run_level(|| {
        let (ns, s) = stream_once(&mut corr);
        solve_stats = s;
        ns / N_WINDOWS as f64
    });
    check(&solve_gate);

    // The kernels' gain: one IRLS cycle of a chunk-shaped system (6
    // slices of the 29-event invariant component, bandwidth 29) by the
    // production kernels over the same cycle by the reference kernels
    // they replaced, which compute the same bits one dot product per
    // entry. Both arms assemble the same terms, and each sample is a
    // back-to-back pair, so host drift divides out of its ratio.
    let kernel_chain = Chain::seeded(29, 6, 0xC4);
    let kernel_band = kernel_chain.slice_width();
    let kernel_cycles = 20usize;
    let start = || kernel_chain.prior().iter().map(|g| g.mean);
    let mut production = AnalyticScratch::with_capacity(kernel_chain.dim(), kernel_band);
    let mut reference = ReferenceScratch::new();
    let kernel_gate = with_budget(
        GateConfig::at_most("kernel_over_reference", 0.6)
            .seed(0xAD)
            .fail_closed(),
        (3, 8),
        (6, 16),
    )
    .run_paired(
        || {
            let t = Instant::now();
            for _ in 0..kernel_cycles {
                assert!(
                    reference.irls(kernel_chain.prior(), kernel_band, start(), |ws| {
                        kernel_chain.terms(|l, c, o, v| ws.add_term(l, c, o, v));
                        true
                    })
                );
            }
            std::hint::black_box(reference.var());
            t.elapsed().as_nanos() as f64 / kernel_cycles as f64
        },
        || {
            let t = Instant::now();
            for _ in 0..kernel_cycles {
                assert!(
                    production.irls(kernel_chain.prior(), kernel_band, start(), |ws| {
                        kernel_chain.terms(|l, c, o, v| ws.add_term(l, c, o, v));
                        true
                    })
                );
            }
            std::hint::black_box(production.var());
            t.elapsed().as_nanos() as f64 / kernel_cycles as f64
        },
    );
    check(&kernel_gate);

    // Gate 2 — calibration: a nominal interval must cover simulated
    // truth. Cells: x86 and ppc64 × TeraSort, ALS, Scan, Join × seeds
    // 0–2, the PMU and the workload both seeded; 48 windows of the first
    // 16 programmable events, planned by the schedule transformer, each
    // corrected by a fresh corrector. Every (window, event) pair is
    // scored by z = (mean − truth)/sd; the cells' DTW errors (band 4,
    // averaged over the events) compare BayesPerf with Linux scaling. The
    // cells are deterministic, so both gates sample them in order.
    let cal_windows = 48usize;
    let cal_events = 16usize;
    let mut z_abs: Vec<f64> = Vec::new();
    let mut cal_cov95: Vec<f64> = Vec::new();
    let mut cal_bayes: Vec<f64> = Vec::new();
    let mut cal_linux: Vec<f64> = Vec::new();
    for arch in [Arch::X86SkyLake, Arch::Ppc64Power9] {
        let cal_cat = Catalog::new(arch);
        let events: Vec<EventId> = cal_cat
            .programmable_events()
            .into_iter()
            .take(cal_events)
            .collect();
        let schedule = ScheduleTransformer::new(&cal_cat).plan(&events);
        for name in ["TeraSort", "ALS", "Scan", "Join"] {
            for seed in 0..3u64 {
                let program = bayesperf_workloads::by_name(name).expect("in the suite");
                let mut truth = program.instantiate(&cal_cat, seed);
                let pmu_cfg = PmuConfig {
                    seed,
                    ..PmuConfig::for_catalog(&cal_cat)
                };
                let cal_run = Pmu::new(&cal_cat, pmu_cfg).run_multiplexed(
                    &mut truth,
                    &schedule.configs,
                    cal_windows,
                );
                let series = Corrector::new(&cal_cat, CorrectorConfig::for_run(&cal_run))
                    .correct_run(&cal_run);
                let (mut covered, mut bayes, mut linux) = (0usize, 0.0, 0.0);
                for &ev in &events {
                    let truth = cal_run.truth_series(ev);
                    let (mean, sd) = (series.mle_series(ev), series.sd_series(ev));
                    for w in 0..truth.len() {
                        let z = ((mean[w] - truth[w]) / sd[w]).abs();
                        covered += usize::from(z <= 1.96);
                        z_abs.push(z);
                    }
                    bayes += dtw_relative_error(&mean, &truth, 4);
                    linux +=
                        dtw_relative_error(&LinuxScaling::new().estimate(&cal_run, ev), &truth, 4);
                }
                cal_cov95.push(covered as f64 / (cal_windows * events.len()) as f64);
                cal_bayes.push(bayes / events.len() as f64);
                cal_linux.push(linux / events.len() as f64);
            }
        }
    }
    let cells = cal_cov95.len();
    let coverage =
        |bound: f64| z_abs.iter().filter(|&&z| z <= bound).count() as f64 / z_abs.len() as f64;
    let (cov68, cov95, cov997) = (coverage(1.0), coverage(1.96), coverage(3.0));
    let worst_cov95 = cal_cov95.iter().copied().fold(f64::INFINITY, f64::min);
    z_abs.sort_by(|a, b| a.total_cmp(b));
    let (z_p50, z_p90) = (z_abs[z_abs.len() / 2], z_abs[z_abs.len() * 9 / 10]);
    let mean_of = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mut cov95_cells = cal_cov95.iter().copied();
    let cov95_gate = GateConfig::at_least("cov95_per_cell", 0.90)
        .samples(cells, cells)
        .fail_closed()
        .run_level(|| cov95_cells.next().expect("one sample per cell"));
    check(&cov95_gate);
    let (mut bayes_cells, mut linux_cells) = (cal_bayes.iter().copied(), cal_linux.iter().copied());
    let dtw_gate = GateConfig::at_least("linux_over_bayesperf_dtw", 4.5)
        .samples(cells, cells)
        .seed(0xAC)
        .fail_closed()
        .run_ratio(
            || bayes_cells.next().expect("one sample per cell"),
            || linux_cells.next().expect("one sample per cell"),
        );
    check(&dtw_gate);

    // Shim read latency (the Fig. 3 claim): a `Session::read` is served
    // from the lock-free posterior snapshot — it must be orders of
    // magnitude cheaper than the inference it hides. Percentiles are
    // measured read-by-read against a live monitor that has corrected the
    // same run, net of the clock's own cost; the gate then compares
    // interleaved read *batches* (mean ns/read, amortizing timer
    // overhead) against single `push_chunk` runs.
    let reads = if quick() { 2_000 } else { 20_000 };
    let monitor =
        Monitor::new(&cat, CorrectorConfig::for_run(&run), 1 << 16).expect("spawn monitor");
    let session = monitor.session().open().expect("fresh monitor");
    for w in &run.windows {
        for s in &w.samples {
            let _ = monitor.push_sample(*s);
        }
    }
    monitor.flush().expect("service alive");
    let ev = run.windows[0].samples[0].event;
    assert!(session.read(ev).is_ok(), "posterior published after flush");
    let (read_p50, read_p99, read_timer) = net_read_percentiles(reads, || {
        let _ = std::hint::black_box(session.read(ev));
    });

    let read_batch = 512usize;
    let batch_read = |session: &bayesperf_core::Session| -> f64 {
        let t = Instant::now();
        for _ in 0..read_batch {
            let _ = std::hint::black_box(session.read(ev));
        }
        t.elapsed().as_nanos() as f64 / read_batch as f64
    };
    let mut chunk_idx = 0usize;
    let shim_gate = with_budget(
        GateConfig::at_least("push_over_read", 10.0).seed(0xA2),
        (3, 8),
        (6, 16),
    )
    .run_ratio(
        || batch_read(&session),
        || {
            let chunk = chunks[chunk_idx % chunks.len()];
            chunk_idx += 1;
            let t = Instant::now();
            std::hint::black_box(corr.push_chunk(chunk));
            t.elapsed().as_nanos() as f64
        },
    );
    check(&shim_gate);
    let push_chunk_ns = shim_gate.mean_b;

    // Fleet read latency at 8 shards: a fused read is one lock-free
    // acquisition of the fleet snapshot cell — shard count must not leak
    // into the read path, so the fused/single read-cost ratio's upper
    // bound must stay within 5x.
    let n_shards = 8u32;
    let mut fleet =
        Fleet::new(&cat, FleetConfig::new(CorrectorConfig::for_run(&run))).expect("spawn fleet");
    let shard_ids: Vec<_> = (0..n_shards)
        .map(|i| {
            fleet
                .add_shard(ShardLabel::new(format!("m{i}"), 0))
                .expect("spawn shard")
        })
        .collect();
    for &id in &shard_ids {
        for w in &run.windows {
            for s in &w.samples {
                let _ = fleet.push_sample(id, *s);
            }
        }
    }
    fleet.flush().expect("fleet alive");
    let fleet_session = fleet.session().open().expect("fresh fleet");
    assert!(
        fleet_session.read(ev).is_ok(),
        "fused posterior published after flush"
    );
    let (fleet_p50, fleet_p99, fleet_timer) = net_read_percentiles(reads, || {
        let _ = std::hint::black_box(fleet_session.read(ev));
    });
    let batch_fleet_read = || -> f64 {
        let t = Instant::now();
        for _ in 0..read_batch {
            let _ = std::hint::black_box(fleet_session.read(ev));
        }
        t.elapsed().as_nanos() as f64 / read_batch as f64
    };
    let fleet_gate = with_budget(
        GateConfig::at_most("fleet_over_shim_read", 5.0).seed(0xA3),
        (3, 8),
        (6, 16),
    )
    .run_ratio(|| batch_read(&session), batch_fleet_read);
    check(&fleet_gate);
    // The other direction, tight: a session read and a fused read each
    // acquire one snapshot cell around the same cheap checks, so a
    // session read that takes a second acquisition (or any other fixed
    // cost the fused read lacks) shows as a ratio near 2. Paired, since
    // a batch is a few microseconds and host drift between batches would
    // otherwise swamp a 1.5 bound.
    let shim_fleet_gate = with_budget(
        GateConfig::at_most("shim_over_fleet_read", 1.5)
            .seed(0xA7)
            .fail_closed(),
        (6, 40),
        (10, 80),
    )
    .run_paired(batch_fleet_read, || batch_read(&session));
    check(&shim_fleet_gate);

    // Fleet scrape throughput: one pass = snapshot + wire encode + wire
    // decode + precision-weighted fusion for all shards (the collector's
    // steady-state loop). No natural baseline arm exists, so this is a
    // level gate against a loose absolute ceiling — 1 ms per pass, ~150x
    // above the measured cost, a sanity bound that survives slow runners.
    let passes_per_sample = if quick() { 10 } else { 25 };
    let labels = fleet.shards();
    let sessions: Vec<_> = shard_ids
        .iter()
        .map(|&id| fleet.shard_session(id).expect("member"))
        .collect();
    let mut agg = Aggregator::new(cat.len());
    let mut view = SnapshotView::default();
    let mut buf = Vec::new();
    let mut scrape_bytes = 0usize;
    let mut scrape_pass = 0u64;
    let scrape_gate = with_budget(
        GateConfig::at_most("scrape_pass_ns", 1e6).seed(0xA4),
        (3, 8),
        (6, 16),
    )
    .run_level(|| {
        let t = Instant::now();
        for _ in 0..passes_per_sample {
            scrape_pass += 1;
            agg.begin();
            buf.clear();
            for ((id, label), session) in labels.iter().zip(&sessions) {
                session.snapshot_into(&mut view).expect("published");
                let record = wire::ShardSnapshot::from_view(*id, label.clone(), &view);
                let start = buf.len();
                wire::encode_shard(&record, &mut buf);
                let (decoded, _) = wire::decode_shard(&buf[start..]).expect("own encoding");
                agg.absorb(decoded.status(), &decoded.posteriors)
                    .expect("catalog-sized");
            }
            scrape_bytes = buf.len();
            std::hint::black_box(agg.fuse(scrape_pass).expect("shards absorbed"));
        }
        t.elapsed().as_nanos() as f64 / passes_per_sample as f64
    });
    check(&scrape_gate);

    // Networked scrape plane: a FleetScraper polling SimTransport shards
    // (virtual-clock links, so the protocol — not sleeps — is what's
    // timed). Active rounds bump every source first (full snapshots);
    // idle rounds leave the sources alone (tiny Unchanged acks). The
    // idle/active byte ratio is the delta-scrape payoff; rounds of the
    // two kinds are coin-flip interleaved, which is exactly the mixed
    // traffic a live collector sees.
    let net_shards = 32u32;
    let clean = LinkProfile::clean(0xBE7C4);
    let (mut net_scraper, net_sources) = net_fleet(cat.len(), net_shards, &clean);
    net_scraper.poll_round(); // prime caches outside the timed region
    let net_scraper = std::cell::RefCell::new(net_scraper);
    let mut active_ns = (0.0, 0u32);
    let mut idle_ns = (0.0, 0u32);
    let delta_gate = with_budget(
        GateConfig::at_most("idle_over_active_bytes", 0.2).seed(0xA5),
        (3, 10),
        (6, 24),
    )
    .run_ratio(
        || {
            for s in &net_sources {
                s.bump();
            }
            let t = Instant::now();
            let bytes = net_scraper.borrow_mut().poll_round().bytes_received;
            active_ns.0 += t.elapsed().as_nanos() as f64;
            active_ns.1 += 1;
            bytes as f64
        },
        || {
            let t = Instant::now();
            let bytes = net_scraper.borrow_mut().poll_round().bytes_received;
            idle_ns.0 += t.elapsed().as_nanos() as f64;
            idle_ns.1 += 1;
            bytes as f64
        },
    );
    check(&delta_gate);
    let net_active_ns = active_ns.0 / f64::from(active_ns.1.max(1));
    let net_idle_ns = idle_ns.0 / f64::from(idle_ns.1.max(1));

    // Lossy pass: 10% drop with lag that can blow the 5 ms deadline.
    // Contributor staleness (health age of every non-Dead endpoint, per
    // round) must stay bounded — retries + backoff recover faster than
    // the fleet decays. The gate is a level gate on the mean per-round
    // *worst* contributor age; the fixed sample floor (= the soak length)
    // keeps the full fault dynamics in the measurement.
    let net_drop = 0.10;
    let lossy = LinkProfile {
        latency_us: 1_000.0,
        latency_jitter_us: 3_000.0,
        ..LinkProfile::lossy(0x10_55, net_drop)
    };
    let (mut lossy_scraper, lossy_sources) = net_fleet(cat.len(), net_shards, &lossy);
    let lossy_reader = lossy_scraper.reader();
    let mut ages: Vec<u32> = Vec::new();
    let soak_rounds = if quick() { 50 } else { 300 };
    let staleness_gate = with_budget(
        GateConfig::at_most("staleness_worst_age", 5.0).seed(0xA6),
        (soak_rounds, soak_rounds),
        (soak_rounds, soak_rounds),
    )
    .run_level(|| {
        for s in &lossy_sources {
            s.bump();
        }
        lossy_scraper.poll_round();
        let snap = lossy_reader.read().expect("lossy fleet keeps publishing");
        let mut worst = 0u32;
        for h in snap.health.iter().filter(|h| h.state != HealthState::Dead) {
            worst = worst.max(h.age);
            ages.push(h.age);
        }
        f64::from(worst)
    });
    check(&staleness_gate);
    ages.sort_unstable();
    let staleness_p99 = ages[ages.len() * 99 / 100];

    // Multiplexing: round-robin's closed loop (simulated PMU →
    // chained corrector), scored against truth on 20 kmeans seeds. The
    // loops are seeded and untimed, so the figures are the same in quick
    // and full mode and on every host.
    let mux_windows = 48;
    let mux_seeds = 20u64;
    let mux_schedule =
        GroupSchedule::from_events(&cat, &hetero_demo_events(&cat)).expect("groups fit the PMU");
    let mux_groups = mux_schedule.len();
    let (mut mux_err, mut mux_cov) = (0.0, 0.0);
    for seed in 0..mux_seeds {
        let mut truth = bayesperf_workloads::kmeans().instantiate(&cat, seed);
        let r = run_closed_loop(
            &cat,
            &mut truth,
            PmuConfig {
                seed,
                ..PmuConfig::for_catalog(&cat)
            },
            &mux_schedule,
            CorrectorConfig::for_run(&run),
            mux_windows,
        );
        mux_err += r.err_pct;
        mux_cov += r.cov95;
    }
    mux_err /= mux_seeds as f64;
    mux_cov /= mux_seeds as f64;

    // Supervised recovery: crash the service repeatedly and time each
    // inject-panic → Running round trip. The policy pins the backoff at
    // 1 ms so the measurement is the supervisor machinery (detect the
    // unwind, reclaim the snapshot writer, respawn warm), not the
    // default exponential policy. A reader polls throughout: the
    // availability contract says every read mid-recovery serves the
    // last good snapshot — an exact invariant, asserted as such.
    let rec_cycles: usize = if quick() { 10 } else { 30 };
    let rec_monitor = Monitor::with_policy(
        &cat,
        CorrectorConfig::for_run(&run),
        1 << 16,
        SupervisorPolicy {
            max_consecutive_restarts: rec_cycles as u32 + 8,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(1),
        },
    )
    .expect("spawn recovery monitor");
    let rec_session = rec_monitor.session().open().expect("fresh monitor");
    for w in &run.windows {
        for s in &w.samples {
            let _ = rec_monitor.push_sample(*s);
        }
    }
    rec_monitor.flush().expect("service alive");
    let mut restart_ns: Vec<f64> = Vec::with_capacity(rec_cycles);
    let mut reads_during_recovery = 0u64;
    let mut read_failures = 0u64;
    let mut rec_cycle = 0u64;
    let restart_gate = with_budget(
        GateConfig::at_most("restart_ns", 100e6).seed(0xA8),
        (rec_cycles, rec_cycles),
        (rec_cycles, rec_cycles),
    )
    .run_level(|| {
        let t = Instant::now();
        rec_monitor.inject_panic().expect("service alive");
        rec_cycle += 1;
        while rec_monitor.restarts() < rec_cycle
            || rec_monitor.service_state() != ServiceState::Running
        {
            reads_during_recovery += 1;
            if rec_session.read(ev).is_err() {
                read_failures += 1;
            }
            std::thread::yield_now();
        }
        let ns = t.elapsed().as_nanos() as f64;
        restart_ns.push(ns);
        ns
    });
    check(&restart_gate);
    restart_ns.sort_by(f64::total_cmp);
    let (restart_p50, restart_p99) = (
        restart_ns[restart_ns.len() / 2],
        restart_ns[restart_ns.len() * 99 / 100],
    );
    if std::env::var_os("BENCH_GATE").is_some() {
        assert_eq!(
            read_failures, 0,
            "every read during recovery must serve the last good snapshot \
             ({reads_during_recovery} reads)"
        );
    }

    // Steady-state guard overhead: the exact checks the pipeline runs —
    // the chunk engine's load guard (`Sample::is_well_formed`) per sample
    // and the service's finite check per posterior at the publish
    // boundary — paired against fresh streaming-inference runs so each
    // pair shares its machine conditions and the ≤ 2% bound stays
    // resolvable under drift. In practice the ratio is orders of magnitude
    // smaller, which is the point — containment is not a tax.
    let guard_reps = 20usize;
    let published = rec_session.snapshot().expect("flushed above");
    let guard_gate = with_budget(
        GateConfig::at_most("guard_over_solve", 0.02).seed(0xA9),
        (2, 4),
        (3, 6),
    )
    .run_paired(
        || stream_once(&mut corr).0 / N_WINDOWS as f64,
        || {
            let t = Instant::now();
            for _ in 0..guard_reps {
                let mut rejected = 0u64;
                for w in &run.windows {
                    for s in &w.samples {
                        if !s.is_well_formed() {
                            rejected += 1;
                        }
                    }
                }
                for _ in 0..N_WINDOWS {
                    for g in &published.posteriors {
                        if !(g.mean.is_finite() && g.var.is_finite() && g.var > 0.0) {
                            rejected += 1;
                        }
                    }
                }
                std::hint::black_box(rejected);
            }
            t.elapsed().as_nanos() as f64 / guard_reps as f64 / N_WINDOWS as f64
        },
    );
    check(&guard_gate);
    let guard_ns_per_window = guard_gate.mean_b;

    // Multi-source fusion: the observation-plane catalog end to end —
    // PMU-only vs PMU + the three simulated gauge sources at slower
    // cadences, each through a live monitor, on interleaved per-arm
    // workload seeds. Wall-clock covers push + pump + flush (the whole
    // ingest/inference pipeline); the gated statistic is the mean
    // gauge-event posterior spread ratio (fused / PMU-only): gauge
    // evidence must tighten it.
    let ms_windows = 18usize;
    let ms_run = |with_gauges: bool, seed: u64| -> (f64, f64) {
        use bayesperf_core::source::pump_sources;
        use bayesperf_events::{Arch, Catalog, Semantic};
        use bayesperf_simcpu::{pack_round_robin, GaugeProfile, Pmu, SampleSource, SimGauge};

        let ms_cat = Catalog::with_observation_plane(Arch::X86SkyLake);
        let mut truth = bayesperf_workloads::kmeans().instantiate(&ms_cat, seed);
        let events = vec![
            ms_cat.require(Semantic::IioRdTotal),
            ms_cat.require(Semantic::IioWrTotal),
            ms_cat.require(Semantic::UopsIssued),
            ms_cat.require(Semantic::L1dMisses),
        ];
        let schedule = pack_round_robin(&ms_cat, &events).expect("schedule fits");
        let pmu_cfg = PmuConfig::for_catalog(&ms_cat);
        let ms_run = Pmu::new(&ms_cat, pmu_cfg).run_multiplexed(&mut truth, &schedule, ms_windows);
        let ms_monitor = Monitor::new(&ms_cat, CorrectorConfig::for_run(&ms_run), 1 << 14)
            .expect("spawn monitor");
        let ms_session = ms_monitor.session().open().expect("open session");
        let mut sources: Vec<Box<dyn SampleSource + '_>> = if with_gauges {
            ms_cat.sources()[1..]
                .iter()
                .enumerate()
                .map(|(i, desc)| {
                    Box::new(
                        SimGauge::new(
                            &ms_cat,
                            desc.id,
                            GaugeProfile::for_source(desc, 11 + seed + i as u64),
                            &pmu_cfg,
                            bayesperf_workloads::kmeans().instantiate(&ms_cat, seed),
                        )
                        .expect("gauge source"),
                    ) as Box<dyn SampleSource + '_>
                })
                .collect()
        } else {
            Vec::new()
        };
        let t = Instant::now();
        for (w, win) in ms_run.windows.iter().enumerate() {
            for s in &win.samples {
                let _ = ms_monitor.push_sample(*s);
            }
            pump_sources(&ms_monitor, &mut sources, w as u32).expect("pump");
        }
        ms_monitor.sync().expect("sync");
        ms_monitor.flush().expect("flush");
        let elapsed_ns = t.elapsed().as_nanos() as f64;
        let mut gauge_sd = 0.0;
        for &sem in Semantic::gauges() {
            gauge_sd += ms_session
                .read(ms_cat.require(sem))
                .expect("gauge read")
                .std_dev;
        }
        gauge_sd /= Semantic::gauges().len() as f64;
        (elapsed_ns / ms_windows as f64, gauge_sd)
    };
    let ms_sources = 4usize;
    let ms_base_seed = 3u64;
    let mut ms_pmu = (0.0, 0u32);
    let mut ms_fused = (0.0, 0u32);
    let ms_gate = with_budget(
        GateConfig::at_most("fused_over_pmu_sd", 1.0).seed(0xAA),
        (2, 3),
        (3, 6),
    )
    .run_ratio(
        || {
            let (ns, sd) = ms_run(false, ms_base_seed + u64::from(ms_pmu.1));
            ms_pmu.0 += ns;
            ms_pmu.1 += 1;
            sd
        },
        || {
            let (ns, sd) = ms_run(true, ms_base_seed + u64::from(ms_fused.1));
            ms_fused.0 += ns;
            ms_fused.1 += 1;
            sd
        },
    );
    check(&ms_gate);
    let ms_pmu_ns = ms_pmu.0 / f64::from(ms_pmu.1.max(1));
    let ms_fused_ns = ms_fused.0 / f64::from(ms_fused.1.max(1));

    // Telemetry overhead: the exact per-chunk registry/span traffic the
    // monitor's service loop layers on top of inference (heartbeats,
    // late counters, chunk/window totals, solve and publish histograms,
    // one span per pipeline stage), measured on its own and gated as a
    // fraction of the per-window inference time it rides on. A direct A/B of
    // full instrumented-vs-bare passes cannot resolve a 2% bound — pass
    // wall time drifts ~10% (even within back-to-back pairs) while the
    // true effect is well under 1% — so, like the guard gate, this one
    // times the added ops directly (they are purely additive straight-line
    // code on the service path) and pairs them against inference passes so
    // each pair shares machine conditions.
    let obs_tele = Telemetry::new();
    let obs_reg = obs_tele.registry();
    let obs_beats = obs_reg.counter("service.beats");
    let obs_late = obs_reg.counter("ingest.late_total");
    let obs_chunks = obs_reg.counter("service.chunks_run");
    let obs_windows = obs_reg.counter("service.windows_published");
    let obs_solve = obs_reg.histogram("solve.chunk_ns");
    let obs_publish = obs_reg.histogram("service.publish_ns");
    let obs_spans = obs_tele.spans().recorder();
    let obs_reps = 20usize;
    let tele_ops_once = || -> f64 {
        let t = Instant::now();
        for _ in 0..obs_reps {
            for c in 0..chunks.len() {
                let started = obs_spans.now_ns();
                obs_beats.incr();
                obs_late.add(0);
                let solve_start = obs_spans.now_ns();
                let solve_end = obs_spans.now_ns();
                let w = (c * slices) as u32;
                for i in 0..slices {
                    obs_spans.record(Stage::Ingest, w + i as u32, started, solve_start);
                }
                obs_solve.record(solve_end.saturating_sub(solve_start));
                obs_spans.record(Stage::Assemble, w, started, solve_start);
                obs_spans.record(Stage::Solve, w, solve_start, solve_end);
                obs_chunks.incr();
                obs_windows.add(slices as u64);
                obs_beats.incr();
                let publish_end = obs_spans.now_ns();
                obs_publish.record(publish_end.saturating_sub(solve_end));
                for i in 0..slices {
                    obs_spans.record(Stage::Publish, w + i as u32, solve_end, publish_end);
                }
            }
        }
        t.elapsed().as_nanos() as f64 / obs_reps as f64 / N_WINDOWS as f64
    };
    let _ = tele_ops_once();
    let obs_gate = with_budget(
        GateConfig::at_most("telemetry_over_solve", 0.02).seed(0xAB),
        (3, 6),
        (6, 12),
    )
    .run_paired(
        || stream_once(&mut corr).0 / N_WINDOWS as f64,
        tele_ops_once,
    );
    check(&obs_gate);

    let json = format!(
        r#"{{
  "bench": "inference",
  "workload": "kmeans",
  "windows": {N_WINDOWS},
  "chunk_slices": {slices},
  "alpha": 0.005,
  "solve": {{ "ns_per_window": {:.0}, "site_updates_total": {},
             "gate": {} }},
  "kernel": {{ "dim": {}, "band": {kernel_band}, "simd": "{}",
              "reference_ns_per_cycle": {:.0}, "production_ns_per_cycle": {:.0},
              "gate": {} }},
  "calibration": {{ "cells": {cells}, "windows": {cal_windows}, "events": {cal_events},
                   "cov68": {cov68:.3}, "cov95": {cov95:.3}, "cov997": {cov997:.3},
                   "worst_cell_cov95": {worst_cov95:.3},
                   "z_p50": {z_p50:.3}, "z_p90": {z_p90:.3},
                   "bayesperf_dtw_pct": {:.2}, "linux_dtw_pct": {:.2},
                   "cov95_gate": {},
                   "dtw_gate": {} }},
  "shim_read": {{ "reads": {reads}, "timer_ns": {read_timer:.0}, "p50_ns": {:.0},
                 "p99_ns": {:.0}, "push_chunk_ns": {:.0},
                 "gate": {} }},
  "fleet_read": {{ "shards": {n_shards}, "reads": {reads}, "timer_ns": {fleet_timer:.0},
                  "p50_ns": {:.0}, "p99_ns": {:.0},
                  "gate": {},
                  "shim_gate": {} }},
  "fleet_scrape": {{ "shards": {n_shards}, "passes_per_sample": {passes_per_sample},
                    "ns_per_shard": {:.0}, "bytes_per_pass": {scrape_bytes},
                    "gate": {} }},
  "fleet_scrape_net": {{ "shards": {net_shards},
                        "active_ns_per_round": {:.0}, "idle_ns_per_round": {:.0},
                        "active_bytes_per_round": {:.0}, "idle_bytes_per_round": {:.0},
                        "lossy_drop_prob": {net_drop}, "staleness_p99_rounds": {staleness_p99},
                        "delta_gate": {},
                        "staleness_gate": {} }},
  "mux_schedule": {{ "groups": {mux_groups}, "windows": {mux_windows}, "seeds": {mux_seeds},
                    "rr_err_pct": {mux_err:.2}, "rr_cov95": {mux_cov:.3} }},
  "supervised_recovery": {{ "cycles": {rec_cycles}, "restart_p50_ns": {:.0},
                           "restart_p99_ns": {:.0},
                           "reads_during_recovery": {reads_during_recovery},
                           "read_failures": {read_failures},
                           "guard_ns_per_window": {:.1},
                           "restart_gate": {},
                           "guard_gate": {} }},
  "multi_source_fuse": {{ "windows": {ms_windows}, "sources": {ms_sources},
                         "pmu_only_ns_per_window": {:.0},
                         "fused_ns_per_window": {:.0},
                         "pmu_only_gauge_sd": {:.1}, "fused_gauge_sd": {:.1},
                         "gate": {} }},
  "obs_overhead": {{ "stream_ns_per_window": {:.0},
                    "telemetry_ns_per_window": {:.1},
                    "gate": {} }}
}}
"#,
        solve_gate.stat,
        solve_stats.analytic_site_updates,
        solve_gate.json(),
        kernel_chain.dim(),
        production.simd(),
        kernel_gate.mean_a,
        kernel_gate.mean_b,
        kernel_gate.json(),
        100.0 * mean_of(&cal_bayes),
        100.0 * mean_of(&cal_linux),
        cov95_gate.json(),
        dtw_gate.json(),
        read_p50,
        read_p99,
        push_chunk_ns,
        shim_gate.json(),
        fleet_p50,
        fleet_p99,
        fleet_gate.json(),
        shim_fleet_gate.json(),
        scrape_gate.stat / f64::from(n_shards),
        scrape_gate.json(),
        net_active_ns,
        net_idle_ns,
        delta_gate.mean_a,
        delta_gate.mean_b,
        delta_gate.json(),
        staleness_gate.json(),
        restart_p50,
        restart_p99,
        guard_ns_per_window,
        restart_gate.json(),
        guard_gate.json(),
        ms_pmu_ns,
        ms_fused_ns,
        ms_gate.mean_a,
        ms_gate.mean_b,
        ms_gate.json(),
        obs_gate.mean_a,
        obs_gate.mean_b,
        obs_gate.json(),
    );

    let path = std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| "BENCH_inference.json".into());
    std::fs::write(&path, &json).expect("write BENCH_inference.json");
    print!("{json}");
    eprintln!(
        "wrote {path} (solve {:.0} ns/window, cov95 {cov95:.3})",
        solve_gate.stat
    );
}
