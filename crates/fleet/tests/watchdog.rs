//! The local liveness watchdog and aggregator crash containment: a
//! *stalled* shard monitor (thread alive, heartbeat frozen) must walk the
//! same Healthy → Stale → Dead health machine a dead remote shard does,
//! its fused weight must shrink while it decays, and it must come
//! straight back to Healthy once it resumes. A shard monitor that fails
//! for good must age out the same way, as a dead link. The aggregator's
//! own crash supervisor must contain injected panics without losing
//! generations or tearing snapshots.
//!
//! The stall is real, not simulated: a [`ScheduleHook`] that parks the
//! shard's inference thread inside a publish, exactly where a wedged
//! downstream consumer would. Scrape passes are pumped explicitly via
//! [`Fleet::refresh`] with the idle ticker parked at one hour, so the
//! health aging is deterministic — one round per refresh, no wall-clock
//! races.

use bayesperf_core::corrector::CorrectorConfig;
use bayesperf_core::service::ScheduleHook;
use bayesperf_events::{Arch, Catalog, Semantic};
use bayesperf_fleet::{Fleet, FleetConfig, HealthPolicy, HealthState, ShardId, ShardLabel};
use bayesperf_inference::Gaussian;
use bayesperf_simcpu::{pack_round_robin, MultiplexRun, Pmu, PmuConfig};
use bayesperf_workloads::kmeans;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn recorded_run(cat: &Catalog, n_windows: usize) -> MultiplexRun {
    let mut truth = kmeans().instantiate(cat, 0);
    let pmu = Pmu::new(cat, PmuConfig::for_catalog(cat));
    let events = vec![
        cat.require(Semantic::L1dMisses),
        cat.require(Semantic::LlcHits),
        cat.require(Semantic::LlcMisses),
    ];
    let schedule = pack_round_robin(cat, &events).expect("schedule fits");
    pmu.run_multiplexed(&mut truth, &schedule, n_windows)
}

fn feed(fleet: &Fleet, shard: ShardId, run: &MultiplexRun, windows: std::ops::Range<usize>) {
    for w in &run.windows[windows] {
        for s in &w.samples {
            fleet.push_sample(shard, *s).expect("room");
        }
    }
}

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// Parks the inference thread inside `on_publish` until released — a
/// faithful stall: the thread is alive and mid-work, so `idle` is false
/// while the heartbeat stays frozen.
struct ParkHook {
    entered: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
}

impl ScheduleHook for ParkHook {
    fn on_publish(&mut self, _window: u32, _chunk: u64, _posteriors: &[Gaussian]) {
        self.entered.store(true, SeqCst);
        while !self.release.load(SeqCst) {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// A fleet config whose idle scrape ticker never fires, so every health
/// round is an explicit `refresh()` — deterministic aging.
fn pumped_config(corrector: CorrectorConfig, health: HealthPolicy) -> FleetConfig {
    let mut config = FleetConfig::new(corrector);
    config.scrape_interval = Duration::from_secs(3600);
    config.health = health;
    config
}

fn health_of(fleet: &Fleet, shard: ShardId) -> (HealthState, u32, f64) {
    let snap = fleet.snapshot().expect("published");
    let row = snap
        .health
        .iter()
        .find(|h| h.shard == shard)
        .expect("every registered shard has a health row");
    (row.state, row.age, row.inflation)
}

#[test]
fn stalled_shard_decays_healthy_stale_dead_and_recovers() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let run = recorded_run(&cat, 24);
    let cfg = CorrectorConfig::for_run(&run);
    let k = cfg.model.slices;
    assert_eq!(k, 6, "fixture assumes the default chunk size");

    // Tight thresholds so the decay is observable in a handful of
    // refresh-pumped rounds: one failed round → Stale, three → Dead.
    let policy = HealthPolicy {
        stale_after: 1,
        dead_after: 3,
        ..HealthPolicy::default()
    };
    let mut fleet = Fleet::new(&cat, pumped_config(cfg, policy)).expect("spawn fleet");
    let victim = fleet
        .add_shard(ShardLabel::new("m0", 0))
        .expect("spawn shard");
    let witness = fleet
        .add_shard(ShardLabel::new("m1", 0))
        .expect("spawn shard");

    // Baseline: identical streams on both shards, everybody healthy.
    feed(&fleet, victim, &run, 0..12);
    feed(&fleet, witness, &run, 0..12);
    fleet.flush().expect("alive");
    let ev = cat.require(Semantic::L1dMisses).index();
    let baseline = fleet.snapshot().expect("published");
    assert!(baseline
        .health
        .iter()
        .all(|h| h.state == HealthState::Healthy));
    let var_healthy = baseline.fused[ev].var;

    // Park the victim's inference thread inside its next publish.
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    fleet
        .with_shard_monitor(victim, |m| {
            m.set_schedule_hook(Box::new(ParkHook {
                entered: entered.clone(),
                release: release.clone(),
            }))
        })
        .expect("member")
        .expect("service alive");
    // One full chunk (windows 12..17; pushing 18 promotes them) triggers
    // the publish that walks into the hook. No flush — flush would block
    // behind the stall; the service drains the ring on its own.
    feed(&fleet, victim, &run, 12..19);
    wait_until("victim parked in its publish hook", || entered.load(SeqCst));

    // Round 1: the victim's heartbeat advanced while it drained the
    // chunk, so this round still counts as progress.
    fleet.refresh().expect("alive");

    // Round 2: heartbeat frozen and not idle — the watchdog sees a stall
    // and the shard turns Stale immediately (stale_after = 1), fusing
    // with inflated variance from here on.
    fleet.refresh().expect("alive");
    let (state, age, inflation) = health_of(&fleet, victim);
    assert_eq!((state, age), (HealthState::Stale, 1));
    assert!(
        inflation > 1.0,
        "stale shards fuse inflated, got {inflation}"
    );
    let stale_snap = fleet.snapshot().expect("published");
    assert!(
        stale_snap.shards.iter().any(|s| s.shard == victim),
        "stale shards still contribute"
    );
    let var_stale = stale_snap.fused[ev].var;
    assert!(
        var_stale > var_healthy,
        "inflating one input must widen the fused posterior: {var_stale} vs {var_healthy}"
    );

    // Rounds 3–4: the stall persists; at age 3 the victim is Dead and
    // leaves fusion entirely. The fused posterior stays finite — it is
    // now the witness alone, wider still than the stale mixture.
    fleet.refresh().expect("alive");
    fleet.refresh().expect("alive");
    let (state, age, _) = health_of(&fleet, victim);
    assert_eq!((state, age), (HealthState::Dead, 3));
    let dead_snap = fleet.snapshot().expect("published");
    assert!(
        dead_snap.shards.iter().all(|s| s.shard != victim),
        "dead shards are excluded from fusion"
    );
    assert_eq!(health_of(&fleet, witness).0, HealthState::Healthy);
    let var_dead = dead_snap.fused[ev].var;
    assert!(var_dead.is_finite() && var_dead > var_stale);
    for g in &dead_snap.fused {
        assert!(g.mean.is_finite() && g.var.is_finite() && g.var > 0.0);
    }

    // Recovery: unpark the thread; it finishes the publish, goes idle,
    // and the next round proves the cache current again — one success
    // sends Dead straight back to Healthy, contributing immediately.
    release.store(true, SeqCst);
    fleet
        .with_shard_monitor(victim, |m| {
            wait_until("victim idle again", || m.heartbeat().1);
        })
        .expect("member");
    fleet.refresh().expect("alive");
    let (state, age, inflation) = health_of(&fleet, victim);
    assert_eq!((state, age, inflation), (HealthState::Healthy, 0, 1.0));
    let recovered = fleet.snapshot().expect("published");
    assert!(
        recovered.shards.iter().any(|s| s.shard == victim),
        "recovered shard fuses again"
    );

    // The stalled stretch never wedged the fleet: a flush drains the
    // victim's remaining tail and the read surface is fully live.
    fleet.flush().expect("alive");
    let session = fleet.session().open().expect("open");
    let group = session.read_group().expect("fused reads");
    assert!(group
        .readings
        .iter()
        .all(|(_, r)| r.value.is_finite() && r.std_dev > 0.0));
}

#[test]
fn failed_shard_monitor_ages_out_as_a_dead_link() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let run = recorded_run(&cat, 12);
    let cfg = CorrectorConfig::for_run(&run);
    // One failed round → Stale, three → Dead.
    let policy = HealthPolicy {
        stale_after: 1,
        dead_after: 3,
        ..HealthPolicy::default()
    };
    let mut fleet = Fleet::new(&cat, pumped_config(cfg, policy)).expect("spawn fleet");
    let victim = fleet
        .add_shard(ShardLabel::new("m0", 0))
        .expect("spawn shard");
    let witness = fleet
        .add_shard(ShardLabel::new("m1", 0))
        .expect("spawn shard");
    feed(&fleet, victim, &run, 0..12);
    feed(&fleet, witness, &run, 0..12);
    fleet.flush().expect("alive");
    assert_eq!(health_of(&fleet, victim).0, HealthState::Healthy);

    // Nine crashes without progress exhaust the victim's default budget
    // of eight restarts (about 0.26 s of backoff in all). Each panic is
    // queued only once the previous crash was restarted, so no two are
    // dequeued by the same incarnation.
    fleet
        .with_shard_monitor(victim, |m| {
            for crash in 1..=9u64 {
                m.inject_panic().expect("service not yet failed");
                if crash <= 8 {
                    wait_until("victim restart", || m.restarts() >= crash);
                }
            }
            wait_until("victim failed for good", || {
                matches!(
                    m.service_state(),
                    bayesperf_core::service::ServiceState::Failed { .. }
                )
            });
        })
        .expect("member");

    // Pump rounds with refresh: flush would error on the failed member.
    let mut states = vec![health_of(&fleet, victim).0];
    for _ in 0..3 {
        fleet.refresh().expect("alive");
        let (state, _, _) = health_of(&fleet, victim);
        if states.last() != Some(&state) {
            states.push(state);
        }
    }
    assert_eq!(
        states,
        [HealthState::Healthy, HealthState::Stale, HealthState::Dead]
    );
    let snap = fleet.snapshot().expect("published");
    let row = snap.shard_health(victim).expect("health row kept");
    assert!(row.link_errors > 0, "a failed monitor reads as a dead link");
    assert!(
        snap.shards.iter().all(|s| s.shard != victim),
        "dead shards are excluded from fusion"
    );
    assert_eq!(health_of(&fleet, witness).0, HealthState::Healthy);
    let group = fleet
        .session()
        .open()
        .expect("open")
        .read_group()
        .expect("fused reads");
    assert!(group
        .readings
        .iter()
        .all(|(_, r)| r.value.is_finite() && r.std_dev.is_finite() && r.std_dev > 0.0));
}

#[test]
fn aggregator_panics_are_contained_and_generations_stay_monotone() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let run = recorded_run(&cat, 24);
    let cfg = CorrectorConfig::for_run(&run);
    let mut fleet =
        Fleet::new(&cat, pumped_config(cfg, HealthPolicy::default())).expect("spawn fleet");
    let shard = fleet
        .add_shard(ShardLabel::new("m0", 0))
        .expect("spawn shard");

    feed(&fleet, shard, &run, 0..6);
    fleet.flush().expect("alive");
    let before = fleet.snapshot().expect("published");

    // Three crash/restart cycles, each followed by real progress so the
    // consecutive-crash budget keeps resetting.
    for round in 1..=3u64 {
        fleet.inject_agg_panic().expect("alive");
        wait_until("aggregator restart", || fleet.agg_restarts() >= round);

        feed(
            &fleet,
            shard,
            &run,
            (round as usize * 6)..(round as usize + 1) * 6,
        );
        fleet.flush().expect("aggregator back up");
        let snap = fleet.snapshot().expect("published");
        assert!(
            snap.generation > before.generation,
            "round {round}: generation moved on across the crash"
        );
        assert_eq!(snap.fused.len(), cat.len());
        for g in &snap.fused {
            assert!(g.mean.is_finite() && g.var.is_finite() && g.var > 0.0);
        }
        assert!(
            snap.shards.iter().any(|s| s.shard == shard),
            "round {round}: the shard still contributes after the crash"
        );
    }
    assert_eq!(fleet.agg_restarts(), 3);

    // Orderly shutdown still works after all that.
    fleet.close();
    assert!(fleet.refresh().is_err(), "closed fleet refuses refresh");
}

#[test]
fn crashed_shard_monitor_recovers_inside_the_fleet() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let run = recorded_run(&cat, 12);
    let cfg = CorrectorConfig::for_run(&run);
    let mut fleet =
        Fleet::new(&cat, pumped_config(cfg, HealthPolicy::default())).expect("spawn fleet");
    let shard = fleet
        .add_shard(ShardLabel::new("m0", 0))
        .expect("spawn shard");

    feed(&fleet, shard, &run, 0..6);
    fleet.flush().expect("alive");

    // Crash the *shard's* inference service (not the aggregator) and
    // wait for its local supervisor to bring it back.
    fleet
        .with_shard_monitor(shard, |m| {
            m.inject_panic().expect("alive");
            wait_until("shard supervisor restart", || m.restarts() >= 1);
            wait_until("shard running again", || {
                matches!(
                    m.service_state(),
                    bayesperf_core::service::ServiceState::Running
                )
            });
        })
        .expect("member");

    // The warm-restarted shard keeps correcting and the fleet keeps
    // fusing it — windows continue past the crash point.
    feed(&fleet, shard, &run, 6..12);
    fleet.flush().expect("alive");
    let snap = fleet.snapshot().expect("published");
    let status = snap
        .shards
        .iter()
        .find(|s| s.shard == shard)
        .expect("shard contributes after its crash");
    assert_eq!(status.window as usize, run.windows.len() - 1);
    assert!(snap.fused.iter().all(|g| g.mean.is_finite() && g.var > 0.0));
    assert_eq!(
        health_of(&fleet, shard).0,
        HealthState::Healthy,
        "a recovered shard monitor reads Healthy"
    );
}
