//! Supervision soak: the inference service is crashed and fed corrupted
//! data over and over while readers watch. The contract under test is
//! the whole robustness tentpole at once:
//!
//! * every published snapshot stays finite and chunk-consistent across
//!   hundreds of crash/restart cycles — no torn or poisoned reads, no
//!   variance collapse to a false certainty;
//! * warm restarts resume from the last published snapshot: the window
//!   frontier never regresses and subscribers never see a duplicate;
//! * divergent samples (NaN/Inf values, broken PMI sub-moments from a
//!   seeded [`DataFaultProfile`]) are contained and *counted*, never
//!   silently absorbed;
//! * a service whose restart budget is exhausted fails **loudly**: reads
//!   flip from serving data to typed [`ShimError::ServiceDown`] — the
//!   regression test for the silent-freeze failure mode where a dead
//!   inference thread left sessions returning stale posteriors forever.
//!
//! Runs a short soak by default; set `CRASH_SOAK=1` (the CI `crash-soak`
//! leg) for the hundreds-of-cycles version.

use bayesperf_core::corrector::CorrectorConfig;
use bayesperf_core::service::{Monitor, ServiceState, SupervisorPolicy};
use bayesperf_core::{ShimError, SnapshotView};
use bayesperf_events::{Arch, Catalog, Semantic};
use bayesperf_simcpu::{
    pack_round_robin, DataFaultProfile, DataFaultState, MultiplexRun, NoiseModel, Pmu, PmuConfig,
};
use bayesperf_workloads::kmeans;
use std::time::{Duration, Instant};

fn recorded_run(cat: &Catalog, n_windows: usize, seed: u64) -> MultiplexRun {
    let mut truth = kmeans().instantiate(cat, 0);
    let pmu = Pmu::new(
        cat,
        PmuConfig {
            noise: NoiseModel::default(),
            seed,
            ..PmuConfig::for_catalog(cat)
        },
    );
    let events = vec![
        cat.require(Semantic::L1dMisses),
        cat.require(Semantic::LlcHits),
        cat.require(Semantic::LlcMisses),
    ];
    let schedule = pack_round_robin(cat, &events).expect("schedule fits");
    pmu.run_multiplexed(&mut truth, &schedule, n_windows)
}

/// Spins until `pred` holds or the deadline passes; panics on timeout so
/// a wedged supervisor fails the test instead of hanging it.
fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// The main soak: crash the service once per streamed chunk, with the
/// sample stream itself corrupted by a seeded fault model, and assert
/// the read surface never degrades.
#[test]
fn crash_soak_restarts_stay_warm_and_snapshots_stay_sane() {
    let cycles: usize = if std::env::var("CRASH_SOAK").is_ok() {
        250
    } else {
        40
    };
    let windows_per_cycle = 2;

    let cat = Catalog::new(Arch::X86SkyLake);
    let run = recorded_run(&cat, cycles * windows_per_cycle, 17);
    let cfg = CorrectorConfig::for_run(&run);
    let monitor = Monitor::new(&cat, cfg, 1 << 16).expect("spawn monitor");
    let session = monitor.session().open().expect("open");
    let mut updates = session.subscribe_with_capacity(cycles * windows_per_cycle + 8);

    // A hostile but finite-rate fault stream: NaN/Inf reads, scaled
    // corruption, stuck counters, poisoned sub-moments.
    let mut faults = DataFaultState::new(DataFaultProfile::noisy(0xBAD));
    let ev = cat.require(Semantic::L1dMisses);
    let mut last_window: Option<u32> = None;

    for cycle in 0..cycles {
        // Stream one slice of the run through the fault model.
        let lo = cycle * windows_per_cycle;
        for w in &run.windows[lo..lo + windows_per_cycle] {
            for s in &w.samples {
                let mut s = *s;
                faults.apply(&mut s);
                monitor.push_sample(s).expect("ring sized for the run");
            }
        }
        monitor.flush().expect("service alive");

        // The read surface after every flush: finite, never regressing,
        // never collapsed to a false certainty.
        let r = session.read(ev).expect("posterior published");
        assert!(r.value.is_finite(), "cycle {cycle}: non-finite mean");
        assert!(
            r.std_dev.is_finite() && r.std_dev > 0.0,
            "cycle {cycle}: posterior oversharpened (sd = {})",
            r.std_dev
        );
        let group = session.read_group().expect("snapshot");
        assert!(group
            .readings
            .iter()
            .all(|(_, r)| r.value.is_finite() && r.std_dev > 0.0));
        if let Some(prev) = last_window {
            assert!(group.window >= prev, "cycle {cycle}: window regressed");
        }
        last_window = Some(group.window);

        // Kill the service and wait for the supervisor to restart it.
        // Progress since the previous crash (the flush above) keeps the
        // consecutive-crash budget at zero, so the soak can run for far
        // more cycles than `max_consecutive_restarts` allows in a row.
        monitor.inject_panic().expect("service alive");
        let target = (cycle + 1) as u64;
        wait_until("supervisor restart", || monitor.restarts() >= target);
        wait_until("service running again", || {
            monitor.service_state() == ServiceState::Running
        });
    }

    assert_eq!(monitor.restarts(), cycles as u64);
    assert!(
        monitor.divergences() > 0,
        "the noisy fault profile must have tripped the containment guards"
    );

    // The flight recorder carries the whole incident history (bounded
    // ring, newest events always retained): the injected panics, the
    // supervised restarts, and the quarantined-divergence counts must
    // all be in the dump — a postmortem needs no other source.
    let flight = monitor.telemetry().flight();
    let dump = bayesperf_obs::FlightRecorder::render(&flight.dump());
    assert!(
        dump.contains("panic injected (test hook)"),
        "flight dump missing the injected panic:\n{dump}"
    );
    assert!(
        dump.contains(&format!("service restart #{}", cycles)),
        "flight dump missing the last supervised restart:\n{dump}"
    );
    assert!(
        dump.contains("quarantined") && dump.contains("diverged site(s)"),
        "flight dump missing the divergence quarantine trail:\n{dump}"
    );

    // Warm restart correctness: subscribers saw every published window
    // exactly once, in order — no duplicates from re-published chunks,
    // no regressions from a cold-reset frontier.
    let mut seen = Vec::new();
    while let Ok(Some(u)) = updates.try_next() {
        assert_eq!(u.gap, 0, "queue sized for the whole soak");
        for (_, g) in &u.posteriors {
            assert!(g.mean.is_finite() && g.var.is_finite() && g.var > 0.0);
        }
        seen.push(u.window);
    }
    let mut sorted = seen.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(seen, sorted, "windows duplicated or out of order: {seen:?}");
    assert_eq!(
        seen.last().copied(),
        last_window,
        "final subscriber window matches the read surface"
    );
}

/// A restart budget of zero turns the first crash into a terminal,
/// **typed** failure: `ServiceDown { cause }` on every subsequent read,
/// even though a perfectly good snapshot was published before the crash.
/// This is the silent-freeze regression test — the failure mode where a
/// dead inference thread left sessions happily serving stale posteriors.
#[test]
fn exhausted_restart_budget_fails_loudly_not_frozen() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let run = recorded_run(&cat, 6, 3);
    let cfg = CorrectorConfig::for_run(&run);
    let monitor = Monitor::with_policy(
        &cat,
        cfg,
        1 << 14,
        SupervisorPolicy {
            max_consecutive_restarts: 0,
            ..SupervisorPolicy::default()
        },
    )
    .expect("spawn monitor");
    let session = monitor.session().open().expect("open");

    // Publish something real first: the freeze bug needs stale data to
    // serve.
    for w in &run.windows {
        for s in &w.samples {
            monitor.push_sample(*s).expect("room");
        }
    }
    monitor.flush().expect("alive");
    let ev = cat.require(Semantic::L1dMisses);
    let healthy = session.read(ev).expect("published before the crash");
    assert!(healthy.value.is_finite());
    let name = cat.derived_events()[0].name.clone();
    assert!(session.read_derived(&name).is_ok());

    monitor.inject_panic().expect("alive");
    wait_until("terminal failure", || {
        matches!(monitor.service_state(), ServiceState::Failed { .. })
    });
    assert_eq!(monitor.restarts(), 0, "budget 0 never restarts");

    // Reads must now fail with the crash cause — not hang, not keep
    // serving the pre-crash posterior.
    match session.read(ev) {
        Err(ShimError::ServiceDown { cause }) => {
            assert!(
                cause.contains("injected service panic"),
                "cause carries the panic message, got {cause:?}"
            );
        }
        other => panic!("expected ServiceDown, got {other:?}"),
    }
    assert!(matches!(
        session.read_group(),
        Err(ShimError::ServiceDown { .. })
    ));
    assert!(matches!(
        session.snapshot(),
        Err(ShimError::ServiceDown { .. })
    ));
    // Every other read surface shares the failure check.
    let down = |what: &str, result: Result<(), ShimError>| match result {
        Err(ShimError::ServiceDown { cause }) => assert!(
            cause.contains("injected service panic"),
            "{what}: cause carries the panic message, got {cause:?}"
        ),
        other => panic!("{what}: expected ServiceDown, got {other:?}"),
    };
    down("read_derived", session.read_derived(&name).map(drop));
    down("snapshot_stamp", session.snapshot_stamp().map(drop));
    down(
        "snapshot_into",
        session.snapshot_into(&mut SnapshotView::default()),
    );
    match monitor.service_state() {
        ServiceState::Failed { cause } => assert!(cause.contains("injected service panic")),
        other => panic!("expected Failed, got {other:?}"),
    }

    // New work is refused with a typed error too.
    assert!(monitor.push_sample(run.windows[0].samples[0]).is_err());
    // A subscription stream opened before the crash terminates instead
    // of blocking forever.
    let mut updates = session.subscribe();
    while let Ok(Some(_)) = updates.try_next() {}
    assert!(matches!(updates.try_next(), Err(ShimError::SessionClosed)));
}

/// The supervisor moves [`Monitor::restarts`] last: a waiter that sees
/// restart `n` finds `service restart #n` in the flight ring and
/// `Restarting { restarts: n }` in the state, never the crashed
/// incarnation's `Running`. The next incarnation's `Running` comes one
/// flat backoff after the count moves, so only a `Running` read sooner
/// than that after the old count is known stale. One panic per cycle;
/// each cycle re-phases on a `sync` the restarted service acks.
#[test]
fn restart_count_moves_after_the_restart_is_published() {
    let cycles: u64 = std::env::var("CRASH_SOAK").map_or(40, |_| 200);
    let backoff = Duration::from_millis(10);
    let cat = Catalog::new(Arch::X86SkyLake);
    let cfg = CorrectorConfig::for_run(&recorded_run(&cat, 6, 5));
    // Nothing is published, so every crash is a consecutive one.
    let policy = SupervisorPolicy {
        max_consecutive_restarts: u32::MAX,
        backoff_base: backoff,
        backoff_cap: backoff,
    };
    let monitor = Monitor::with_policy(&cat, cfg, 1 << 14, policy).expect("spawn monitor");
    let flight = monitor.telemetry().flight();
    for n in 1..=cycles {
        // Taken before the crash, so before the count moves.
        let mut old_count_seen = Instant::now();
        monitor.inject_panic().expect("service alive");
        let deadline = old_count_seen + Duration::from_secs(30);
        // A busy spin, not a yield: the waiter keeps its CPU, so a
        // supervisor preempted mid-restart is caught there.
        loop {
            let before_read = Instant::now();
            if monitor.restarts() >= n {
                break;
            }
            old_count_seen = before_read;
            assert!(before_read < deadline, "cycle {n}: no restart");
            std::hint::spin_loop();
        }
        let state = monitor.service_state();
        let dump = bayesperf_obs::FlightRecorder::render(&flight.dump());
        let since_old_count = old_count_seen.elapsed();
        assert!(
            dump.contains(&format!("service restart #{n}:")),
            "cycle {n}: count moved before the flight record:\n{dump}"
        );
        match state {
            ServiceState::Restarting { restarts, .. } => assert_eq!(restarts, n, "cycle {n}"),
            ServiceState::Running => assert!(
                since_old_count >= backoff,
                "cycle {n}: count moved while the state still read the crashed \
                 incarnation's Running ({since_old_count:?} after the old count)"
            ),
            other => panic!("cycle {n}: unexpected state {other:?}"),
        }
        monitor.sync().expect("restarted service acks");
    }
}

/// Divergence containment in isolation (no crashes): a stream where
/// *every* value for one stretch is non-finite still yields a finite
/// snapshot, and the drops are visible in the divergence counter.
#[test]
fn non_finite_streams_are_contained_and_counted() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let run = recorded_run(&cat, 12, 9);
    let cfg = CorrectorConfig::for_run(&run);
    let monitor = Monitor::new(&cat, cfg, 1 << 16).expect("spawn monitor");
    let session = monitor.session().open().expect("open");

    let mut poisoned = 0u64;
    for (i, w) in run.windows.iter().enumerate() {
        for s in &w.samples {
            let mut s = *s;
            // Windows 4..8: poison every sample, alternating fault kind.
            if (4..8).contains(&i) {
                if poisoned.is_multiple_of(3) {
                    s.value = f64::NAN;
                } else if poisoned % 3 == 1 {
                    s.value = f64::INFINITY;
                } else {
                    s.sub_sd = -1.0;
                }
                poisoned += 1;
            }
            monitor.push_sample(s).expect("room");
        }
    }
    monitor.flush().expect("alive");

    assert!(poisoned > 0);
    assert_eq!(
        monitor.divergences(),
        poisoned,
        "every poisoned sample skipped by the engine's load, none leaked"
    );
    assert_eq!(monitor.restarts(), 0, "containment, not crashes");
    let group = session.read_group().expect("snapshot");
    assert!(group
        .readings
        .iter()
        .all(|(_, r)| r.value.is_finite() && r.std_dev.is_finite() && r.std_dev > 0.0));
    assert_eq!(group.window as usize, run.windows.len() - 1);
}
