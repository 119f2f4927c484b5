//! Event multiplexing: PMU event groups, a starvation-bounded scheduler,
//! and the loop that scores a schedule against ground truth.
//!
//! The PMU can host only a few event groups at once; everything else is
//! time-sliced and scaled, and that scaling is where HPC measurement error
//! comes from (§2, Fig. 2 — and Röhl et al. show that *which* events get
//! co-scheduled materially changes fidelity, so a schedule is judged by
//! how close the corrected counts come to the truth).
//!
//! ```text
//!   quantum q:  scheduler ──pick──▶ PMU runs group g   (other groups idle,
//!                                      │                their windows carry
//!                                      ▼                the scaling error)
//!   err_pct, cov95 ◀──truth── corrector ◀──samples──────┘
//! ```
//!
//! * [`GroupSchedule`] — the validated set of PMU event groups (each group
//!   must fit the hardware counters) plus the starvation bound `K`;
//! * [`RoundRobin`] — the policy: rotate groups in index order, as Linux
//!   perf's multiplexing timer does;
//! * [`MuxScheduler`] — wraps any [`MuxPolicy`] with an EDF-style
//!   starvation guard guaranteeing every group runs at least once per `K`
//!   quanta, whatever the policy does;
//! * [`run_closed_loop`] — the deterministic single-threaded harness
//!   (scheduler → simulated PMU → chained corrector) that scores the
//!   corrected posteriors against the run's own truth
//!   ([`ClosedLoopReport::err_pct`], [`ClosedLoopReport::cov95`]).
//!
//! A policy earns its place on those truth figures, not on the posterior's
//! own variance: ranking groups by claimed relative variance lowered that
//! variance on 20 of 20 KMeans seeds while raising the truth error from
//! 26.6% to 29.3%.
//!
//! # The starvation bound
//!
//! A group that last ran at quantum `t` is *urgent* from age
//! `K − G + 1` on (`G` = number of groups). Urgent groups preempt the
//! policy, oldest first. Because at most one group crosses the urgency
//! threshold per quantum (ages are pairwise distinct) and one group is
//! served per quantum, a group waits at most `G − 1` quanta behind other
//! urgent groups: its inter-run gap never exceeds
//! `(K − G + 1) + (G − 1) = K`. Every window of `K` consecutive quanta
//! therefore measures every group at least once — the proptested
//! guarantee that keeps the corrector's extrapolated slices from
//! drifting unboundedly.

use bayesperf_core::corrector::{Corrector, CorrectorConfig};
use bayesperf_events::{try_assign, Catalog, EventId};
use bayesperf_simcpu::{Configuration, Extrapolate, GroundTruth, Pmu, PmuConfig};
use std::fmt;

/// Why a [`GroupSchedule`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MuxError {
    /// No groups were supplied.
    EmptySchedule,
    /// A group violates the PMU's counter-width constraint (or is empty).
    InvalidGroup {
        /// Index of the offending group.
        index: usize,
        /// The counter-assignment failure, for the log line.
        reason: String,
    },
    /// The requested events could not be packed into valid groups at all
    /// (a packing-stage failure in [`GroupSchedule::from_events`], before
    /// any group exists — e.g. an event no counter can host).
    Unpackable {
        /// The packer's failure, for the log line.
        reason: String,
    },
    /// The starvation bound is smaller than the group count: with one
    /// group per quantum, covering all `groups` within `bound` quanta is
    /// impossible.
    BoundTooTight {
        /// Number of groups.
        groups: usize,
        /// The requested bound.
        bound: usize,
    },
}

impl fmt::Display for MuxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MuxError::EmptySchedule => write!(f, "schedule must contain at least one group"),
            MuxError::InvalidGroup { index, reason } => {
                write!(f, "group {index} does not fit the PMU counters: {reason}")
            }
            MuxError::Unpackable { reason } => {
                write!(f, "events cannot be packed into valid groups: {reason}")
            }
            MuxError::BoundTooTight { groups, bound } => write!(
                f,
                "starvation bound {bound} cannot cover {groups} groups (need bound >= groups)"
            ),
        }
    }
}

impl std::error::Error for MuxError {}

/// A validated multiplexing schedule: PMU event groups, each of which fits
/// the hardware counters simultaneously, plus the starvation bound `K`
/// (every group must run at least once per `K` quanta).
#[derive(Debug, Clone)]
pub struct GroupSchedule {
    groups: Vec<Configuration>,
    bound: usize,
}

impl GroupSchedule {
    /// Builds a schedule after validating every group against the
    /// catalog's counter constraints (the hardware-counter-width check:
    /// perf's most-constrained-first assignment must succeed for each
    /// group on its own) and checking `starvation_bound >= groups.len()`.
    pub fn new(
        catalog: &Catalog,
        groups: Vec<Configuration>,
        starvation_bound: usize,
    ) -> Result<GroupSchedule, MuxError> {
        if groups.is_empty() {
            return Err(MuxError::EmptySchedule);
        }
        for (index, g) in groups.iter().enumerate() {
            if g.is_empty() {
                return Err(MuxError::InvalidGroup {
                    index,
                    reason: "empty group".into(),
                });
            }
            if let Err(e) = try_assign(catalog, g.events(), &catalog.pmu()) {
                return Err(MuxError::InvalidGroup {
                    index,
                    reason: e.to_string(),
                });
            }
        }
        if starvation_bound < groups.len() {
            return Err(MuxError::BoundTooTight {
                groups: groups.len(),
                bound: starvation_bound,
            });
        }
        Ok(GroupSchedule {
            groups,
            bound: starvation_bound,
        })
    }

    /// Packs `events` greedily into counter-valid groups (the traditional
    /// round-robin packing) and wraps them into a schedule.
    pub fn from_events(
        catalog: &Catalog,
        events: &[EventId],
        starvation_bound: usize,
    ) -> Result<GroupSchedule, MuxError> {
        let groups = bayesperf_simcpu::pack_round_robin(catalog, events).map_err(|e| {
            MuxError::Unpackable {
                reason: e.to_string(),
            }
        })?;
        GroupSchedule::new(catalog, groups, starvation_bound)
    }

    /// The event groups, in index order.
    pub fn groups(&self) -> &[Configuration] {
        &self.groups
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Always false (construction rejects empty schedules); present for
    /// the `len`/`is_empty` idiom.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The starvation bound `K`: every group runs at least once per `K`
    /// quanta under [`MuxScheduler`].
    pub fn starvation_bound(&self) -> usize {
        self.bound
    }

    /// The multiplexed pool: every event any group measures, sorted and
    /// deduplicated.
    pub fn pool(&self) -> Vec<EventId> {
        let mut pool: Vec<EventId> = self
            .groups
            .iter()
            .flat_map(|g| g.events().iter().copied())
            .collect();
        pool.sort_unstable();
        pool.dedup();
        pool
    }
}

/// The canonical heterogeneous demo/benchmark event set: twelve core
/// events packing into three groups of very different *inferability* —
/// weakly-anchored TLB/branch events (only 0.9-noise soft invariant
/// bands: expensive to leave unscheduled), the cache hierarchy
/// (partially inferable via `l2_demand`), and the µop pipeline (tied to
/// the always-measured fixed counters by tight flow invariants: nearly
/// free to skip). This is the situation where which group runs when
/// matters for fidelity. One definition shared by the `mux_scheduler`
/// example, the closed-loop test, and `bench_json`'s `mux_schedule`
/// entry, so all three measure the same schedule.
pub fn hetero_demo_events(catalog: &Catalog) -> Vec<EventId> {
    use bayesperf_events::Semantic::*;
    [
        // group 0 — weakly anchored: measure or stay uncertain
        DtlbMisses,
        ItlbMisses,
        BrInst,
        BrMisp,
        // group 1 — cache hierarchy: partially inferable
        L1dMisses,
        IcacheMisses,
        L2References,
        L2Misses,
        // group 2 — µop pipeline: anchored to fixed counters
        UopsIssued,
        UopsRetired,
        UopsBadSpec,
        IdqUopsNotDelivered,
    ]
    .iter()
    .map(|&s| catalog.require(s))
    .collect()
}

/// A multiplexing policy: choose the group to measure next. The
/// [`MuxScheduler`] wraps every policy with the starvation guard, so
/// policies are free to be arbitrarily greedy.
pub trait MuxPolicy: Send {
    /// Short label for reports ("round_robin").
    fn name(&self) -> &'static str;

    /// The group to measure in quantum `quantum`. Must return an index
    /// `< schedule.len()`; must be deterministic in its inputs.
    fn pick(&mut self, quantum: u64, schedule: &GroupSchedule) -> usize;
}

/// Rotate groups in index order — what Linux perf's multiplexing timer
/// does.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl MuxPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn pick(&mut self, quantum: u64, schedule: &GroupSchedule) -> usize {
        (quantum % schedule.len() as u64) as usize
    }
}

/// Per-run decision accounting of a [`MuxScheduler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MuxStats {
    /// Quanta decided by the policy.
    pub policy_picks: u64,
    /// Quanta where the starvation guard preempted the policy.
    pub forced_picks: u64,
}

/// A policy wrapped with the starvation guard (see the module docs for the
/// bound proof): as an endless [`Iterator`], it yields one group index per
/// scheduling quantum, serving urgent groups oldest-first and delegating
/// to the policy otherwise.
pub struct MuxScheduler {
    schedule: GroupSchedule,
    policy: Box<dyn MuxPolicy>,
    /// Quantum each group last ran, staggered virtual history before the
    /// first real run (keeps ages pairwise distinct — the bound proof's
    /// invariant — and phases the initial forcing in).
    last_run: Vec<i64>,
    quantum: u64,
    stats: MuxStats,
}

impl fmt::Debug for MuxScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MuxScheduler")
            .field("policy", &self.policy.name())
            .field("groups", &self.schedule.len())
            .field("bound", &self.schedule.starvation_bound())
            .field("quantum", &self.quantum)
            .finish()
    }
}

impl MuxScheduler {
    /// Wraps `policy` over `schedule`.
    pub fn new(schedule: GroupSchedule, policy: Box<dyn MuxPolicy>) -> MuxScheduler {
        let g = schedule.len() as i64;
        MuxScheduler {
            schedule,
            policy,
            last_run: (0..g).map(|i| i - g).collect(),
            quantum: 0,
            stats: MuxStats::default(),
        }
    }

    /// The wrapped schedule.
    pub fn schedule(&self) -> &GroupSchedule {
        &self.schedule
    }

    /// The wrapped policy's label.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Decision accounting so far.
    pub fn stats(&self) -> MuxStats {
        self.stats
    }
}

impl Iterator for MuxScheduler {
    type Item = usize;

    /// Decides the group for the next quantum; never `None`.
    fn next(&mut self) -> Option<usize> {
        let q = self.quantum as i64;
        // Saturate, don't cast: `usize::MAX` is the natural spelling of
        // "effectively unbounded", and a wrapping `as i64` would turn it
        // into -1 — a threshold of 1, i.e. a scheduler that forces every
        // quantum and never consults the policy.
        let k = i64::try_from(self.schedule.starvation_bound()).unwrap_or(i64::MAX);
        let g = self.schedule.len() as i64;
        let threshold = k.saturating_sub(g - 1).max(1);
        // Oldest urgent group, if any (ages are pairwise distinct).
        let urgent = (0..self.schedule.len())
            .filter(|&i| q - self.last_run[i] >= threshold)
            .max_by_key(|&i| q - self.last_run[i]);
        let pick = match urgent {
            Some(u) => {
                self.stats.forced_picks += 1;
                u
            }
            None => {
                let p = self.policy.pick(self.quantum, &self.schedule);
                assert!(
                    p < self.schedule.len(),
                    "policy {} picked group {p} of {}",
                    self.policy.name(),
                    self.schedule.len()
                );
                self.stats.policy_picks += 1;
                p
            }
        };
        self.last_run[pick] = q;
        self.quantum += 1;
        Some(pick)
    }
}

/// Everything a [`run_closed_loop`] experiment reports.
#[derive(Debug, Clone)]
pub struct ClosedLoopReport {
    /// The policy label ([`MuxPolicy::name`]).
    pub policy: &'static str,
    /// Group index chosen per window, in order.
    pub decisions: Vec<u32>,
    /// Windows each group was scheduled, indexed by group.
    pub group_runs: Vec<u32>,
    /// Truth-scored error of the posterior means over the scored windows
    /// × multiplexed-pool events, defined as the benchmark defines it: an
    /// event's error is the mean over its windows of `|mean − truth| /
    /// max(|truth|, 5% of the event's mean |truth|)`, and `err_pct` is 100
    /// × the mean over events. The first corrected chunk is not scored
    /// (the cold start pays prior-level error under any policy) unless it
    /// is the run's only chunk.
    pub err_pct: f64,
    /// Share of scored (window, event) pairs whose truth lies within
    /// `1.96·sd` of the posterior mean; a calibrated posterior reads 0.95.
    pub cov95: f64,
    /// Quanta where the starvation guard preempted the policy.
    pub forced_picks: u64,
    /// Windows scored into `err_pct` and `cov95`.
    pub scored_windows: usize,
}

/// Runs the scheduler against the simulated PMU, single-threaded and
/// deterministic: the PMU measures the scheduler's group in each window
/// ([`Pmu::run_driven`] with [`Extrapolate::LinuxScaled`], so unscheduled
/// windows carry the paper's scaling error), the chained [`Corrector`]
/// corrects the run chunk by chunk with a ragged tail, as a monitor's
/// flush would, and the posteriors are scored against the run's own
/// truth over the schedule's pool.
///
/// Every policy runs the same number of windows with one group per
/// quantum, so comparisons are at an **equal sample budget** by
/// construction.
///
/// # Panics
///
/// Panics if `n_windows` is zero.
pub fn run_closed_loop(
    catalog: &Catalog,
    truth: &mut dyn GroundTruth,
    pmu_config: PmuConfig,
    schedule: GroupSchedule,
    policy: Box<dyn MuxPolicy>,
    corrector_config: CorrectorConfig,
    n_windows: usize,
) -> ClosedLoopReport {
    assert!(n_windows > 0, "need at least one window");
    let groups: Vec<Configuration> = schedule.groups().to_vec();
    let pool = schedule.pool();
    let k = corrector_config.model.slices.max(1);
    let mut scheduler = MuxScheduler::new(schedule, policy);
    let run = Pmu::new(catalog, pmu_config).run_driven(
        truth,
        &groups,
        n_windows,
        Extrapolate::LinuxScaled,
        |_, _| scheduler.next().expect("the scheduler never runs out"),
    );
    let decisions: Vec<u32> = run.windows.iter().map(|w| w.config_index as u32).collect();
    let mut group_runs = vec![0u32; groups.len()];
    for &d in &decisions {
        group_runs[d as usize] += 1;
    }
    let series = Corrector::new(catalog, corrector_config).correct_run(&run);

    let skip = if n_windows > k { k } else { 0 };
    let scored = &run.windows[skip..];
    let n = scored.len() as f64;
    let mut err_sum = 0.0;
    let mut covered = 0usize;
    for &e in &pool {
        let mean_truth = scored.iter().map(|w| w.truth[e.index()].abs()).sum::<f64>() / n;
        let floor = (0.05 * mean_truth).max(f64::MIN_POSITIVE);
        let mut err = 0.0;
        for (w, window) in scored.iter().enumerate() {
            let g = series.posterior(skip + w, e);
            let t = window.truth[e.index()];
            let miss = (g.mean - t).abs();
            err += miss / t.abs().max(floor);
            covered += usize::from(miss <= 1.96 * g.std_dev());
        }
        err_sum += err / n;
    }

    ClosedLoopReport {
        policy: scheduler.policy_name(),
        decisions,
        group_runs,
        err_pct: 100.0 * err_sum / pool.len() as f64,
        cov95: covered as f64 / (scored.len() * pool.len()) as f64,
        forced_picks: scheduler.stats().forced_picks,
        scored_windows: scored.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayesperf_events::{Arch, Semantic};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn catalog() -> Catalog {
        Catalog::new(Arch::X86SkyLake)
    }

    fn two_group_schedule(cat: &Catalog, bound: usize) -> GroupSchedule {
        let events = vec![
            cat.require(Semantic::L1dMisses),
            cat.require(Semantic::L2References),
            cat.require(Semantic::BrInst),
            cat.require(Semantic::BrMisp),
            cat.require(Semantic::UopsIssued),
            cat.require(Semantic::UopsRetired),
        ];
        GroupSchedule::from_events(cat, &events, bound).expect("valid schedule")
    }

    #[test]
    fn schedule_construction_validates_counter_width() {
        let cat = catalog();
        // Five unconstrained core events exceed the 4 programmable
        // counters: an invalid group must be rejected.
        let too_wide = Configuration::new_unchecked(vec![
            cat.require(Semantic::UopsIssued),
            cat.require(Semantic::UopsRetired),
            cat.require(Semantic::BrInst),
            cat.require(Semantic::BrMisp),
            cat.require(Semantic::L1dMisses),
        ]);
        let err = GroupSchedule::new(&cat, vec![too_wide], 4).unwrap_err();
        assert!(matches!(err, MuxError::InvalidGroup { index: 0, .. }));
        assert!(matches!(
            GroupSchedule::new(&cat, vec![], 4),
            Err(MuxError::EmptySchedule)
        ));
        let ok = Configuration::new_unchecked(vec![cat.require(Semantic::BrInst)]);
        let err = GroupSchedule::new(&cat, vec![ok.clone(), ok.clone(), ok], 2).unwrap_err();
        assert_eq!(
            err,
            MuxError::BoundTooTight {
                groups: 3,
                bound: 2
            }
        );
    }

    #[test]
    fn round_robin_rotates_and_never_forces() {
        let cat = catalog();
        let schedule = two_group_schedule(&cat, 8);
        let g = schedule.len();
        let mut sched = MuxScheduler::new(schedule, Box::new(RoundRobin));
        let picks: Vec<usize> = sched.by_ref().take(12).collect();
        assert_eq!(picks, (0..12).map(|q| q % g).collect::<Vec<_>>());
        assert_eq!(sched.stats().forced_picks, 0);
    }

    #[test]
    fn packing_failures_are_not_blamed_on_group_zero() {
        let err = MuxError::Unpackable {
            reason: "event e99 cannot be scheduled on this PMU".into(),
        };
        let msg = err.to_string();
        assert!(msg.contains("packed"), "{msg}");
        assert!(!msg.contains("group 0"), "{msg}");
    }

    #[test]
    fn unbounded_starvation_bound_never_forces() {
        // usize::MAX means "effectively unbounded": the guard must stay
        // out of the way entirely (a wrapping i64 cast used to turn it
        // into a force-every-quantum rotation that never consulted the
        // policy).
        let cat = catalog();
        let schedule = two_group_schedule(&cat, usize::MAX);
        let mut sched = MuxScheduler::new(schedule, Box::new(RoundRobin));
        assert_eq!(sched.by_ref().take(32).count(), 32);
        assert_eq!(sched.stats().forced_picks, 0);
        assert_eq!(sched.stats().policy_picks, 32);
    }

    #[test]
    fn starvation_guard_preempts_a_greedy_policy() {
        // A policy that always wants group 0 must still cede one quantum
        // in K to every other group.
        struct Stuck;
        impl MuxPolicy for Stuck {
            fn name(&self) -> &'static str {
                "stuck"
            }
            fn pick(&mut self, _: u64, _: &GroupSchedule) -> usize {
                0
            }
        }
        let cat = catalog();
        let k = 6;
        let schedule = two_group_schedule(&cat, k);
        let g = schedule.len();
        let mut sched = MuxScheduler::new(schedule, Box::new(Stuck));
        let picks: Vec<usize> = sched.by_ref().take(48).collect();
        for window in picks.windows(k) {
            for group in 0..g {
                assert!(
                    window.contains(&group),
                    "group {group} starved in {window:?}"
                );
            }
        }
        assert!(sched.stats().forced_picks > 0);
    }

    /// A seeded greedy policy for the proptest: it wants one group, drawn
    /// at random, and draws a new favourite every `refresh_every` quanta,
    /// so only the guard keeps the other groups measured.
    struct Greedy {
        rng: StdRng,
        refresh_every: u64,
        favourite: usize,
    }

    impl MuxPolicy for Greedy {
        fn name(&self) -> &'static str {
            "greedy"
        }

        fn pick(&mut self, quantum: u64, schedule: &GroupSchedule) -> usize {
            if quantum.is_multiple_of(self.refresh_every) {
                self.favourite = self.rng.gen_range(0..schedule.len());
            }
            self.favourite
        }
    }

    proptest! {
        /// Any generated GroupSchedule respects the counter width, covers
        /// every group within the starvation bound K under a seeded
        /// greedy policy, and decides identically for a fixed seed.
        #[test]
        fn group_schedules_respect_width_bound_and_determinism(
            picks in proptest::collection::vec(0usize..40, 2..16),
            extra_bound in 0usize..10,
            seed in 0u64..1_000,
            refresh_every in 1u64..9,
        ) {
            let cat = catalog();
            let prog = cat.programmable_events();
            let mut events: Vec<EventId> = picks.iter().map(|&i| prog[i % prog.len()]).collect();
            events.sort();
            events.dedup();
            let Ok(probe) = GroupSchedule::from_events(&cat, &events, usize::MAX) else {
                return;
            };
            let g = probe.len();
            let k = g + extra_bound;
            let schedule = GroupSchedule::from_events(&cat, &events, k).expect("bound >= groups");

            // Counter width: every group must fit the PMU simultaneously.
            for group in schedule.groups() {
                prop_assert!(try_assign(&cat, group.events(), &cat.pmu()).is_ok());
            }

            let steps = 4 * k + 8;
            let decide = |schedule: GroupSchedule| -> Vec<usize> {
                let greedy = Greedy {
                    rng: StdRng::seed_from_u64(seed),
                    refresh_every,
                    favourite: 0,
                };
                MuxScheduler::new(schedule, Box::new(greedy)).take(steps).collect()
            };
            let a = decide(schedule.clone());

            // Starvation bound: every window of K consecutive quanta
            // contains every group (including the run's first window).
            for window in a.windows(k) {
                for group in 0..g {
                    prop_assert!(
                        window.contains(&group),
                        "group {} starved in a {}-quantum window: {:?}",
                        group, k, window
                    );
                }
            }

            // Determinism: identical inputs => identical decisions.
            let b = decide(schedule);
            prop_assert_eq!(a, b);
        }
    }
}
