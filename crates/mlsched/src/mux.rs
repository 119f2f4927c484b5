//! The uncertainty-driven event-multiplexing scheduler.
//!
//! The PMU can host only a few event groups at once; everything else is
//! time-sliced and scaled, and that scaling is where HPC measurement error
//! comes from (§2, Fig. 2 — and Röhl et al. show that *which* events get
//! co-scheduled materially changes fidelity). The classic kernel answer is
//! a blind round-robin rotation. BayesPerf, however, maintains a live
//! posterior per event — so the measurement loop can be closed: **let the
//! posterior decide what to measure next.**
//!
//! ```text
//!   quantum q:  scheduler ──pick──▶ PMU runs group g   (other groups idle,
//!      ▲                               │                their windows carry
//!      │ read rel. variance            ▼                the scaling error)
//!   snapshot cell ◀──publish── inference service ◀──samples──┘
//! ```
//!
//! * [`GroupSchedule`] — the validated set of PMU event groups (each group
//!   must fit the hardware counters) plus the starvation bound `K`;
//! * [`RoundRobin`] — the baseline policy: rotate, ignore the posterior;
//! * [`UncertaintyDriven`] — each quantum, pick the group whose events
//!   currently have the highest mean posterior *relative* variance, read
//!   from the published snapshot ([`VarianceEstimates`]) — a wait-free
//!   read that never touches the inference thread. Picks made since the
//!   last posterior refresh are discounted (the scheduler knows a
//!   measurement is already in flight), so stale variances don't cause a
//!   single group to monopolize the counters between publishes;
//! * [`MuxScheduler`] — wraps any policy with an EDF-style starvation
//!   guard guaranteeing every group runs at least once per `K` quanta,
//!   whatever the policy does;
//! * [`ServiceScheduler`] — the live-service integration: one half
//!   implements [`bayesperf_core::ScheduleHook`] (the inference thread
//!   feeds fresh posteriors after every publish), the other half is the
//!   producer-side handle the sampling loop asks for the next group;
//! * [`run_closed_loop`] — the deterministic single-threaded harness
//!   (simulated PMU → streaming corrector → scheduler → PMU) behind the
//!   equal-budget benchmark comparing both policies.
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
use bayesperf_core::{ScheduleHook, Session, SnapshotView};
use bayesperf_events::{try_assign, Catalog, EventId};
use bayesperf_inference::Gaussian;
use bayesperf_simcpu::{Configuration, Extrapolate, GroundTruth, Pmu, PmuConfig, Sample};
use std::fmt;
use std::sync::{Arc, Mutex};

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
/// free to skip). This is the situation where posterior-driven
/// scheduling beats a rotation. One definition shared by the
/// `mux_scheduler` example, the closed-loop acceptance test, and
/// `bench_json`'s gated `mux_schedule` entry, so all three measure the
/// same schedule.
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

/// Posterior relative variance of one event: `var / max(mean² + var, 1)`
/// — scale-free, so groups of large-count and small-count events score
/// comparably. It rises monotonically with `var / mean²` and is bounded by
/// 1, so an event whose truth sits near zero counts (mean a few counts,
/// variance far above mean²) scores at most 1 instead of swamping every
/// other event. The single definition behind the scheduler's live view
/// ([`VarianceEstimates`]) and the closed-loop metric
/// ([`ClosedLoopReport::mean_rel_var`]).
pub fn relative_variance(g: &Gaussian) -> f64 {
    g.var / (g.mean * g.mean + g.var).max(1.0)
}

/// Catalog-indexed posterior **relative** variances
/// ([`relative_variance`]) plus the `(window, chunk)` stamp of the
/// snapshot they came from — the scheduler's entire view of the
/// inference state.
///
/// Refreshing from a live [`Session`] is one wait-free acquisition of the
/// published snapshot cell ([`VarianceEstimates::refresh`]); the closed
/// loop and the service hook update it directly from posteriors. The
/// buffer is reused across refreshes (no steady-state allocation).
#[derive(Debug, Clone)]
pub struct VarianceEstimates {
    window: u32,
    chunk: u64,
    rel_var: Vec<f64>,
    view: SnapshotView,
    fresh: bool,
}

impl VarianceEstimates {
    /// An empty estimate set over `n_events` catalog events.
    pub fn new(n_events: usize) -> VarianceEstimates {
        VarianceEstimates {
            window: 0,
            chunk: 0,
            rel_var: vec![0.0; n_events],
            view: SnapshotView::default(),
            fresh: false,
        }
    }

    /// True once at least one posterior has been absorbed.
    pub fn has_posterior(&self) -> bool {
        self.fresh
    }

    /// The `(window, chunk)` stamp of the absorbed snapshot.
    pub fn stamp(&self) -> (u32, u64) {
        (self.window, self.chunk)
    }

    /// The catalog-indexed relative variances.
    pub fn rel_var(&self) -> &[f64] {
        &self.rel_var
    }

    /// Absorbs catalog-indexed posteriors (count units) published for
    /// `window` by inference run `chunk`.
    ///
    /// # Panics
    ///
    /// Panics if `posteriors.len()` differs from the construction size.
    pub fn update(&mut self, window: u32, chunk: u64, posteriors: &[Gaussian]) {
        assert_eq!(
            posteriors.len(),
            self.rel_var.len(),
            "posterior vector must be catalog-sized"
        );
        for (slot, g) in self.rel_var.iter_mut().zip(posteriors) {
            *slot = relative_variance(g);
        }
        self.window = window;
        self.chunk = chunk;
        self.fresh = true;
    }

    /// Refreshes from the session's latest published snapshot — a
    /// wait-free cell read plus one copy; the inference thread is never
    /// touched. Returns `false` (estimates unchanged) while no posterior
    /// has been published yet or the monitor has closed.
    pub fn refresh(&mut self, session: &Session) -> bool {
        // Move the scratch view out so `update` can borrow &mut self;
        // its allocation is preserved either way.
        let mut view = std::mem::take(&mut self.view);
        let ok = session.snapshot_into(&mut view).is_ok();
        if ok {
            self.update(view.window, view.chunk, &view.posteriors);
        }
        self.view = view;
        ok
    }
}

/// A multiplexing policy: given the current posterior variances (when any
/// posterior exists yet), choose the group to measure next. The
/// [`MuxScheduler`] wraps every policy with the starvation guard, so
/// policies are free to be arbitrarily greedy.
pub trait MuxPolicy: Send {
    /// Short label for reports ("round_robin", "uncertainty").
    fn name(&self) -> &'static str;

    /// The group to measure in quantum `quantum`. Must return an index
    /// `< schedule.len()`; must be deterministic in its inputs.
    fn pick(
        &mut self,
        quantum: u64,
        schedule: &GroupSchedule,
        variances: Option<&VarianceEstimates>,
    ) -> usize;

    /// Informs the policy that the starvation guard — not the policy —
    /// scheduled `group` this quantum, so any in-flight accounting stays
    /// truthful (a forced measurement is still a measurement). Default:
    /// no-op.
    fn observe_forced(
        &mut self,
        group: usize,
        schedule: &GroupSchedule,
        variances: Option<&VarianceEstimates>,
    ) {
        let _ = (group, schedule, variances);
    }
}

/// The baseline: rotate groups in index order, ignoring the posterior —
/// what Linux perf's multiplexing timer does.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl MuxPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn pick(
        &mut self,
        quantum: u64,
        schedule: &GroupSchedule,
        _: Option<&VarianceEstimates>,
    ) -> usize {
        (quantum % schedule.len() as u64) as usize
    }
}

/// The closed-loop policy: measure the group whose events currently carry
/// the highest mean posterior relative variance.
///
/// Between posterior publishes the variance view is frozen, so a naive
/// argmax would re-pick the same group every quantum until the next chunk
/// lands. Each un-refreshed repeat is therefore discounted by
/// [`UncertaintyDriven::discount`] — the scheduler's model of "I already
/// sent a measurement for this group; its variance is about to drop" —
/// which spreads the budget across the *set* of high-variance groups
/// instead of burning it on one. The pending counts reset whenever a new
/// snapshot stamp is observed. Fully deterministic: argmax ties break
/// toward the lower group index.
#[derive(Debug, Clone)]
pub struct UncertaintyDriven {
    /// Multiplicative score discount per pending (unconfirmed) pick of a
    /// group; in `(0, 1]`. `1.0` disables the in-flight accounting.
    pub discount: f64,
    pending: Vec<u32>,
    last_stamp: Option<(u32, u64)>,
}

impl Default for UncertaintyDriven {
    fn default() -> Self {
        UncertaintyDriven::new(0.25)
    }
}

impl UncertaintyDriven {
    /// Creates the policy with the given pending-pick discount.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < discount <= 1`.
    pub fn new(discount: f64) -> UncertaintyDriven {
        assert!(
            discount > 0.0 && discount <= 1.0,
            "discount must be in (0, 1], got {discount}"
        );
        UncertaintyDriven {
            discount,
            pending: Vec::new(),
            last_stamp: None,
        }
    }

    /// Mean posterior relative variance of a group's events.
    fn group_score(group: &Configuration, rel_var: &[f64]) -> f64 {
        let sum: f64 = group.events().iter().map(|e| rel_var[e.index()]).sum();
        sum / group.len().max(1) as f64
    }

    /// Re-seats the pending counters for the current snapshot stamp: a
    /// fresh publish confirms (or refutes) every in-flight pick, so the
    /// discounts reset. Shared by [`MuxPolicy::pick`] and
    /// [`MuxPolicy::observe_forced`] so a guard-forced pick under a new
    /// stamp is not wiped by the next policy pick's own stamp check.
    fn sync_pending(&mut self, schedule: &GroupSchedule, v: &VarianceEstimates) {
        self.pending.resize(schedule.len(), 0);
        if self.last_stamp != Some(v.stamp()) {
            self.pending.fill(0);
            self.last_stamp = Some(v.stamp());
        }
    }
}

impl MuxPolicy for UncertaintyDriven {
    fn name(&self) -> &'static str {
        "uncertainty"
    }

    fn pick(
        &mut self,
        quantum: u64,
        schedule: &GroupSchedule,
        variances: Option<&VarianceEstimates>,
    ) -> usize {
        let Some(v) = variances.filter(|v| v.has_posterior()) else {
            // No posterior yet: fall back to the blind rotation.
            return (quantum % schedule.len() as u64) as usize;
        };
        self.sync_pending(schedule, v);
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (g, group) in schedule.groups().iter().enumerate() {
            let score =
                Self::group_score(group, v.rel_var()) * self.discount.powi(self.pending[g] as i32);
            if score > best_score {
                best = g;
                best_score = score;
            }
        }
        self.pending[best] += 1;
        best
    }

    fn observe_forced(
        &mut self,
        group: usize,
        schedule: &GroupSchedule,
        variances: Option<&VarianceEstimates>,
    ) {
        // A forced measurement is in flight like any other: without this,
        // the policy would re-pick the group the guard just served while
        // the variance view is frozen between publishes.
        match variances.filter(|v| v.has_posterior()) {
            Some(v) => self.sync_pending(schedule, v),
            None => self.pending.resize(schedule.len(), 0),
        }
        self.pending[group] += 1;
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
/// bound proof): [`MuxScheduler::next`] yields one group index per
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

    /// Decides the group for the next quantum. Pass the current posterior
    /// variance view when one exists ([`VarianceEstimates::has_posterior`]);
    /// `None` before the first publish.
    pub fn next(&mut self, variances: Option<&VarianceEstimates>) -> usize {
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
                self.policy.observe_forced(u, &self.schedule, variances);
                u
            }
            None => {
                let p = self.policy.pick(self.quantum, &self.schedule, variances);
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
        pick
    }
}

/// Shared state of a service-driven scheduler: the inference thread
/// deposits variances through the hook half, producers draw decisions
/// through the handle half.
struct ServiceShared {
    scheduler: MuxScheduler,
    variances: VarianceEstimates,
}

/// The producer-side handle of a service-driven scheduler: call
/// [`ServiceScheduler::next_group`] once per scheduling quantum. Cheap to
/// clone; safe to share with the sampling thread.
#[derive(Clone)]
pub struct ServiceScheduler {
    shared: Arc<Mutex<ServiceShared>>,
}

impl fmt::Debug for ServiceScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceScheduler").finish_non_exhaustive()
    }
}

/// The hook half: installed on a [`bayesperf_core::Monitor`], it absorbs
/// each published chunk's posteriors into the shared variance view on the
/// inference thread (one lock, one `O(events)` pass — no inference).
pub struct ServiceFeed {
    shared: Arc<Mutex<ServiceShared>>,
}

impl ScheduleHook for ServiceFeed {
    fn on_publish(&mut self, window: u32, chunk: u64, posteriors: &[Gaussian]) {
        let mut st = self.shared.lock().unwrap_or_else(|e| e.into_inner());
        // The publish is authoritative about the catalog size: a caller
        // who sized [`ServiceScheduler::new`] wrong (e.g. with the pool
        // length instead of the catalog length) gets re-seated here
        // rather than panicking the monitor's inference thread — which
        // would close the whole service with no hint of the cause.
        if st.variances.rel_var.len() != posteriors.len() {
            st.variances = VarianceEstimates::new(posteriors.len());
        }
        st.variances.update(window, chunk, posteriors);
    }
}

impl ServiceScheduler {
    /// Splits a scheduler into the producer handle and the service hook:
    /// install the hook via `Monitor::set_schedule_hook` and drive the PMU from
    /// [`ServiceScheduler::next_group`] — the service's own posteriors now
    /// steer its measurement schedule.
    pub fn new(scheduler: MuxScheduler, n_events: usize) -> (ServiceScheduler, Box<ServiceFeed>) {
        let shared = Arc::new(Mutex::new(ServiceShared {
            scheduler,
            variances: VarianceEstimates::new(n_events),
        }));
        (
            ServiceScheduler {
                shared: shared.clone(),
            },
            Box::new(ServiceFeed { shared }),
        )
    }

    /// Decides the group for the next quantum from the variances most
    /// recently deposited by the hook.
    pub fn next_group(&self) -> usize {
        let mut st = self.shared.lock().unwrap_or_else(|e| e.into_inner());
        let ServiceShared {
            scheduler,
            variances,
        } = &mut *st;
        let v = variances.has_posterior().then_some(&*variances);
        scheduler.next(v)
    }

    /// Decision accounting of the wrapped scheduler.
    pub fn stats(&self) -> MuxStats {
        self.shared
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .scheduler
            .stats()
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
    /// Mean posterior relative variance over corrected window ×
    /// multiplexed-pool event, **excluding the first corrected chunk** —
    /// the cold start pays prior-level variance under any policy and
    /// would otherwise swamp the steady-state signal. This is the
    /// quantity the uncertainty-driven policy explicitly minimizes at
    /// equal sample budget. (When the run corrects a single chunk, that
    /// chunk is the metric.)
    pub mean_rel_var: f64,
    /// Quanta where the starvation guard preempted the policy.
    pub forced_picks: u64,
    /// Windows whose posteriors entered `mean_rel_var`.
    pub corrected_windows: usize,
}

/// The closed loop's variance bookkeeping: posterior relative variance
/// summed separately for the cold-start chunk (reported only as a
/// fallback) and the steady state (the [`ClosedLoopReport::mean_rel_var`]
/// numerator) — one owner for the bucketing, shared by the full-chunk and
/// ragged-tail paths.
#[derive(Debug, Default)]
struct VarAccum {
    steady_sum: f64,
    steady_n: usize,
    cold_sum: f64,
    cold_n: usize,
}

impl VarAccum {
    /// Folds in one corrected chunk's `slices × pool` posteriors; `cold`
    /// marks the run's first chunk.
    fn absorb_slices(
        &mut self,
        pool: &[EventId],
        slices: usize,
        cold: bool,
        posterior: impl Fn(usize, EventId) -> Gaussian,
    ) {
        for t in 0..slices {
            for &e in pool {
                let v = relative_variance(&posterior(t, e));
                if cold {
                    self.cold_sum += v;
                    self.cold_n += 1;
                } else {
                    self.steady_sum += v;
                    self.steady_n += 1;
                }
            }
        }
    }

    /// Steady-state mean, falling back to the cold chunk only when it is
    /// all there is.
    fn mean(&self) -> f64 {
        if self.steady_n > 0 {
            self.steady_sum / self.steady_n as f64
        } else {
            self.cold_sum / self.cold_n.max(1) as f64
        }
    }
}

/// Runs the full feedback loop, single-threaded and deterministic: the
/// simulated PMU measures one group per window
/// ([`Pmu::run_driven`] with [`Extrapolate::LinuxScaled`], so unscheduled
/// windows carry the paper's scaling error), completed windows stream
/// through the chained [`Corrector`], and each corrected chunk's final
/// posteriors feed the scheduler's variance view for subsequent picks.
///
/// Both policies run the same number of windows with one group per
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
    let pmu = Pmu::new(catalog, pmu_config);
    let groups: Vec<Configuration> = schedule.groups().to_vec();
    let pool = schedule.pool();
    let k = corrector_config.model.slices.max(1);
    let mut corrector = Corrector::new(catalog, corrector_config);
    let mut scheduler = MuxScheduler::new(schedule, policy);
    let policy_name = scheduler.policy_name();

    let mut variances = VarianceEstimates::new(catalog.len());
    let mut post_buf: Vec<Gaussian> = Vec::with_capacity(catalog.len());
    let mut chunk_buf: Vec<Vec<Sample>> = Vec::new();
    let mut decisions: Vec<u32> = Vec::new();
    let mut group_runs = vec![0u32; groups.len()];
    let mut chunk_no = 0u64;
    let mut acc = VarAccum::default();
    let mut corrected = 0usize;
    let mut fed = 0usize;

    // One closure both corrects the backlog and decides the next group —
    // the loop body of a real monitor, minus the threads. The run's last
    // window also corrects a ragged chunk tail, as a monitor's flush would.
    let mut absorb = |window: &bayesperf_simcpu::Window,
                      last: bool,
                      corrector: &mut Corrector,
                      variances: &mut VarianceEstimates,
                      chunk_buf: &mut Vec<Vec<Sample>>,
                      post_buf: &mut Vec<Gaussian>| {
        chunk_buf.push(window.samples.clone());
        let m = chunk_buf.len();
        if m < k && !last {
            return;
        }
        let refs: Vec<&[Sample]> = chunk_buf.iter().map(|w| w.as_slice()).collect();
        if m == k {
            corrector.push_chunk(&refs);
        } else {
            corrector
                .push_tail(&refs)
                .expect("a tail of 1 to k - 1 windows");
        }
        chunk_no += 1;
        acc.absorb_slices(&pool, m, chunk_no == 1, |t, e| corrector.posterior(t, e));
        corrected += m;
        post_buf.clear();
        post_buf.extend(catalog.iter().map(|e| corrector.posterior(m - 1, e.id)));
        variances.update(window.index, chunk_no, post_buf);
        chunk_buf.clear();
    };

    let run = pmu.run_driven(
        truth,
        &groups,
        n_windows,
        Extrapolate::LinuxScaled,
        |_, prev| {
            if let Some(w) = prev {
                fed += 1;
                absorb(
                    w,
                    false,
                    &mut corrector,
                    &mut variances,
                    &mut chunk_buf,
                    &mut post_buf,
                );
            }
            let pick = scheduler.next(variances.has_posterior().then_some(&variances));
            decisions.push(pick as u32);
            group_runs[pick] += 1;
            pick
        },
    );

    // The final window never appeared as a `prev`; account for it the way
    // a monitor's flush would.
    let n = run.windows.len();
    for (i, w) in run.windows.iter().enumerate().skip(fed) {
        absorb(
            w,
            i + 1 == n,
            &mut corrector,
            &mut variances,
            &mut chunk_buf,
            &mut post_buf,
        );
    }

    ClosedLoopReport {
        policy: policy_name,
        decisions,
        group_runs,
        mean_rel_var: acc.mean(),
        forced_picks: scheduler.stats().forced_picks,
        corrected_windows: corrected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayesperf_events::{Arch, Semantic};
    use proptest::prelude::*;

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
    fn relative_variance_is_bounded_for_a_near_zero_mean() {
        // A posterior of an event whose truth is zero counts in this
        // phase: mean 4.8, variance 2.09e8. var/mean² would read ~9e6.
        let wide = relative_variance(&Gaussian::new(4.8, 2.09e8));
        assert!(wide <= 1.0 && wide > 0.99, "{wide}");
        // Away from zero it tracks var/mean², and it stays monotone in it.
        let tight = relative_variance(&Gaussian::new(1.0e6, 1.0e8));
        assert!((tight - 1.0e-4).abs() < 2.0e-8, "{tight}");
        let wider = relative_variance(&Gaussian::new(1.0e6, 4.0e8));
        assert!(wider > tight);
        // Sub-count posteriors keep the old one-count floor.
        assert_eq!(relative_variance(&Gaussian::new(0.0, 0.25)), 0.25);
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
        let picks: Vec<usize> = (0..12).map(|_| sched.next(None)).collect();
        assert_eq!(picks, (0..12).map(|q| q % g).collect::<Vec<_>>());
        assert_eq!(sched.stats().forced_picks, 0);
    }

    #[test]
    fn uncertainty_prefers_the_noisiest_group_and_discounts_repeats() {
        let cat = catalog();
        let schedule = two_group_schedule(&cat, 64);
        assert_eq!(schedule.len(), 2);
        let noisy = schedule.groups()[1].events()[0];
        let mut v = VarianceEstimates::new(cat.len());
        let mut posteriors: Vec<Gaussian> = cat.iter().map(|_| Gaussian::new(100.0, 1.0)).collect();
        // Group 1 scores ~2.5x group 0 — high enough to win the fresh
        // pick, low enough that one pending-pick discount flips the order
        // (a *hugely* noisier group would justifiably win repeats).
        posteriors[noisy.index()] = Gaussian::new(100.0, 4.0);
        v.update(0, 1, &posteriors);
        let mut sched = MuxScheduler::new(schedule, Box::new(UncertaintyDriven::new(0.25)));
        // Highest-variance group wins the first pick...
        assert_eq!(sched.next(Some(&v)), 1);
        // ...then the in-flight discount hands the budget to the other
        // group instead of re-picking group 1 until the next publish.
        assert_eq!(sched.next(Some(&v)), 0);
        // A fresh stamp resets the pending discounts: group 1 again.
        v.update(6, 2, &posteriors);
        assert_eq!(sched.next(Some(&v)), 1);
    }

    #[test]
    fn forced_picks_count_as_in_flight_for_the_policy() {
        let cat = catalog();
        let schedule = two_group_schedule(&cat, 64);
        let noisy = schedule.groups()[1].events()[0];
        let mut v = VarianceEstimates::new(cat.len());
        let mut posteriors: Vec<Gaussian> = cat.iter().map(|_| Gaussian::new(100.0, 1.0)).collect();
        posteriors[noisy.index()] = Gaussian::new(100.0, 4.0);
        v.update(0, 1, &posteriors);
        let mut policy = UncertaintyDriven::new(0.25);
        // The guard serves group 1; the policy must treat that as an
        // in-flight measurement and hand the next free pick to group 0
        // instead of re-measuring what was just scheduled.
        policy.observe_forced(1, &schedule, Some(&v));
        assert_eq!(policy.pick(1, &schedule, Some(&v)), 0);

        // Without the notification it would have re-picked group 1.
        let mut naive = UncertaintyDriven::new(0.25);
        assert_eq!(naive.pick(1, &schedule, Some(&v)), 1);
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
    fn without_posteriors_uncertainty_falls_back_to_rotation() {
        let cat = catalog();
        let schedule = two_group_schedule(&cat, 8);
        let g = schedule.len();
        let mut sched = MuxScheduler::new(schedule, Box::new(UncertaintyDriven::default()));
        let picks: Vec<usize> = (0..6).map(|_| sched.next(None)).collect();
        assert_eq!(picks, (0..6).map(|q| q % g).collect::<Vec<_>>());
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
        for _ in 0..32 {
            sched.next(None);
        }
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
            fn pick(&mut self, _: u64, _: &GroupSchedule, _: Option<&VarianceEstimates>) -> usize {
                0
            }
        }
        let cat = catalog();
        let k = 6;
        let schedule = two_group_schedule(&cat, k);
        let g = schedule.len();
        let mut sched = MuxScheduler::new(schedule, Box::new(Stuck));
        let picks: Vec<usize> = (0..48).map(|_| sched.next(None)).collect();
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

    #[test]
    fn service_feed_reseats_a_mis_sized_estimate_buffer() {
        // A wrong n_events at construction must not panic on_publish —
        // it runs on the monitor's inference thread, where a panic
        // closes the whole service. The publish size wins instead.
        let cat = catalog();
        let schedule = two_group_schedule(&cat, 8);
        let sched = MuxScheduler::new(schedule, Box::new(UncertaintyDriven::default()));
        let (handle, mut feed) = ServiceScheduler::new(sched, 3); // wrong: pool-sized
        let posteriors: Vec<Gaussian> = cat.iter().map(|_| Gaussian::new(100.0, 4.0)).collect();
        feed.on_publish(0, 1, &posteriors); // catalog-sized
        let pick = handle.next_group();
        assert!(pick < 2, "scheduler serves picks from the re-seated view");
    }

    /// Deterministic synthetic variance sequences for the proptests: a
    /// seeded walk, no dependence on inference.
    fn synth_variances(
        cat: &Catalog,
        seed: u64,
        steps: usize,
        refresh_every: usize,
    ) -> Vec<VarianceEstimates> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(steps);
        let mut v = VarianceEstimates::new(cat.len());
        let mut posteriors: Vec<Gaussian> = (0..cat.len())
            .map(|_| Gaussian::new(100.0, 1.0 + 99.0 * rng.gen::<f64>()))
            .collect();
        v.update(0, 1, &posteriors);
        for step in 1..=steps {
            if step % refresh_every.max(1) == 0 {
                for g in posteriors.iter_mut() {
                    *g = Gaussian::new(100.0, 1.0 + 99.0 * rng.gen::<f64>());
                }
                v.update(step as u32, step as u64, &posteriors);
            }
            out.push(v.clone());
        }
        out
    }

    proptest! {
        /// Any generated GroupSchedule respects the counter width, covers
        /// every group within the starvation bound K under the
        /// uncertainty-driven policy fed arbitrary variances, and decides
        /// identically for a fixed seed.
        #[test]
        fn group_schedules_respect_width_bound_and_determinism(
            picks in proptest::collection::vec(0usize..40, 2..16),
            extra_bound in 0usize..10,
            seed in 0u64..1_000,
            refresh_every in 1usize..9,
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
            let variances = synth_variances(&cat, seed, steps, refresh_every);
            let decide = |schedule: GroupSchedule| -> Vec<usize> {
                let mut sched =
                    MuxScheduler::new(schedule, Box::new(UncertaintyDriven::new(0.25)));
                variances.iter().map(|v| sched.next(Some(v))).collect()
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
