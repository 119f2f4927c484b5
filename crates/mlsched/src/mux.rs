//! Event multiplexing: PMU event groups rotated in schedule order, and
//! the loop that scores the rotation against ground truth.
//!
//! The PMU can host only a few event groups at once; everything else is
//! time-sliced and scaled, and that scaling is where HPC measurement error
//! comes from (§2, Fig. 2 — and Röhl et al. show that *which* events get
//! co-scheduled materially changes fidelity, so a schedule is judged by
//! how close the corrected counts come to the truth).
//!
//! ```text
//!   quantum q:  PMU runs group q mod G   (other groups idle: their
//!                      │                  events go unobserved)
//!                      ▼
//!   err_pct, cov95 ◀──truth── corrector ◀──samples
//! ```
//!
//! * [`GroupSchedule`] — the validated set of PMU event groups (each group
//!   must fit the hardware counters), rotated in index order as Linux
//!   perf's multiplexing timer does;
//! * [`hetero_demo_events`] — the heterogeneous event set every
//!   multiplexing figure is measured on;
//! * [`run_closed_loop`] — the deterministic single-threaded harness
//!   (simulated PMU → chained corrector) that scores the corrected
//!   posteriors against the run's own truth ([`ClosedLoopReport::err_pct`],
//!   [`ClosedLoopReport::cov95`]).
//!
//! Round-robin is the only rotation. The choice Röhl et al. show decides
//! fidelity, which events share a group, is made where the schedule is
//! built. An adaptive rotation would have to earn its place on the truth
//! figures, not on the posterior's own variance: ranking groups by
//! claimed relative variance lowered that variance on 20 of 20 KMeans
//! seeds while raising the mean truth error by 2.7 points.

use bayesperf_core::corrector::{Corrector, CorrectorConfig};
use bayesperf_events::{try_assign, Catalog, EventId};
use bayesperf_simcpu::{Configuration, GroundTruth, Pmu, PmuConfig};
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
        }
    }
}

impl std::error::Error for MuxError {}

/// A validated multiplexing schedule: PMU event groups, each of which fits
/// the hardware counters simultaneously, run one per quantum in index
/// order.
#[derive(Debug, Clone)]
pub struct GroupSchedule {
    groups: Vec<Configuration>,
}

impl GroupSchedule {
    /// Builds a schedule after validating every group against the
    /// catalog's counter constraints (the hardware-counter-width check:
    /// perf's most-constrained-first assignment must succeed for each
    /// group on its own).
    pub fn new(catalog: &Catalog, groups: Vec<Configuration>) -> Result<GroupSchedule, MuxError> {
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
        Ok(GroupSchedule { groups })
    }

    /// Packs `events` greedily into counter-valid groups (the traditional
    /// round-robin packing) and wraps them into a schedule.
    pub fn from_events(catalog: &Catalog, events: &[EventId]) -> Result<GroupSchedule, MuxError> {
        let groups = bayesperf_simcpu::pack_round_robin(catalog, events).map_err(|e| {
            MuxError::Unpackable {
                reason: e.to_string(),
            }
        })?;
        GroupSchedule::new(catalog, groups)
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
/// free to skip). This is the situation where which events share a group
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

/// Everything a [`run_closed_loop`] experiment reports.
#[derive(Debug, Clone)]
pub struct ClosedLoopReport {
    /// Truth-scored error of the posterior means over the scored windows
    /// × multiplexed-pool events, defined as the benchmark defines it: an
    /// event's error is the mean over its windows of `|mean − truth| /
    /// max(|truth|, 5% of the event's mean |truth|)`, and `err_pct` is 100
    /// × the mean over events. The first corrected chunk is not scored
    /// (the cold start pays prior-level error under any schedule) unless it
    /// is the run's only chunk.
    pub err_pct: f64,
    /// Share of scored (window, event) pairs whose truth lies within
    /// `1.96·sd` of the posterior mean; a calibrated posterior reads 0.95.
    pub cov95: f64,
    /// Windows scored into `err_pct` and `cov95`.
    pub scored_windows: usize,
}

/// Runs the schedule on the simulated PMU, single-threaded and
/// deterministic: the PMU rotates the groups one per window
/// ([`Pmu::run_multiplexed`], so an event has no sample in a window its
/// group is off the counters), the chained [`Corrector`] corrects the
/// run chunk by chunk with a ragged tail, as a monitor's flush would, and
/// the posteriors are scored against the run's own truth over the
/// schedule's pool.
///
/// # Panics
///
/// Panics if `n_windows` is zero.
pub fn run_closed_loop(
    catalog: &Catalog,
    truth: &mut dyn GroundTruth,
    pmu_config: PmuConfig,
    schedule: &GroupSchedule,
    corrector_config: CorrectorConfig,
    n_windows: usize,
) -> ClosedLoopReport {
    assert!(n_windows > 0, "need at least one window");
    let pool = schedule.pool();
    let k = corrector_config.model.slices.max(1);
    let run = Pmu::new(catalog, pmu_config).run_multiplexed(truth, schedule.groups(), n_windows);
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
        err_pct: 100.0 * err_sum / pool.len() as f64,
        cov95: covered as f64 / (scored.len() * pool.len()) as f64,
        scored_windows: scored.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayesperf_events::{Arch, Semantic};

    #[test]
    fn schedule_construction_validates_counter_width() {
        let cat = Catalog::new(Arch::X86SkyLake);
        // Five unconstrained core events exceed the 4 programmable
        // counters: an invalid group must be rejected.
        let too_wide = Configuration::new_unchecked(vec![
            cat.require(Semantic::UopsIssued),
            cat.require(Semantic::UopsRetired),
            cat.require(Semantic::BrInst),
            cat.require(Semantic::BrMisp),
            cat.require(Semantic::L1dMisses),
        ]);
        let err = GroupSchedule::new(&cat, vec![too_wide]).unwrap_err();
        assert!(matches!(err, MuxError::InvalidGroup { index: 0, .. }));
        assert!(matches!(
            GroupSchedule::new(&cat, vec![]),
            Err(MuxError::EmptySchedule)
        ));
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
}
