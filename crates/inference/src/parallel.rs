//! Scheduling and buffers for the software EP engine farm.
//!
//! The paper's accelerator (§5) exploits that EP site updates only interact
//! through the global approximation: its EP engines update many sites
//! concurrently. The software farm reproduces that with three pieces:
//!
//! * [`SweepSchedule`] — a deterministic partition of sites into
//!   *conflict-free batches*: greedy coloring of the site-conflict graph
//!   (two sites conflict when they share a global variable), computed with
//!   [`bayesperf_graph`]'s factor coloring and stored as a cacheable
//!   [`ColorBatches`] value. The schedule is a pure function of the site
//!   topology — not the per-window data — so a warm-started engine computes
//!   it once and replays it across sliding windows;
//! * [`SiteWorkspace`] — one per worker thread: cavity buffers and the
//!   moment solver's [`AnalyticScratch`], reused across site updates, so
//!   the steady-state sweep performs no heap allocation;
//! * [`SiteUpdate`] — the per-site result record (damped site message, new
//!   global message, quarantine flag) workers fill in parallel and the
//!   driver applies sequentially in site order, keeping the merge
//!   deterministic.

use crate::analytic::AnalyticScratch;
use crate::dist::Gaussian;
use crate::ep::EpSite;
use crate::message::GaussianMessage;
use bayesperf_graph::{ColorBatches, FactorGraph};

/// The batched sweep schedule: sites partitioned into conflict-free groups.
#[derive(Debug, Clone)]
pub struct SweepSchedule {
    batches: ColorBatches,
}

impl SweepSchedule {
    /// Builds the schedule from the variable scopes of `num_vars` global
    /// variables' sites (one scope per site, in site order).
    ///
    /// Two sites conflict iff their variable scopes intersect; conflicts are
    /// discovered through a bipartite [`FactorGraph`] (variables ↔ sites)
    /// and resolved by [`FactorGraph::greedy_factor_coloring`], whose
    /// first-fit order makes the schedule a pure function of the site list —
    /// the foundation of the bit-identical-at-any-thread-count guarantee.
    pub fn for_scopes<'a>(num_vars: usize, scopes: impl Iterator<Item = &'a [usize]>) -> Self {
        let mut g: FactorGraph<(), usize> = FactorGraph::new();
        let vars: Vec<_> = (0..num_vars).map(|_| g.add_var(())).collect();
        for (k, scope) in scopes.enumerate() {
            let scope: Vec<_> = scope.iter().map(|&v| vars[v]).collect();
            g.add_factor(k, &scope);
        }
        SweepSchedule {
            batches: g.conflict_batches(),
        }
    }

    /// The site indices of batch `c` (ascending).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[inline]
    pub fn batch(&self, c: usize) -> &[u32] {
        self.batches.batch(c)
    }

    /// Iterates over the conflict-free batches in execution order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.batches.iter()
    }

    /// Number of batches (colors) per sweep.
    pub fn num_batches(&self) -> usize {
        self.batches.num_batches()
    }

    /// Size of the largest batch — the available site-level parallelism.
    pub fn max_batch_len(&self) -> usize {
        self.batches.max_batch_len()
    }
}

/// Per-worker reusable buffers for one site update.
///
/// Everything a site update needs besides the shared read-only state: the
/// cavity as messages and as distributions, and the moment solver's
/// [`AnalyticScratch`]. Buffers grow to the largest site seen, then stay
/// allocation-free.
#[derive(Debug, Default)]
pub struct SiteWorkspace {
    pub(crate) cavity_msgs: Vec<GaussianMessage>,
    pub(crate) cavity: Vec<Gaussian>,
    pub(crate) analytic: AnalyticScratch,
}

impl SiteWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The result of one site update, staged by a worker and merged by the
/// driver.
#[derive(Debug, Clone, Default)]
pub struct SiteUpdate {
    /// Global variable indices of the site (copied so the driver can apply
    /// without re-borrowing the site).
    pub(crate) scope: Vec<usize>,
    /// Damped new site approximation per local variable.
    pub(crate) damped: Vec<GaussianMessage>,
    /// New global message per local variable (valid where `accepted`).
    pub(crate) global_new: Vec<GaussianMessage>,
    /// Whether the candidate global message was proper (update applied).
    pub(crate) accepted: Vec<bool>,
    /// Whether the site declined its moment solve or produced non-finite
    /// moments (a poisoned observation). The driver quarantines the site
    /// back to its prior instead of merging.
    pub(crate) quarantined: bool,
}

impl SiteUpdate {
    /// Sizes the record for `site` (idempotent; no allocation once grown).
    pub(crate) fn prepare(&mut self, site: &dyn EpSite) {
        self.scope.clear();
        self.scope.extend_from_slice(site.vars());
        let d = self.scope.len();
        self.damped.clear();
        self.damped.resize(d, GaussianMessage::uniform());
        self.global_new.clear();
        self.global_new.resize(d, GaussianMessage::uniform());
        self.accepted.clear();
        self.accepted.resize(d, false);
        self.quarantined = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(num_vars: usize, scopes: &[&[usize]]) -> SweepSchedule {
        SweepSchedule::for_scopes(num_vars, scopes.iter().copied())
    }

    #[test]
    fn disjoint_sites_share_one_batch() {
        let s = schedule(4, &[&[0], &[1], &[2, 3]]);
        assert_eq!(s.num_batches(), 1);
        assert_eq!(s.batch(0), &[0, 1, 2]);
        assert_eq!(s.max_batch_len(), 3);
    }

    #[test]
    fn conflicting_sites_are_separated() {
        // Chain of overlapping pairs: {0,1}, {1,2}, {2,3} -> 2 colors.
        let scopes: [&[usize]; 4] = [&[0, 1], &[1, 2], &[2, 3], &[4]];
        let s = schedule(5, &scopes);
        assert_eq!(s.num_batches(), 2);
        // Every batch is conflict-free.
        for batch in s.iter() {
            let mut seen = std::collections::BTreeSet::new();
            for &k in batch {
                for &v in scopes[k as usize] {
                    assert!(seen.insert(v), "batch shares variable {v}");
                }
            }
        }
        // All sites scheduled exactly once.
        let mut all: Vec<u32> = s.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn schedule_is_deterministic() {
        let scopes: [&[usize]; 4] = [&[0, 1], &[2], &[1, 2], &[3, 4]];
        let a = schedule(5, &scopes);
        let b = schedule(5, &scopes);
        let batches =
            |s: &SweepSchedule| -> Vec<Vec<u32>> { s.iter().map(|b| b.to_vec()).collect() };
        assert_eq!(batches(&a), batches(&b));
    }
}
