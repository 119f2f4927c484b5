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
//! * [`SiteWorkspace`] — one per worker thread: cavity buffers, the
//!   chain's [`FactorCache`] of current factor values, MCMC init and
//!   proposal-scale vectors, the sampler's [`McmcScratch`], and the
//!   analytic solver's [`AnalyticScratch`]. All reused across site updates,
//!   so the steady-state sweep performs no heap allocation;
//! * [`SiteUpdate`] — the per-site result record (damped site message, new
//!   global message, cavity snapshot, MCMC accounting) workers fill in
//!   parallel and the driver applies sequentially in site order, keeping
//!   the merge deterministic.

use crate::analytic::AnalyticScratch;
use crate::dist::{Gaussian, GaussianLogPdf};
use crate::ep::EpSite;
use crate::mcmc::McmcScratch;
use crate::message::GaussianMessage;
use bayesperf_graph::{ColorBatches, FactorGraph};

/// The batched sweep schedule: sites partitioned into conflict-free groups.
#[derive(Debug, Clone)]
pub struct SweepSchedule {
    batches: ColorBatches,
}

impl SweepSchedule {
    /// Builds the schedule for `sites` over `num_vars` global variables.
    ///
    /// Two sites conflict iff their variable scopes intersect; conflicts are
    /// discovered through a bipartite [`FactorGraph`] (variables ↔ sites)
    /// and resolved by [`FactorGraph::greedy_factor_coloring`], whose
    /// first-fit order makes the schedule a pure function of the site list —
    /// the foundation of the bit-identical-at-any-thread-count guarantee.
    pub fn for_sites(num_vars: usize, sites: &[Box<dyn EpSite + Send + Sync>]) -> Self {
        Self::for_scopes(num_vars, sites.iter().map(|s| s.vars()))
    }

    /// Builds the schedule from raw variable scopes (one per site).
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
/// Everything a site update needs besides the shared read-only state:
/// cavity messages/distributions (and their hoisted log densities), the
/// chain's cached cavity and factor values, MCMC initialization and
/// proposal scales, the chain's [`McmcScratch`], and the Gaussian-linear
/// solver's [`AnalyticScratch`]. Buffers grow to the largest site seen,
/// then stay allocation-free.
#[derive(Debug, Default)]
pub struct SiteWorkspace {
    pub(crate) cavity_msgs: Vec<GaussianMessage>,
    pub(crate) cavity: Vec<Gaussian>,
    pub(crate) cavity_pdf: Vec<GaussianLogPdf>,
    pub(crate) cavity_current: Vec<f64>,
    pub(crate) factors: FactorCache,
    pub(crate) init: Vec<f64>,
    pub(crate) scales: Vec<f64>,
    pub(crate) scratch: McmcScratch,
    pub(crate) analytic: AnalyticScratch,
}

impl SiteWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Every factor's log density at a chain's current state — the cache that
/// lets a Metropolis proposal evaluate only its proposed side.
///
/// [`FactorCache::start`] evaluates each factor of a site once; per
/// proposal, [`FactorCache::delta`] sums the cached values of the moved
/// variable's adjacent factors, evaluates those factors at the proposed
/// value (staging the results), and returns the difference;
/// [`FactorCache::accept`] commits the staged values. Both sums run in
/// [`EpSite::factors_of`] order from `0.0` and the cached values equal a
/// fresh evaluation, so each delta is bit-identical to evaluating the
/// adjacent factors before and after the move. Allocation-free once grown
/// to the largest site.
#[derive(Debug, Clone, Default)]
pub struct FactorCache {
    current: Vec<f64>,
    proposed: Vec<f64>,
}

impl FactorCache {
    /// Creates an empty cache; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates every factor of `site` at the chain's initial state `x`.
    pub fn start<S: EpSite + ?Sized>(&mut self, site: &S, x: &[f64]) {
        self.current.clear();
        self.current
            .extend((0..site.num_factors()).map(|f| site.factor_log_pdf(f, x)));
    }

    /// Change in `site`'s log likelihood when local variable `i` moves from
    /// `x[i]` to `new` (`x` is left unchanged). The proposed values of the
    /// adjacent factors stay staged until the next call.
    pub fn delta<S: EpSite + ?Sized>(
        &mut self,
        site: &S,
        x: &mut [f64],
        i: usize,
        new: f64,
    ) -> f64 {
        let mut before = 0.0;
        for &f in site.factors_of(i) {
            before += self.current[f as usize];
        }
        let old = x[i];
        x[i] = new;
        let after = site.adjacent_log_pdfs(i, x, &mut self.proposed);
        x[i] = old;
        after - before
    }

    /// Commits the values staged by the last [`FactorCache::delta`], which
    /// moved local variable `i`.
    pub fn accept<S: EpSite + ?Sized>(&mut self, site: &S, i: usize) {
        for (&f, &v) in site.factors_of(i).iter().zip(&self.proposed) {
            self.current[f as usize] = v;
        }
    }

    /// Factor `f`'s cached log density at the current state.
    pub fn value(&self, f: usize) -> f64 {
        self.current[f]
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
    /// The cavity this update was computed against — merged into the
    /// engine's per-site history so the next update of the same site can
    /// measure how far its cavity moved (the adaptive-budget signal).
    pub(crate) cavity: Vec<GaussianMessage>,
    /// Whether the tilted moments came from MCMC (false: analytic path).
    pub(crate) used_mcmc: bool,
    /// Whether the update produced non-finite tilted moments (NaN/Inf mean
    /// or variance — a diverged MCMC chain or a poisoned observation). The
    /// driver quarantines the site back to its prior instead of merging.
    pub(crate) quarantined: bool,
    /// Whether a warm adaptive-budget decision voted for the *full* MCMC
    /// budget (the site's cavity jumped) — the sweep-escalation signal.
    /// Always false for cold runs and analytic sites.
    pub(crate) full_budget_vote: bool,
    /// MCMC samples collected (0 on the analytic path).
    pub(crate) mcmc_samples: u32,
    /// MCMC proposals made / accepted (0 on the analytic path) — the raw
    /// counts behind the proposal-weighted acceptance aggregate.
    pub(crate) proposed: u64,
    pub(crate) accepted_n: u64,
    /// MCMC acceptance rate of the site's chain (unset on analytic path).
    pub(crate) acceptance: f64,
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
        self.cavity.clear();
        self.cavity.resize(d, GaussianMessage::uniform());
        self.used_mcmc = false;
        self.quarantined = false;
        self.full_budget_vote = false;
        self.mcmc_samples = 0;
        self.proposed = 0;
        self.accepted_n = 0;
        self.acceptance = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ep::FnSite;

    fn boxed(vars: Vec<usize>) -> Box<dyn EpSite + Send + Sync> {
        Box::new(FnSite::new(vars, |_: &[f64]| 0.0))
    }

    #[test]
    fn disjoint_sites_share_one_batch() {
        let sites = vec![boxed(vec![0]), boxed(vec![1]), boxed(vec![2, 3])];
        let s = SweepSchedule::for_sites(4, &sites);
        assert_eq!(s.num_batches(), 1);
        assert_eq!(s.batch(0), &[0, 1, 2]);
        assert_eq!(s.max_batch_len(), 3);
    }

    #[test]
    fn conflicting_sites_are_separated() {
        // Chain of overlapping pairs: {0,1}, {1,2}, {2,3} -> 2 colors.
        let sites = vec![
            boxed(vec![0, 1]),
            boxed(vec![1, 2]),
            boxed(vec![2, 3]),
            boxed(vec![4]),
        ];
        let s = SweepSchedule::for_sites(5, &sites);
        assert_eq!(s.num_batches(), 2);
        // Every batch is conflict-free.
        for batch in s.iter() {
            let mut seen = std::collections::BTreeSet::new();
            for &k in batch {
                for &v in sites[k as usize].vars() {
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
        let mk = || {
            vec![
                boxed(vec![0, 1]),
                boxed(vec![2]),
                boxed(vec![1, 2]),
                boxed(vec![3, 4]),
            ]
        };
        let a = SweepSchedule::for_sites(5, &mk());
        let b = SweepSchedule::for_sites(5, &mk());
        let batches =
            |s: &SweepSchedule| -> Vec<Vec<u32>> { s.iter().map(|b| b.to_vec()).collect() };
        assert_eq!(batches(&a), batches(&b));
    }
}
