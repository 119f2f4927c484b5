//! Expectation Propagation over partitioned likelihoods (Alg. 1 of the
//! paper), executed by a software "EP engine farm".
//!
//! The target density factorizes as `f(θ) = Π fₖ(θ)` where each `fₖ` is the
//! likelihood of the data captured in one partition — for BayesPerf, one
//! scheduled HPC configuration / time slice. EP maintains a global Gaussian
//! mean-field approximation `g(θ) = prior · Π gₖ(θ)` and iterates:
//!
//! 1. cavity: `g₋ₖ ∝ g / gₖ`
//! 2. tilted: `g\ₖ ∝ Pr(yₖ|θ) · g₋ₖ` — moments estimated by MCMC, or in
//!    closed form when the site is Gaussian-linear (see below)
//! 3. local update: moment-match a Gaussian to the tilted distribution
//! 4. global update: `g ← g · Δgₖ` with damping
//!
//! # The proposal kernel
//!
//! A site exposes its likelihood as a product of factors
//! ([`EpSite::num_factors`], [`EpSite::factors_of`],
//! [`EpSite::factor_log_pdf`]), and every Metropolis proposal of a site's
//! chain does only the work that can change its outcome:
//!
//! * **Hoisted normalizers.** Cavity densities are [`GaussianLogPdf`]s
//!   built once per cavity formation; sites build their factors the same
//!   way, at engine build or observation swap
//!   ([`StudentTLogPdf`](crate::StudentTLogPdf) for Student-t
//!   observations). A proposal never recomputes an `ln` or `ln Γ` that
//!   cancels in its own delta.
//! * **Current-value cache.** The worker's [`SiteWorkspace`] keeps each
//!   cavity term and each factor ([`FactorCache`]) at the chain's current
//!   state. A proposal evaluates the moved variable's cavity term and its
//!   adjacent factors at the proposed value only; an accepted move commits
//!   them ([`Target::start`]/[`Target::accept`]).
//!
//! Both are bit-identical to the uncached evaluation: a hoisted density
//! subtracts the same kernel from the same normalizer, and a cached value
//! is what a fresh evaluation at the current state returns. Every delta,
//! and therefore every accept decision, RNG draw and posterior, is
//! unchanged to the last bit.
//!
//! # The batched-parallel sweep schedule
//!
//! Sites only interact through the global approximation — the parallelism
//! the BayesPerf accelerator's EP engines exploit (§5). The software farm
//! ([`ExpectationPropagation::run_parallel`]) realizes it in three steps:
//!
//! 1. **Conflict-free batching.** Sites are partitioned by greedy coloring
//!    of the site-conflict graph (two sites conflict when their variable
//!    scopes intersect; see [`SweepSchedule`]). Within a batch, updates
//!    touch disjoint variables, so Jacobi-style batch application equals
//!    the sequential Gauss-Seidel order exactly.
//! 2. **Parallel compute, ordered merge.** Each sweep walks the batches;
//!    a batch's site updates are computed concurrently on
//!    `std::thread::scope` workers into per-site [`SiteUpdate`] records,
//!    then merged into the global approximation sequentially in ascending
//!    site order. The merge is cheap (a handful of message writes per
//!    site); all MCMC work happens in the parallel phase.
//! 3. **Counter-based RNG streams.** Every site update draws from its own
//!    [`SiteRng`] stream, keyed by `(seed, site, sweep)` — no shared
//!    sequential generator.
//!
//! # Determinism guarantee
//!
//! Because the schedule is a pure function of the site list, each site's
//! randomness is a pure function of `(seed, site, sweep)`, batch members
//! read disjoint state, and merges happen in a fixed order,
//! `run_parallel(seed, threads)` returns **bit-identical** [`EpResult`]s
//! for any `threads ≥ 1`. Thread count is purely a throughput knob — the
//! `parallel_determinism` integration test pins this down. The guarantee
//! extends to warm-started runs: the adaptive MCMC budget is derived from
//! per-site cavity history that is itself updated in deterministic merge
//! order.
//!
//! # Warm-start lifecycle
//!
//! A `Corrector` that slides across multiplexing windows solves a sequence
//! of *nearly identical* inference problems: the factor-graph topology is a
//! pure function of the event catalog, only the observed counts move. The
//! engine is therefore built to be **reused**, not rebuilt:
//!
//! ```text
//!   build once            per window                     per window
//!   ──────────            ───────────                    ───────────
//!   new() + add_site()    site_mut() — swap observations  run_parallel()
//!        │                warm_start(prior) — keep            │
//!        ▼                site messages, re-seat prior        ▼
//!   first run_parallel()  (or cold_reset() to discard)    marginals
//! ```
//!
//! * [`ExpectationPropagation::warm_start`] re-seats the per-variable prior
//!   (e.g. the chained prior from the previous window's posterior), keeps
//!   all site messages and rebuilds the global approximation as
//!   `prior · Π site messages`. Because the previous window's messages
//!   already approximate the new window's likelihoods, warm runs converge
//!   in 1–2 sweeps (capped by [`EpConfig::warm_max_sweeps`]) instead of the
//!   cold sweep budget.
//! * The **adaptive MCMC budget** ([`EpConfig::adaptive`]) shrinks the
//!   per-site chain to [`AdaptiveBudget`]'s floor when the site's cavity
//!   barely moved since its previous update (measured by
//!   [`GaussianMessage::moments_shift`]); cold starts and post-swap jumps
//!   keep the full configured budget. Sites whose cavity *jumped* past
//!   [`AdaptiveBudget::jump_tol`] vote to extend the warm run by one extra
//!   sweep, which runs when at least a quarter of a sweep's MCMC site
//!   updates voted.
//! * [`ExpectationPropagation::reset_site`] selectively discards one
//!   site's messages — the warm-started corrector applies it to the
//!   slices of a detected data phase change, re-solving just those from
//!   scratch while the rest of the window stays warm.
//! * [`ExpectationPropagation::cold_reset`] discards all messages (vacuous
//!   approximation, global = prior) while **keeping** the cached sweep
//!   schedule, site-update records and per-worker workspaces — the
//!   structural reuse the cold corrector mode relies on.
//! * Sites whose tilted distribution is exactly Gaussian
//!   ([`MomentStrategy::Analytic`], e.g. [`FactorSite`](crate::FactorSite)s
//!   made of linear-Gaussian / high-count-Poisson factors) bypass MCMC
//!   entirely and compute moments by a site-local Cholesky solve.
//!
//! The hot path is allocation-free after warm-up: the sweep schedule,
//! per-worker [`SiteWorkspace`] buffers (cavity state, factor cache, MCMC
//! scratch, analytic scratch) and per-site [`SiteUpdate`] records are
//! cached inside the engine and reused across sweeps *and* across windows.

use crate::analytic::AnalyticScratch;
use crate::dist::{Gaussian, GaussianLogPdf};
use crate::mcmc::{McmcConfig, McmcSampler, Target};
use crate::message::GaussianMessage;
use crate::parallel::{FactorCache, SiteUpdate, SiteWorkspace, SweepSchedule};
use crate::rng::SiteRng;

/// Variance floor applied to tilted moments (guards MCMC degeneracy).
const MIN_VAR: f64 = 1e-10;

/// Sweep-escalation threshold for warm runs, as a fraction of the sweep's
/// MCMC site updates that cast a "hot" vote (some variable's cavity jumped
/// past `AdaptiveBudget::jump_tol`, or the site was selectively reset).
/// When a warm run reaches `warm_max_sweeps` and at least this fraction of
/// the last sweep's sites were hot, it runs **one** extra polishing sweep
/// (never beyond `max_sweeps`) — reset sites re-fit in their first
/// full-budget update, so a single extra sweep recovers most of the cold
/// refinement at a fraction of its cost, while quiet windows keep the 1–2
/// sweep fast path.
const WARM_ESCALATION: f64 = 0.25;

/// How a site's tilted moments are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MomentStrategy {
    /// Estimate moments by running the site's MCMC chain (the general
    /// path; any log-likelihood).
    Mcmc,
    /// Compute moments in closed form — valid when the site's likelihood
    /// is Gaussian in a linear transform of its variables, so the tilted
    /// distribution `cavity × likelihood` is exactly Gaussian.
    Analytic,
}

/// One partition of the data: a likelihood term over a subset of the global
/// variables, exposed as a product of factors.
///
/// The factor structure is what makes a Metropolis proposal cheap: when
/// local variable `i` moves, only the factors in
/// [`EpSite::factors_of`]`(i)` can change. The engine keeps every factor's
/// log density at the chain's current state in a [`FactorCache`], so a
/// proposal evaluates only its proposed side and an accepted move commits
/// those values. An opaque likelihood is one factor adjacent to every
/// variable ([`FnSite`]).
pub trait EpSite {
    /// Indices of the global variables this site's likelihood touches.
    fn vars(&self) -> &[usize];

    /// Number of factors whose product is the site's likelihood.
    fn num_factors(&self) -> usize;

    /// The factors adjacent to local variable `i` — every factor whose
    /// value can change when `x[i]` moves — in the order a proposal sums
    /// them.
    fn factors_of(&self, i: usize) -> &[u32];

    /// Log density of factor `f` at the site-local state `x` (aligned with
    /// [`EpSite::vars`]).
    fn factor_log_pdf(&self, f: usize, x: &[f64]) -> f64;

    /// Log likelihood of the site's data given the site-local state `x`:
    /// the sum of every factor's log density.
    fn log_likelihood(&self, x: &[f64]) -> f64 {
        (0..self.num_factors())
            .map(|f| self.factor_log_pdf(f, x))
            .sum()
    }

    /// Evaluates the factors adjacent to local variable `i` at `x` into
    /// `out` (cleared first, in [`EpSite::factors_of`] order) and returns
    /// their sum, accumulated in that order from `0.0`.
    ///
    /// Provided so that, called through `dyn EpSite`, the per-factor calls
    /// inside are statically dispatched to the site's own
    /// [`EpSite::factor_log_pdf`].
    fn adjacent_log_pdfs(&self, i: usize, x: &[f64], out: &mut Vec<f64>) -> f64 {
        out.clear();
        let mut sum = 0.0;
        for &f in self.factors_of(i) {
            let v = self.factor_log_pdf(f as usize, x);
            out.push(v);
            sum += v;
        }
        sum
    }

    /// Optional MCMC initialization hint for local variable `i` (e.g. the
    /// scaled observation of that counter). `None` starts at the cavity
    /// mean.
    fn init_hint(&self, i: usize) -> Option<f64> {
        let _ = i;
        None
    }

    /// Optional proposal-scale hint for local variable `i` (e.g. the
    /// observation factor's width). `None` uses the cavity standard
    /// deviation.
    fn scale_hint(&self, i: usize) -> Option<f64> {
        let _ = i;
        None
    }

    /// How this site's tilted moments should be computed. Sites returning
    /// [`MomentStrategy::Analytic`] must also implement
    /// [`EpSite::analytic_moments`].
    fn moment_strategy(&self) -> MomentStrategy {
        MomentStrategy::Mcmc
    }

    /// Computes the tilted moments in closed form into `ws` (read back via
    /// [`AnalyticScratch::mean`]/[`AnalyticScratch::var`]). Returns `false`
    /// to decline — the driver then falls back to MCMC, so a conservative
    /// implementation may bail on numerically degenerate cavities.
    fn analytic_moments(&self, cavity: &[Gaussian], ws: &mut AnalyticScratch) -> bool {
        let _ = (cavity, ws);
        false
    }
}

/// Object-safe site storage: [`EpSite`] plus `Any` for typed mutable access
/// (the warm-start observation swap) — implemented for every concrete site
/// automatically.
trait SiteObj: EpSite + Send + Sync {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<S: EpSite + Send + Sync + 'static> SiteObj for S {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// An [`EpSite`] built from a closure.
#[derive(Debug, Clone)]
pub struct FnSite<F> {
    vars: Vec<usize>,
    f: F,
}

impl<F: Fn(&[f64]) -> f64> FnSite<F> {
    /// Creates a site over `vars` with log-likelihood `f`.
    ///
    /// # Panics
    ///
    /// Panics if `vars` contains duplicates.
    pub fn new(vars: Vec<usize>, f: F) -> Self {
        let mut sorted = vars.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), vars.len(), "site variables must be unique");
        FnSite { vars, f }
    }
}

/// An opaque likelihood is a single factor, adjacent to every variable.
impl<F: Fn(&[f64]) -> f64> EpSite for FnSite<F> {
    fn vars(&self) -> &[usize] {
        &self.vars
    }
    fn num_factors(&self) -> usize {
        1
    }
    fn factors_of(&self, _i: usize) -> &[u32] {
        &[0]
    }
    fn factor_log_pdf(&self, _f: usize, x: &[f64]) -> f64 {
        (self.f)(x)
    }
}

/// Floor budget and trigger threshold for the adaptive MCMC budget of
/// warm-started runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveBudget {
    /// Cavity movement (per [`GaussianMessage::moments_shift`], averaged
    /// over the site's variables) below which the floor budget applies.
    /// EP-with-MCMC churns individual weak variables by ~1 normalized unit
    /// per sweep even at a fixed point, so the useful threshold sits above
    /// that churn floor: a genuine window-to-window data jump moves many
    /// observed variables at once and pushes the mean past it.
    pub move_tol: f64,
    /// Single-variable jump threshold: if *any* of the site's variables
    /// moved past this (far above the churn tail), the site takes the full
    /// budget regardless of the diluted mean, and casts a "hot" vote
    /// toward one extra warm sweep past [`EpConfig::warm_max_sweeps`]. This
    /// is what catches a data phase change that only touches a few observed
    /// variables of a wide site.
    pub jump_tol: f64,
    /// Floor burn-in sweeps.
    pub burn_in: usize,
    /// Floor sample sweeps.
    pub samples: usize,
}

impl Default for AdaptiveBudget {
    fn default() -> Self {
        AdaptiveBudget {
            move_tol: 2.0,
            jump_tol: 40.0,
            burn_in: 25,
            samples: 60,
        }
    }
}

/// Configuration of the EP driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpConfig {
    /// Maximum outer sweeps over all sites (cold runs).
    pub max_sweeps: usize,
    /// Maximum outer sweeps for warm-started runs (after
    /// [`ExpectationPropagation::warm_start`]) — warm runs start near the
    /// fixed point, so 1–2 sweeps usually suffice. A warm run whose last
    /// sweep was "hot" (a quarter or more of its MCMC site updates saw a
    /// cavity jump past [`AdaptiveBudget::jump_tol`] or were selectively
    /// reset) runs one extra sweep, never beyond `max_sweeps`.
    pub warm_max_sweeps: usize,
    /// Damping factor η ∈ (0, 1] for site/global updates.
    pub damping: f64,
    /// Convergence tolerance: maximum |Δmean|/σ across variables per sweep.
    pub tol: f64,
    /// Per-variable site-message precision ceiling, as a multiple of the
    /// variable's prior precision. Noisy tilted-variance estimates can
    /// otherwise ratchet site precisions toward infinity across sweeps
    /// (and, warm-started, across windows): an under-measured variance
    /// tightens the cavity, which shrinks the next chain's proposals,
    /// which under-measures again. The ceiling bounds the feedback loop
    /// while leaving legitimately tight observations (a few orders above
    /// the prior precision) untouched.
    pub max_precision_ratio: f64,
    /// MCMC settings used for tilted-moment estimation (the full budget).
    pub mcmc: McmcConfig,
    /// Adaptive MCMC budget for warm-started runs: sites whose cavity
    /// barely moved since their previous update shrink to the floor
    /// budget. Cold runs always use the full budget.
    pub adaptive: AdaptiveBudget,
}

impl Default for EpConfig {
    fn default() -> Self {
        EpConfig {
            max_sweeps: 6,
            warm_max_sweeps: 6,
            damping: 0.6,
            tol: 0.02,
            max_precision_ratio: 1e6,
            mcmc: McmcConfig::default(),
            adaptive: AdaptiveBudget::default(),
        }
    }
}

/// Per-run scalar statistics — the allocation-free subset of [`EpResult`]
/// that [`ExpectationPropagation::run_farm`] returns on the steady-state
/// corrector path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpRunStats {
    /// Cumulative sweeps executed since engine creation / last
    /// [`ExpectationPropagation::cold_reset`] (grows across warm windows).
    pub sweeps_total: usize,
    /// Sweeps executed by this run only.
    pub sweeps_run: usize,
    /// Whether the tolerance was met before the sweep cap.
    pub converged: bool,
    /// Proposal-weighted mean MCMC acceptance rate across the MCMC-path
    /// site updates of this run; `0.0` (not NaN) when every site took the
    /// analytic path.
    pub mean_acceptance: f64,
    /// Site updates that estimated moments by MCMC.
    pub mcmc_site_updates: u64,
    /// Site updates that computed moments analytically (no sampling).
    pub analytic_site_updates: u64,
    /// Total MCMC samples collected across all site updates of this run.
    pub mcmc_samples: u64,
    /// Site updates whose tilted moments came back non-finite and were
    /// quarantined back to the prior instead of merged (the typed
    /// divergence counter — nonzero means an observation or chain
    /// diverged and was contained, not propagated).
    pub sites_quarantined: u64,
}

/// Result of running EP.
#[derive(Debug, Clone, PartialEq)]
pub struct EpResult {
    /// Posterior marginal per global variable.
    pub marginals: Vec<Gaussian>,
    /// Cumulative sweeps executed since engine creation (equals
    /// `sweeps_run` for a fresh or cold-reset engine; grows across warm
    /// windows).
    pub sweeps_total: usize,
    /// Sweeps executed by this run.
    pub sweeps_run: usize,
    /// Whether the tolerance was met before the sweep cap.
    pub converged: bool,
    /// Proposal-weighted mean MCMC acceptance rate over MCMC-path site
    /// updates only — analytic sites are excluded, so the value is NaN-free
    /// even when no sampling happened (`0.0` then).
    pub mean_acceptance: f64,
    /// Site updates that estimated moments by MCMC.
    pub mcmc_site_updates: u64,
    /// Site updates that computed moments analytically.
    pub analytic_site_updates: u64,
    /// Total MCMC samples collected across this run's site updates.
    pub mcmc_samples: u64,
    /// Site updates quarantined back to the prior on non-finite moments.
    pub sites_quarantined: u64,
}

impl EpResult {
    fn from_stats(marginals: Vec<Gaussian>, s: EpRunStats) -> Self {
        EpResult {
            marginals,
            sweeps_total: s.sweeps_total,
            sweeps_run: s.sweeps_run,
            converged: s.converged,
            mean_acceptance: s.mean_acceptance,
            mcmc_site_updates: s.mcmc_site_updates,
            analytic_site_updates: s.analytic_site_updates,
            mcmc_samples: s.mcmc_samples,
            sites_quarantined: s.sites_quarantined,
        }
    }
}

/// Cached farm state: the conflict-free sweep schedule plus the per-batch
/// site-update records and per-worker workspaces, built on first use and
/// reused across runs (and, for a warm-started corrector, across windows).
struct FarmCache {
    schedule: SweepSchedule,
    outs: Vec<Vec<SiteUpdate>>,
    workspaces: Vec<SiteWorkspace>,
}

/// Running aggregates of one run's site updates.
#[derive(Default)]
struct RunAccum {
    proposed: u64,
    accepted: u64,
    mcmc_updates: u64,
    analytic_updates: u64,
    mcmc_samples: u64,
    quarantined: u64,
}

impl RunAccum {
    fn absorb(&mut self, out: &SiteUpdate) {
        if out.quarantined {
            self.quarantined += 1;
            return;
        }
        if out.used_mcmc {
            self.mcmc_updates += 1;
            self.mcmc_samples += out.mcmc_samples as u64;
            self.proposed += out.proposed;
            self.accepted += out.accepted_n;
        } else {
            self.analytic_updates += 1;
        }
    }

    fn mean_acceptance(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposed as f64
        }
    }
}

/// One sweep's adaptive-budget vote tally — the sweep-escalation signal.
#[derive(Default)]
struct SweepVotes {
    mcmc_updates: usize,
    full_budget_votes: usize,
}

impl SweepVotes {
    fn absorb(&mut self, out: &SiteUpdate) {
        if out.used_mcmc {
            self.mcmc_updates += 1;
            if out.full_budget_vote {
                self.full_budget_votes += 1;
            }
        }
    }

    /// Whether at least [`WARM_ESCALATION`] of the sweep's MCMC site
    /// updates (and at least one) voted for the full budget.
    fn hot(&self) -> bool {
        self.full_budget_votes > 0
            && self.full_budget_votes as f64 >= WARM_ESCALATION * self.mcmc_updates as f64
    }
}

/// The EP driver: owns the prior, the sites, and the evolving global
/// approximation.
pub struct ExpectationPropagation {
    prior: Vec<Gaussian>,
    global: Vec<GaussianMessage>,
    sites: Vec<Box<dyn SiteObj>>,
    site_approx: Vec<Vec<GaussianMessage>>,
    /// Cavity snapshot from each site's previous update (empty until the
    /// site has been updated once) — the adaptive-budget movement baseline.
    site_prev_cavity: Vec<Vec<GaussianMessage>>,
    config: EpConfig,
    cache: Option<FarmCache>,
    total_sweeps: usize,
    /// Whether the current messages carry over from a previous window
    /// (set by [`ExpectationPropagation::warm_start`]).
    warm: bool,
}

impl std::fmt::Debug for ExpectationPropagation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpectationPropagation")
            .field("num_vars", &self.prior.len())
            .field("num_sites", &self.sites.len())
            .field("warm", &self.warm)
            .field("config", &self.config)
            .finish()
    }
}

impl ExpectationPropagation {
    /// Creates a driver with the given per-variable Gaussian prior.
    pub fn new(prior: Vec<Gaussian>, config: EpConfig) -> Self {
        let global = prior.iter().map(GaussianMessage::from_gaussian).collect();
        ExpectationPropagation {
            prior,
            global,
            sites: Vec::new(),
            site_approx: Vec::new(),
            site_prev_cavity: Vec::new(),
            config,
            cache: None,
            total_sweeps: 0,
            warm: false,
        }
    }

    /// Number of global variables.
    pub fn num_vars(&self) -> usize {
        self.prior.len()
    }

    /// Number of registered sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Whether the next run is warm-started (messages carried over from a
    /// previous window).
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// Registers a site (initialized with the vacuous approximation).
    ///
    /// Sites must be `Send + Sync` so the engine farm can update them from
    /// worker threads.
    ///
    /// # Panics
    ///
    /// Panics if the site references a variable out of range.
    pub fn add_site<S: EpSite + Send + Sync + 'static>(&mut self, site: S) {
        for &v in site.vars() {
            assert!(v < self.prior.len(), "site variable {v} out of range");
        }
        self.site_approx
            .push(vec![GaussianMessage::uniform(); site.vars().len()]);
        self.site_prev_cavity.push(Vec::new());
        self.sites.push(Box::new(site));
        // Topology changed: the cached schedule and update records are
        // stale.
        self.cache = None;
    }

    /// Typed mutable access to site `k` — the warm-start observation swap.
    ///
    /// Returns `None` if `k` is out of range or the site is not an `S`.
    /// The caller must only mutate per-window *data* (observed values,
    /// hints); the variable scope must stay fixed, since the cached sweep
    /// schedule depends on it.
    pub fn site_mut<S: EpSite + Send + Sync + 'static>(&mut self, k: usize) -> Option<&mut S> {
        self.sites.get_mut(k)?.as_any_mut().downcast_mut::<S>()
    }

    /// The current posterior marginal of variable `v` (prior if no update
    /// has touched it).
    pub fn marginal(&self, v: usize) -> Gaussian {
        self.global[v].to_gaussian().unwrap_or(self.prior[v])
    }

    /// The conflict-free batch schedule the engine farm would run — exposed
    /// for diagnostics and benchmarks.
    pub fn sweep_schedule(&self) -> SweepSchedule {
        SweepSchedule::for_scopes(self.prior.len(), self.sites.iter().map(|s| s.vars()))
    }

    /// Prepares the engine for the next window of a sliding-window
    /// sequence: re-seats the per-variable prior (length must match),
    /// **keeps** every site message, and rebuilds the global approximation
    /// as `prior · Π site messages`. Subsequent runs are warm: they start
    /// from the previous window's approximation, are capped at
    /// [`EpConfig::warm_max_sweeps`], and may shrink per-site MCMC budgets
    /// via [`EpConfig::adaptive`].
    ///
    /// Swap the new window's observations into the sites (via
    /// [`ExpectationPropagation::site_mut`]) before or after this call,
    /// but before the next run.
    ///
    /// # Panics
    ///
    /// Panics if `prior.len() != self.num_vars()`.
    pub fn warm_start(&mut self, prior: &[Gaussian]) {
        assert_eq!(prior.len(), self.prior.len(), "prior length mismatch");
        self.prior.copy_from_slice(prior);
        self.rebuild_global();
        self.warm = true;
    }

    /// Resets a single site's statistical state: its messages become
    /// vacuous and its cavity history clears, so its next update runs with
    /// the full MCMC budget (and votes for sweep escalation) while every
    /// other site stays warm. This is the *selective* restart a
    /// sliding-window corrector applies to the slices of a detected data
    /// jump — the stale, confidently-wrong messages about the jumped
    /// window are discarded without paying a whole-model cold start.
    ///
    /// Call before [`ExpectationPropagation::warm_start`] (which rebuilds
    /// the global approximation from the surviving messages).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn reset_site(&mut self, k: usize) {
        for m in &mut self.site_approx[k] {
            *m = GaussianMessage::uniform();
        }
        self.site_prev_cavity[k].clear();
    }

    /// Discards all statistical state — site messages become vacuous, the
    /// global approximation returns to the (new) prior, cavity history and
    /// the sweep counter reset — while keeping the cached sweep schedule
    /// and buffers. The next run is cold (full budgets), but pays no
    /// topology or allocation cost: this is the structural-reuse path the
    /// cold corrector mode uses.
    ///
    /// # Panics
    ///
    /// Panics if `prior.len() != self.num_vars()`.
    pub fn cold_reset(&mut self, prior: &[Gaussian]) {
        assert_eq!(prior.len(), self.prior.len(), "prior length mismatch");
        self.prior.copy_from_slice(prior);
        for msgs in &mut self.site_approx {
            for m in msgs {
                *m = GaussianMessage::uniform();
            }
        }
        for pc in &mut self.site_prev_cavity {
            pc.clear();
        }
        for (g, p) in self.global.iter_mut().zip(&self.prior) {
            *g = GaussianMessage::from_gaussian(p);
        }
        self.total_sweeps = 0;
        self.warm = false;
    }

    /// Rebuilds `global[v] = prior[v] · Π site messages touching v`.
    fn rebuild_global(&mut self) {
        for (g, p) in self.global.iter_mut().zip(&self.prior) {
            *g = GaussianMessage::from_gaussian(p);
        }
        for (site, approx) in self.sites.iter().zip(&self.site_approx) {
            for (&v, m) in site.vars().iter().zip(approx) {
                self.global[v] = self.global[v].mul(m);
            }
        }
    }

    /// Runs EP on the engine farm: conflict-free batches of site updates
    /// computed concurrently on up to `threads` workers, merged
    /// deterministically.
    ///
    /// The result is **bit-identical for any `threads ≥ 1`** given the same
    /// `seed` — see the module docs for why. `threads` is clamped to at
    /// least 1 and at most the largest batch size (more workers than sites
    /// in a batch cannot help).
    pub fn run_parallel(&mut self, seed: u64, threads: usize) -> EpResult {
        let stats = self.run_farm(seed, threads);
        EpResult::from_stats(self.collect_marginals(), stats)
    }

    /// [`ExpectationPropagation::run_parallel`] without materializing the
    /// marginal vector — the steady-state warm-start path, allocation-free
    /// once the engine caches are grown. Read marginals back through
    /// [`ExpectationPropagation::marginal`].
    pub fn run_farm(&mut self, seed: u64, threads: usize) -> EpRunStats {
        self.ensure_cache();
        let mut cache = self.cache.take().expect("cache just ensured");
        let threads = threads.clamp(1, cache.schedule.max_batch_len().max(1));
        while cache.workspaces.len() < threads {
            cache.workspaces.push(SiteWorkspace::new());
        }
        let sampler = McmcSampler::new(self.config.mcmc);

        let mut sweeps = 0;
        let mut converged = false;
        let mut accum = RunAccum::default();
        let mut hot = false;

        while self.keep_sweeping(sweeps, hot) {
            let sweep_idx = self.total_sweeps + sweeps;
            sweeps += 1;
            let mut max_shift = 0.0f64;
            let mut votes = SweepVotes::default();
            for (b, batch_out) in cache.outs.iter_mut().enumerate() {
                let batch = cache.schedule.batch(b);
                let chunk = batch.len().div_ceil(threads).max(1);
                {
                    let sites = &self.sites;
                    let site_approx = &self.site_approx;
                    let site_prev_cavity = &self.site_prev_cavity;
                    let global = &self.global;
                    let prior = &self.prior;
                    let config = &self.config;
                    let warm = self.warm;
                    let hot_prev = hot;
                    let sampler = &sampler;
                    let mut work = batch
                        .chunks(chunk)
                        .zip(batch_out.chunks_mut(chunk))
                        .zip(cache.workspaces.iter_mut());
                    if threads == 1 {
                        // Inline on the driver thread: same code path, no
                        // spawn overhead (and trivially the same results —
                        // workers never observe each other's writes).
                        for ((site_chunk, out_chunk), ws) in work {
                            farm_worker(
                                sites,
                                site_approx,
                                site_prev_cavity,
                                global,
                                prior,
                                config,
                                warm,
                                hot_prev,
                                sampler,
                                seed,
                                sweep_idx,
                                site_chunk,
                                out_chunk,
                                ws,
                            );
                        }
                    } else {
                        std::thread::scope(|scope| {
                            for ((site_chunk, out_chunk), ws) in &mut work {
                                scope.spawn(move || {
                                    farm_worker(
                                        sites,
                                        site_approx,
                                        site_prev_cavity,
                                        global,
                                        prior,
                                        config,
                                        warm,
                                        hot_prev,
                                        sampler,
                                        seed,
                                        sweep_idx,
                                        site_chunk,
                                        out_chunk,
                                        ws,
                                    );
                                });
                            }
                        });
                    }
                }
                // Deterministic merge: ascending site order within the
                // batch, regardless of which worker computed what.
                for (&k, out) in batch.iter().zip(batch_out.iter()) {
                    let shift = self.apply_site_update(k as usize, out);
                    max_shift = max_shift.max(shift);
                    accum.absorb(out);
                    votes.absorb(out);
                }
            }
            hot = votes.hot();
            if max_shift <= self.config.tol {
                converged = true;
                break;
            }
        }
        self.total_sweeps += sweeps;
        self.cache = Some(cache);

        self.stats(sweeps, converged, &accum)
    }

    /// Whether another sweep should run, given how many already did and
    /// whether the previous sweep was "hot" (enough adaptive-budget votes
    /// for the full budget — the data-jump signal). Cold runs sweep to
    /// `max_sweeps`; warm runs stop at `warm_max_sweeps` unless hot, in
    /// which case they escalate by one extra sweep (capped by the cold
    /// budget) — reset sites re-fit in their first full-budget update, so
    /// one polishing sweep recovers most of the cold path's refinement at
    /// a fraction of its cost.
    fn keep_sweeping(&self, sweeps: usize, hot: bool) -> bool {
        if !self.warm {
            return sweeps < self.config.max_sweeps;
        }
        if sweeps < self.config.warm_max_sweeps {
            return true;
        }
        hot && sweeps < (self.config.warm_max_sweeps + 1).min(self.config.max_sweeps)
    }

    /// Builds the schedule / update records / workspaces if missing.
    fn ensure_cache(&mut self) {
        if self.cache.is_some() {
            return;
        }
        let schedule = self.sweep_schedule();
        let outs: Vec<Vec<SiteUpdate>> = schedule
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|&k| {
                        let mut u = SiteUpdate::default();
                        u.prepare(self.sites[k as usize].as_ref());
                        u
                    })
                    .collect()
            })
            .collect();
        self.cache = Some(FarmCache {
            schedule,
            outs,
            workspaces: Vec::new(),
        });
    }

    /// Merges one staged site update into the global approximation.
    /// Returns the largest normalized posterior-mean shift it caused.
    fn apply_site_update(&mut self, k: usize, out: &SiteUpdate) -> f64 {
        if out.quarantined {
            return self.quarantine_site(k, out);
        }
        let mut max_shift = 0.0f64;
        for (j, &v) in out.scope.iter().enumerate() {
            if !out.accepted[j] {
                continue;
            }
            let g_old = self.global[v].to_gaussian().unwrap_or(self.prior[v]);
            if let Some(g_new) = out.global_new[j].to_gaussian() {
                let shift = (g_new.mean - g_old.mean).abs() / g_old.std_dev().max(1e-12);
                max_shift = max_shift.max(shift);
            }
            self.global[v] = out.global_new[j];
            self.site_approx[k][j] = out.damped[j];
        }
        // Record the cavity this update saw — the movement baseline the
        // adaptive budget compares against next time this site updates.
        let prev = &mut self.site_prev_cavity[k];
        prev.clear();
        prev.extend_from_slice(&out.cavity);
        max_shift
    }

    /// Removes a diverged site's contribution from the global
    /// approximation and resets its messages to vacuous — the factor-graph
    /// equivalent of dropping the poisoned observation back to the prior.
    /// Its cavity history clears too, so the site re-fits with the full
    /// budget on its next (hopefully finite) update. Returns the shift the
    /// stripping caused so convergence accounting stays honest.
    fn quarantine_site(&mut self, k: usize, out: &SiteUpdate) -> f64 {
        let mut max_shift = 0.0f64;
        for (j, &v) in out.scope.iter().enumerate() {
            let g_old = self.global[v].to_gaussian().unwrap_or(self.prior[v]);
            let stripped = self.global[v].div(&self.site_approx[k][j]);
            self.global[v] = if stripped.is_proper() {
                stripped
            } else {
                GaussianMessage::from_gaussian(&self.prior[v])
            };
            if let Some(g_new) = self.global[v].to_gaussian() {
                let shift = (g_new.mean - g_old.mean).abs() / g_old.std_dev().max(1e-12);
                max_shift = max_shift.max(shift);
            }
            self.site_approx[k][j] = GaussianMessage::uniform();
        }
        self.site_prev_cavity[k].clear();
        max_shift
    }

    fn collect_marginals(&self) -> Vec<Gaussian> {
        (0..self.prior.len()).map(|v| self.marginal(v)).collect()
    }

    fn stats(&self, sweeps: usize, converged: bool, accum: &RunAccum) -> EpRunStats {
        EpRunStats {
            sweeps_total: self.total_sweeps,
            sweeps_run: sweeps,
            converged,
            mean_acceptance: accum.mean_acceptance(),
            mcmc_site_updates: accum.mcmc_updates,
            analytic_site_updates: accum.analytic_updates,
            mcmc_samples: accum.mcmc_samples,
            sites_quarantined: accum.quarantined,
        }
    }
}

/// One worker's share of a batch: compute site updates for `site_chunk`
/// into `out_chunk`, each site on its own counter-based RNG stream.
#[allow(clippy::too_many_arguments)]
fn farm_worker(
    sites: &[Box<dyn SiteObj>],
    site_approx: &[Vec<GaussianMessage>],
    site_prev_cavity: &[Vec<GaussianMessage>],
    global: &[GaussianMessage],
    prior: &[Gaussian],
    config: &EpConfig,
    warm: bool,
    hot_prev: bool,
    sampler: &McmcSampler,
    seed: u64,
    sweep: usize,
    site_chunk: &[u32],
    out_chunk: &mut [SiteUpdate],
    ws: &mut SiteWorkspace,
) {
    for (&k, out) in site_chunk.iter().zip(out_chunk.iter_mut()) {
        let k = k as usize;
        let mut rng = SiteRng::for_site(seed, k, sweep);
        out.prepare(sites[k].as_ref());
        compute_site_update(
            sites[k].as_ref(),
            &site_approx[k],
            &site_prev_cavity[k],
            global,
            prior,
            config,
            warm,
            hot_prev,
            sampler,
            &mut rng,
            ws,
            out,
        );
    }
}

/// One site update (lines 3–7 of Alg. 1), staged into `out` without
/// touching shared state — the pure-compute half the engine farm runs in
/// parallel. `out` must already be [`SiteUpdate::prepare`]d for `site`.
#[allow(clippy::too_many_arguments)]
fn compute_site_update(
    site: &dyn EpSite,
    approx_k: &[GaussianMessage],
    prev_cavity_k: &[GaussianMessage],
    global: &[GaussianMessage],
    prior: &[Gaussian],
    config: &EpConfig,
    warm: bool,
    hot_prev: bool,
    sampler: &McmcSampler,
    rng: &mut SiteRng,
    ws: &mut SiteWorkspace,
    out: &mut SiteUpdate,
) {
    let SiteWorkspace {
        cavity_msgs,
        cavity,
        cavity_pdf,
        cavity_current,
        factors,
        init,
        scales,
        scratch,
        analytic,
    } = ws;
    let scope = site.vars();

    // Line 3: cavity distribution g₋ₖ = g / gₖ, with a widened-prior
    // fallback when the quotient is improper.
    cavity_msgs.clear();
    cavity.clear();
    for (j, &v) in scope.iter().enumerate() {
        let msg = global[v].div(&approx_k[j]);
        let gauss = msg.to_gaussian().unwrap_or_else(|| {
            let p = prior[v];
            let mean = global[v].to_gaussian().unwrap_or(p).mean;
            Gaussian::new(mean, p.var * 100.0)
        });
        cavity_msgs.push(GaussianMessage::from_gaussian(&gauss));
        cavity.push(gauss);
    }
    // Snapshot the cavity for the engine's per-site movement history.
    out.cavity.copy_from_slice(cavity_msgs);

    // Line 4: tilted moments — in closed form for Gaussian-linear sites,
    // by MCMC on Pr(yₖ|θ)·g₋ₖ(θ) otherwise.
    let analytic_ok = site.moment_strategy() == MomentStrategy::Analytic
        && site.analytic_moments(cavity, analytic);
    out.full_budget_vote = false;
    if analytic_ok {
        out.used_mcmc = false;
        out.mcmc_samples = 0;
        out.proposed = 0;
        out.accepted_n = 0;
        out.acceptance = 0.0;
    } else {
        init.clear();
        scales.clear();
        for (j, g) in cavity.iter().enumerate() {
            init.push(site.init_hint(j).unwrap_or(g.mean));
            scales.push(match site.scale_hint(j) {
                Some(h) => h.min(g.std_dev()),
                None => g.std_dev(),
            });
        }
        // Adaptive budget: a warm site whose cavity barely moved since its
        // previous update tracks the posterior with the floor budget; cold
        // starts (or a site with no history) keep the full budget, and a
        // sweep following a "hot" one (data jump in flight) runs every
        // site at the full budget — cold-level refinement for the
        // transient.
        let ab = &config.adaptive;
        let (burn_in, samples) = match (warm, prev_cavity_k.is_empty()) {
            (true, false) => {
                // Two movement statistics over the site's variables:
                // * the mean — EP-with-MCMC churns individual weak
                //   variables by ~1 unit per sweep even at a fixed point,
                //   so the aggregate separates "same data, sampling noise"
                //   from "broad data movement";
                // * the max against a much higher bar (`jump_tol`) — a
                //   phase change that only touches a few observed
                //   variables of a wide site is invisible to the diluted
                //   mean but blows through the churn tail on those
                //   variables.
                let mut mean_shift = 0.0f64;
                let mut max_shift = 0.0f64;
                for (p, c) in prev_cavity_k.iter().zip(cavity_msgs.iter()) {
                    let s = p.moments_shift(c);
                    mean_shift += s;
                    max_shift = max_shift.max(s);
                }
                mean_shift /= prev_cavity_k.len().max(1) as f64;
                // Single-variable jump: a vote toward extending the warm
                // run past its sweep cap (and always the full budget).
                out.full_budget_vote = max_shift > ab.jump_tol;
                // A sweep following a "hot" one keeps everything at full
                // budget only if this site itself is still moving; quiet
                // sites stay floored even mid-transient.
                if out.full_budget_vote
                    || mean_shift >= ab.move_tol
                    || (hot_prev && mean_shift >= ab.move_tol * 0.5)
                {
                    (config.mcmc.burn_in, config.mcmc.samples)
                } else {
                    (ab.burn_in, ab.samples)
                }
            }
            (true, true) => {
                // A site with no cavity history inside a warm run was
                // selectively reset (a detected data jump): full budget,
                // and a vote toward extending the run.
                out.full_budget_vote = true;
                (config.mcmc.burn_in, config.mcmc.samples)
            }
            (false, _) => (config.mcmc.burn_in, config.mcmc.samples),
        };
        cavity_pdf.clear();
        cavity_pdf.extend(cavity.iter().map(GaussianLogPdf::new));
        let mut target = TiltedTarget {
            site,
            cavity: cavity_pdf,
            cavity_current,
            cavity_proposed: 0.0,
            factors,
        };
        sampler.run_budgeted(&mut target, init, scales, rng, scratch, burn_in, samples);
        out.used_mcmc = true;
        out.mcmc_samples = scratch.samples_run();
        out.proposed = scratch.proposed();
        out.accepted_n = scratch.accepted();
        out.acceptance = scratch.acceptance();
    }
    let (means, vars): (&[f64], &[f64]) = if analytic_ok {
        (analytic.mean(), analytic.var())
    } else {
        (scratch.mean(), scratch.var())
    };

    // Divergence guard: a poisoned observation or a diverged MCMC chain
    // yields NaN/Inf tilted moments. `vars[j].max(MIN_VAR)` would silently
    // floor a NaN variance (f64::max ignores NaN) and a NaN *mean* passes
    // every variance check — either way the poison would enter the global
    // approximation and spread through every overlapping site on the next
    // sweep. Quarantine instead: stage no update and tell the driver to
    // strip this site's existing contribution back to the prior.
    if scope
        .iter()
        .enumerate()
        .any(|(j, _)| !means[j].is_finite() || !vars[j].is_finite())
    {
        out.quarantined = true;
        for a in out.accepted.iter_mut() {
            *a = false;
        }
        return;
    }

    // Lines 5–7: local moment match, damped site update, staged global
    // update.
    for (j, &v) in scope.iter().enumerate() {
        let tilted = GaussianMessage::from_moments(means[j], vars[j].max(MIN_VAR));
        let prec_cap = config.max_precision_ratio / prior[v].var;
        let new_site = tilted.div(&cavity_msgs[j]).capped_precision(prec_cap);
        let damped = approx_k[j].damped_toward(&new_site, config.damping);
        let candidate = global[v].div(&approx_k[j]).mul(&damped);
        if candidate.is_proper() {
            out.accepted[j] = true;
            out.global_new[j] = candidate;
            out.damped[j] = damped;
        } else {
            out.accepted[j] = false;
        }
    }
}

/// The tilted distribution of one site: likelihood × cavity, with every
/// term's log density at the chain's current state cached.
///
/// A proposal evaluates the moved variable's cavity term and adjacent
/// factors at the proposed value only; the current side comes from the
/// caches, which hold exactly what a fresh evaluation would return, so each
/// delta is bit-identical to recomputing both sides.
struct TiltedTarget<'a> {
    site: &'a dyn EpSite,
    /// Cavity densities, normalizers computed at cavity formation.
    cavity: &'a [GaussianLogPdf],
    /// `cavity[i]` at the chain's current `x[i]`.
    cavity_current: &'a mut Vec<f64>,
    /// The moved variable's cavity term at the last proposal.
    cavity_proposed: f64,
    factors: &'a mut FactorCache,
}

impl Target for TiltedTarget<'_> {
    fn dim(&self) -> usize {
        self.cavity.len()
    }

    fn log_density(&self, x: &[f64]) -> f64 {
        let prior: f64 = x.iter().zip(self.cavity).map(|(xi, g)| g.eval(*xi)).sum();
        prior + self.site.log_likelihood(x)
    }

    fn start(&mut self, x: &[f64]) {
        self.cavity_current.clear();
        self.cavity_current
            .extend(x.iter().zip(self.cavity).map(|(xi, g)| g.eval(*xi)));
        self.factors.start(self.site, x);
    }

    fn log_density_delta(&mut self, x: &mut [f64], i: usize, new: f64) -> f64 {
        self.cavity_proposed = self.cavity[i].eval(new);
        let d_prior = self.cavity_proposed - self.cavity_current[i];
        d_prior + self.factors.delta(self.site, x, i, new)
    }

    fn accept(&mut self, i: usize) {
        self.cavity_current[i] = self.cavity_proposed;
        self.factors.accept(self.site, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::FactorSite;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Default seed for the tests below.
    const SEED: u64 = 12345;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(SEED)
    }

    #[test]
    fn gaussian_observation_matches_analytic_posterior() {
        // Prior N(0, 4); observation x ~ N(6, 1). Posterior: N(4.8, 0.8).
        let mut ep =
            ExpectationPropagation::new(vec![Gaussian::new(0.0, 4.0)], EpConfig::default());
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(6.0, 1.0).log_pdf(x[0])
        }));
        let r = ep.run_parallel(SEED, 1);
        assert!(
            (r.marginals[0].mean - 4.8).abs() < 0.25,
            "mean {}",
            r.marginals[0].mean
        );
        assert!(
            (r.marginals[0].var - 0.8).abs() < 0.4,
            "var {}",
            r.marginals[0].var
        );
    }

    #[test]
    fn non_finite_observation_is_quarantined_not_propagated() {
        // A Gaussian-linear site whose observation is swapped to NaN (the
        // poisoned-sample path): its analytic solve yields NaN moments.
        // The guard must quarantine the site back to prior — every
        // marginal stays finite and the divergence counter records it.
        let prior = vec![Gaussian::new(2.0, 4.0), Gaussian::new(2.0, 4.0)];
        let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
        let mut poisoned = FactorSite::builder(vec![0])
            .gaussian_linear(&[0], &[1.0], 6.0, 1.0)
            .build();
        poisoned.set_linear_obs(0, f64::NAN);
        ep.add_site(poisoned);
        // A healthy coupled site that would inhale the poison through the
        // shared variable if the quarantine failed.
        ep.add_site(
            FactorSite::builder(vec![0, 1])
                .gaussian_linear(&[0, 1], &[1.0, 1.0], 8.0, 0.5)
                .build(),
        );
        let r = ep.run_parallel(99, 2);
        assert!(r.sites_quarantined > 0, "divergence counter must record");
        for (v, g) in r.marginals.iter().enumerate() {
            assert!(
                g.mean.is_finite() && g.var.is_finite() && g.var > 0.0,
                "marginal {v} poisoned: {g:?}"
            );
        }
        // The healthy site's information still flowed: x0 + x1 ~ N(8, .5)
        // on N(2,4) priors pulls both means toward 4.
        assert!((r.marginals[1].mean - 4.0).abs() < 1.0);
    }

    #[test]
    fn lone_quarantined_site_leaves_the_prior() {
        let mut ep =
            ExpectationPropagation::new(vec![Gaussian::new(0.0, 4.0)], EpConfig::default());
        let mut poisoned = FactorSite::builder(vec![0])
            .gaussian_linear(&[0], &[1.0], 6.0, 1.0)
            .build();
        poisoned.set_linear_obs(0, f64::INFINITY);
        ep.add_site(poisoned);
        let r = ep.run_parallel(SEED, 1);
        assert!(r.sites_quarantined > 0);
        // With its only site quarantined, the posterior is the prior.
        assert!((r.marginals[0].mean - 0.0).abs() < 1e-9);
        assert!((r.marginals[0].var - 4.0).abs() < 1e-9);
    }

    #[test]
    fn two_sites_combine_like_a_product() {
        // Two unit-variance observations at 0 and 10 on a flat-ish prior:
        // posterior mean ≈ 5.
        let mut ep =
            ExpectationPropagation::new(vec![Gaussian::new(5.0, 1000.0)], EpConfig::default());
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(0.0, 1.0).log_pdf(x[0])
        }));
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(10.0, 1.0).log_pdf(x[0])
        }));
        let r = ep.run_parallel(SEED, 1);
        assert!(
            (r.marginals[0].mean - 5.0).abs() < 0.4,
            "mean {}",
            r.marginals[0].mean
        );
        // Posterior variance ≈ 0.5 (product of two unit-variance terms).
        assert!(r.marginals[0].var < 1.5);
    }

    #[test]
    fn linear_constraint_transfers_information() {
        // x0 + x1 ≈ 10 (tight), x0 observed near 3 -> x1 ≈ 7 with
        // uncertainty larger than x0's, through the engine farm.
        let mut ep = ExpectationPropagation::new(
            vec![Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)],
            EpConfig::default(),
        );
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(3.0, 0.01).log_pdf(x[0])
        }));
        ep.add_site(FnSite::new(vec![0, 1], |x: &[f64]| {
            Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
        }));
        let r = ep.run_parallel(2024, 2);
        assert!(
            (r.marginals[0].mean - 3.0).abs() < 0.3,
            "x0 {}",
            r.marginals[0].mean
        );
        assert!(
            (r.marginals[1].mean - 7.0).abs() < 0.5,
            "x1 {}",
            r.marginals[1].mean
        );
        assert!(r.mean_acceptance > 0.05 && r.mean_acceptance < 0.95);
        assert_eq!(r.analytic_site_updates, 0);
        assert!(r.mcmc_site_updates > 0);
        assert!(r.mcmc_samples > 0);
    }

    #[test]
    fn chained_constraints_propagate_transitively() {
        // x0 observed; x0 + x1 = 10; x1 + x2 = 12 -> x2 ≈ x0 + 2.
        let prior = vec![
            Gaussian::new(4.0, 50.0),
            Gaussian::new(4.0, 50.0),
            Gaussian::new(4.0, 50.0),
        ];
        let cfg = EpConfig {
            max_sweeps: 10,
            ..EpConfig::default()
        };
        let mut ep = ExpectationPropagation::new(prior, cfg);
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(4.0, 0.01).log_pdf(x[0])
        }));
        ep.add_site(FnSite::new(vec![0, 1], |x: &[f64]| {
            Gaussian::new(0.0, 0.02).log_pdf(x[0] + x[1] - 10.0)
        }));
        ep.add_site(FnSite::new(vec![1, 2], |x: &[f64]| {
            Gaussian::new(0.0, 0.02).log_pdf(x[0] + x[1] - 12.0)
        }));
        let r = ep.run_parallel(SEED, 1);
        assert!(
            (r.marginals[2].mean - 6.0).abs() < 0.7,
            "x2 {}",
            r.marginals[2].mean
        );
    }

    #[test]
    fn untouched_variable_keeps_prior() {
        let mut ep = ExpectationPropagation::new(
            vec![Gaussian::new(1.0, 2.0), Gaussian::new(9.0, 3.0)],
            EpConfig::default(),
        );
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(1.0, 1.0).log_pdf(x[0])
        }));
        let r = ep.run_parallel(SEED, 1);
        assert_eq!(r.marginals[1].mean, 9.0);
        assert_eq!(r.marginals[1].var, 3.0);
    }

    #[test]
    fn converges_and_reports_acceptance() {
        // Extra MCMC samples shrink tilted-moment noise so the sweep shift
        // reliably drops below tol (the default budget converges for most
        // seeds but is a coin flip near the tolerance boundary).
        let mut ep = ExpectationPropagation::new(
            vec![Gaussian::new(0.0, 10.0)],
            EpConfig {
                max_sweeps: 30,
                mcmc: McmcConfig {
                    samples: 1200,
                    ..McmcConfig::default()
                },
                ..EpConfig::default()
            },
        );
        ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
            Gaussian::new(2.0, 0.5).log_pdf(x[0])
        }));
        let r = ep.run_parallel(SEED, 1);
        assert!(r.converged, "should converge in 30 sweeps");
        assert!(r.sweeps_run < 30);
        assert_eq!(
            r.sweeps_total, r.sweeps_run,
            "fresh engine: cumulative == run"
        );
        assert!(r.mean_acceptance > 0.05 && r.mean_acceptance < 0.95);
    }

    #[test]
    fn analytic_sites_bypass_mcmc_entirely() {
        // Two Gaussian-linear sites: the whole run must be sample-free and
        // match the exact posterior (EP is exact for Gaussian models).
        let mut ep = ExpectationPropagation::new(
            vec![Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)],
            EpConfig {
                max_sweeps: 40,
                tol: 1e-10,
                damping: 0.8,
                ..EpConfig::default()
            },
        );
        ep.add_site(
            FactorSite::builder(vec![0])
                .gaussian_linear(&[0], &[1.0], 3.0, 0.01)
                .build(),
        );
        ep.add_site(
            FactorSite::builder(vec![0, 1])
                .gaussian_linear(&[0, 1], &[1.0, 1.0], 10.0, 0.01)
                .build(),
        );
        let r = ep.run_parallel(7, 2);
        assert_eq!(r.mcmc_site_updates, 0, "no MCMC on the analytic path");
        assert_eq!(r.mcmc_samples, 0);
        assert!(r.analytic_site_updates > 0);
        assert_eq!(r.mean_acceptance, 0.0, "NaN-free when nothing sampled");
        // Exact posterior (the wide prior pulls ~4e-4 off the observations).
        assert!(
            (r.marginals[0].mean - 3.0).abs() < 0.01,
            "x0 {}",
            r.marginals[0].mean
        );
        assert!(
            (r.marginals[1].mean - 7.0).abs() < 0.01,
            "x1 {}",
            r.marginals[1].mean
        );
    }

    #[test]
    fn mixed_sites_report_acceptance_over_mcmc_only() {
        let mut ep = ExpectationPropagation::new(
            vec![Gaussian::new(0.0, 10.0), Gaussian::new(0.0, 10.0)],
            EpConfig::default(),
        );
        ep.add_site(
            FactorSite::builder(vec![0])
                .gaussian_linear(&[0], &[1.0], 2.0, 0.5)
                .build(),
        );
        ep.add_site(FnSite::new(vec![1], |x: &[f64]| {
            Gaussian::new(-1.0, 0.5).log_pdf(x[0])
        }));
        let r = ep.run_parallel(3, 1);
        assert!(r.analytic_site_updates > 0);
        assert!(r.mcmc_site_updates > 0);
        // Aggregated over the MCMC site only — still a real rate.
        assert!(r.mean_acceptance > 0.05 && r.mean_acceptance < 0.95);
    }

    #[test]
    fn warm_start_keeps_messages_and_shrinks_the_run() {
        let prior = vec![Gaussian::new(0.0, 25.0)];
        let cfg = EpConfig {
            max_sweeps: 30,
            warm_max_sweeps: 30,
            tol: 1e-9,
            damping: 0.9,
            ..EpConfig::default()
        };
        let mut ep = ExpectationPropagation::new(prior.clone(), cfg);
        ep.add_site(
            FactorSite::builder(vec![0])
                .gaussian_linear(&[0], &[1.0], 4.0, 1.0)
                .build(),
        );
        let cold = ep.run_parallel(11, 1);
        assert!(cold.converged);
        // Swap the observation slightly and warm-start.
        ep.site_mut::<FactorSite>(0).unwrap().set_linear_obs(0, 4.1);
        ep.warm_start(&prior);
        assert!(ep.is_warm());
        let warm = ep.run_parallel(12, 1);
        assert!(warm.converged);
        assert!(
            warm.sweeps_run <= cold.sweeps_run,
            "warm {} vs cold {} sweeps",
            warm.sweeps_run,
            cold.sweeps_run
        );
        assert!(
            warm.sweeps_total > warm.sweeps_run,
            "cumulative includes history"
        );
        // Exact posterior of N(0,25) with N(4.1,1): mean 4.1·(25/26).
        let expect = 4.1 * 25.0 / 26.0;
        assert!(
            (warm.marginals[0].mean - expect).abs() < 1e-4,
            "mean {} vs {expect}",
            warm.marginals[0].mean
        );
    }

    #[test]
    fn tilted_target_deltas_match_uncached_evaluation_bitwise() {
        // A three-variable chain site, proposals accepted at random: every
        // cached delta must equal recomputing the cavity term and the
        // adjacent factors on both sides, bit for bit.
        let site = FactorSite::builder(vec![0, 1, 2])
            .factor(&[0], |x: &[f64]| Gaussian::new(1.0, 0.1).log_pdf(x[0]))
            .factor(&[0, 1], |x: &[f64]| {
                Gaussian::new(0.0, 0.2).log_pdf(x[1] - x[0])
            })
            .gaussian_linear(&[1, 2], &[1.0, -2.0], 0.5, 0.3)
            .poisson(2, 7.0, 2.0)
            .build();
        let cavity = [
            Gaussian::new(0.5, 2.0),
            Gaussian::new(-1.0, 0.5),
            Gaussian::new(3.0, 9.0),
        ];
        let cavity_pdf: Vec<GaussianLogPdf> = cavity.iter().map(GaussianLogPdf::new).collect();
        let (mut current, mut factors) = (Vec::new(), FactorCache::new());
        let mut target = TiltedTarget {
            site: &site,
            cavity: &cavity_pdf,
            cavity_current: &mut current,
            cavity_proposed: 0.0,
            factors: &mut factors,
        };
        let mut rng = rng();
        let mut x = vec![0.7, -0.4, 2.5];
        target.start(&x);
        for step in 0..500 {
            let i = rng.gen_range(0..3usize);
            let new = x[i] + rng.gen::<f64>() - 0.5;
            let old = x[i];
            let mut before = 0.0;
            for &f in site.factors_of(i) {
                before += site.factor_log_pdf(f as usize, &x);
            }
            x[i] = new;
            let mut after = 0.0;
            for &f in site.factors_of(i) {
                after += site.factor_log_pdf(f as usize, &x);
            }
            x[i] = old;
            let want = (cavity[i].log_pdf(new) - cavity[i].log_pdf(old)) + (after - before);
            let got = target.log_density_delta(&mut x, i, new);
            assert_eq!(got.to_bits(), want.to_bits(), "step {step}");
            if rng.gen::<bool>() {
                x[i] = new;
                target.accept(i);
            }
        }
    }

    #[test]
    fn cold_reset_matches_fresh_engine_bitwise() {
        let prior = vec![Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)];
        let build = |ep: &mut ExpectationPropagation| {
            ep.add_site(FnSite::new(vec![0], |x: &[f64]| {
                Gaussian::new(3.0, 0.01).log_pdf(x[0])
            }));
            ep.add_site(FnSite::new(vec![0, 1], |x: &[f64]| {
                Gaussian::new(0.0, 0.01).log_pdf(x[0] + x[1] - 10.0)
            }));
        };
        let mut fresh = ExpectationPropagation::new(prior.clone(), EpConfig::default());
        build(&mut fresh);
        let want = fresh.run_parallel(42, 1);

        let mut reused = ExpectationPropagation::new(prior.clone(), EpConfig::default());
        build(&mut reused);
        let _ = reused.run_parallel(7, 1); // dirty the state
        reused.cold_reset(&prior);
        let got = reused.run_parallel(42, 1);
        assert_eq!(want.sweeps_total, got.sweeps_total);
        for (a, b) in want.marginals.iter().zip(&got.marginals) {
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.var.to_bits(), b.var.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "site variable 3 out of range")]
    fn rejects_out_of_range_site() {
        let mut ep =
            ExpectationPropagation::new(vec![Gaussian::new(0.0, 1.0)], EpConfig::default());
        ep.add_site(FnSite::new(vec![3], |_: &[f64]| 0.0));
    }

    #[test]
    #[should_panic(expected = "site variables must be unique")]
    fn rejects_duplicate_site_vars() {
        FnSite::new(vec![0, 0], |_: &[f64]| 0.0);
    }
}
