//! Expectation Propagation over partitioned likelihoods (Alg. 1 of the
//! paper), executed by a software "EP engine farm".
//!
//! The target density factorizes as `f(θ) = Π fₖ(θ)` where each `fₖ` is the
//! likelihood of the data captured in one partition — for BayesPerf, one
//! scheduled HPC configuration / time slice. EP maintains a global Gaussian
//! mean-field approximation `g(θ) = prior · Π gₖ(θ)` and iterates:
//!
//! 1. cavity: `g₋ₖ ∝ g / gₖ`
//! 2. tilted: `g\ₖ ∝ Pr(yₖ|θ) · g₋ₖ` — its moments computed by the site
//!    ([`EpSite::analytic_moments`])
//! 3. local update: moment-match a Gaussian to the tilted distribution
//! 4. global update: `g ← g · Δgₖ` with damping
//!
//! The paper estimates step 2's moments by MCMC. Here every site solves
//! them deterministically: a Gaussian-linear solve, made iterative (IRLS)
//! for factors that are not Gaussian-linear — Laplace propagation inside
//! EP (see [`AnalyticScratch`]). The result has no sampling noise, so a
//! site update is a pure function of the cavity and the site's data.
//!
//! # The batched-parallel sweep schedule
//!
//! Sites only interact through the global approximation — the parallelism
//! the BayesPerf accelerator's EP engines exploit (§5). The software farm
//! ([`ExpectationPropagation::run_farm`]) realizes it in two steps:
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
//!    site); all moment solves happen in the parallel phase.
//!
//! # Determinism guarantee
//!
//! Because the schedule is a pure function of the site list, each site
//! update is a pure function of the state it reads, batch members read
//! disjoint state, and merges happen in a fixed order, `run_farm(threads)`
//! leaves **bit-identical** marginals and statistics for any
//! `threads ≥ 1`. Thread count is purely a throughput knob — the
//! `parallel_determinism` integration test pins this down, warm-started
//! runs included.
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
//!   new() + add_site()    site_mut() — swap observations  run_farm()
//!        │                warm_start(prior) — keep            │
//!        ▼                site messages, re-seat prior        ▼
//!   first run_farm()      (or cold_reset() to discard)    marginal()
//! ```
//!
//! * [`ExpectationPropagation::warm_start`] re-seats the per-variable prior
//!   (e.g. the chained prior from the previous window's posterior), keeps
//!   all site messages and rebuilds the global approximation as
//!   `prior · Π site messages`. Because the previous window's messages
//!   already approximate the new window's likelihoods, warm runs are
//!   capped at [`EpConfig::warm_max_sweeps`] instead of the cold sweep
//!   budget.
//! * [`ExpectationPropagation::reset_site`] selectively discards one
//!   site's messages — the warm-started corrector applies it to the
//!   slices of a detected data phase change, re-solving just those from
//!   scratch while the rest of the window stays warm.
//! * [`ExpectationPropagation::cold_reset`] discards all messages (vacuous
//!   approximation, global = prior) while **keeping** the cached sweep
//!   schedule, site-update records and per-worker workspaces — the
//!   structural reuse the cold corrector mode relies on.
//!
//! The hot path is allocation-free after warm-up: the sweep schedule,
//! per-worker [`SiteWorkspace`] buffers (cavity state and the moment
//! solver's scratch) and per-site [`SiteUpdate`] records are cached inside
//! the engine and reused across sweeps *and* across windows.

use crate::analytic::AnalyticScratch;
use crate::dist::Gaussian;
use crate::message::GaussianMessage;
use crate::parallel::{SiteUpdate, SiteWorkspace, SweepSchedule};

/// Variance floor applied to tilted moments.
const MIN_VAR: f64 = 1e-10;

/// Per-variable site-message precision ceiling, as a multiple of the
/// variable's prior precision. It was sized against noisy sampled moments,
/// which could ratchet a site's precision toward infinity across sweeps;
/// it stays as a guard that leaves legitimately tight observations (a few
/// orders above the prior precision) untouched.
const MAX_PRECISION_RATIO: f64 = 1e6;

/// One partition of the data: a likelihood term over a subset of the global
/// variables, whose tilted moments the site computes itself.
pub trait EpSite {
    /// Indices of the global variables this site's likelihood touches.
    fn vars(&self) -> &[usize];

    /// Computes the tilted moments of `cavity × likelihood` into `ws`
    /// (read back via [`AnalyticScratch::mean`]/[`AnalyticScratch::var`],
    /// aligned with [`EpSite::vars`]). Returns `false` to decline, e.g. on
    /// a precision that is not positive definite or a non-finite factor
    /// weight; the driver then quarantines the site, exactly as it does
    /// non-finite moments.
    fn analytic_moments(&self, cavity: &[Gaussian], ws: &mut AnalyticScratch) -> bool;
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

/// Configuration of the EP driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpConfig {
    /// Maximum outer sweeps over all sites (cold runs).
    pub max_sweeps: usize,
    /// Maximum outer sweeps for warm-started runs (after
    /// [`ExpectationPropagation::warm_start`]) — warm runs start near the
    /// fixed point, so fewer sweeps suffice.
    pub warm_max_sweeps: usize,
    /// Damping factor η ∈ (0, 1] for site/global updates.
    pub damping: f64,
    /// Convergence tolerance: maximum |Δmean|/σ across variables per sweep.
    pub tol: f64,
}

impl Default for EpConfig {
    fn default() -> Self {
        EpConfig {
            max_sweeps: 6,
            warm_max_sweeps: 6,
            damping: 0.6,
            tol: 0.02,
        }
    }
}

/// Per-run scalar statistics, returned by
/// [`ExpectationPropagation::run_farm`] without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpRunStats {
    /// Cumulative sweeps executed since engine creation / last
    /// [`ExpectationPropagation::cold_reset`] (grows across warm windows).
    pub sweeps_total: usize,
    /// Sweeps executed by this run only.
    pub sweeps_run: usize,
    /// Whether the tolerance was met before the sweep cap.
    pub converged: bool,
    /// Mean MCMC acceptance rate. Always `0.0`: no site samples.
    pub mean_acceptance: f64,
    /// Site updates that estimated moments by MCMC. Always `0`.
    pub mcmc_site_updates: u64,
    /// Site updates whose moments the site solved (every merged update).
    pub analytic_site_updates: u64,
    /// MCMC samples collected. Always `0`.
    pub mcmc_samples: u64,
    /// Site updates that declined their moment solve or came back with
    /// non-finite moments, and were quarantined back to the prior instead
    /// of merged (the typed divergence counter — nonzero means an
    /// observation diverged and was contained, not propagated).
    pub sites_quarantined: u64,
}

/// Cached farm state: the conflict-free sweep schedule plus the per-batch
/// site-update records and per-worker workspaces, built on first use and
/// reused across runs (and, for a warm-started corrector, across windows).
struct FarmCache {
    schedule: SweepSchedule,
    outs: Vec<Vec<SiteUpdate>>,
    workspaces: Vec<SiteWorkspace>,
}

/// The EP driver: owns the prior, the sites, and the evolving global
/// approximation.
pub struct ExpectationPropagation {
    prior: Vec<Gaussian>,
    global: Vec<GaussianMessage>,
    sites: Vec<Box<dyn SiteObj>>,
    site_approx: Vec<Vec<GaussianMessage>>,
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
        self.sites.push(Box::new(site));
        // Topology changed: the cached schedule and update records are
        // stale.
        self.cache = None;
    }

    /// Typed mutable access to site `k` — the warm-start observation swap.
    ///
    /// Returns `None` if `k` is out of range or the site is not an `S`.
    /// The caller must only mutate per-window *data* (observed values);
    /// the variable scope must stay fixed, since the cached sweep schedule
    /// depends on it.
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
    /// from the previous window's approximation and are capped at
    /// [`EpConfig::warm_max_sweeps`].
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
    /// vacuous while every other site stays warm. This is the *selective*
    /// restart a sliding-window corrector applies to the slices of a
    /// detected data jump — the stale, confidently-wrong messages about
    /// the jumped window are discarded without paying a whole-model cold
    /// start.
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
    }

    /// Discards all statistical state — site messages become vacuous, the
    /// global approximation returns to the (new) prior and the sweep
    /// counter resets — while keeping the cached sweep schedule and
    /// buffers. The next run is cold, but pays no topology or allocation
    /// cost: this is the structural-reuse path the cold corrector mode
    /// uses.
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
    /// deterministically. Read marginals back through
    /// [`ExpectationPropagation::marginal`].
    ///
    /// The result is **bit-identical for any `threads ≥ 1`** — see the
    /// module docs for why. `threads` is clamped to at least 1 and at most
    /// the largest batch size (more workers than sites in a batch cannot
    /// help). Allocation-free once the engine caches are grown.
    pub fn run_farm(&mut self, threads: usize) -> EpRunStats {
        self.ensure_cache();
        let mut cache = self.cache.take().expect("cache just ensured");
        let threads = threads.clamp(1, cache.schedule.max_batch_len().max(1));
        while cache.workspaces.len() < threads {
            cache.workspaces.push(SiteWorkspace::new());
        }
        let cap = if self.warm {
            self.config.warm_max_sweeps
        } else {
            self.config.max_sweeps
        };

        let mut sweeps = 0;
        let mut converged = false;
        let mut analytic_updates = 0u64;
        let mut quarantined = 0u64;

        while sweeps < cap {
            sweeps += 1;
            let mut max_shift = 0.0f64;
            for (b, batch_out) in cache.outs.iter_mut().enumerate() {
                let batch = cache.schedule.batch(b);
                let chunk = batch.len().div_ceil(threads).max(1);
                {
                    let sites = &self.sites;
                    let site_approx = &self.site_approx;
                    let global = &self.global;
                    let prior = &self.prior;
                    let config = &self.config;
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
                                global,
                                prior,
                                config,
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
                                        global,
                                        prior,
                                        config,
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
                    if out.quarantined {
                        quarantined += 1;
                    } else {
                        analytic_updates += 1;
                    }
                }
            }
            if max_shift <= self.config.tol {
                converged = true;
                break;
            }
        }
        self.total_sweeps += sweeps;
        self.cache = Some(cache);

        EpRunStats {
            sweeps_total: self.total_sweeps,
            sweeps_run: sweeps,
            converged,
            analytic_site_updates: analytic_updates,
            sites_quarantined: quarantined,
            ..EpRunStats::default()
        }
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
        max_shift
    }

    /// Removes a diverged site's contribution from the global
    /// approximation and resets its messages to vacuous — the factor-graph
    /// equivalent of dropping the poisoned observation back to the prior.
    /// Returns the shift the stripping caused so convergence accounting
    /// stays honest.
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
        max_shift
    }
}

/// One worker's share of a batch: compute site updates for `site_chunk`
/// into `out_chunk`.
#[allow(clippy::too_many_arguments)]
fn farm_worker(
    sites: &[Box<dyn SiteObj>],
    site_approx: &[Vec<GaussianMessage>],
    global: &[GaussianMessage],
    prior: &[Gaussian],
    config: &EpConfig,
    site_chunk: &[u32],
    out_chunk: &mut [SiteUpdate],
    ws: &mut SiteWorkspace,
) {
    for (&k, out) in site_chunk.iter().zip(out_chunk.iter_mut()) {
        let k = k as usize;
        out.prepare(sites[k].as_ref());
        compute_site_update(
            sites[k].as_ref(),
            &site_approx[k],
            global,
            prior,
            config,
            ws,
            out,
        );
    }
}

/// One site update (lines 3–7 of Alg. 1), staged into `out` without
/// touching shared state — the pure-compute half the engine farm runs in
/// parallel. `out` must already be [`SiteUpdate::prepare`]d for `site`.
fn compute_site_update(
    site: &dyn EpSite,
    approx_k: &[GaussianMessage],
    global: &[GaussianMessage],
    prior: &[Gaussian],
    config: &EpConfig,
    ws: &mut SiteWorkspace,
    out: &mut SiteUpdate,
) {
    let SiteWorkspace {
        cavity_msgs,
        cavity,
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

    // Line 4: tilted moments, solved by the site.
    //
    // Divergence guard: a poisoned observation makes the site decline or
    // yields NaN/Inf moments. `var.max(MIN_VAR)` would silently floor a
    // NaN variance (f64::max ignores NaN) and a NaN *mean* passes every
    // variance check — either way the poison would enter the global
    // approximation and spread through every overlapping site on the next
    // sweep. Quarantine instead: stage no update and tell the driver to
    // strip this site's existing contribution back to the prior.
    let solved = site.analytic_moments(cavity, analytic)
        && analytic.mean()[..scope.len()]
            .iter()
            .zip(&analytic.var()[..scope.len()])
            .all(|(m, v)| m.is_finite() && v.is_finite());
    if !solved {
        out.quarantined = true;
        out.accepted.fill(false);
        return;
    }
    let (means, vars) = (analytic.mean(), analytic.var());

    // Lines 5–7: local moment match, damped site update, staged global
    // update.
    for (j, &v) in scope.iter().enumerate() {
        let tilted = GaussianMessage::from_moments(means[j], vars[j].max(MIN_VAR));
        let prec_cap = MAX_PRECISION_RATIO / prior[v].var;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::FactorSite;

    /// A site observing `Σ coeffs[i]·x[vars[i]] ~ N(obs, var)`.
    fn linear(vars: Vec<usize>, coeffs: &[f64], obs: f64, var: f64) -> FactorSite {
        let locals: Vec<usize> = (0..vars.len()).collect();
        FactorSite::builder(vars)
            .gaussian_linear(&locals, coeffs, obs, var)
            .build()
    }

    #[test]
    fn gaussian_observation_matches_analytic_posterior() {
        // Prior N(0, 4); observation x ~ N(6, 1). Posterior: N(4.8, 0.8).
        let mut ep =
            ExpectationPropagation::new(vec![Gaussian::new(0.0, 4.0)], EpConfig::default());
        ep.add_site(linear(vec![0], &[1.0], 6.0, 1.0));
        ep.run_farm(1);
        let g = ep.marginal(0);
        assert!((g.mean - 4.8).abs() < 0.25, "mean {}", g.mean);
        assert!((g.var - 0.8).abs() < 0.4, "var {}", g.var);
    }

    #[test]
    fn non_finite_observation_is_quarantined_not_propagated() {
        // A Gaussian-linear site whose observation is swapped to NaN (the
        // poisoned-sample path): its solve yields NaN moments. The guard
        // must quarantine the site back to prior — every marginal stays
        // finite and the divergence counter records it.
        let prior = vec![Gaussian::new(2.0, 4.0), Gaussian::new(2.0, 4.0)];
        let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
        let mut poisoned = linear(vec![0], &[1.0], 6.0, 1.0);
        poisoned.set_linear_obs(0, f64::NAN);
        ep.add_site(poisoned);
        // A healthy coupled site that would inhale the poison through the
        // shared variable if the quarantine failed.
        ep.add_site(linear(vec![0, 1], &[1.0, 1.0], 8.0, 0.5));
        let r = ep.run_farm(2);
        assert!(r.sites_quarantined > 0, "divergence counter must record");
        for v in 0..2 {
            let g = ep.marginal(v);
            assert!(
                g.mean.is_finite() && g.var.is_finite() && g.var > 0.0,
                "marginal {v} poisoned: {g:?}"
            );
        }
        // The healthy site's information still flowed: x0 + x1 ~ N(8, .5)
        // on N(2,4) priors pulls both means toward 4.
        assert!((ep.marginal(1).mean - 4.0).abs() < 1.0);
    }

    #[test]
    fn lone_quarantined_site_leaves_the_prior() {
        let mut ep =
            ExpectationPropagation::new(vec![Gaussian::new(0.0, 4.0)], EpConfig::default());
        let mut poisoned = linear(vec![0], &[1.0], 6.0, 1.0);
        poisoned.set_linear_obs(0, f64::INFINITY);
        ep.add_site(poisoned);
        let r = ep.run_farm(1);
        assert!(r.sites_quarantined > 0);
        // With its only site quarantined, the posterior is the prior.
        assert!((ep.marginal(0).mean - 0.0).abs() < 1e-9);
        assert!((ep.marginal(0).var - 4.0).abs() < 1e-9);
    }

    #[test]
    fn two_sites_combine_like_a_product() {
        // Two unit-variance observations at 0 and 10 on a flat-ish prior:
        // posterior mean ≈ 5.
        let mut ep =
            ExpectationPropagation::new(vec![Gaussian::new(5.0, 1000.0)], EpConfig::default());
        ep.add_site(linear(vec![0], &[1.0], 0.0, 1.0));
        ep.add_site(linear(vec![0], &[1.0], 10.0, 1.0));
        ep.run_farm(1);
        let g = ep.marginal(0);
        assert!((g.mean - 5.0).abs() < 0.4, "mean {}", g.mean);
        // Posterior variance ≈ 0.5 (product of two unit-variance terms).
        assert!(g.var < 1.5);
    }

    #[test]
    fn linear_constraint_transfers_information() {
        // x0 + x1 ≈ 10 (tight), x0 observed near 3 -> x1 ≈ 7 with
        // uncertainty larger than x0's, through the engine farm.
        let mut ep = ExpectationPropagation::new(
            vec![Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)],
            EpConfig::default(),
        );
        ep.add_site(linear(vec![0], &[1.0], 3.0, 0.01));
        ep.add_site(linear(vec![0, 1], &[1.0, 1.0], 10.0, 0.01));
        ep.run_farm(2);
        let (x0, x1) = (ep.marginal(0).mean, ep.marginal(1).mean);
        assert!((x0 - 3.0).abs() < 0.3, "x0 {x0}");
        assert!((x1 - 7.0).abs() < 0.5, "x1 {x1}");
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
        ep.add_site(linear(vec![0], &[1.0], 4.0, 0.01));
        ep.add_site(linear(vec![0, 1], &[1.0, 1.0], 10.0, 0.02));
        ep.add_site(linear(vec![1, 2], &[1.0, 1.0], 12.0, 0.02));
        ep.run_farm(1);
        let x2 = ep.marginal(2).mean;
        assert!((x2 - 6.0).abs() < 0.7, "x2 {x2}");
    }

    #[test]
    fn untouched_variable_keeps_prior() {
        let mut ep = ExpectationPropagation::new(
            vec![Gaussian::new(1.0, 2.0), Gaussian::new(9.0, 3.0)],
            EpConfig::default(),
        );
        ep.add_site(linear(vec![0], &[1.0], 1.0, 1.0));
        ep.run_farm(1);
        assert_eq!(ep.marginal(1).mean, 9.0);
        assert_eq!(ep.marginal(1).var, 3.0);
    }

    #[test]
    fn converges_and_reports_acceptance() {
        let mut ep = ExpectationPropagation::new(
            vec![Gaussian::new(0.0, 10.0)],
            EpConfig {
                max_sweeps: 30,
                ..EpConfig::default()
            },
        );
        ep.add_site(linear(vec![0], &[1.0], 2.0, 0.5));
        let r = ep.run_farm(1);
        assert!(r.converged, "should converge in 30 sweeps");
        assert!(r.sweeps_run < 30);
        assert_eq!(
            r.sweeps_total, r.sweeps_run,
            "fresh engine: cumulative == run"
        );
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
        ep.add_site(linear(vec![0], &[1.0], 3.0, 0.01));
        ep.add_site(linear(vec![0, 1], &[1.0, 1.0], 10.0, 0.01));
        let r = ep.run_farm(2);
        assert_eq!(r.mcmc_site_updates, 0, "no MCMC on the analytic path");
        assert_eq!(r.mcmc_samples, 0);
        assert!(r.analytic_site_updates > 0);
        assert_eq!(r.mean_acceptance, 0.0, "NaN-free when nothing sampled");
        // Exact posterior (the wide prior pulls ~4e-4 off the observations).
        let (x0, x1) = (ep.marginal(0).mean, ep.marginal(1).mean);
        assert!((x0 - 3.0).abs() < 0.01, "x0 {x0}");
        assert!((x1 - 7.0).abs() < 0.01, "x1 {x1}");
    }

    #[test]
    fn warm_start_keeps_messages_and_shrinks_the_run() {
        let prior = vec![Gaussian::new(0.0, 25.0)];
        let cfg = EpConfig {
            max_sweeps: 30,
            warm_max_sweeps: 30,
            tol: 1e-9,
            damping: 0.9,
        };
        let mut ep = ExpectationPropagation::new(prior.clone(), cfg);
        ep.add_site(linear(vec![0], &[1.0], 4.0, 1.0));
        let cold = ep.run_farm(1);
        assert!(cold.converged);
        // Swap the observation slightly and warm-start.
        ep.site_mut::<FactorSite>(0).unwrap().set_linear_obs(0, 4.1);
        ep.warm_start(&prior);
        assert!(ep.is_warm());
        let warm = ep.run_farm(1);
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
        let mean = ep.marginal(0).mean;
        assert!((mean - expect).abs() < 1e-4, "mean {mean} vs {expect}");
    }

    #[test]
    fn cold_reset_matches_fresh_engine_bitwise() {
        let prior = vec![Gaussian::new(5.0, 100.0), Gaussian::new(5.0, 100.0)];
        let build = |ep: &mut ExpectationPropagation| {
            ep.add_site(linear(vec![0], &[1.0], 3.0, 0.01));
            ep.add_site(linear(vec![0, 1], &[1.0, 1.0], 10.0, 0.01));
        };
        let mut fresh = ExpectationPropagation::new(prior.clone(), EpConfig::default());
        build(&mut fresh);
        let want = fresh.run_farm(1);

        let mut reused = ExpectationPropagation::new(prior.clone(), EpConfig::default());
        build(&mut reused);
        let _ = reused.run_farm(1); // dirty the state
        reused.cold_reset(&prior);
        let got = reused.run_farm(1);
        assert_eq!(want.sweeps_total, got.sweeps_total);
        for v in 0..2 {
            let (a, b) = (fresh.marginal(v), reused.marginal(v));
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.var.to_bits(), b.var.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "site variable 3 out of range")]
    fn rejects_out_of_range_site() {
        let mut ep =
            ExpectationPropagation::new(vec![Gaussian::new(0.0, 1.0)], EpConfig::default());
        ep.add_site(FactorSite::builder(vec![3]).build());
    }
}
