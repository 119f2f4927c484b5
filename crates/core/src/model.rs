//! Building the unified factor graph over `k` time slices as EP sites.
//!
//! The model's variables are *(event, slice)* pairs in normalized units
//! (window counts divided by a per-event scale derived from the catalog's
//! nominal magnitudes). Each time slice becomes one EP site — the paper's
//! data partition — containing three kinds of factors:
//!
//! * **observation** factors (§4.2): a scaled/shifted Student-t per sample
//!   delivered in that slice;
//! * **invariant** factors: for every microarchitectural invariant, a
//!   Gaussian on the *relative* residual `((lhs − rhs)/max(|lhs|,|rhs|,1))`
//!   of the denormalized slice state;
//! * **temporal** factors: a Gaussian random walk coupling each event's
//!   value to its value in the preceding slice — this is what lets samples
//!   of overlapping events in adjacent configurations inform unscheduled
//!   events (Fig. 2's `⇝` edges).
//!
//! # Tilted moments
//!
//! A slice site solves its tilted moments by IRLS
//! ([`bayesperf_inference::AnalyticScratch::irls`]), starting from the
//! observed locations (the cavity mean for unobserved events). Each pass
//! turns every factor into a Gaussian-linear term:
//!
//! * a Student-t observation becomes the Gaussian
//!   [`StudentT::irls_variance`] fits at the current estimate;
//! * every invariant is affine in the events on both sides, so its
//!   `lhs − rhs` is a fixed coefficient row over the normalized state,
//!   built once at engine build from [`Expr::linear_form`]. Only the
//!   normalizer `N = max(|lhs|, |rhs|, 1)` is evaluated at the current
//!   estimate, and the term's variance is `σ²·N²`;
//! * a temporal factor is already Gaussian-linear. A previous-slice
//!   variable touches only its cavity and that one factor, so it is
//!   integrated out exactly before the solve: it enters its current-slice
//!   partner as the pseudo-observation `N(μₚ, τ² + σₚ²)`, the solve has
//!   `n_events` variables instead of `2·n_events`, and the previous
//!   slice's marginals are recovered from their partners' afterwards.
//!
//! # Engine reuse across windows
//!
//! The factor-graph *topology* is a pure function of the catalog: every
//! slice has one observation slot per event (inactive slots contribute
//! zero likelihood), the invariant set is fixed, and the temporal chain
//! depends only on the slice count. Only the observed counts change from
//! window to window. [`ChunkEngine`] therefore builds the sites, the
//! invariant rows and the EP engine (with its cached sweep schedule)
//! **once**, and per window merely swaps the observation slots and either
//! [`ChunkEngine::load_warm_adaptive`]s (keep EP messages, except on the
//! slices of a detected change point — the warm corrector path) or
//! [`ChunkEngine::load_cold`]s (reset messages — the cold corrector path).
//! A ragged final chunk gets a one-shot engine of its own slice count
//! ([`ChunkEngine::with_slices`]), loaded cold.

use crate::error_model::{extrapolated_observation, gauge_observation, observation};
use bayesperf_events::{Catalog, EventId, Expr, Invariant, SourceNoise};
use bayesperf_inference::{
    AnalyticScratch, EpConfig, EpRunStats, EpSite, ExpectationPropagation, Gaussian, StudentT,
};
use bayesperf_simcpu::{MultiplexRun, Sample};

/// Model hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Time slices (windows) per inference chunk — the paper's `k`.
    pub slices: usize,
    /// Prior mean in normalized units (1 = the catalog's nominal magnitude).
    pub prior_mean: f64,
    /// Prior standard deviation in normalized units.
    pub prior_sd: f64,
    /// Random-walk standard deviation of the temporal factors (normalized).
    pub temporal_tau: f64,
    /// Relative noise floor of observation factors.
    pub obs_sigma_floor: f64,
    /// Relative scale of observation factors built from *extrapolated*
    /// samples (`sub_n == 0`): an unscheduled slice's carry-forward
    /// estimate enters the model with this much noise instead of
    /// masquerading as a real read. The engine floors it at
    /// `obs_sigma_floor` — a carry-forward can never claim to be tighter
    /// than a real read, whatever this field is set to.
    pub extrap_sigma: f64,
    /// Noise floor of invariant factors (on the relative residual).
    pub inv_sigma_floor: f64,
    /// Core cycles per multiplexing window (for count scaling).
    pub cycles_per_window: f64,
}

impl ModelConfig {
    /// Defaults sized for a recorded run.
    pub fn for_run(run: &MultiplexRun) -> Self {
        ModelConfig {
            slices: 6,
            prior_mean: 1.0,
            prior_sd: 3.0,
            temporal_tau: 0.35,
            obs_sigma_floor: 0.02,
            extrap_sigma: 0.5,
            inv_sigma_floor: 0.02,
            cycles_per_window: run.cycles_per_window,
        }
    }

    /// Fast EP settings matched to this model (used by the corrector):
    /// 4 cold sweeps, 2 warm sweeps.
    pub fn fast_ep(&self) -> EpConfig {
        EpConfig {
            max_sweeps: 4,
            warm_max_sweeps: 2,
            damping: 0.7,
            tol: 0.05,
        }
    }
}

/// Per-event normalization scales (expected window counts at nominal load).
fn event_scales(catalog: &Catalog, cycles_per_window: f64) -> Vec<f64> {
    catalog
        .iter()
        .map(|e| (catalog.nominal_scale(e.id) * cycles_per_window / 1.0e6).max(1.0))
        .collect()
}

/// One side of an invariant, affine in the normalized slice state:
/// `constant + Σ coeff·x[local]`, which is the side's value in counts.
#[derive(Debug, Clone)]
struct LinearRow {
    constant: f64,
    terms: Vec<(usize, f64)>,
}

impl LinearRow {
    /// The row of `expr` over the normalized state, whose event ids index
    /// `scales`; `None` if `expr` is not affine in the events.
    fn of(expr: &Expr, scales: &[f64]) -> Option<LinearRow> {
        let (constant, coeffs) = expr.linear_form()?;
        let terms = coeffs
            .into_iter()
            .map(|(id, c)| (id.index(), c * scales[id.index()]))
            .collect();
        Some(LinearRow { constant, terms })
    }

    fn eval(&self, x: &[f64]) -> f64 {
        self.terms
            .iter()
            .fold(self.constant, |acc, &(local, c)| acc + c * x[local])
    }
}

/// An invariant residual factor: a Gaussian of variance `σ²` on the
/// relative residual `(lhs − rhs) / max(|lhs|, |rhs|, 1)` of the
/// denormalized slice state. Built once per engine and shared by every
/// slice.
struct InvariantFactor {
    lhs: LinearRow,
    rhs: LinearRow,
    /// `lhs − rhs` without its constant: the locals and coefficients of
    /// the Gaussian-linear term.
    locals: Vec<usize>,
    coeffs: Vec<f64>,
    /// The value the term observes: minus the constant of `lhs − rhs`.
    obs: f64,
    /// `σ²`, on the relative residual.
    var: f64,
}

impl InvariantFactor {
    /// # Panics
    ///
    /// Panics, naming the invariant, if either side is not affine in the
    /// events (the catalogs are built in code, so this is a bug there).
    fn new(inv: &Invariant, scales: &[f64], sigma: f64) -> Self {
        let row = |side: &Expr| {
            LinearRow::of(side, scales)
                .unwrap_or_else(|| panic!("invariant {} is not linear: {side}", inv.name))
        };
        // `lhs − rhs` as one row: its terms make the Gaussian-linear term,
        // which observes minus its constant.
        let diff = row(&(inv.lhs.clone() - inv.rhs.clone()));
        InvariantFactor {
            locals: diff.terms.iter().map(|&(local, _)| local).collect(),
            coeffs: diff.terms.iter().map(|&(_, c)| c).collect(),
            obs: -diff.constant,
            var: sigma * sigma,
            lhs: row(&inv.lhs),
            rhs: row(&inv.rhs),
        }
    }

    /// Adds the factor as `lhs − rhs ~ N(0, σ²·N²)`, its normalizer `N`
    /// held at the current estimate `ws.mean()`. Declines on a variance
    /// that is not finite and positive.
    fn add_term(&self, ws: &mut AnalyticScratch) -> bool {
        let x = ws.mean();
        let n = self.lhs.eval(x).abs().max(self.rhs.eval(x).abs()).max(1.0);
        let var = self.var * n * n;
        if !(var.is_finite() && var > 0.0) {
            return false;
        }
        ws.add_term(&self.locals, &self.coeffs, self.obs, var);
        true
    }
}

/// An EP site for one time slice (plus the previous slice's variables,
/// which its temporal factors touch).
struct SliceSite {
    /// Global variable indices: `0..n_events` → this slice,
    /// `n_events..2·n_events` → previous slice (absent for slice 0).
    vars: Vec<usize>,
    /// Per-event observation slot (indexed by local variable `0..n_events`;
    /// `None` = the event was not sampled in this window).
    obs: Vec<Option<StudentT>>,
    /// Variance `τ²` of the temporal random walk.
    drift: f64,
    /// Denormalization scales, catalog-indexed (local i ↔ catalog event i).
    scales: std::sync::Arc<Vec<f64>>,
    /// Per-source error models, indexed by raw [`bayesperf_events::SourceId`]
    /// (base catalogs: just the PMU's `StudentT`).
    source_noise: std::sync::Arc<Vec<SourceNoise>>,
    /// The catalog's invariants, catalog-ordered.
    invariants: std::sync::Arc<[InvariantFactor]>,
}

impl SliceSite {
    /// Swaps this slice's observations to `window` (allocation-free): all
    /// slots reset, then sampled events re-filled.
    ///
    /// A real read ([`observation`]) and a scheduler extrapolation
    /// ([`extrapolated_observation`], `sub_n == 0`) land in the same slot
    /// but with very different widths: the extrapolated factor carries
    /// `extrap_sigma` relative noise and minimal degrees of freedom, so an
    /// unscheduled slice is anchored without being mistaken for data.
    ///
    /// One observation slot per event: a window is expected to carry at
    /// most one sample per event (the PMU delivers one merged reading per
    /// window — `Sample` already aggregates the PMI sub-samples). If a
    /// caller passes duplicates anyway, the last one wins; callers that
    /// need multiple readings per event per window should merge them into
    /// one `Sample` (sub-sample statistics combined) first.
    fn set_window(&mut self, window: &[Sample], sigma_floor: f64, extrap_sigma: f64) {
        for o in &mut self.obs {
            *o = None;
        }
        for s in window {
            self.obs[s.event.index()] = Some(self.observation_dist(s, sigma_floor, extrap_sigma));
        }
    }

    /// The observation factor `s` contributes. Per-source dispatch: the
    /// sample's source tag picks the error model the factor is built from.
    /// Extrapolations always take the wide carry-forward factor, whatever
    /// the source; an unknown source id (newer producer than catalog)
    /// degrades to the PMU model rather than panicking the inference
    /// thread.
    fn observation_dist(&self, s: &Sample, sigma_floor: f64, extrap_sigma: f64) -> StudentT {
        let scale = self.scales[s.event.index()];
        let noise = self
            .source_noise
            .get(s.source.index())
            .copied()
            .unwrap_or(SourceNoise::StudentT);
        if s.is_extrapolated() {
            return extrapolated_observation(s, scale, extrap_sigma);
        }
        match noise {
            SourceNoise::StudentT => observation(s, scale, sigma_floor),
            SourceNoise::Gaussian { .. } => {
                gauge_observation(s, scale, noise.rel_scale(), sigma_floor)
            }
            // Low-trust source: same wide heavy-tailed factor an
            // extrapolation gets, at the source's scale.
            SourceNoise::HeavyTail { rel_sigma } => extrapolated_observation(s, scale, rel_sigma),
        }
    }

    /// Adds every observation as the Gaussian its Student-t fits at the
    /// current estimate. Declines on a weight that is not finite and
    /// positive (e.g. a NaN read), so it never reaches `add_term`.
    fn add_observations(&self, ws: &mut AnalyticScratch) -> bool {
        for (e, o) in self.obs.iter().enumerate() {
            if let Some(t) = o {
                let var = t.irls_variance(ws.mean()[e]);
                if !(var.is_finite() && var > 0.0) {
                    return false;
                }
                ws.add_term(&[e], &[1.0], t.loc, var);
            }
        }
        true
    }

    fn add_invariants(&self, ws: &mut AnalyticScratch) -> bool {
        self.invariants.iter().all(|inv| inv.add_term(ws))
    }
}

impl EpSite for SliceSite {
    fn vars(&self) -> &[usize] {
        &self.vars
    }

    /// IRLS over this slice's `n_events` variables, the previous slice's
    /// integrated out (see the module docs).
    fn analytic_moments(&self, cavity: &[Gaussian], ws: &mut AnalyticScratch) -> bool {
        let (cur, prev) = cavity.split_at(self.obs.len());
        let start = cur
            .iter()
            .zip(&self.obs)
            .map(|(c, o)| o.map_or(c.mean, |t| t.loc));
        let solved = ws.irls(cur, start, |ws| {
            for (e, p) in prev.iter().enumerate() {
                ws.add_term(&[e], &[1.0], p.mean, self.drift + p.var);
            }
            self.add_observations(ws) && self.add_invariants(ws)
        });
        if !solved {
            return false;
        }
        // A previous-slice variable given its partner x: precision
        // 1/σₚ² + w, mean (μₚ/σₚ² + w·x)/(1/σₚ² + w), with w = 1/τ².
        // Averaging over x ~ N(m, V) adds (w/(1/σₚ² + w))²·V.
        let w = 1.0 / self.drift;
        for (e, p) in prev.iter().enumerate() {
            let (m, v) = (ws.mean()[e], ws.var()[e]);
            let prec = 1.0 / p.var + w;
            let gain = w / prec;
            ws.push_marginal(
                (p.mean / p.var + w * m) / prec,
                1.0 / prec + gain * gain * v,
            );
        }
        true
    }
}

/// Multiplicative threshold an observation must move by (vs the same
/// event's previous observation) to count as jumped in the change-point
/// detector ([`ChunkEngine::load_warm_adaptive`]).
const JUMP_RATIO: f64 = 2.0;

/// Selective change-point reset threshold: a window (slice) more than this
/// fraction of whose observations moved by more than [`JUMP_RATIO`] since
/// each event was last seen has its EP sites reset to vacuous before the
/// warm run — a data phase change re-solves the affected slices from
/// scratch instead of dragging a confidently-wrong approximation along,
/// while unaffected slices keep the cheap warm path.
const JUMP_FRAC: f64 = 0.45;

/// A persistent per-catalog inference engine: the factor-graph topology,
/// EP sites, sweep schedule and all scratch buffers, reused across
/// windows. See the module docs for the warm/cold lifecycle.
pub struct ChunkEngine {
    ep: ExpectationPropagation,
    n_events: usize,
    slices: usize,
    scales: std::sync::Arc<Vec<f64>>,
    /// Reused per-load prior buffer (`slices · n_events`).
    prior_buf: Vec<Gaussian>,
    /// Chained slice-0 prior (normalized, `n_events`); active when
    /// `has_chain`.
    chain_buf: Vec<Gaussian>,
    has_chain: bool,
    base_prior: Gaussian,
    drift: f64,
    obs_sigma_floor: f64,
    extrap_sigma: f64,
    /// Last observed (normalized) value per event across all loads
    /// (`NAN` = never observed) — the change-point detector's history.
    last_obs: Vec<f64>,
    /// Scratch copy of `last_obs` for chronological scoring.
    score_buf: Vec<f64>,
    /// Per-slice jump flags of the last adaptive load (reused buffer).
    jump_flags: Vec<bool>,
    /// Per-window (total, jumped) observation counts of the last jump
    /// scan (reused buffer).
    jump_counts: Vec<(u32, u32)>,
}

impl std::fmt::Debug for ChunkEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkEngine")
            .field("n_events", &self.n_events)
            .field("slices", &self.slices)
            .field("warm", &self.ep.is_warm())
            .finish()
    }
}

impl ChunkEngine {
    /// Builds the engine for `cfg.slices` time slices.
    pub fn new(catalog: &Catalog, cfg: &ModelConfig, ep_config: EpConfig) -> Self {
        Self::with_slices(catalog, cfg, ep_config, cfg.slices.max(1))
    }

    /// Builds the engine for an explicit slice count (used by
    /// [`Corrector::push_tail`](crate::corrector::Corrector::push_tail) for
    /// ragged tail chunks).
    ///
    /// # Panics
    ///
    /// Panics if `slices` is zero.
    pub fn with_slices(
        catalog: &Catalog,
        cfg: &ModelConfig,
        ep_config: EpConfig,
        slices: usize,
    ) -> Self {
        assert!(slices > 0, "chunk must contain at least one window");
        let ne = catalog.len();
        let scales = std::sync::Arc::new(event_scales(catalog, cfg.cycles_per_window));
        let source_noise: std::sync::Arc<Vec<SourceNoise>> =
            std::sync::Arc::new(catalog.sources().iter().map(|s| s.noise).collect());
        let base_prior = Gaussian::new(cfg.prior_mean, cfg.prior_sd * cfg.prior_sd);
        let prior = vec![base_prior; slices * ne];
        let mut ep = ExpectationPropagation::new(prior.clone(), ep_config);
        let drift = cfg.temporal_tau * cfg.temporal_tau;
        let invariants: std::sync::Arc<[InvariantFactor]> = catalog
            .invariants()
            .iter()
            .map(|inv| InvariantFactor::new(inv, &scales, inv.rel_noise.max(cfg.inv_sigma_floor)))
            .collect();

        for t in 0..slices {
            // Site variables: slice t first, then slice t-1 (if any).
            let mut vars: Vec<usize> = (0..ne).map(|e| t * ne + e).collect();
            if t > 0 {
                vars.extend((0..ne).map(|e| (t - 1) * ne + e));
            }
            ep.add_site(SliceSite {
                vars,
                obs: vec![None; ne],
                drift,
                scales: scales.clone(),
                source_noise: source_noise.clone(),
                invariants: invariants.clone(),
            });
        }

        ChunkEngine {
            ep,
            n_events: ne,
            slices,
            scales,
            prior_buf: prior,
            chain_buf: vec![base_prior; ne],
            has_chain: false,
            last_obs: vec![f64::NAN; ne],
            score_buf: Vec::with_capacity(ne),
            jump_flags: Vec::with_capacity(slices),
            jump_counts: Vec::with_capacity(slices),
            base_prior,
            drift,
            obs_sigma_floor: cfg.obs_sigma_floor,
            extrap_sigma: cfg.extrap_sigma,
        }
    }

    /// Number of time slices modelled.
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Number of catalog events per slice.
    pub fn n_events(&self) -> usize {
        self.n_events
    }

    /// Sets the chained slice-0 prior (normalized units; length
    /// `n_events`). The random-walk drift is added at load time.
    ///
    /// # Panics
    ///
    /// Panics if `prior.len() != n_events`.
    pub fn set_chain_prior(&mut self, prior: &[Gaussian]) {
        assert_eq!(prior.len(), self.n_events, "chain prior length mismatch");
        self.chain_buf.copy_from_slice(prior);
        self.has_chain = true;
    }

    /// Sets the chained slice-0 prior from **count-unit** marginals (the
    /// denormalized form posterior snapshots publish) — the warm-restart
    /// seeding path: a supervisor recovering a crashed corrector replays
    /// the last published snapshot here. Entries with non-finite or
    /// non-positive moments fall back to the base prior (a crash may have
    /// been *caused* by poisoned state; recovery must not re-ingest it).
    /// Returns how many events were actually seeded from `prior`.
    ///
    /// # Panics
    ///
    /// Panics if `prior.len() != n_events`.
    pub fn set_chain_prior_counts(&mut self, prior: &[Gaussian]) -> usize {
        assert_eq!(prior.len(), self.n_events, "chain prior length mismatch");
        let mut seeded = 0;
        for (e, g) in prior.iter().enumerate() {
            let s = self.scales[e];
            let mean = g.mean / s;
            let var = g.var / (s * s);
            self.chain_buf[e] = if mean.is_finite() && var.is_finite() && var > 0.0 {
                seeded += 1;
                Gaussian::new(mean, var)
            } else {
                self.base_prior
            };
        }
        self.has_chain = true;
        seeded
    }

    /// Captures the current posterior of the final slice as the next
    /// load's chained slice-0 prior (allocation-free).
    pub fn capture_chain_prior(&mut self) {
        let base = (self.slices - 1) * self.n_events;
        for e in 0..self.n_events {
            self.chain_buf[e] = self.ep.marginal(base + e);
        }
        self.has_chain = true;
    }

    /// The chained prior captured by
    /// [`ChunkEngine::capture_chain_prior`]/[`ChunkEngine::set_chain_prior`]
    /// (normalized units).
    pub fn chain_prior(&self) -> &[Gaussian] {
        &self.chain_buf
    }

    /// Forgets the chained prior: the next load starts from the base prior.
    pub fn clear_chain_prior(&mut self) {
        self.has_chain = false;
    }

    /// Composes the per-variable prior for the next load into `prior_buf`.
    fn compose_prior(&mut self) {
        for t in 0..self.slices {
            for e in 0..self.n_events {
                self.prior_buf[t * self.n_events + e] = if t == 0 && self.has_chain {
                    let p = self.chain_buf[e];
                    Gaussian::new(p.mean, p.var + self.drift)
                } else {
                    self.base_prior
                };
            }
        }
    }

    /// Swaps each slice's observations to the corresponding window.
    fn swap_observations<W: AsRef<[Sample]>>(&mut self, windows: &[W]) {
        assert_eq!(
            windows.len(),
            self.slices,
            "engine built for {} slices, got {} windows",
            self.slices,
            windows.len()
        );
        let floor = self.obs_sigma_floor;
        // The documented invariant, enforced rather than trusted: an
        // extrapolation is never tighter than a real read's noise floor.
        let extrap = self.extrap_sigma.max(self.obs_sigma_floor);
        for (t, w) in windows.iter().enumerate() {
            for s in w.as_ref() {
                // Extrapolations are estimates, not reads: they must not
                // enter the change-point history, or a carry-forward of a
                // stale level would mask the very jump it smeared over.
                if s.is_extrapolated() {
                    continue;
                }
                let e = s.event.index();
                self.last_obs[e] = (s.value / self.scales[e]).max(1e-9);
            }
            let site = self
                .ep
                .site_mut::<SliceSite>(t)
                .expect("slice sites are SliceSite");
            site.set_window(w.as_ref(), floor, extrap);
        }
    }

    /// The chronological jump scan behind
    /// [`ChunkEngine::load_warm_adaptive`]: walks every observation of
    /// `windows` in order, compares it against the same event's previous
    /// observation (seeded from the engine's recorded history, rolled
    /// forward within the scan), and records per window how many
    /// comparisons were made and how many moved by more than a factor of
    /// [`JUMP_RATIO`] up or down (into the reusable `jump_counts` buffer) —
    /// a purely data-driven change-point detector. Near zero in steady
    /// state (measurement noise and within-phase modulation are well under
    /// 2×); jumps toward 1 at a workload phase change, where warm-starting
    /// would carry a confidently-wrong approximation forward. The engine's
    /// recorded history itself is *not* modified — that happens when the
    /// windows are actually loaded. Allocation-free after the first call.
    fn scan_jumps<W: AsRef<[Sample]>>(&mut self, windows: &[W]) {
        self.score_buf.clear();
        self.score_buf.extend_from_slice(&self.last_obs);
        self.jump_counts.clear();
        for w in windows {
            let mut total = 0u32;
            let mut jumped = 0u32;
            for s in w.as_ref() {
                if s.is_extrapolated() {
                    continue; // carry-forwards say nothing about jumps
                }
                let e = s.event.index();
                let loc = (s.value / self.scales[e]).max(1e-9);
                let prev = self.score_buf[e];
                if prev.is_finite() {
                    total += 1;
                    let r = loc / prev.max(1e-9);
                    if !(1.0 / JUMP_RATIO..=JUMP_RATIO).contains(&r) {
                        jumped += 1;
                    }
                }
                self.score_buf[e] = loc;
            }
            self.jump_counts.push((total, jumped));
        }
    }

    /// Loads a window chunk cold: observations swapped, EP messages
    /// discarded, prior re-seated (chained slice 0 when a chain prior is
    /// set). The next run is capped at the cold sweep count.
    pub fn load_cold<W: AsRef<[Sample]>>(&mut self, windows: &[W]) {
        self.swap_observations(windows);
        self.compose_prior();
        let ChunkEngine { ep, prior_buf, .. } = self;
        ep.cold_reset(prior_buf);
    }

    /// Loads a window chunk warm: observations swapped, EP messages
    /// **kept** as the starting approximation, prior re-seated. The next
    /// run is capped at the warm sweep count — the incremental
    /// sliding-window path. Any slice whose window moved more than a factor
    /// of `JUMP_RATIO` (2) on more than `JUMP_FRAC` (45%) of its
    /// observations (vs each event's previous observation, scanned
    /// chronologically) has the sites touching its variables reset to the
    /// vacuous approximation, while unaffected slices keep their messages —
    /// a data phase change costs a partial re-solve instead of a
    /// whole-model cold start. Returns the number of sites reset.
    /// Allocation-free after warm-up.
    ///
    /// # Panics
    ///
    /// Panics if the window count mismatches.
    pub fn load_warm_adaptive<W: AsRef<[Sample]>>(&mut self, windows: &[W]) -> usize {
        // Per-slice jump flags, scanned chronologically against the last
        // observation of each event (before this chunk updates them).
        self.scan_jumps(windows);
        let ChunkEngine {
            jump_counts,
            jump_flags,
            ..
        } = self;
        jump_flags.clear();
        for &(total, jumped) in jump_counts.iter() {
            jump_flags.push(total > 0 && jumped as f64 > JUMP_FRAC * total as f64);
        }

        self.swap_observations(windows);
        self.compose_prior();
        // A jumped slice t invalidates every site whose scope contains its
        // variables: site t (its own observations and backward temporal
        // factors) and site t+1 (the forward temporal factors).
        let mut reset = 0;
        for k in 0..self.slices {
            let flagged = self.jump_flags[k] || (k > 0 && self.jump_flags[k - 1]);
            if flagged {
                self.ep.reset_site(k);
                reset += 1;
            }
        }
        let ChunkEngine { ep, prior_buf, .. } = self;
        ep.warm_start(prior_buf);
        reset
    }

    /// Runs EP on the engine farm (allocation-free after the first run).
    pub fn run_farm(&mut self, threads: usize) -> EpRunStats {
        self.ep.run_farm(threads)
    }

    /// Posterior of `event` at `slice`, in *count* units (denormalized).
    ///
    /// # Panics
    ///
    /// Panics if `slice` is out of range.
    pub fn posterior(&self, slice: usize, event: EventId) -> Gaussian {
        assert!(slice < self.slices, "slice {slice} out of range");
        let g = self.ep.marginal(slice * self.n_events + event.index());
        let s = self.scales[event.index()];
        Gaussian::new(g.mean * s, g.var * s * s)
    }

    /// Snapshot of the current posterior as an owned [`ChunkPosterior`]
    /// (allocates; the streaming corrector reads
    /// [`ChunkEngine::posterior`] instead).
    pub fn to_posterior(&self, converged: bool) -> ChunkPosterior {
        let n = self.slices * self.n_events;
        ChunkPosterior {
            marginals: (0..n).map(|v| self.ep.marginal(v)).collect(),
            n_events: self.n_events,
            slices: self.slices,
            scales: self.scales.as_ref().clone(),
            converged,
        }
    }
}

/// Posterior marginals of one chunk.
#[derive(Debug, Clone)]
pub struct ChunkPosterior {
    marginals: Vec<Gaussian>,
    n_events: usize,
    slices: usize,
    scales: Vec<f64>,
    /// Whether EP reached its tolerance.
    pub converged: bool,
}

impl ChunkPosterior {
    /// Number of time slices.
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Posterior of `event` at `slice`, in *count* units (denormalized).
    ///
    /// # Panics
    ///
    /// Panics if `slice` is out of range.
    pub fn posterior(&self, slice: usize, event: EventId) -> Gaussian {
        assert!(slice < self.slices, "slice {slice} out of range");
        let g = self.marginals[slice * self.n_events + event.index()];
        let s = self.scales[event.index()];
        Gaussian::new(g.mean * s, g.var * s * s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayesperf_events::{Arch, Semantic};
    use bayesperf_inference::mcmc::{McmcConfig, McmcSampler, Target};
    use bayesperf_simcpu::{pack_round_robin, ConstantTruth, NoiseModel, Pmu, PmuConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_fixture() -> (Catalog, MultiplexRun) {
        let cat = Catalog::new(Arch::X86SkyLake);
        let rates = bayesperf_events::synthesize(&cat, &bayesperf_events::FreeParams::default());
        let mut truth = ConstantTruth::new(rates);
        let pmu = Pmu::new(
            &cat,
            PmuConfig {
                noise: NoiseModel {
                    measurement_sigma: 0.02,
                    ..NoiseModel::none()
                },
                ..PmuConfig::for_catalog(&cat)
            },
        );
        let events = vec![
            cat.require(Semantic::L1dMisses),
            cat.require(Semantic::IcacheMisses),
            cat.require(Semantic::L2References),
            cat.require(Semantic::L2Misses),
            cat.require(Semantic::LlcHits),
            cat.require(Semantic::LlcMisses),
            cat.require(Semantic::BrInst),
            cat.require(Semantic::BrMisp),
        ];
        let schedule = pack_round_robin(&cat, &events).unwrap();
        let run = pmu.run_multiplexed(&mut truth, &schedule, 4);
        (cat, run)
    }

    /// A cold engine over `windows`, run on the farm — one chunk of the
    /// cold corrector path.
    fn run_cold<W: AsRef<[Sample]>>(
        cat: &Catalog,
        windows: &[W],
        cfg: &ModelConfig,
    ) -> ChunkEngine {
        let mut engine = ChunkEngine::with_slices(cat, cfg, cfg.fast_ep(), windows.len());
        engine.load_cold(windows);
        engine.run_farm(1);
        engine
    }

    #[test]
    fn model_builds_with_expected_shape() {
        let (cat, run) = run_fixture();
        let cfg = ModelConfig::for_run(&run);
        let windows: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        let mut engine = ChunkEngine::with_slices(&cat, &cfg, cfg.fast_ep(), windows.len());
        engine.load_cold(&windows);
        assert_eq!(engine.slices(), 4);
    }

    #[test]
    fn observed_events_posterior_tracks_truth() {
        let (cat, run) = run_fixture();
        let cfg = ModelConfig::for_run(&run);
        let windows: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        let post = run_cold(&cat, &windows, &cfg);

        let ev = cat.require(Semantic::L1dMisses);
        // L1dMisses is observed in window 0 (first config).
        let truth = run.windows[0].truth[ev.index()];
        let g = post.posterior(0, ev);
        let rel = (g.mean - truth).abs() / truth;
        assert!(
            rel < 0.15,
            "posterior {} vs truth {} ({rel})",
            g.mean,
            truth
        );
    }

    #[test]
    fn unobserved_event_inferred_via_invariants() {
        let (cat, run) = run_fixture();
        let cfg = ModelConfig::for_run(&run);
        let windows: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        let post = run_cold(&cat, &windows, &cfg);

        // LlcReferences is never scheduled, but llc_split (refs = hits +
        // misses) ties it to two observed events.
        let ev = cat.require(Semantic::LlcReferences);
        let truth = run.windows[1].truth[ev.index()];
        let g = post.posterior(1, ev);
        let rel = (g.mean - truth).abs() / truth.max(1.0);
        assert!(
            rel < 0.35,
            "unobserved posterior {} vs truth {} ({rel})",
            g.mean,
            truth
        );
    }

    #[test]
    fn posterior_uncertainty_larger_for_unobserved() {
        let (cat, run) = run_fixture();
        let cfg = ModelConfig::for_run(&run);
        let windows: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        let post = run_cold(&cat, &windows, &cfg);

        let observed = cat.require(Semantic::Cycles); // fixed, every window
        let unobserved = cat.require(Semantic::DtlbMisses); // no invariant to observed set
        let go = post.posterior(2, observed);
        let gu = post.posterior(2, unobserved);
        let rel_sd_obs = go.std_dev() / go.mean.abs().max(1.0);
        let rel_sd_un = gu.std_dev() / gu.mean.abs().max(1.0);
        assert!(
            rel_sd_un > rel_sd_obs,
            "unobserved rel-sd {rel_sd_un} should exceed observed {rel_sd_obs}"
        );
    }

    #[test]
    fn extrapolated_slices_keep_inflated_uncertainty() {
        // A driven run where group 0 runs only in window 0 and its events
        // are carry-forward extrapolations afterwards. Treating those
        // carry-forwards as real reads would collapse the posterior around
        // a value that is not a measurement; the extrapolated observation
        // model must keep the uncertainty inflated instead.
        let cat = Catalog::new(Arch::X86SkyLake);
        let rates = bayesperf_events::synthesize(&cat, &bayesperf_events::FreeParams::default());
        let mut truth = ConstantTruth::new(rates.clone());
        let pmu = Pmu::new(
            &cat,
            PmuConfig {
                noise: NoiseModel {
                    measurement_sigma: 0.02,
                    ..NoiseModel::none()
                },
                ..PmuConfig::for_catalog(&cat)
            },
        );
        // DtlbMisses has no invariant path to the always-measured fixed
        // counters (see posterior_uncertainty_larger_for_unobserved), so
        // its unscheduled-slice posterior is governed by the observation
        // model under test, not by invariant coupling.
        let ev = cat.require(Semantic::DtlbMisses);
        let schedule = vec![
            bayesperf_simcpu::Configuration::new_unchecked(vec![ev]),
            bayesperf_simcpu::Configuration::new_unchecked(vec![
                cat.require(Semantic::BrInst),
                cat.require(Semantic::BrMisp),
                cat.require(Semantic::UopsIssued),
                cat.require(Semantic::UopsRetired),
            ]),
        ];
        let run = pmu.run_driven(
            &mut truth,
            &schedule,
            4,
            bayesperf_simcpu::Extrapolate::LinuxScaled,
            |w, _| usize::from(w > 0),
        );
        assert!(run.windows[2].sample_for(ev).unwrap().is_extrapolated());

        let cfg = ModelConfig::for_run(&run);
        let windows: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        let posterior = |wins: &[Vec<Sample>]| run_cold(&cat, wins, &cfg);
        let honest = posterior(&windows);

        // The regression this feature prevents: relabel the carry-forwards
        // as 4-sub-sample reads and the posterior snaps shut around them.
        let mut lying = windows.clone();
        for w in &mut lying {
            for s in w {
                if s.is_extrapolated() {
                    s.sub_n = 4;
                }
            }
        }
        let fooled = posterior(&lying);

        let sd_measured = honest.posterior(0, ev).std_dev();
        let sd_extrap = honest.posterior(2, ev).std_dev();
        let sd_fooled = fooled.posterior(2, ev).std_dev();
        assert!(
            sd_extrap > 1.5 * sd_measured,
            "extrapolated slice sd {sd_extrap} must stay well above measured {sd_measured}"
        );
        assert!(
            sd_extrap > 1.5 * sd_fooled,
            "honest extrapolation sd {sd_extrap} vs read-masquerade {sd_fooled}"
        );
    }

    #[test]
    fn prior_chaining_carries_information() {
        let (cat, run) = run_fixture();
        let cfg = ModelConfig::for_run(&run);
        let windows: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        let mut first = run_cold(&cat, &windows[..2], &cfg);
        first.capture_chain_prior();
        let mut post = ChunkEngine::with_slices(&cat, &cfg, cfg.fast_ep(), 2);
        post.set_chain_prior(first.chain_prior());
        post.load_cold(&windows[2..]);
        post.run_farm(1);
        // An event only measured in chunk 1's windows still has a
        // non-prior posterior in chunk 2 thanks to chaining + temporal.
        let ev = cat.require(Semantic::L1dMisses);
        let truth = run.windows[2].truth[ev.index()];
        let g = post.posterior(0, ev);
        let rel = (g.mean - truth).abs() / truth;
        assert!(rel < 0.5, "chained posterior {} vs {truth}", g.mean);
    }

    #[test]
    fn warm_reload_tracks_a_new_window() {
        // Engine correctness: a warm reload with the *same* windows and no
        // chain prior must reproduce posteriors close to the cold run —
        // the EP fixed point does not move when the data does not.
        let (cat, run) = run_fixture();
        let cfg = ModelConfig::for_run(&run);
        let windows: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        let mut engine = ChunkEngine::with_slices(&cat, &cfg, cfg.fast_ep(), windows.len());
        engine.load_cold(&windows);
        engine.run_farm(1);
        let ev = cat.require(Semantic::L1dMisses);
        let cold = engine.posterior(0, ev);

        let reset = engine.load_warm_adaptive(&windows);
        assert_eq!(reset, 0, "same data: no change point");
        let stats = engine.run_farm(1);
        let warm = engine.posterior(0, ev);
        assert!(stats.sweeps_run <= 2, "warm run capped at 2 sweeps");
        let rel = (warm.mean - cold.mean).abs() / cold.mean.abs().max(1.0);
        assert!(
            rel < 0.05,
            "warm {} vs cold {} ({rel})",
            warm.mean,
            cold.mean
        );
    }

    #[test]
    fn adaptive_load_resets_only_jumped_slices() {
        let (cat, run) = run_fixture();
        let cfg = ModelConfig::for_run(&run);
        let windows: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        let mut engine = ChunkEngine::with_slices(&cat, &cfg, cfg.fast_ep(), windows.len());
        engine.load_cold(&windows);
        engine.run_farm(1);

        // Same data again: steady state, no slice should reset.
        let reset = engine.load_warm_adaptive(&windows);
        assert_eq!(reset, 0, "steady-state reload must not reset sites");
        engine.run_farm(1);

        // Scale every sample of the last window by 4x: a clear phase jump
        // confined to one slice — that slice's site resets (there is no
        // following slice here), the rest stay warm.
        let mut jumped = windows.clone();
        let last = jumped.len() - 1;
        for s in &mut jumped[last] {
            s.value *= 4.0;
            s.sub_mean *= 4.0;
        }
        let reset = engine.load_warm_adaptive(&jumped);
        assert_eq!(reset, 1, "exactly the jumped slice resets");
    }

    #[test]
    fn adaptive_load_is_quiet_in_steady_state_and_resets_on_uniform_jump() {
        let (cat, run) = run_fixture();
        let cfg = ModelConfig::for_run(&run);
        let windows: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        let mut engine = ChunkEngine::with_slices(&cat, &cfg, cfg.fast_ep(), windows.len());
        engine.load_cold(&windows);
        let reset = engine.load_warm_adaptive(&windows);
        assert_eq!(reset, 0, "same data: no jumps");
        let mut jumped = windows.clone();
        for w in &mut jumped {
            for s in w {
                s.value *= 5.0;
            }
        }
        // The scan is chronological: each event registers the 5x move the
        // first time it is re-observed (later windows match the new
        // level), so at least the first slice reads as a jump.
        let reset = engine.load_warm_adaptive(&jumped);
        assert!(reset >= 1, "uniform 5x move must reset a site ({reset})");
    }

    #[test]
    #[should_panic(expected = "chunk must contain at least one window")]
    fn empty_chunk_rejected() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let cfg = ModelConfig {
            slices: 0,
            prior_mean: 1.0,
            prior_sd: 3.0,
            temporal_tau: 0.3,
            obs_sigma_floor: 0.02,
            extrap_sigma: 0.5,
            inv_sigma_floor: 0.02,
            cycles_per_window: 1e7,
        };
        ChunkEngine::with_slices(&cat, &cfg, cfg.fast_ep(), 0);
    }

    fn pmu_fixture(arch: Arch) -> (Catalog, MultiplexRun) {
        let cat = Catalog::new(arch);
        let rates = bayesperf_events::synthesize(&cat, &bayesperf_events::FreeParams::default());
        let mut truth = ConstantTruth::new(rates);
        let pmu = Pmu::new(&cat, PmuConfig::for_catalog(&cat));
        let events: Vec<EventId> = cat.programmable_events().into_iter().take(12).collect();
        let schedule = pack_round_robin(&cat, &events).unwrap();
        let run = pmu.run_multiplexed(&mut truth, &schedule, 3);
        (cat, run)
    }

    #[test]
    fn every_invariant_has_a_linear_form() {
        for arch in [Arch::X86SkyLake, Arch::Ppc64Power9] {
            for cat in [Catalog::new(arch), Catalog::with_observation_plane(arch)] {
                let scales = event_scales(&cat, 1.0e7);
                let x: Vec<f64> = (0..cat.len()).map(|i| 0.5 + 0.1 * i as f64).collect();
                let env = |id: EventId| x[id.index()] * scales[id.index()];
                for inv in cat.invariants() {
                    for side in [&inv.lhs, &inv.rhs] {
                        assert!(
                            side.linear_form().is_some(),
                            "{arch:?} {}: {side}",
                            inv.name
                        );
                        // The row built from it evaluates the side in counts.
                        let (got, want) = (
                            LinearRow::of(side, &scales).unwrap().eval(&x),
                            side.eval(&env),
                        );
                        assert!(
                            (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                            "{arch:?} {}: row {got} vs expr {want}",
                            inv.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invariant ratio is not linear")]
    fn nonlinear_invariant_is_rejected_by_name() {
        let (a, b) = (EventId::from_raw(0), EventId::from_raw(1));
        let inv = Invariant::new(
            "ratio",
            Expr::event(a),
            Expr::event(a) * Expr::event(b),
            0.02,
        );
        InvariantFactor::new(&inv, &[1.0, 1.0], 0.02);
    }

    #[test]
    fn eliminated_solve_matches_the_dense_solve() {
        for arch in [Arch::X86SkyLake, Arch::Ppc64Power9] {
            let (cat, run) = pmu_fixture(arch);
            let cfg = ModelConfig::for_run(&run);
            let windows: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
            let ne = cat.len();
            let mut engine = run_cold(&cat, &windows, &cfg);
            // A realistic cavity for slice 1's site: the posterior after a
            // cold run, widened.
            let vars = engine.ep.site_mut::<SliceSite>(1).unwrap().vars.clone();
            let cavity: Vec<Gaussian> = vars
                .iter()
                .map(|&v| {
                    let g = engine.ep.marginal(v);
                    Gaussian::new(g.mean, 2.0 * g.var)
                })
                .collect();
            let site: &SliceSite = engine.ep.site_mut::<SliceSite>(1).unwrap();
            let mut eliminated = AnalyticScratch::new();
            assert!(site.analytic_moments(&cavity, &mut eliminated));

            // Both slices in one 2·n_events solve, the temporal factors as
            // terms.
            let mut dense = AnalyticScratch::new();
            let start = cavity
                .iter()
                .enumerate()
                .map(|(j, c)| site.obs.get(j).copied().flatten().map_or(c.mean, |t| t.loc));
            assert!(dense.irls(&cavity, start, |ws| {
                for e in 0..ne {
                    ws.add_term(&[e, ne + e], &[1.0, -1.0], 0.0, site.drift);
                }
                site.add_observations(ws) && site.add_invariants(ws)
            }));
            for j in 0..2 * ne {
                let (m, v) = (eliminated.mean()[j], eliminated.var()[j]);
                let (dm, dv) = (dense.mean()[j], dense.var()[j]);
                assert!(
                    (m - dm).abs() <= 1e-9 * dm.abs(),
                    "{arch:?} local {j}: mean {m} vs dense {dm}"
                );
                assert!(
                    (v - dv).abs() <= 1e-9 * dv,
                    "{arch:?} local {j}: var {v} vs dense {dv}"
                );
            }
        }
    }

    #[test]
    fn nan_observation_is_quarantined_not_panicked_on() {
        let (cat, run) = run_fixture();
        let cfg = ModelConfig::for_run(&run);
        let mut windows: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        // A read whose Student-t gets a NaN location.
        windows[1][0].value = f64::NAN;
        let mut engine = ChunkEngine::with_slices(&cat, &cfg, cfg.fast_ep(), windows.len());
        engine.load_cold(&windows);
        let stats = engine.run_farm(1);
        assert!(
            stats.sites_quarantined > 0,
            "the poisoned slice quarantines"
        );
        for t in 0..windows.len() {
            for e in cat.iter() {
                let g = engine.posterior(t, e.id);
                assert!(g.mean.is_finite(), "slice {t} {}: {g:?}", e.name);
            }
        }
    }

    /// The exact tilted density of a [`SliceSite`] over its local state:
    /// cavity, Student-t observations, invariants on the relative residual
    /// with the normalizer evaluated at the state itself, and the temporal
    /// random walk.
    struct Tilted<'a> {
        site: &'a SliceSite,
        cavity: &'a [Gaussian],
    }

    impl Target for Tilted<'_> {
        fn dim(&self) -> usize {
            self.cavity.len()
        }

        fn log_density(&self, x: &[f64]) -> f64 {
            let ne = self.site.obs.len();
            let mut lp: f64 = x.iter().zip(self.cavity).map(|(x, c)| c.log_pdf(*x)).sum();
            for (e, o) in self.site.obs.iter().enumerate() {
                lp += o.map_or(0.0, |t| t.log_pdf(x[e]));
            }
            for inv in self.site.invariants.iter() {
                let (l, r) = (inv.lhs.eval(x), inv.rhs.eval(x));
                let rel = (l - r) / l.abs().max(r.abs()).max(1.0);
                lp += Gaussian::new(0.0, inv.var).log_pdf(rel);
            }
            let walk = Gaussian::new(0.0, self.site.drift);
            for e in 0..x.len() - ne {
                lp += walk.log_pdf(x[e] - x[ne + e]);
            }
            lp
        }
    }

    #[test]
    fn irls_moments_match_a_long_mcmc_chain() {
        // x0 = x1 + x2 in counts, with scales 2, 1, 1: one linear
        // invariant, Student-t reads of x1 (ν = 3) and x2 (ν = 30), and
        // the previous slice's three variables through the temporal pair.
        let (e0, e1, e2) = (
            EventId::from_raw(0),
            EventId::from_raw(1),
            EventId::from_raw(2),
        );
        let scales = vec![2.0, 1.0, 1.0];
        let inv = Invariant::new(
            "sum",
            Expr::event(e0),
            Expr::event(e1) + Expr::event(e2),
            0.05,
        );
        let site = SliceSite {
            vars: (0..6).collect(),
            obs: vec![
                None,
                Some(StudentT::new(1.1, 0.15, 3.0)),
                Some(StudentT::new(0.95, 0.1, 30.0)),
            ],
            drift: 0.35 * 0.35,
            invariants: vec![InvariantFactor::new(&inv, &scales, 0.05)].into(),
            scales: std::sync::Arc::new(scales),
            source_noise: std::sync::Arc::new(vec![SourceNoise::StudentT]),
        };
        let mut cavity = vec![Gaussian::new(1.0, 0.3 * 0.3); 3];
        cavity.extend([Gaussian::new(1.0, 0.2 * 0.2); 3]);
        let mut ws = AnalyticScratch::new();
        assert!(site.analytic_moments(&cavity, &mut ws));

        // The oracle: independent chains of 500 burn-in and 2000 collected
        // sweeps; the spread of their means and variances is the Monte
        // Carlo error the tolerance is stated in.
        const CHAINS: usize = 8;
        let sampler = McmcSampler::new(McmcConfig {
            burn_in: 500,
            samples: 2000,
        });
        let init: Vec<f64> = cavity.iter().map(|c| c.mean).collect();
        let scales: Vec<f64> = cavity.iter().map(Gaussian::std_dev).collect();
        let chains: Vec<_> = (0..CHAINS as u64)
            .map(|seed| {
                let mut target = Tilted {
                    site: &site,
                    cavity: &cavity,
                };
                sampler.run(
                    &mut target,
                    &init,
                    &scales,
                    &mut StdRng::seed_from_u64(seed),
                )
            })
            .collect();
        let pooled = |f: &dyn Fn(usize) -> f64| -> (f64, f64) {
            let vals: Vec<f64> = (0..CHAINS).map(f).collect();
            let mean = vals.iter().sum::<f64>() / CHAINS as f64;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (CHAINS - 1) as f64;
            (mean, (var / CHAINS as f64).sqrt())
        };
        // Tolerances: a mean within 0.1 posterior sd, a variance within
        // 10% — or 35% for x0 and x1, which carry the ν = 3 read: a
        // Gaussian fitted at the mode under-covers a heavy tail — each
        // widened by four of the oracle's standard errors.
        for j in 0..6 {
            let (mean, mean_se) = pooled(&|c| chains[c].mean[j]);
            let (var, var_se) = pooled(&|c| chains[c].var[j]);
            let (m, v) = (ws.mean()[j], ws.var()[j]);
            assert!(
                (m - mean).abs() <= 0.1 * var.sqrt() + 4.0 * mean_se,
                "local {j}: IRLS mean {m} vs chain {mean} (se {mean_se})"
            );
            let rel = if j < 2 { 0.35 } else { 0.1 };
            assert!(
                (v - var).abs() <= rel * var + 4.0 * var_se,
                "local {j}: IRLS var {v} vs chain {var} (se {var_se})"
            );
        }
    }
}
