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
//!   evaluated on the denormalized slice state;
//! * **temporal** factors: a Gaussian random-walk coupling each event's
//!   value to its value in the preceding slice — this is what lets samples
//!   of overlapping events in adjacent configurations inform unscheduled
//!   events (Fig. 2's `⇝` edges).
//!
//! # Engine reuse across windows
//!
//! The factor-graph *topology* is a pure function of the catalog: every
//! slice has one observation slot per event (inactive slots contribute
//! zero likelihood), the invariant set is fixed, and the temporal chain
//! depends only on the slice count. Only the observed counts change from
//! window to window. [`ChunkEngine`] therefore builds the sites, the CSR
//! factor adjacency and the EP engine (with its cached sweep schedule)
//! **once**, and per window merely swaps the observation slots and either
//! [`ChunkEngine::load_warm_adaptive`]s (keep EP messages, except on the
//! slices of a detected change point — the warm corrector path) or
//! [`ChunkEngine::load_cold`]s (reset messages — the cold corrector path).
//! A ragged final chunk gets a one-shot engine of its own slice count
//! ([`ChunkEngine::with_slices`]), loaded cold.
//!
//! Everything `x`-independent is also computed once, never per MCMC
//! proposal: each invariant's `lhs` and `rhs` are compiled at build into
//! flat postfix programs shared by every slice, and every factor's
//! Gaussian or Student-t normalizer is hoisted at build (temporal,
//! invariant) or at observation swap (observation). Both forms evaluate
//! bit-identically to `Expr::eval` and `log_pdf`.

use crate::error_model::{extrapolated_observation, gauge_observation, observation};
use bayesperf_events::{Catalog, EventId, Expr, SourceNoise};
use bayesperf_graph::CsrAdjacency;
use bayesperf_inference::{
    AdaptiveBudget, EpConfig, EpRunStats, EpSite, ExpectationPropagation, Gaussian, GaussianLogPdf,
    McmcConfig, StudentT, StudentTLogPdf,
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
    /// 4 cold sweeps, 2 warm sweeps, and an adaptive MCMC floor of roughly
    /// a third of the full budget for warm sites whose cavity is quiet.
    pub fn fast_ep(&self) -> EpConfig {
        EpConfig {
            max_sweeps: 4,
            warm_max_sweeps: 2,
            damping: 0.7,
            tol: 0.05,
            max_precision_ratio: 1e6,
            mcmc: McmcConfig {
                burn_in: 70,
                samples: 150,
            },
            adaptive: AdaptiveBudget {
                move_tol: 2.5,
                jump_tol: 40.0,
                burn_in: 18,
                samples: 40,
            },
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

/// One instruction of a compiled [`Program`].
#[derive(Debug, Clone, Copy)]
enum Op {
    Const(f64),
    /// The denormalized value of an event: `x[local] · scale`.
    Event {
        local: usize,
        scale: f64,
    },
    Add,
    Sub,
    Mul,
    Div,
}

/// Deepest operand stack a [`Program`] may need (the built-in catalogs'
/// invariants need at most 3).
const MAX_STACK: usize = 8;

/// An invariant side compiled once, at engine build, into a flat postfix
/// program over the normalized slice state.
///
/// [`Program::eval`] is bit-identical to [`Expr::eval`] on the denormalized
/// state: each node performs the same operation on the same operand values
/// (subexpressions are pure, so evaluation order cannot change them), event
/// values are `x · scale` as before, and a zero divisor still yields `0.0`.
#[derive(Debug, Clone)]
struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// Compiles `expr`, whose event ids index `scales` and the state.
    ///
    /// # Panics
    ///
    /// Panics if evaluating `expr` needs more than [`MAX_STACK`] operands.
    fn compile(expr: &Expr, scales: &[f64]) -> Program {
        fn emit(expr: &Expr, scales: &[f64], ops: &mut Vec<Op>) -> usize {
            let (a, b, op) = match expr {
                Expr::Const(v) => {
                    ops.push(Op::Const(*v));
                    return 1;
                }
                Expr::Event(id) => {
                    let local = id.index();
                    ops.push(Op::Event {
                        local,
                        scale: scales[local],
                    });
                    return 1;
                }
                Expr::Add(a, b) => (a, b, Op::Add),
                Expr::Sub(a, b) => (a, b, Op::Sub),
                Expr::Mul(a, b) => (a, b, Op::Mul),
                Expr::Div(a, b) => (a, b, Op::Div),
            };
            let da = emit(a, scales, ops);
            let db = emit(b, scales, ops);
            ops.push(op);
            da.max(db + 1)
        }
        let mut ops = Vec::new();
        let depth = emit(expr, scales, &mut ops);
        assert!(
            depth <= MAX_STACK,
            "expression needs {depth} stack slots, more than {MAX_STACK}: {expr}"
        );
        Program { ops }
    }

    fn eval(&self, x: &[f64]) -> f64 {
        let mut stack = [0.0f64; MAX_STACK];
        let mut top = 0;
        for op in &self.ops {
            let v = match *op {
                Op::Const(v) => v,
                Op::Event { local, scale } => x[local] * scale,
                op => {
                    top -= 1;
                    let (a, b) = (stack[top - 1], stack[top]);
                    top -= 1;
                    match op {
                        Op::Add => a + b,
                        Op::Sub => a - b,
                        Op::Mul => a * b,
                        _ if b == 0.0 => 0.0,
                        _ => a / b,
                    }
                }
            };
            stack[top] = v;
            top += 1;
        }
        stack[0]
    }
}

/// An invariant residual factor: a Gaussian on the relative residual
/// `(lhs − rhs) / max(|lhs|, |rhs|, 1)` of the denormalized slice state.
/// Compiled once per engine and shared by every slice.
struct InvariantFactor {
    lhs: Program,
    rhs: Program,
    gauss: GaussianLogPdf,
    /// The events either side reads (ascending): the factor's adjacency.
    events: Vec<usize>,
}

impl InvariantFactor {
    fn log_pdf(&self, x: &[f64]) -> f64 {
        let l = self.lhs.eval(x);
        let r = self.rhs.eval(x);
        let rel = (l - r) / l.abs().max(r.abs()).max(1.0);
        self.gauss.eval(rel)
    }
}

/// One factor of a slice site. Every Gaussian and Student-t term carries
/// its normalizer, computed at engine build or observation swap.
enum Factor {
    /// Observation slot on a single local variable; the Student-t lives in
    /// the site's `obs` table and is swapped per window (`None` = the
    /// event was not sampled in this window; zero likelihood).
    Obs { local: usize },
    /// Gaussian random walk between the previous and current slice values.
    Temporal {
        prev: usize,
        cur: usize,
        gauss: GaussianLogPdf,
    },
    /// Invariant residual factor over the current slice (an index into
    /// the site's `invariants`).
    Inv(usize),
}

/// An EP site for one time slice (plus the previous slice's variables,
/// which its temporal factors touch).
struct SliceSite {
    /// Global variable indices: `0..n_events` → this slice,
    /// `n_events..2·n_events` → previous slice (absent for slice 0).
    vars: Vec<usize>,
    factors: Vec<Factor>,
    /// Per-event observation slot (indexed by local variable `0..n_events`).
    obs: Vec<Option<StudentTLogPdf>>,
    /// CSR variable→factor index: `adj.row(i)` is the factor set touching
    /// local variable `i` — the sparse locality the MCMC delta path walks.
    adj: CsrAdjacency,
    hints: Vec<Option<f64>>,
    scale_hints: Vec<Option<f64>>,
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
    /// slots and hints reset, then sampled events re-filled.
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
        for h in &mut self.hints {
            *h = None;
        }
        for s in &mut self.scale_hints {
            *s = None;
        }
        for s in window {
            let local = s.event.index();
            let dist = self.observation_dist(s, sigma_floor, extrap_sigma);
            self.hints[local] = Some(dist.loc);
            self.scale_hints[local] = Some(dist.scale * 3.0);
            self.obs[local] = Some(StudentTLogPdf::new(&dist));
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
}

impl EpSite for SliceSite {
    fn vars(&self) -> &[usize] {
        &self.vars
    }

    fn num_factors(&self) -> usize {
        self.factors.len()
    }

    fn factors_of(&self, i: usize) -> &[u32] {
        self.adj.row(i)
    }

    fn factor_log_pdf(&self, f: usize, x: &[f64]) -> f64 {
        match &self.factors[f] {
            Factor::Obs { local } => match &self.obs[*local] {
                Some(dist) => dist.eval(x[*local]),
                None => 0.0,
            },
            Factor::Temporal { prev, cur, gauss } => gauss.eval(x[*cur] - x[*prev]),
            Factor::Inv(k) => self.invariants[*k].log_pdf(x),
        }
    }

    fn init_hint(&self, i: usize) -> Option<f64> {
        self.hints[i]
    }

    fn scale_hint(&self, i: usize) -> Option<f64> {
        self.scale_hints[i]
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
        let tau_gauss =
            GaussianLogPdf::new(&Gaussian::new(0.0, cfg.temporal_tau * cfg.temporal_tau));
        let invariants: std::sync::Arc<[InvariantFactor]> = catalog
            .invariants()
            .iter()
            .map(|inv| {
                let mut ids = inv.lhs.events();
                ids.extend(inv.rhs.events());
                ids.sort_unstable();
                ids.dedup();
                let sigma = inv.rel_noise.max(cfg.inv_sigma_floor);
                InvariantFactor {
                    lhs: Program::compile(&inv.lhs, &scales),
                    rhs: Program::compile(&inv.rhs, &scales),
                    gauss: GaussianLogPdf::new(&Gaussian::new(0.0, sigma * sigma)),
                    events: ids.iter().map(|id| id.index()).collect(),
                }
            })
            .collect();

        for t in 0..slices {
            // Site variables: slice t first, then slice t-1 (if any).
            let mut vars: Vec<usize> = (0..ne).map(|e| t * ne + e).collect();
            if t > 0 {
                vars.extend((0..ne).map(|e| (t - 1) * ne + e));
            }
            let nlocal = vars.len();
            let mut factors = Vec::new();
            // Factor adjacency per local variable, flattened to CSR below.
            let mut edges: Vec<(usize, u32)> = Vec::new();

            // One observation slot per event of slice t; slots activate
            // when a window delivers a sample for the event.
            for e in 0..ne {
                edges.push((e, factors.len() as u32));
                factors.push(Factor::Obs { local: e });
            }

            // Invariant factors on slice t.
            for (k, inv) in invariants.iter().enumerate() {
                edges.extend(inv.events.iter().map(|&e| (e, factors.len() as u32)));
                factors.push(Factor::Inv(k));
            }

            // Temporal factors between slice t-1 and t.
            if t > 0 {
                for e in 0..ne {
                    edges.push((ne + e, factors.len() as u32));
                    edges.push((e, factors.len() as u32));
                    factors.push(Factor::Temporal {
                        prev: ne + e,
                        cur: e,
                        gauss: tau_gauss,
                    });
                }
            }
            let adj = CsrAdjacency::from_edges(nlocal, edges.iter().copied());

            ep.add_site(SliceSite {
                vars,
                factors,
                obs: vec![None; ne],
                adj,
                hints: vec![None; nlocal],
                scale_hints: vec![None; nlocal],
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
            drift: cfg.temporal_tau * cfg.temporal_tau,
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
    /// set). The next run pays the full sweep/MCMC budget.
    pub fn load_cold<W: AsRef<[Sample]>>(&mut self, windows: &[W]) {
        self.swap_observations(windows);
        self.compose_prior();
        let ChunkEngine { ep, prior_buf, .. } = self;
        ep.cold_reset(prior_buf);
    }

    /// Loads a window chunk warm: observations swapped, EP messages
    /// **kept** as the starting approximation, prior re-seated. The next
    /// run converges in 1–2 sweeps with adaptive MCMC budgets — the
    /// incremental sliding-window path. Any slice whose window moved more
    /// than a factor of `JUMP_RATIO` (2) on more than `JUMP_FRAC` (45%) of
    /// its observations (vs each event's previous observation, scanned
    /// chronologically) has the sites touching its variables reset to the
    /// vacuous approximation. Those sites then run with the full cold
    /// budget and vote to extend the warm run, while unaffected slices keep
    /// the cheap warm path — a data phase change costs a partial re-solve
    /// instead of a whole-model cold start. Returns the number of sites
    /// reset. Allocation-free after warm-up.
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
    pub fn run_farm(&mut self, seed: u64, threads: usize) -> EpRunStats {
        self.ep.run_farm(seed, threads)
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
    use bayesperf_inference::FactorCache;
    use bayesperf_simcpu::{pack_round_robin, ConstantTruth, NoiseModel, Pmu, PmuConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// A cold engine over `windows`, run on the farm with `seed` — one
    /// chunk of the cold corrector path.
    fn run_cold<W: AsRef<[Sample]>>(
        cat: &Catalog,
        windows: &[W],
        cfg: &ModelConfig,
        seed: u64,
    ) -> ChunkEngine {
        let mut engine = ChunkEngine::with_slices(cat, cfg, cfg.fast_ep(), windows.len());
        engine.load_cold(windows);
        engine.run_farm(seed, 1);
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
        let post = run_cold(&cat, &windows, &cfg, 5);

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
        let post = run_cold(&cat, &windows, &cfg, 6);

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
        let post = run_cold(&cat, &windows, &cfg, 7);

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
        let posterior = |wins: &[Vec<Sample>]| run_cold(&cat, wins, &cfg, 21);
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
        let mut first = run_cold(&cat, &windows[..2], &cfg, 8);
        first.capture_chain_prior();
        let mut post = ChunkEngine::with_slices(&cat, &cfg, cfg.fast_ep(), 2);
        post.set_chain_prior(first.chain_prior());
        post.load_cold(&windows[2..]);
        post.run_farm(8, 1);
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
        engine.run_farm(3, 1);
        let ev = cat.require(Semantic::L1dMisses);
        let cold = engine.posterior(0, ev);

        let reset = engine.load_warm_adaptive(&windows);
        assert_eq!(reset, 0, "same data: no change point");
        let stats = engine.run_farm(4, 1);
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
        engine.run_farm(3, 1);

        // Same data again: steady state, no slice should reset.
        let reset = engine.load_warm_adaptive(&windows);
        assert_eq!(reset, 0, "steady-state reload must not reset sites");
        engine.run_farm(4, 1);

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

    /// A normalized state that reaches every branch of an invariant:
    /// ordinary counts, exact zeros (zero divisors), negatives and values
    /// far below one.
    fn probe_state(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.gen_range(0..6u32) {
                0 => 0.0,
                1 => -3.0 * rng.gen::<f64>(),
                2 => 1e-9 * rng.gen::<f64>(),
                _ => 4.0 * rng.gen::<f64>(),
            })
            .collect()
    }

    /// The denormalized environment the parent evaluated `Expr`s against.
    fn denormalized<'a>(x: &'a [f64], scales: &'a [f64]) -> impl Fn(EventId) -> f64 + 'a {
        move |id: EventId| x[id.index()] * scales[id.index()]
    }

    #[test]
    fn compiled_invariants_match_expr_eval_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for arch in [Arch::X86SkyLake, Arch::Ppc64Power9] {
            for cat in [Catalog::new(arch), Catalog::with_observation_plane(arch)] {
                let scales = event_scales(&cat, 1.0e7);
                for inv in cat.invariants() {
                    let lhs = Program::compile(&inv.lhs, &scales);
                    let rhs = Program::compile(&inv.rhs, &scales);
                    for _ in 0..200 {
                        let x = probe_state(&mut rng, cat.len());
                        let env = denormalized(&x, &scales);
                        assert_eq!(
                            lhs.eval(&x).to_bits(),
                            inv.lhs.eval(&env).to_bits(),
                            "{:?} {}: lhs at {x:?}",
                            arch,
                            inv.name
                        );
                        assert_eq!(
                            rhs.eval(&x).to_bits(),
                            inv.rhs.eval(&env).to_bits(),
                            "{:?} {}: rhs at {x:?}",
                            arch,
                            inv.name
                        );
                    }
                }
            }
        }
    }

    fn random_expr(rng: &mut StdRng, depth: u32, n: usize) -> Expr {
        if depth == 0 || rng.gen_range(0..4u32) == 0 {
            return if rng.gen_range(0..3u32) == 0 {
                Expr::konst([0.0, -2.5, 1.0, 64.0, 1e-3][rng.gen_range(0..5usize)])
            } else {
                Expr::event(EventId::from_raw(rng.gen_range(0..n) as u16))
            };
        }
        let a = random_expr(rng, depth - 1, n);
        let b = random_expr(rng, depth - 1, n);
        match rng.gen_range(0..4u32) {
            0 => a + b,
            1 => a - b,
            2 => a * b,
            _ => a / b,
        }
    }

    proptest! {
        #[test]
        fn compiled_random_expressions_match_expr_eval_bitwise(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 5;
            let scales: Vec<f64> = (0..n)
                .map(|_| [1.0, 0.5, 1.0e3, 7.25][rng.gen_range(0..4usize)])
                .collect();
            let expr = random_expr(&mut rng, 6, n);
            let program = Program::compile(&expr, &scales);
            for _ in 0..50 {
                let x = probe_state(&mut rng, n);
                prop_assert_eq!(
                    program.eval(&x).to_bits(),
                    expr.eval(&denormalized(&x, &scales)).to_bits(),
                    "{} at {:?}",
                    expr,
                    x
                );
            }
        }
    }

    /// Factor `f` of slice site `site` at `x`, evaluated the way the
    /// uncached code did: `StudentT::log_pdf`, `Gaussian::log_pdf` and
    /// `Expr::eval`, every normalizer recomputed.
    fn reference_factor(
        site: &SliceSite,
        cat: &Catalog,
        cfg: &ModelConfig,
        window: &[Sample],
        f: usize,
        x: &[f64],
    ) -> f64 {
        let ne = cat.len();
        let n_inv = cat.invariants().len();
        if f < ne {
            let extrap = cfg.extrap_sigma.max(cfg.obs_sigma_floor);
            return match window.iter().rev().find(|s| s.event.index() == f) {
                Some(s) => site
                    .observation_dist(s, cfg.obs_sigma_floor, extrap)
                    .log_pdf(x[f]),
                None => 0.0,
            };
        }
        if f < ne + n_inv {
            let inv = &cat.invariants()[f - ne];
            let env = denormalized(x, &site.scales);
            let l = inv.lhs.eval(&env);
            let r = inv.rhs.eval(&env);
            let rel = (l - r) / l.abs().max(r.abs()).max(1.0);
            let sigma = inv.rel_noise.max(cfg.inv_sigma_floor);
            return Gaussian::new(0.0, sigma * sigma).log_pdf(rel);
        }
        let e = f - ne - n_inv;
        let tau = cfg.temporal_tau;
        Gaussian::new(0.0, tau * tau).log_pdf(x[e] - x[ne + e])
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
    fn cached_factor_values_and_deltas_match_uncached_evaluation() {
        for arch in [Arch::X86SkyLake, Arch::Ppc64Power9] {
            let (cat, run) = pmu_fixture(arch);
            let cfg = ModelConfig::for_run(&run);
            let windows: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
            let mut engine = ChunkEngine::with_slices(&cat, &cfg, cfg.fast_ep(), windows.len());
            engine.load_cold(&windows);
            // Slice 1 carries all three factor kinds.
            let t = 1;
            let site: &SliceSite = engine.ep.site_mut::<SliceSite>(t).unwrap();
            let reference =
                |f: usize, x: &[f64]| reference_factor(site, &cat, &cfg, &windows[t], f, x);
            let uncached_delta = |x: &mut [f64], i: usize, new: f64| {
                let old = x[i];
                let mut before = 0.0;
                for &f in site.factors_of(i) {
                    before += reference(f as usize, x);
                }
                x[i] = new;
                let mut after = 0.0;
                for &f in site.factors_of(i) {
                    after += reference(f as usize, x);
                }
                x[i] = old;
                after - before
            };

            let mut rng = StdRng::seed_from_u64(0xcac4e);
            let mut x: Vec<f64> = (0..site.vars().len())
                .map(|_| 0.25 + 1.5 * rng.gen::<f64>())
                .collect();
            let mut cache = FactorCache::new();
            cache.start(site, &x);
            let mut accepted = 0;
            for step in 0..600 {
                let i = rng.gen_range(0..x.len());
                let new = x[i] + 0.4 * (rng.gen::<f64>() - 0.5);
                let want = uncached_delta(&mut x, i, new);
                let got = cache.delta(site, &mut x, i, new);
                assert_eq!(got.to_bits(), want.to_bits(), "{arch:?} step {step}: delta");
                if rng.gen::<bool>() {
                    cache.accept(site, i);
                    x[i] = new;
                    accepted += 1;
                }
                for f in 0..site.num_factors() {
                    assert_eq!(
                        cache.value(f).to_bits(),
                        reference(f, &x).to_bits(),
                        "{arch:?} step {step}: factor {f}"
                    );
                }
            }
            assert!(accepted > 100 && accepted < 500);
        }
    }
}
