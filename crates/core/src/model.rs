//! Building the unified factor graph over `k` time slices, and solving it.
//!
//! The model's variables are *(event, slice)* pairs in normalized units
//! (window counts divided by a per-event scale derived from the catalog's
//! nominal magnitudes). A chunk of `k` slices carries three kinds of
//! factors:
//!
//! * **observation** factors (§4.2): a scaled/shifted Student-t per sample
//!   delivered in a slice;
//! * **invariant** factors: for every microarchitectural invariant and
//!   every slice, a Gaussian on the *relative* residual
//!   `((lhs − rhs)/max(|lhs|,|rhs|,1))` of the denormalized slice state;
//! * **temporal** factors: a Gaussian random walk coupling each event's
//!   value to its value in the preceding slice — this is what lets samples
//!   of overlapping events in adjacent configurations inform unscheduled
//!   events (Fig. 2's `⇝` edges).
//!
//! # One solve per chunk
//!
//! [`ChunkEngine::solve`] computes the chunk's marginals by IRLS
//! ([`bayesperf_inference::AnalyticScratch::irls`], starting from the
//! observed locations and the prior mean of unobserved events). Each pass
//! turns every factor into a Gaussian-linear term at the current estimate
//! and solves the whole chunk at once:
//!
//! * a Student-t observation becomes the Gaussian
//!   [`StudentT::irls_variance`] fits at the current estimate;
//! * every invariant is affine in the events on both sides, so its
//!   `lhs − rhs` is a fixed coefficient row over the normalized state,
//!   built once at engine build from [`Expr::linear_form`]. Only the
//!   normalizer `N = max(|lhs|, |rhs|, 1)` is evaluated at the current
//!   estimate, and the term's variance is `σ²·N²`;
//! * a temporal factor is already Gaussian-linear: `x[t] − x[t−1]` with
//!   variance `τ²`.
//!
//! The chunk's precision matrix splits exactly into the connected
//! components of the catalog's invariant graph
//! ([`FactorGraph::components`], events as variables and invariants as
//! factors — the graph the schedule transformer plans on), as events of
//! different components share no factor. Each component is
//! solved on its own, its variable `(t, p)` at index `t·n_c + p`: the
//! invariants couple indices less than `n_c` apart and the random walk
//! couples indices exactly `n_c` apart, so the system is banded with
//! bandwidth `n_c`, and its banded Cholesky and band-limited variances
//! cost `O(k·n_c³)`.
//!
//! This is the paper's Alg. 1 with one site per chunk. The paper
//! partitions a chunk into per-slice EP sites to feed its accelerator's
//! parallel engines (modelled on their own in `bayesperf_accel`); solved
//! whole, the chunk's Laplace approximation is exact for its reweighted
//! Gaussian-linear system and needs no sweeps, cavities or damping.
//!
//! # Quarantine
//!
//! A malformed sample never reaches the solve: [`ChunkEngine::load`]
//! skips and counts it. Before each IRLS pass, the variance of every data
//! term — read or invariant — that slice `t` has in component `c` is
//! computed at the current estimate. If one is not finite and positive (a
//! huge read whose weight overflows, an overflowing normalizer), none of
//! that slice's reads or invariants enter component `c` again in this
//! solve; its prior and random-walk terms stay. A component whose factorization fails, or that returns a
//! non-finite marginal, is re-solved from its prior and random-walk terms
//! alone, a system that is always positive definite.
//!
//! # Engine reuse across windows
//!
//! The model's *topology* is a pure function of the catalog: every slice
//! has one observation slot per event, the invariant rows and components
//! are fixed, and the temporal chain depends only on the slice count.
//! [`ChunkEngine`] therefore builds all of it, and sizes every buffer,
//! **once**, for chunks of up to `cfg.slices` windows; per chunk it swaps
//! the observation slots of as many slices as the chunk has windows
//! ([`ChunkEngine::load`]) and solves that prefix, allocation-free. A
//! ragged final chunk is solved on the same engine: its system is the one
//! an engine built for exactly its window count would solve.

use crate::error_model::{gauge_observation, heavy_tail_observation, observation};
use bayesperf_events::{Catalog, EventId, Expr, Invariant, SourceNoise};
use bayesperf_graph::{FactorGraph, VarId};
use bayesperf_inference::{AnalyticScratch, EpRunStats, Gaussian, StudentT};
use bayesperf_simcpu::{MultiplexRun, Sample};

/// Prior mean in normalized units (1 = the catalog's nominal magnitude).
const PRIOR_MEAN: f64 = 1.0;
/// Prior standard deviation in normalized units.
const PRIOR_SD: f64 = 3.0;
/// Random-walk standard deviation of the temporal factors (normalized).
const TEMPORAL_TAU: f64 = 0.35;
/// Variance `τ²` of the temporal random walk.
const DRIFT: f64 = TEMPORAL_TAU * TEMPORAL_TAU;
/// Relative noise floor of observation factors.
const OBS_SIGMA_FLOOR: f64 = 0.02;
/// Noise floor of invariant factors (on the relative residual).
const INV_SIGMA_FLOOR: f64 = 0.02;

/// The model's settings: the chunk length and the run's count scale. Its
/// widths are the constants above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Time slices (windows) per inference chunk — the paper's `k`.
    pub slices: usize,
    /// Core cycles per multiplexing window (for count scaling).
    pub cycles_per_window: f64,
}

impl ModelConfig {
    /// Defaults sized for a recorded run.
    pub fn for_run(run: &MultiplexRun) -> Self {
        ModelConfig {
            slices: 6,
            cycles_per_window: run.cycles_per_window,
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

/// `var` is usable as a term variance.
fn valid_variance(var: f64) -> bool {
    var.is_finite() && var > 0.0
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
#[derive(Debug)]
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
    /// The factor over the catalog-indexed slice state.
    ///
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

    /// The term's variance `σ²·N²`, its normalizer `N` evaluated at the
    /// slice state `x`.
    fn variance(&self, x: &[f64]) -> f64 {
        let n = self.lhs.eval(x).abs().max(self.rhs.eval(x).abs()).max(1.0);
        self.var * n * n
    }

    /// Every variable either side reads (repeats included).
    fn vars(&self) -> impl Iterator<Item = usize> + '_ {
        self.lhs
            .terms
            .iter()
            .chain(&self.rhs.terms)
            .map(|&(v, _)| v)
    }

    /// Moves the factor onto another state layout: variable `v` becomes
    /// `local_of[v]`.
    fn relabel(&mut self, local_of: &[usize]) {
        for (v, _) in self.lhs.terms.iter_mut().chain(&mut self.rhs.terms) {
            *v = local_of[*v];
        }
        for v in &mut self.locals {
            *v = local_of[*v];
        }
    }
}

/// One connected component of the catalog's invariant graph, solved on
/// its own.
#[derive(Debug, Default)]
struct Component {
    /// Catalog indices of its events, ascending: event `events[p]` is the
    /// component's local variable `p` of every slice.
    events: Vec<usize>,
    /// Its invariants, as rows over local variables.
    invariants: Vec<InvariantFactor>,
}

impl Component {
    /// Writes into `out` the variance at the slice state `x` (local
    /// variables) of every data term a slice has in this component: each
    /// read in `reads` (catalog-indexed), in event order, then each
    /// invariant.
    fn data_variances(&self, reads: &[Option<StudentT>], x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.events
                .iter()
                .zip(x)
                .filter_map(|(&e, &xp)| reads[e].map(|s| s.irls_variance(xp))),
        );
        out.extend(self.invariants.iter().map(|inv| inv.variance(x)));
    }
}

/// A persistent per-catalog inference engine: the model topology, its
/// components and all solver buffers, reused across windows. See the
/// module docs for the solve and its lifecycle.
pub struct ChunkEngine {
    n_events: usize,
    /// The most slices a chunk may have, `cfg.slices`: every buffer is
    /// sized for it.
    max_slices: usize,
    /// Slices of the loaded chunk, `1..=max_slices`.
    slices: usize,
    /// Denormalization scales, catalog-indexed.
    scales: Vec<f64>,
    /// Per-source error models, indexed by raw [`bayesperf_events::SourceId`]
    /// (base catalogs: just the PMU's `StudentT`).
    source_noise: Vec<SourceNoise>,
    components: Vec<Component>,
    /// Observation slot per (slice, event), at `t·n_events + e`; `None` =
    /// the event was not sampled in that window.
    obs: Vec<Option<StudentT>>,
    /// Marginals of the last solve (normalized), at `t·n_events + e`.
    marginals: Vec<Gaussian>,
    /// Chained slice-0 prior (normalized, `n_events`); active when
    /// `has_chain`.
    chain: Vec<Gaussian>,
    has_chain: bool,
    base_prior: Gaussian,
    /// Solver scratch, sized at build for the largest component.
    ws: AnalyticScratch,
    /// The component being solved: its prior, at `t·n_c + p`.
    prior: Vec<Gaussian>,
    /// The estimate an IRLS pass weights its terms at (a copy of the
    /// scratch's, at `t·n_c + p`).
    estimate: Vec<f64>,
    /// One invariant term's locals, shifted to its slice.
    locals: Vec<usize>,
    /// The variances of one slice's data terms at the estimate, evaluated
    /// once per IRLS pass (see `Component::data_variances`).
    term_vars: Vec<f64>,
    /// Per slice: whether the component being solved quarantined its data.
    quarantined: Vec<bool>,
    /// Malformed samples the last [`ChunkEngine::load`] skipped.
    rejected: u64,
}

impl std::fmt::Debug for ChunkEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkEngine")
            .field("n_events", &self.n_events)
            .field("max_slices", &self.max_slices)
            .field("slices", &self.slices)
            .field("components", &self.components.len())
            .finish()
    }
}

impl ChunkEngine {
    /// Builds the engine for chunks of up to `cfg.slices` time slices (at
    /// least one).
    pub fn new(catalog: &Catalog, cfg: &ModelConfig) -> Self {
        let scales = event_scales(catalog, cfg.cycles_per_window);
        // The invariant graph: event `e` is variable `e`, and each
        // invariant a factor over the events its two sides read.
        let mut graph: FactorGraph<(), ()> = FactorGraph::new();
        let vars: Vec<VarId> = catalog.iter().map(|_| graph.add_var(())).collect();
        let invariants: Vec<InvariantFactor> = catalog
            .invariants()
            .iter()
            .map(|inv| {
                let factor = InvariantFactor::new(inv, &scales, inv.rel_noise.max(INV_SIGMA_FLOOR));
                let reads: Vec<VarId> = factor.vars().map(|e| vars[e]).collect();
                graph.add_factor((), &reads);
                factor
            })
            .collect();
        let comp_of = graph.components();
        let n_comp = comp_of.iter().max().map_or(0, |&c| c + 1);
        let mut components: Vec<Component> = (0..n_comp).map(|_| Component::default()).collect();
        let mut local_of = vec![0; catalog.len()];
        for (e, &c) in comp_of.iter().enumerate() {
            local_of[e] = components[c].events.len();
            components[c].events.push(e);
        }
        for mut factor in invariants {
            // All of a factor's events lie in one component; a factor
            // that reads no event constrains nothing.
            let first = factor.vars().next();
            if let Some(e) = first {
                factor.relabel(&local_of);
                components[comp_of[e]].invariants.push(factor);
            }
        }
        let source_noise = catalog.sources().iter().map(|s| s.noise).collect();
        Self::from_components(components, scales, source_noise, cfg.slices.max(1))
    }

    /// The engine over prebuilt components, with every buffer sized for
    /// `slices` slices.
    fn from_components(
        components: Vec<Component>,
        scales: Vec<f64>,
        source_noise: Vec<SourceNoise>,
        slices: usize,
    ) -> Self {
        let ne = scales.len();
        let widest = components.iter().map(|c| c.events.len()).max().unwrap_or(0);
        let data_terms = components
            .iter()
            .map(|c| c.events.len() + c.invariants.len())
            .max()
            .unwrap_or(0);
        let arity = components
            .iter()
            .flat_map(|c| &c.invariants)
            .map(|inv| inv.locals.len())
            .max()
            .unwrap_or(0);
        let base_prior = Gaussian::new(PRIOR_MEAN, PRIOR_SD * PRIOR_SD);
        ChunkEngine {
            n_events: ne,
            max_slices: slices,
            slices,
            scales,
            source_noise,
            components,
            obs: vec![None; slices * ne],
            marginals: vec![base_prior; slices * ne],
            chain: vec![base_prior; ne],
            has_chain: false,
            base_prior,
            ws: AnalyticScratch::with_capacity(slices * widest, widest),
            prior: Vec::with_capacity(slices * widest),
            estimate: Vec::with_capacity(slices * widest),
            locals: Vec::with_capacity(arity),
            term_vars: Vec::with_capacity(data_terms),
            quarantined: Vec::with_capacity(slices),
            rejected: 0,
        }
    }

    /// Number of time slices of the loaded chunk (before the first
    /// [`ChunkEngine::load`], the most a chunk may have).
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Number of catalog events per slice.
    pub fn n_events(&self) -> usize {
        self.n_events
    }

    /// Chains the next solve off the final solved slice of `prev`, an
    /// engine over the same catalog, as if this engine had solved it.
    #[cfg(test)]
    pub(crate) fn chain_off(&mut self, prev: &ChunkEngine) {
        let last = (prev.slices - 1) * prev.n_events;
        self.chain
            .copy_from_slice(&prev.marginals[last..last + prev.n_events]);
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
            self.chain[e] = if mean.is_finite() && valid_variance(var) {
                seeded += 1;
                Gaussian::new(mean, var)
            } else {
                self.base_prior
            };
        }
        self.has_chain = true;
        seeded
    }

    /// Captures the current posterior of the loaded chunk's final slice as
    /// the next solve's chained slice-0 prior (allocation-free).
    pub fn capture_chain_prior(&mut self) {
        let last = (self.slices - 1) * self.n_events;
        self.chain
            .copy_from_slice(&self.marginals[last..last + self.n_events]);
        self.has_chain = true;
    }

    /// Forgets the chained prior: the next solve starts from the base prior.
    pub fn clear_chain_prior(&mut self) {
        self.has_chain = false;
    }

    /// Loads a chunk of 1 to `cfg.slices` windows: slice `t`'s observation
    /// slots swapped to window `t` (allocation-free). The next
    /// [`ChunkEngine::solve`] solves those slices alone, the system an
    /// engine built for exactly `windows.len()` slices would solve.
    ///
    /// One observation slot per event: a window is expected to carry at
    /// most one sample per event (the PMU delivers one merged reading per
    /// window — `Sample` already aggregates the PMI sub-samples). If a
    /// caller passes duplicates anyway, the last one wins; callers that
    /// need multiple readings per event per window should merge them into
    /// one `Sample` (sub-sample statistics combined) first.
    ///
    /// This is the pipeline's one malformed-sample guard, shared by every
    /// caller of the engine: a sample that is not
    /// [`Sample::is_well_formed`], or names an event outside the catalog,
    /// is skipped and counted — the next [`ChunkEngine::solve`] reports
    /// the count as [`EpRunStats::samples_rejected`]. A skipped sample
    /// leaves its slot as it is, so a well-formed duplicate of the same
    /// event in that window still lands.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty or longer than `cfg.slices`.
    pub fn load<W: AsRef<[Sample]>>(&mut self, windows: &[W]) {
        assert!(
            !windows.is_empty(),
            "chunk must contain at least one window"
        );
        assert!(
            windows.len() <= self.max_slices,
            "engine built for {} slices, got {} windows",
            self.max_slices,
            windows.len()
        );
        self.slices = windows.len();
        self.obs[..self.slices * self.n_events].fill(None);
        self.rejected = 0;
        for (t, w) in windows.iter().enumerate() {
            for s in w.as_ref() {
                if !s.is_well_formed() || s.event.index() >= self.n_events {
                    self.rejected += 1;
                    continue;
                }
                self.obs[t * self.n_events + s.event.index()] = Some(self.observation_dist(s));
            }
        }
    }

    /// The observation factor `s` contributes. Per-source dispatch: the
    /// sample's source tag picks the error model the factor is built from;
    /// an unknown source id (newer producer than catalog) degrades to the
    /// PMU model rather than panicking the inference thread.
    fn observation_dist(&self, s: &Sample) -> StudentT {
        let scale = self.scales[s.event.index()];
        let noise = self
            .source_noise
            .get(s.source.index())
            .copied()
            .unwrap_or(SourceNoise::StudentT);
        match noise {
            SourceNoise::StudentT => observation(s, scale, OBS_SIGMA_FLOOR),
            SourceNoise::Gaussian { .. } => {
                gauge_observation(s, scale, noise.rel_scale(), OBS_SIGMA_FLOOR)
            }
            SourceNoise::HeavyTail { rel_sigma } => heavy_tail_observation(s, scale, rel_sigma),
        }
    }

    /// Solves the loaded chunk: one IRLS solve per component, one after
    /// another on the calling thread (allocation-free). The stats count
    /// the loaded slices.
    pub fn solve(&mut self) -> EpRunStats {
        let mut stats = EpRunStats {
            sweeps_total: 1,
            sweeps_run: 1,
            converged: true,
            samples_rejected: self.rejected,
            ..EpRunStats::default()
        };
        for c in 0..self.components.len() {
            let quarantined = self.solve_component(c) as u64;
            stats.analytic_site_updates += self.slices as u64 - quarantined;
            stats.sites_quarantined += quarantined;
        }
        stats
    }

    /// Solves component `c` into the marginals; returns how many of its
    /// slices were solved without their data.
    fn solve_component(&mut self, c: usize) -> usize {
        let ChunkEngine {
            n_events: ne,
            slices: k,
            components,
            obs,
            marginals,
            chain,
            has_chain,
            base_prior,
            ws,
            prior,
            estimate,
            locals,
            term_vars,
            quarantined,
            ..
        } = self;
        let (ne, k) = (*ne, *k);
        let comp = &components[c];
        let nc = comp.events.len();
        prior.clear();
        for t in 0..k {
            prior.extend(comp.events.iter().map(|&e| {
                if t == 0 && *has_chain {
                    Gaussian::new(chain[e].mean, chain[e].var + DRIFT)
                } else {
                    *base_prior
                }
            }));
        }
        quarantined.clear();
        quarantined.resize(k, false);
        let add_walk = |ws: &mut AnalyticScratch| {
            for i in nc..k * nc {
                ws.add_term(&[i - nc, i], &[-1.0, 1.0], 0.0, DRIFT);
            }
        };
        let start = (0..k * nc)
            .map(|i| obs[i / nc * ne + comp.events[i % nc]].map_or(prior[i].mean, |s| s.loc));
        let solved = ws.irls(prior, nc, start, |ws| {
            estimate.clear();
            estimate.extend_from_slice(ws.mean());
            for (t, q) in quarantined.iter_mut().enumerate() {
                if *q {
                    continue;
                }
                let x = &estimate[t * nc..(t + 1) * nc];
                let reads = &obs[t * ne..(t + 1) * ne];
                comp.data_variances(reads, x, term_vars);
                // A slice whose data has an unusable variance is
                // quarantined for the rest of the solve.
                if !term_vars.iter().all(|&v| valid_variance(v)) {
                    *q = true;
                    continue;
                }
                let (read_vars, inv_vars) =
                    term_vars.split_at(term_vars.len() - comp.invariants.len());
                let read_at = comp
                    .events
                    .iter()
                    .enumerate()
                    .filter_map(|(p, &e)| reads[e].map(|s| (t * nc + p, s)));
                for ((i, s), &var) in read_at.zip(read_vars) {
                    ws.add_term(&[i], &[1.0], s.loc, var);
                }
                for (inv, &var) in comp.invariants.iter().zip(inv_vars) {
                    locals.clear();
                    locals.extend(inv.locals.iter().map(|&l| t * nc + l));
                    ws.add_term(locals, &inv.coeffs, inv.obs, var);
                }
            }
            add_walk(ws);
            true
        }) && ws.mean().iter().all(|m| m.is_finite())
            && ws.var().iter().all(|&v| valid_variance(v));
        // When the data broke the solve: the prior and the random walk
        // alone, always positive definite.
        let solved = solved || {
            quarantined.fill(true);
            ws.begin(prior, nc);
            add_walk(ws);
            ws.solve()
        };
        for (i, p) in prior.iter().enumerate() {
            marginals[i / nc * ne + comp.events[i % nc]] = if solved {
                Gaussian::new(ws.mean()[i], ws.var()[i])
            } else {
                *p
            };
        }
        quarantined.iter().filter(|&&q| q).count()
    }

    /// Posterior of `event` at `slice` of the loaded chunk, in *count*
    /// units (denormalized).
    ///
    /// # Panics
    ///
    /// Panics if `slice` is not a slice of the loaded chunk.
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

    /// A fresh engine with `windows` loaded and solved — one chunk of the
    /// corrector.
    fn run_cold<W: AsRef<[Sample]>>(
        cat: &Catalog,
        windows: &[W],
        cfg: &ModelConfig,
    ) -> ChunkEngine {
        let mut engine = ChunkEngine::new(cat, cfg);
        engine.load(windows);
        engine.solve();
        engine
    }

    #[test]
    fn model_builds_with_expected_shape() {
        let (cat, run) = run_fixture();
        let cfg = ModelConfig::for_run(&run);
        let windows: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        let mut engine = ChunkEngine::new(&cat, &cfg);
        assert_eq!(engine.slices(), 6);
        engine.load(&windows);
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
    fn prior_chaining_carries_information() {
        let (cat, run) = run_fixture();
        let cfg = ModelConfig::for_run(&run);
        let windows: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        let mut post = run_cold(&cat, &windows[..2], &cfg);
        post.capture_chain_prior();
        post.load(&windows[2..]);
        post.solve();
        // An event only measured in chunk 1's windows still has a
        // non-prior posterior in chunk 2 thanks to chaining + temporal.
        let ev = cat.require(Semantic::L1dMisses);
        let truth = run.windows[2].truth[ev.index()];
        let g = post.posterior(0, ev);
        let rel = (g.mean - truth).abs() / truth;
        assert!(rel < 0.5, "chained posterior {} vs {truth}", g.mean);
    }

    #[test]
    #[should_panic(expected = "chunk must contain at least one window")]
    fn empty_chunk_rejected() {
        let (cat, run) = run_fixture();
        ChunkEngine::new(&cat, &ModelConfig::for_run(&run)).load::<Vec<Sample>>(&[]);
    }

    #[test]
    #[should_panic(expected = "engine built for 2 slices, got 3 windows")]
    fn chunk_longer_than_the_engine_rejected() {
        let (cat, run) = run_fixture();
        let cfg = ModelConfig {
            slices: 2,
            ..ModelConfig::for_run(&run)
        };
        let windows: Vec<&[Sample]> = run.windows[..3]
            .iter()
            .map(|w| w.samples.as_slice())
            .collect();
        ChunkEngine::new(&cat, &cfg).load(&windows);
    }

    fn pmu_fixture(cat: &Catalog) -> MultiplexRun {
        let rates = bayesperf_events::synthesize(cat, &bayesperf_events::FreeParams::default());
        let mut truth = ConstantTruth::new(rates);
        let pmu = Pmu::new(cat, PmuConfig::for_catalog(cat));
        let events: Vec<EventId> = cat.programmable_events().into_iter().take(12).collect();
        let schedule = pack_round_robin(cat, &events).unwrap();
        pmu.run_multiplexed(&mut truth, &schedule, 3)
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
    fn chunk_solve_matches_the_dense_solve() {
        // The component split and the banded solve are exact: the chunk's
        // marginals equal one dense IRLS over all slices·n_events
        // variables, catalog-ordered, with every term of the model.
        for arch in [Arch::X86SkyLake, Arch::Ppc64Power9] {
            for cat in [Catalog::new(arch), Catalog::with_observation_plane(arch)] {
                let run = pmu_fixture(&cat);
                let cfg = ModelConfig::for_run(&run);
                let windows: Vec<Vec<Sample>> =
                    run.windows.iter().map(|w| w.samples.clone()).collect();
                let (ne, k) = (cat.len(), windows.len());
                // Solve twice, so the second solve starts from a chained
                // slice-0 prior.
                let mut engine = run_cold(&cat, &windows, &cfg);
                engine.capture_chain_prior();
                let stats = engine.solve();
                assert_eq!(stats.sites_quarantined, 0);

                let scales = event_scales(&cat, cfg.cycles_per_window);
                let invariants: Vec<InvariantFactor> = cat
                    .invariants()
                    .iter()
                    .map(|inv| {
                        InvariantFactor::new(inv, &scales, inv.rel_noise.max(INV_SIGMA_FLOOR))
                    })
                    .collect();
                let prior: Vec<Gaussian> = (0..k * ne)
                    .map(|i| match engine.chain.get(i) {
                        Some(g) => Gaussian::new(g.mean, g.var + DRIFT),
                        None => engine.base_prior,
                    })
                    .collect();
                let start = (0..k * ne).map(|i| engine.obs[i].map_or(prior[i].mean, |s| s.loc));
                let mut dense = AnalyticScratch::new();
                assert!(dense.irls(&prior, k * ne - 1, start, |ws| {
                    let x = ws.mean().to_vec();
                    for (i, &xi) in x.iter().enumerate() {
                        if let Some(s) = engine.obs[i] {
                            ws.add_term(&[i], &[1.0], s.loc, s.irls_variance(xi));
                        }
                        if i >= ne {
                            ws.add_term(&[i - ne, i], &[-1.0, 1.0], 0.0, DRIFT);
                        }
                    }
                    for (t, xs) in x.chunks(ne).enumerate() {
                        for inv in &invariants {
                            let locals: Vec<usize> =
                                inv.locals.iter().map(|l| t * ne + l).collect();
                            ws.add_term(&locals, &inv.coeffs, inv.obs, inv.variance(xs));
                        }
                    }
                    true
                }));
                for i in 0..k * ne {
                    let g = engine.marginals[i];
                    let (dm, dv) = (dense.mean()[i], dense.var()[i]);
                    assert!(
                        (g.mean - dm).abs() <= 1e-9 * dm.abs(),
                        "{arch:?} variable {i}: mean {} vs dense {dm}",
                        g.mean
                    );
                    assert!(
                        (g.var - dv).abs() <= 1e-9 * dv,
                        "{arch:?} variable {i}: var {} vs dense {dv}",
                        g.var
                    );
                }
            }
        }
    }

    #[test]
    fn overflowing_read_is_quarantined_not_panicked_on() {
        let (cat, run) = run_fixture();
        let cfg = ModelConfig::for_run(&run);
        let clean: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        // Finite reads that pass the load guard but whose IRLS weight
        // overflows: a huge value, and a spread whose factor scale
        // overflows to infinity before it is capped.
        let overflowing: [fn(&mut Sample); 3] = [
            |s| s.value = 1e300,
            |s| s.value = f64::MAX,
            |s| s.sub_sd = f64::MAX,
        ];
        for overflow in overflowing {
            let mut windows = clean.clone();
            overflow(&mut windows[1][0]);
            let mut engine = ChunkEngine::new(&cat, &cfg);
            engine.load(&windows);
            let stats = engine.solve();
            assert_eq!(stats.samples_rejected, 0, "finite reads pass the guard");
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
    }

    #[test]
    fn overflowing_read_quarantines_only_its_own_slice_and_component() {
        let (cat, run) = run_fixture();
        let cfg = ModelConfig::for_run(&run);
        let clean: Vec<Vec<Sample>> = run.windows.iter().map(|w| w.samples.clone()).collect();
        let mut poisoned = clean.clone();
        poisoned[1][0].value = 1e300;
        let bad = poisoned[1][0].event;
        let clean_engine = run_cold(&cat, &clean, &cfg);
        let mut engine = ChunkEngine::new(&cat, &cfg);
        engine.load(&poisoned);
        let stats = engine.solve();

        let pairs = (poisoned.len() * engine.components.len()) as u64;
        assert_eq!(stats.sites_quarantined, 1, "one (slice, component) pair");
        assert_eq!(stats.analytic_site_updates, pairs - 1);
        let home = engine
            .components
            .iter()
            .find(|c| c.events.contains(&bad.index()))
            .expect("every event has a component");
        for t in 0..poisoned.len() {
            for e in cat.iter() {
                let (g, want) = (engine.posterior(t, e.id), clean_engine.posterior(t, e.id));
                assert!(
                    g.mean.is_finite() && valid_variance(g.var),
                    "slice {t} {}",
                    e.name
                );
                if !home.events.contains(&e.id.index()) {
                    // Other components never see the poisoned read.
                    assert_eq!(g, want, "slice {t} {}", e.name);
                }
            }
        }
        // The poisoned slice loses its data; the others keep their reads.
        let (g, want) = (engine.posterior(1, bad), clean_engine.posterior(1, bad));
        assert!(g.var > want.var, "slice 1 keeps no read of {bad:?}");
        for t in [0, 2, 3] {
            let read = clean[t]
                .iter()
                .find(|s| s.event == bad)
                .expect("read every window");
            let g = engine.posterior(t, bad);
            assert!(
                (g.mean - read.value).abs() < 0.05 * read.value,
                "slice {t}: posterior {} vs read {}",
                g.mean,
                read.value
            );
        }
    }

    /// The exact log density of a chunk over its normalized state,
    /// catalog-ordered: priors, Student-t reads, every invariant on its
    /// relative residual with the normalizer evaluated at the state
    /// itself, and the temporal random walk.
    struct Exact<'a> {
        engine: &'a ChunkEngine,
    }

    impl Target for Exact<'_> {
        fn dim(&self) -> usize {
            self.engine.obs.len()
        }

        fn log_density(&self, x: &[f64]) -> f64 {
            let e = self.engine;
            let ne = e.n_events;
            let mut lp = 0.0;
            for (i, &xi) in x.iter().enumerate() {
                lp += e.base_prior.log_pdf(xi);
                lp += e.obs[i].map_or(0.0, |t| t.log_pdf(xi));
                if i >= ne {
                    lp += Gaussian::new(0.0, DRIFT).log_pdf(xi - x[i - ne]);
                }
            }
            for slice in x.chunks(ne) {
                for inv in e.components.iter().flat_map(|c| &c.invariants) {
                    let (l, r) = (inv.lhs.eval(slice), inv.rhs.eval(slice));
                    let rel = (l - r) / l.abs().max(r.abs()).max(1.0);
                    lp += Gaussian::new(0.0, inv.var).log_pdf(rel);
                }
            }
            lp
        }
    }

    #[test]
    fn irls_moments_match_a_long_mcmc_chain() {
        // A 2-slice chunk of three events: x0 = x1 + x2 in counts, with
        // scales 2, 1, 1 — one linear invariant per slice — Student-t
        // reads of x1 (ν = 3) and x2 (ν = 30) in slice 0, and the random
        // walk between the slices.
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
        let component = Component {
            events: vec![0, 1, 2],
            invariants: vec![InvariantFactor::new(&inv, &scales, 0.05)],
        };
        let mut engine =
            ChunkEngine::from_components(vec![component], scales, vec![SourceNoise::StudentT], 2);
        // A tighter base prior than the model's, N(1, 0.3²).
        let (prior_mean, prior_sd) = (1.0, 0.3);
        engine.base_prior = Gaussian::new(prior_mean, prior_sd * prior_sd);
        engine.obs[1] = Some(StudentT::new(1.1, 0.15, 3.0));
        engine.obs[2] = Some(StudentT::new(0.95, 0.1, 30.0));
        let stats = engine.solve();
        assert_eq!(
            (stats.analytic_site_updates, stats.sites_quarantined),
            (2, 0)
        );

        // The oracle: independent chains of 500 burn-in and 2000 collected
        // sweeps; the spread of their means and variances is the Monte
        // Carlo error the tolerance is stated in.
        const CHAINS: usize = 8;
        let sampler = McmcSampler::new(McmcConfig {
            burn_in: 500,
            samples: 2000,
        });
        let init = vec![prior_mean; 6];
        let step = vec![prior_sd; 6];
        let chains: Vec<_> = (0..CHAINS as u64)
            .map(|seed| {
                let mut target = Exact { engine: &engine };
                sampler.run(&mut target, &init, &step, &mut StdRng::seed_from_u64(seed))
            })
            .collect();
        let pooled = |f: &dyn Fn(usize) -> f64| -> (f64, f64) {
            let vals: Vec<f64> = (0..CHAINS).map(f).collect();
            let mean = vals.iter().sum::<f64>() / CHAINS as f64;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (CHAINS - 1) as f64;
            (mean, (var / CHAINS as f64).sqrt())
        };
        // Tolerances: a mean within 0.1 posterior sd, a variance within
        // 10% — or 35% for slice 0's x0 and x1, which carry the ν = 3
        // read: a Gaussian fitted at the mode under-covers a heavy tail —
        // each widened by four of the oracle's standard errors.
        for j in 0..6 {
            let (mean, mean_se) = pooled(&|c| chains[c].mean[j]);
            let (var, var_se) = pooled(&|c| chains[c].var[j]);
            let g = engine.marginals[j];
            assert!(
                (g.mean - mean).abs() <= 0.1 * var.sqrt() + 4.0 * mean_se,
                "variable {j}: IRLS mean {} vs chain {mean} (se {mean_se})",
                g.mean
            );
            let rel = if j < 2 { 0.35 } else { 0.1 };
            assert!(
                (g.var - var).abs() <= rel * var + 4.0 * var_se,
                "variable {j}: IRLS var {} vs chain {var} (se {var_se})",
                g.var
            );
        }
    }
}
