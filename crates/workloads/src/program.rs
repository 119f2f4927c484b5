//! Phase programs: the workload model, and their instantiation as ground
//! truth for the PMU simulator.

use crate::modulation::Modulation;
use bayesperf_events::{synthesize_into, Catalog, FreeParams};
use bayesperf_simcpu::{splitmix64, unit, GroundTruth};
use serde::{Deserialize, Serialize};

/// HiBench workload families (the groups of §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadFamily {
    /// Sort/WordCount/TeraSort-style microbenchmarks.
    Micro,
    /// Iterative Spark MLlib workloads.
    MachineLearning,
    /// Scan/Join/Aggregate SQL queries.
    Sql,
    /// PageRank and indexing.
    Websearch,
    /// Graph analytics (NWeight).
    Graph,
    /// Spark Streaming jobs.
    Streaming,
}

/// One workload phase: a parameter point, a duration, and a modulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Phase length in ticks (1 tick ≈ 1 ms).
    pub duration_ticks: u64,
    /// Free parameters of the phase.
    pub params: FreeParams,
    /// Within-phase modulation.
    pub modulation: Modulation,
}

/// A named, looping sequence of phases — one HiBench-like workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseProgram {
    name: String,
    family: WorkloadFamily,
    phases: Vec<Phase>,
}

impl PhaseProgram {
    /// Creates a program.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase has zero duration.
    pub fn new(name: impl Into<String>, family: WorkloadFamily, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "a workload needs at least one phase");
        assert!(
            phases.iter().all(|p| p.duration_ticks > 0),
            "phases must have positive duration"
        );
        PhaseProgram {
            name: name.into(),
            family,
            phases,
        }
    }

    /// Workload name (HiBench benchmark name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Workload family.
    pub fn family(&self) -> WorkloadFamily {
        self.family
    }

    /// The phases of the program.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total loop length in ticks.
    pub fn period_ticks(&self) -> u64 {
        self.phases.iter().map(|p| p.duration_ticks).sum()
    }

    /// Binds the program to a catalog for one application *run*.
    ///
    /// `run_seed` jitters phase durations (±10%) and rates (±5%), modelling
    /// run-to-run nondeterminism (§2: memory layout, multi-processor
    /// interactions, OS scheduling differ between runs).
    pub fn instantiate<'a>(&self, catalog: &'a Catalog, run_seed: u64) -> Workload<'a> {
        let mut state = jitter_seed(&self.name, run_seed);
        let phases: Vec<Phase> = self
            .phases
            .iter()
            .map(|ph| {
                let djit = 1.0 + 0.10 * sym_unit(&mut state);
                let rjit = 1.0 + 0.05 * sym_unit(&mut state);
                let mut params = ph.params.clone();
                params.ipc *= rjit;
                params.l1d_mpki *= 1.0 + 0.05 * sym_unit(&mut state);
                params.branch_mpki *= 1.0 + 0.05 * sym_unit(&mut state);
                Phase {
                    duration_ticks: ((ph.duration_ticks as f64 * djit).round() as u64).max(1),
                    params,
                    modulation: ph.modulation,
                }
            })
            .collect();
        Workload {
            catalog,
            name: self.name.clone(),
            phases,
            period: 0,
        }
        .with_period()
    }
}

/// A program bound to a catalog and a run seed: the [`GroundTruth`] fed to
/// the PMU simulator.
#[derive(Debug, Clone)]
pub struct Workload<'a> {
    catalog: &'a Catalog,
    name: String,
    phases: Vec<Phase>,
    period: u64,
}

impl Workload<'_> {
    fn with_period(mut self) -> Self {
        self.period = self.phases.iter().map(|p| p.duration_ticks).sum();
        self
    }

    /// The (phase, phase-local tick) active at `tick`.
    fn locate(&self, tick: u64) -> (&Phase, u64) {
        let mut t = tick % self.period;
        for ph in &self.phases {
            if t < ph.duration_ticks {
                return (ph, t);
            }
            t -= ph.duration_ticks;
        }
        unreachable!("tick within period always falls in a phase")
    }

    /// The modulated free parameters at `tick` (exposed for tests and the
    /// case study's feature extraction).
    pub fn params_at(&self, tick: u64) -> FreeParams {
        let (ph, t) = self.locate(tick);
        ph.modulation.apply(&ph.params, t)
    }
}

impl GroundTruth for Workload<'_> {
    fn rates_at(&mut self, tick: u64, out: &mut [f64]) {
        let params = self.params_at(tick);
        synthesize_into(self.catalog, &params, out);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Seeds a program's per-run jitter stream: FNV-1a over its name, offset
/// by the run seed.
fn jitter_seed(name: &str, run_seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ run_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Uniform in [-1, 1).
fn sym_unit(state: &mut u64) -> f64 {
    unit(splitmix64(state)) * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayesperf_events::Arch;

    fn two_phase() -> PhaseProgram {
        let compute = Phase {
            duration_ticks: 50,
            params: FreeParams {
                ipc: 2.5,
                l1d_mpki: 3.0,
                ..FreeParams::default()
            },
            modulation: Modulation::none(),
        };
        let shuffle = Phase {
            duration_ticks: 30,
            params: FreeParams {
                ipc: 0.6,
                l1d_mpki: 45.0,
                mem_stall_frac: 0.5,
                ..FreeParams::default()
            },
            modulation: Modulation::none(),
        };
        PhaseProgram::new("TwoPhase", WorkloadFamily::Micro, vec![compute, shuffle])
    }

    #[test]
    fn phases_loop() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let w = two_phase().instantiate(&cat, 0);
        let period = w.period;
        let p0 = w.params_at(0);
        let p_next_period = w.params_at(period);
        assert_eq!(p0, p_next_period);
    }

    #[test]
    fn phase_transition_changes_rates() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let mut w = two_phase().instantiate(&cat, 0);
        let mut a = vec![0.0; cat.len()];
        let mut b = vec![0.0; cat.len()];
        w.rates_at(0, &mut a);
        // Safely inside the second phase despite ±10% duration jitter.
        w.rates_at(60, &mut b);
        let inst = cat
            .require(bayesperf_events::Semantic::Instructions)
            .index();
        assert!(
            a[inst] > 2.0 * b[inst],
            "compute phase should retire >2x the instructions ({} vs {})",
            a[inst],
            b[inst]
        );
    }

    #[test]
    fn runs_differ_but_are_deterministic() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let w0 = two_phase().instantiate(&cat, 0);
        let w0_again = two_phase().instantiate(&cat, 0);
        let w1 = two_phase().instantiate(&cat, 1);
        assert_eq!(w0.params_at(0), w0_again.params_at(0));
        assert_ne!(w0.params_at(0), w1.params_at(0));
    }

    #[test]
    fn ground_truth_satisfies_exact_invariants_under_modulation() {
        let cat = Catalog::new(Arch::X86SkyLake);
        let mut prog = two_phase();
        prog.phases[0].modulation = Modulation {
            period_ticks: 20.0,
            amplitude: 0.5,
            burst_every: 13,
            burst_len: 3,
            burst_scale: 3.0,
        };
        let mut w = prog.instantiate(&cat, 3);
        let mut rates = vec![0.0; cat.len()];
        for tick in [0u64, 5, 13, 21, 49, 55, 79, 100] {
            w.rates_at(tick, &mut rates);
            for inv in cat.invariants().iter().filter(|i| i.is_exact()) {
                assert!(
                    inv.relative_residual(&rates).abs() < 1e-9,
                    "{} violated at tick {tick}",
                    inv.name
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_program_rejected() {
        PhaseProgram::new("empty", WorkloadFamily::Micro, vec![]);
    }
}
