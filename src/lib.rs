//! # BayesPerf
//!
//! Facade crate for the BayesPerf workspace — a reproduction of
//! *"BayesPerf: Minimizing Performance Monitoring Errors Using Bayesian
//! Statistics"* (ASPLOS 2021).
//!
//! Re-exports every component crate under one roof so examples and
//! downstream users need a single dependency:
//!
//! * [`events`] — event catalogs, microarchitectural invariants, derived events
//! * [`simcpu`] — PMU + multiplexing + sampling simulator
//! * [`workloads`] — HiBench-like phase-structured workload generators
//! * [`graph`] — factor graphs and Markov blankets
//! * [`inference`] — distributions, the banded Gaussian-linear/IRLS solver, the MCMC test oracle
//! * [`core`] — scheduling, model building, the corrector, and the perf-like
//!   shim: a [`Monitor`] service read through [`Session`] handles
//! * [`fleet`] — sharded monitors, precision-weighted posterior fusion,
//!   the snapshot wire codec
//! * [`obs`] — the telemetry plane: lock-free metrics registry, pipeline
//!   tracing spans, flight recorder, Prometheus-style exposition
//! * [`baselines`] — Linux scaling, CounterMiner, WM+Pin
//! * [`accel`] — the accelerator discrete-event simulation + area/power model
//! * [`mlsched`] — PCIe contention sim + ML scheduler case study

// The session API's front door, re-exported at the crate root so
// monitoring applications can `use bayesperf::{Monitor, Session}`.
pub use bayesperf_core::{
    GroupReading, Monitor, PosteriorUpdate, Reading, Session, SessionBuilder, ShimError,
};
// The fleet layer's front door: sharded monitors with fused reads.
pub use bayesperf_fleet::{Fleet, FleetConfig, FleetSession, ShardId, ShardLabel};

pub use bayesperf_accel as accel;
pub use bayesperf_baselines as baselines;
pub use bayesperf_core as core;
pub use bayesperf_events as events;
pub use bayesperf_fleet as fleet;
pub use bayesperf_graph as graph;
pub use bayesperf_inference as inference;
pub use bayesperf_mlsched as mlsched;
pub use bayesperf_obs as obs;
pub use bayesperf_simcpu as simcpu;
pub use bayesperf_workloads as workloads;
