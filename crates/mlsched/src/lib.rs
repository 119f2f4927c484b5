//! Schedulers: BayesPerf in feedback loops.
//!
//! Two loops live here. [`mux`] is the loop *inside* the measurement
//! stack: event multiplexing ([`GroupSchedule`], the [`RoundRobin`]
//! policy under the starvation-bounded [`MuxScheduler`]) and
//! [`run_closed_loop`], which scores a schedule's corrected posteriors
//! against the simulated truth.
//!
//! The rest is the §6.3 case study — the loop *outside*: the paper
//! demonstrates downstream value by feeding (corrected) HPC measurements
//! into ML-based schedulers that pick which NIC a Spark shuffle should
//! use while GPUs contend for PCIe bandwidth:
//!
//! * [`pcie`] — the PCIe fabric of Fig. 9: a two-socket topology with
//!   switches, NICs and GPUs, max-min fair bandwidth sharing, and an
//!   α+β transfer model that reproduces the isolated-vs-contention
//!   bandwidth curves (0–1.8× slowdown depending on message size);
//! * [`nn`] — a from-scratch dense MLP (the paper's 36-16-16-2 network)
//!   with backprop, used by the RL scheduler;
//! * [`rl`] — the actor-critic NIC scheduler of Banerjee et al., trained
//!   with HPC-derived features whose noise level depends on the correction
//!   method (Linux / CounterMiner / BayesPerf CPU / BayesPerf accelerator);
//!   produces the Fig. 10 convergence curves;
//! * [`cf`] — the collaborative-filtering scheduler of Delimitrou &
//!   Kozyrakis (Paragon-style): matrix factorization imputing throughput
//!   at the paper's 75% optimal sparsity.

pub mod cf;
pub mod mux;
pub mod nn;
pub mod pcie;
pub mod rl;

pub use cf::CollabFilter;
pub use mux::{
    hetero_demo_events, run_closed_loop, ClosedLoopReport, GroupSchedule, MuxError, MuxPolicy,
    MuxScheduler, MuxStats, RoundRobin,
};
pub use nn::Mlp;
pub use pcie::{Fabric, Flow, Node};
pub use rl::{CorrectionQuality, SchedulerEnv, TrainResult, Trainer};
