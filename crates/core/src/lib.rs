//! The BayesPerf system: scheduling, modelling, inference orchestration, and
//! the perf-like shim service.
//!
//! This crate assembles the paper's primary contribution out of the
//! substrate crates:
//!
//! * [`error_model`] — the §4.2 measurement-error model: per-window PMI
//!   sub-sample statistics become scaled/shifted Student-t observation
//!   factors;
//! * [`scheduler`] — the §4.1 schedule transformer: rewrites a traditional
//!   round-robin multiplexing schedule so that consecutive configurations
//!   share (transitive) statistical relationships, bridging gaps via
//!   shortest paths in the event factor graph and applying the paper's two
//!   pruning optimizations;
//! * [`model`] — builds the unified factor graph over `k` time slices
//!   (observation + invariant + temporal factors) and solves each chunk
//!   with one banded IRLS solve per component of the invariant graph;
//! * [`corrector`] — chained correction of PMU sample windows, streamed
//!   chunk by chunk or batched over a recorded run, into posterior
//!   distributions per event per window; every path shares the chunk
//!   engine's malformed-sample guard ([`ChunkEngine::load`]);
//! * [`service`] — the shim (§5, Fig. 3): a shared [`Monitor`] with a
//!   background inference thread, `perf_event_open`-style [`Session`]
//!   handles whose reads return a [`Reading`] with quantified
//!   uncertainty, and lock-free posterior snapshot publication
//!   ([`snapshot`]);
//! * [`error`] — the workspace-level [`ShimError`] type every fallible
//!   shim/corrector operation reports through;
//! * [`metrics`] — dynamic-time-warping alignment and the paper's error
//!   definition (§2, §6.2).

pub mod corrector;
pub mod error;
pub mod error_model;
pub mod metrics;
pub mod model;
pub mod scheduler;
pub mod service;
pub mod snapshot;
pub mod source;

pub use corrector::{CorrectionStats, Corrector, CorrectorConfig, PosteriorSeries};
pub use error::ShimError;
pub use error_model::{gauge_observation, heavy_tail_observation, observation};
pub use metrics::{adjusted_error, dtw_align, dtw_relative_error};
pub use model::{ChunkEngine, ModelConfig};
pub use scheduler::{Schedule, ScheduleTransformer};
pub use service::{
    derived_reading, GroupReading, Monitor, PosteriorUpdate, Reading, ScheduleHook, Selection,
    ServiceState, Session, SessionBuilder, SessionTarget, SnapshotView, Subscribers, Supervised,
    SupervisorPolicy, Updates,
};
pub use snapshot::{snapshot_cell, SnapshotGuard, SnapshotReader, SnapshotWriter};
pub use source::{pump_sources, ProcSource};
