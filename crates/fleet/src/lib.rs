//! Fleet aggregation for BayesPerf: sharded monitors, analytic posterior
//! fusion, and a binary snapshot wire codec.
//!
//! A single [`Monitor`](bayesperf_core::Monitor) corrects one machine's
//! (socket's) HPC stream into per-event Gaussian posteriors. Production
//! monitoring watches *fleets*: hundreds of machines running the same
//! service, each with its own noise, phase and load. Because BayesPerf's
//! per-machine output is a distribution — not a noisy point estimate —
//! cross-machine aggregation has a closed form instead of the lossy raw
//! averaging conventional collectors do:
//!
//! ```text
//!   shard i posterior:  N(μᵢ, σᵢ²)
//!   fleet posterior:    N(η/λ, 1/λ),  λ = Σ 1/σᵢ²,  η = Σ μᵢ/σᵢ²
//! ```
//!
//! i.e. a **precision-weighted product**: machines whose schedule
//! actually multiplexed an event in (small σ²) dominate; machines that
//! only know the event through invariant links (large σ²) barely
//! contribute. Averaging raw counters weighs both equally — exactly the
//! error mode per-event validation studies flag. See [`fuse`] for the
//! math and the degenerate-case (one shard ⇒ bit-identical) guarantee.
//!
//! The crate adds three layers on top of `bayesperf_core`:
//!
//! * [`Fleet`] — owns N topology-labelled shards (one [`Monitor`] each:
//!   own ring, own inference thread), routes samples to shards through a
//!   lock-free membership snapshot cell, and runs a ticker thread that
//!   drives a [`FleetScraper`] over in-process transports to its shards —
//!   the one aggregation path, shared with networked fleets — publishing
//!   a [`FleetSnapshot`] through a second snapshot cell. Fleet reads are
//!   as wait-free as single-session reads at any shard count.
//! * [`FleetSession`] — the fleet-scoped
//!   [`Session`](bayesperf_core::Session), on the same core read surface:
//!   one [`SessionBuilder`](bayesperf_core::SessionBuilder), one access
//!   rule ([`Selection`](bayesperf_core::Selection)), one subscriber
//!   fan-out and one [`Updates`](bayesperf_core::Updates) stream. It adds
//!   per-shard drill-down ([`shard_readings`](FleetSession::shard_readings))
//!   and percentile/straggler views on [`FleetSnapshot`], and reads an
//!   in-process [`Fleet`] or a networked [`FleetScraper`] alike.
//! * [`wire`] — the versioned varint binary codec carrying shard
//!   snapshots and fleet summaries across byte boundaries (multi-process
//!   scrape topologies), with typed, panic-free decoding.
//! * [`net`] + [`health`] — the networked scrape plane: per-shard
//!   scrape servers (TCP / Unix-domain, length-framed wire messages),
//!   a concurrent aggregator-side [`FleetScraper`] with deadlines,
//!   retries and per-endpoint backoff, delta scrapes keyed on snapshot
//!   stamps, and a per-shard Healthy → Degraded → Stale → Dead state
//!   machine whose staleness inflates cached contributions' variance
//!   before fusion — a degraded fleet's posterior only ever widens.
//!   [`SimTransport`] wraps the same protocol in seeded
//!   [`LinkState`](bayesperf_simcpu::LinkState) fault models for
//!   deterministic 100+ shard lossy-fleet simulation.
//!
//! [`Monitor`]: bayesperf_core::Monitor

mod fleet;
pub mod fuse;
pub mod health;
pub mod net;
mod topology;
pub mod wire;

pub use fleet::{
    Fleet, FleetConfig, FleetGroupReading, FleetRouter, FleetSession, FleetSessionBuilder,
    FleetUpdate, FleetUpdates,
};
pub use fuse::{fuse_gaussians, Aggregator, FleetSnapshot, ShardStatus};
pub use health::{FailureKind, HealthPolicy, HealthState, ShardHealth, ShardHealthView};
pub use net::{
    FleetScraper, RoundReport, ScrapeConfig, ScrapeResponder, ScrapeServer, ScrapeTotals,
    ShardTransport, SimTransport, SnapshotSource, TcpTransport, UnixTransport,
};
pub use topology::{ShardId, ShardLabel};
