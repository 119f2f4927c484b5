//! A software performance-monitoring unit (PMU) with event multiplexing.
//!
//! This crate is the hardware substrate of the BayesPerf reproduction: a
//! simulated CPU PMU that reproduces the *mechanisms* behind HPC measurement
//! error described in §2 of the paper:
//!
//! * a small pool of fixed + programmable counter registers
//!   ([`bayesperf_events::PmuSpec`]);
//! * timer-driven **multiplexing**: counter configurations rotate every
//!   scheduler quantum, so each programmable event is only *running* for a
//!   fraction of the time it is *enabled* — exactly the
//!   `time_enabled`/`time_running` bookkeeping Linux perf exposes. The
//!   configurations rotate in schedule order ([`Pmu::run_multiplexed`]),
//!   and an event whose configuration is off the counters has no sample
//!   in that window;
//! * **PMI-based sampling** within a quantum, yielding per-event sub-sample
//!   statistics (mean/deviation/count) that feed the paper's §4.2 Student-t
//!   error model;
//! * a seeded **noise model** for OS nondeterminism: per-read measurement
//!   noise, interrupt spikes, and smearing at configuration switches;
//! * the kernel↔userspace [`RingBuffer`] with backpressure drop counting;
//! * deterministic **multi-machine heterogeneity** for fleet simulations:
//!   [`ShardProfile`] derives per-machine rate/phase/noise perturbations
//!   and [`CorrelatedTruth`] turns one reference workload into the
//!   distinct-but-correlated stream each machine of a fleet actually runs;
//! * seeded **link fault models** for distributed scrape planes:
//!   [`LinkProfile`]/[`LinkState`] decide drops, latency (against virtual
//!   deadlines — no sleeping), byte corruption, and recurring partitions
//!   per request exchange, deterministically per seed;
//! * seeded **compute-plane data faults** for robustness soaks:
//!   [`DataFaultProfile`]/[`DataFaultState`] poison individual samples
//!   (NaN/Inf reads, scaled corruption, stuck-at counters, broken PMI
//!   sub-moments) at controlled rates, deterministically per seed;
//! * simulated **soft gauge sources** for the multi-source observation
//!   plane: [`SimGauge`] implements [`SampleSource`], reading the same
//!   ground truth as the PMU at its own cadence through a seeded
//!   [`GaugeProfile`] noise channel (Gaussian read noise, random-walk
//!   calibration drift, dropout), optionally faulted via the same
//!   [`DataFaultProfile`] machinery with independent streams.
//!
//! Because the simulator also records per-window ground truth (which real
//! hardware cannot provide), evaluation code can compute exact error — the
//! paper has to approximate ground truth with a separate polling run, which
//! [`Pmu::run_polling`] models as well.

mod config;
mod datafault;
mod gauge;
mod link;
mod machine;
mod noise;
mod pmu;
mod ring;
mod sample;
mod truth;

pub use config::{pack_round_robin, Configuration, ScheduleError};
pub use datafault::{DataFault, DataFaultProfile, DataFaultState};
pub use gauge::{GaugeProfile, SampleSource, SimGauge};
pub use link::{LinkFate, LinkProfile, LinkState};
pub use machine::{CorrelatedTruth, ShardProfile};
pub use noise::NoiseModel;
pub use pmu::{MultiplexRun, Pmu, PmuConfig, Window};
pub use ring::RingBuffer;
pub use sample::Sample;
pub use truth::{ConstantTruth, GroundTruth};

/// SplitMix64: advances `state` and returns its next well-mixed word. The
/// one small seeded generator behind the simulator's streams (shard
/// profiles, link and data faults, gauge noise) and the workload and
/// scrape-backoff jitter built on this crate: same seed, same words.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a mixed 64-bit word to a uniform `f64` in `[0, 1)` (its top 53
/// bits).
pub fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}
