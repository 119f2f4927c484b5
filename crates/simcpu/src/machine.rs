//! Multi-machine heterogeneous truth and noise generation.
//!
//! A fleet of monitors (`bayesperf_fleet`) watches many machines running
//! the *same* service, but no two machines see identical conditions:
//! request mixes skew, thermal envelopes differ, co-tenants interfere.
//! This module derives, deterministically from a base seed and a shard
//! index, a per-machine [`ShardProfile`] that perturbs a shared workload
//! into **distinct but correlated** sample streams:
//!
//! * a global rate scale (this machine runs hotter/colder than the mean);
//! * small per-event multipliers (the workload mix skews differently per
//!   machine, so events do not all scale together);
//! * a phase offset in ticks (machines are never phase-locked, so program
//!   phases hit each shard at different windows);
//! * a noise scale (some machines' counters are noisier — busier OS,
//!   more co-tenant interrupts).
//!
//! [`CorrelatedTruth`] applies the truth-side perturbations to any
//! [`GroundTruth`]; [`ShardProfile::pmu_config`] applies the noise-side
//! ones to a base [`PmuConfig`]. Everything is a pure function of
//! `(base_seed, shard)`, so fleet experiments are reproducible shard by
//! shard.

use crate::pmu::PmuConfig;
use crate::truth::GroundTruth;
use crate::{splitmix64, unit};

/// Deterministic per-machine heterogeneity parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardProfile {
    /// The shard (machine/socket) index this profile was derived for.
    pub shard: u32,
    /// Global event-rate multiplier (~[0.75, 1.25]).
    pub rate_scale: f64,
    /// Half-width of the per-event multiplier jitter around
    /// `rate_scale` (each event's own multiplier is drawn in
    /// `rate_scale × [1 - jitter, 1 + jitter]`).
    pub event_jitter: f64,
    /// Ticks this machine's workload lags the reference phase.
    pub phase_offset_ticks: u64,
    /// Multiplier on every [`crate::NoiseModel`] magnitude (~[0.6, 1.6]).
    pub noise_scale: f64,
    /// Per-shard RNG seed for the PMU's noise process.
    pub seed: u64,
}

impl ShardProfile {
    /// Derives the profile of shard `shard` from a fleet-wide base seed.
    /// Shard 0 of any base seed is the *reference machine*: unit rate
    /// scale, no jitter, no phase offset, unit noise scale — so a
    /// one-shard fleet reproduces the single-machine setup exactly and
    /// every other shard is "like shard 0, but …".
    pub fn derive(base_seed: u64, shard: u32) -> ShardProfile {
        let mut state = base_seed ^ (u64::from(shard)).wrapping_mul(0xa076_1d64_78bd_642f);
        let seed = splitmix64(&mut state);
        if shard == 0 {
            return ShardProfile {
                shard,
                rate_scale: 1.0,
                event_jitter: 0.0,
                phase_offset_ticks: 0,
                noise_scale: 1.0,
                seed: base_seed,
            };
        }
        ShardProfile {
            shard,
            rate_scale: 0.75 + 0.5 * unit(splitmix64(&mut state)),
            event_jitter: 0.08 * unit(splitmix64(&mut state)),
            phase_offset_ticks: splitmix64(&mut state) % 24,
            noise_scale: 0.6 + unit(splitmix64(&mut state)),
            seed,
        }
    }

    /// The per-event rate multiplier of `event_index` under this profile
    /// (deterministic; includes the global `rate_scale`).
    pub fn event_scale(&self, event_index: usize) -> f64 {
        let mut state = self
            .seed
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
            .wrapping_add(event_index as u64);
        let jitter = self.event_jitter * (2.0 * unit(splitmix64(&mut state)) - 1.0);
        self.rate_scale * (1.0 + jitter)
    }

    /// Applies this machine's noise heterogeneity to a base PMU
    /// configuration: shard seed, and every noise magnitude scaled by
    /// `noise_scale` (probabilities are clamped to `[0, 1]`).
    pub fn pmu_config(&self, base: &PmuConfig) -> PmuConfig {
        let mut cfg = *base;
        cfg.seed = self.seed;
        cfg.noise.measurement_sigma *= self.noise_scale;
        cfg.noise.interrupt_rate = (cfg.noise.interrupt_rate * self.noise_scale).min(1.0);
        cfg.noise.boundary_sigma *= self.noise_scale;
        cfg.noise.overcount_bias *= self.noise_scale;
        cfg
    }
}

/// A [`GroundTruth`] adapter that turns one reference workload into the
/// correlated-but-distinct stream one machine of a fleet actually runs:
/// rates are read at a phase-shifted tick and scaled per event by the
/// shard's [`ShardProfile`].
#[derive(Debug, Clone)]
pub struct CorrelatedTruth<T> {
    inner: T,
    profile: ShardProfile,
    /// Per-event multipliers, sized lazily on the first `rates_at` call.
    scales: Vec<f64>,
    name: String,
}

impl<T: GroundTruth> CorrelatedTruth<T> {
    /// Wraps `inner` with the heterogeneity of `profile`.
    pub fn new(inner: T, profile: ShardProfile) -> Self {
        let name = format!("{}@shard{}", inner.name(), profile.shard);
        CorrelatedTruth {
            inner,
            profile,
            scales: Vec::new(),
            name,
        }
    }

    /// The profile this stream was derived with.
    pub fn profile(&self) -> &ShardProfile {
        &self.profile
    }
}

impl<T: GroundTruth> GroundTruth for CorrelatedTruth<T> {
    fn rates_at(&mut self, tick: u64, out: &mut [f64]) {
        if self.scales.len() != out.len() {
            self.scales = (0..out.len())
                .map(|i| self.profile.event_scale(i))
                .collect();
        }
        self.inner
            .rates_at(tick + self.profile.phase_offset_ticks, out);
        for (v, s) in out.iter_mut().zip(&self.scales) {
            *v *= s;
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::ConstantTruth;
    use crate::NoiseModel;

    #[test]
    fn shard_zero_is_the_reference_machine() {
        let p = ShardProfile::derive(42, 0);
        assert_eq!(p.rate_scale, 1.0);
        assert_eq!(p.phase_offset_ticks, 0);
        assert_eq!(p.noise_scale, 1.0);
        assert_eq!(p.seed, 42);
        assert_eq!(p.event_scale(3), 1.0, "no jitter on the reference");
    }

    #[test]
    fn profiles_are_deterministic_and_distinct() {
        for shard in 1..16 {
            let a = ShardProfile::derive(7, shard);
            let b = ShardProfile::derive(7, shard);
            assert_eq!(a, b, "pure function of (seed, shard)");
            let other = ShardProfile::derive(7, shard + 1);
            assert_ne!(a.seed, other.seed, "shards get distinct seeds");
        }
    }

    #[test]
    fn profile_parameters_stay_in_their_documented_ranges() {
        for seed in 0..8u64 {
            for shard in 1..32 {
                let p = ShardProfile::derive(seed, shard);
                assert!((0.75..=1.25).contains(&p.rate_scale), "{p:?}");
                assert!((0.6..=1.6).contains(&p.noise_scale), "{p:?}");
                assert!(p.phase_offset_ticks < 24, "{p:?}");
                for ev in 0..24 {
                    let s = p.event_scale(ev);
                    assert!(s > 0.5 && s < 1.5, "event scale {s} out of range");
                }
            }
        }
    }

    #[test]
    fn correlated_truth_scales_and_shifts_the_reference() {
        let base = vec![100.0, 200.0, 300.0];
        let p = ShardProfile::derive(3, 5);
        let mut shard = CorrelatedTruth::new(ConstantTruth::new(base.clone()), p);
        let mut out = vec![0.0; 3];
        shard.rates_at(0, &mut out);
        for (i, (&got, &reference)) in out.iter().zip(&base).enumerate() {
            let expected = reference * p.event_scale(i);
            assert!(
                (got - expected).abs() < 1e-12,
                "event {i}: {got} vs {expected}"
            );
            // Distinct: scaled away from the reference...
            assert!((got - reference).abs() > 1e-9, "shard 5 must differ");
            // ...but correlated: within the documented envelope of it.
            assert!(got > 0.5 * reference && got < 1.5 * reference);
        }
        assert!(shard.name().contains("shard5"));
    }

    #[test]
    fn pmu_config_scales_noise_and_reseeds() {
        let cfg = PmuConfig {
            quantum_ticks: 4,
            cycles_per_tick: 1.0e6,
            noise: NoiseModel::default(),
            seed: 0,
        };
        let p = ShardProfile::derive(11, 2);
        let shard_cfg = p.pmu_config(&cfg);
        assert_eq!(shard_cfg.seed, p.seed);
        let ratio = shard_cfg.noise.measurement_sigma / cfg.noise.measurement_sigma;
        assert!((ratio - p.noise_scale).abs() < 1e-12);
        assert!(shard_cfg.noise.interrupt_rate <= 1.0);
    }
}
