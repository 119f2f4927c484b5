//! Seeded compute-plane data-fault models: corrupted counter samples.
//!
//! [`LinkProfile`](crate::LinkProfile) models faults *between* machines —
//! drops, latency, byte corruption on the scrape wire. This module models
//! faults *inside* one: the ways a PMU sample can go bad before inference
//! ever sees it. A flaky PMI handler can hand back NaN/Inf after an FP
//! exception, a torn 64-bit read can produce a wildly scaled count, and a
//! wedged counter can report the same stuck value window after window.
//! Robustness work needs these reproducibly, at controlled rates, across
//! hundreds of crash/restart cycles — so, exactly like the link layer,
//! the model is a small pure-function core over a splitmix64 stream:
//! same seed, same samples in, same faults out, no wall clock anywhere.
//!
//! * [`DataFaultProfile`] — immutable per-stream fault rates (a config);
//! * [`DataFaultState`] — the mutable per-stream mixer that decides and
//!   applies one fault per sample;
//! * [`DataFault`] — what happened to a sample, for assertions and
//!   injected-fault accounting in soak tests.

use crate::sample::Sample;
use crate::{splitmix64, unit};

/// What the fault model did to one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataFault {
    /// The sample passed through untouched.
    Clean,
    /// The counter value became NaN (e.g. an FP-exception-poisoned read).
    Nan,
    /// The counter value became infinite.
    Inf,
    /// The value was scaled by a large bogus factor (torn/misdecoded
    /// read) — finite but far outside the plausible range.
    Corrupted,
    /// The counter wedged: this sample repeats the stream's previous
    /// value instead of its own.
    StuckAt,
    /// The sub-sample moments were poisoned (NaN spread), leaving the
    /// headline value intact — the subtle variant that targets the
    /// Student-t error model rather than the mean.
    SubMomentsNan,
}

impl DataFault {
    /// Whether the sample was altered at all.
    pub fn injected(self) -> bool {
        self != DataFault::Clean
    }
}

/// Immutable per-stream data-fault rates. Mirrors
/// [`LinkProfile`](crate::LinkProfile): construct one per simulated
/// sample stream (or [`derive`](DataFaultProfile::derive) per-shard
/// variants from a fleet-level profile) and drive a [`DataFaultState`]
/// with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataFaultProfile {
    /// Probability a sample's value becomes NaN.
    pub nan_prob: f64,
    /// Probability a sample's value becomes ±Inf.
    pub inf_prob: f64,
    /// Probability a sample's value is scaled by [`Self::corrupt_scale`].
    pub corrupt_prob: f64,
    /// The bogus multiplier applied by a corruption fault.
    pub corrupt_scale: f64,
    /// Probability a sample repeats the previous value (stuck counter).
    pub stuck_prob: f64,
    /// Probability a sample's PMI sub-moments (`sub_sd`) become NaN
    /// while the headline value stays valid.
    pub sub_nan_prob: f64,
    /// Stream seed: same seed + same samples ⇒ same faults.
    pub seed: u64,
}

impl DataFaultProfile {
    /// A fault-free profile (every sample passes through clean).
    pub fn clean(seed: u64) -> DataFaultProfile {
        DataFaultProfile {
            nan_prob: 0.0,
            inf_prob: 0.0,
            corrupt_prob: 0.0,
            corrupt_scale: 1e9,
            stuck_prob: 0.0,
            sub_nan_prob: 0.0,
            seed,
        }
    }

    /// A moderately hostile profile: ~2% of samples poisoned across the
    /// fault classes — high enough that a soak run of a few thousand
    /// samples exercises every class, low enough that inference still
    /// has signal to correct.
    pub fn noisy(seed: u64) -> DataFaultProfile {
        DataFaultProfile {
            nan_prob: 0.005,
            inf_prob: 0.003,
            corrupt_prob: 0.005,
            corrupt_scale: 1e9,
            stuck_prob: 0.004,
            sub_nan_prob: 0.003,
            seed,
        }
    }

    /// Derives a per-shard profile with the same rates but an
    /// independent fault stream, so fleet shards corrupt independently
    /// (mirrors [`LinkProfile::derive`](crate::LinkProfile::derive)).
    pub fn derive(&self, shard: u64) -> DataFaultProfile {
        DataFaultProfile {
            seed: self
                .seed
                .wrapping_add(shard.wrapping_mul(0xa076_1d64_78bd_642f)),
            ..*self
        }
    }
}

/// Mutable per-stream fault state: the splitmix64 mixer plus the
/// stuck-at memory, advanced once per [`apply`](DataFaultState::apply).
#[derive(Debug, Clone)]
pub struct DataFaultState {
    profile: DataFaultProfile,
    state: u64,
    /// The previous (pre-fault decision, post-previous-fault) value per
    /// stream — what a wedged counter would keep reporting.
    last_value: Option<f64>,
    samples: u64,
    injected: u64,
}

impl DataFaultState {
    /// Creates the fault stream for `profile` (warms the mixer so the
    /// first decision is already well mixed).
    pub fn new(profile: DataFaultProfile) -> DataFaultState {
        let mut state = profile.seed ^ 0x5851_f42d_4c95_7f2d;
        let _ = splitmix64(&mut state);
        DataFaultState {
            profile,
            state,
            last_value: None,
            samples: 0,
            injected: 0,
        }
    }

    /// Decides and applies at most one fault to `sample`, in a fixed
    /// draw order (nan, inf, corrupt, stuck, sub-moments) so the
    /// decision stream is identical per seed regardless of which rates
    /// are zero. Returns what happened.
    pub fn apply(&mut self, sample: &mut Sample) -> DataFault {
        self.samples += 1;
        let p = &self.profile;
        // One draw per fault class, always consumed, so enabling one
        // class never perturbs another class's stream.
        let d_nan = unit(splitmix64(&mut self.state));
        let d_inf = unit(splitmix64(&mut self.state));
        let d_corrupt = unit(splitmix64(&mut self.state));
        let d_stuck = unit(splitmix64(&mut self.state));
        let d_sub = unit(splitmix64(&mut self.state));
        let sign = splitmix64(&mut self.state);
        let prev = self.last_value.replace(sample.value);

        let fault = if d_nan < p.nan_prob {
            sample.value = f64::NAN;
            DataFault::Nan
        } else if d_inf < p.inf_prob {
            sample.value = if sign & 1 == 0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
            DataFault::Inf
        } else if d_corrupt < p.corrupt_prob {
            sample.value *= p.corrupt_scale;
            sample.sub_mean *= p.corrupt_scale;
            DataFault::Corrupted
        } else if d_stuck < p.stuck_prob {
            match prev {
                Some(v) => {
                    sample.value = v;
                    DataFault::StuckAt
                }
                // Nothing to be stuck at on the first sample.
                None => DataFault::Clean,
            }
        } else if d_sub < p.sub_nan_prob {
            sample.sub_sd = f64::NAN;
            DataFault::SubMomentsNan
        } else {
            DataFault::Clean
        };
        if fault.injected() {
            self.injected += 1;
        }
        fault
    }

    /// Samples run through [`apply`](DataFaultState::apply) so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Samples that had a fault injected.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayesperf_events::EventId;

    fn sample(window: u32, value: f64) -> Sample {
        Sample {
            event: EventId::from_raw(0),
            window,
            value,
            sub_mean: value / 4.0,
            sub_sd: value.abs().sqrt(),
            sub_n: 4,
            time_enabled: 100,
            time_running: 100,
            source: bayesperf_events::SourceId::PMU,
        }
    }

    // Bit patterns, not f64s: NaN faults must compare equal to themselves.
    fn run(profile: DataFaultProfile, n: u32) -> Vec<(u64, u64, DataFault)> {
        let mut st = DataFaultState::new(profile);
        (0..n)
            .map(|w| {
                let mut s = sample(w, 1000.0 + f64::from(w));
                let f = st.apply(&mut s);
                (s.value.to_bits(), s.sub_sd.to_bits(), f)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_faults() {
        let p = DataFaultProfile::noisy(42);
        assert_eq!(run(p, 500), run(p, 500));
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run(DataFaultProfile::noisy(1), 500);
        let b = run(DataFaultProfile::noisy(2), 500);
        assert_ne!(a, b);
    }

    #[test]
    fn clean_profile_never_touches_samples() {
        let mut st = DataFaultState::new(DataFaultProfile::clean(7));
        for w in 0..200 {
            let mut s = sample(w, 5.0);
            assert_eq!(st.apply(&mut s), DataFault::Clean);
            assert_eq!(s.value, 5.0);
            assert!(s.sub_sd.is_finite());
        }
        assert_eq!(st.injected(), 0);
        assert_eq!(st.samples(), 200);
    }

    #[test]
    fn every_fault_class_fires_at_noisy_rates() {
        let faults: Vec<DataFault> = run(DataFaultProfile::noisy(1234), 20_000)
            .into_iter()
            .map(|(_, _, f)| f)
            .collect();
        for want in [
            DataFault::Nan,
            DataFault::Inf,
            DataFault::Corrupted,
            DataFault::StuckAt,
            DataFault::SubMomentsNan,
        ] {
            assert!(
                faults.contains(&want),
                "fault class {want:?} never fired in 20k samples"
            );
        }
        // Aggregate rate in the right ballpark: 2% nominal, generous
        // bounds so the test is seed-robust.
        let injected = faults.iter().filter(|f| f.injected()).count();
        assert!((100..=1200).contains(&injected), "injected = {injected}");
    }

    #[test]
    fn faults_do_what_they_say() {
        let mut st = DataFaultState::new(DataFaultProfile::noisy(99));
        let mut prev = None;
        for w in 0..20_000u32 {
            let original = 1000.0 + f64::from(w);
            let mut s = sample(w, original);
            match st.apply(&mut s) {
                DataFault::Nan => assert!(s.value.is_nan()),
                DataFault::Inf => assert!(s.value.is_infinite()),
                DataFault::Corrupted => {
                    assert!(s.value.is_finite());
                    assert!((s.value / original - 1e9).abs() < 1e-3);
                }
                DataFault::StuckAt => assert_eq!(Some(s.value), prev),
                DataFault::SubMomentsNan => {
                    assert!(s.sub_sd.is_nan());
                    assert_eq!(s.value, original);
                }
                DataFault::Clean => assert_eq!(s.value, original),
            }
            prev = Some(original);
        }
        assert!(st.injected() > 0);
    }

    #[test]
    fn derive_gives_independent_streams_with_same_rates() {
        let fleet = DataFaultProfile::noisy(7);
        let a = fleet.derive(0);
        let b = fleet.derive(1);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.nan_prob, fleet.nan_prob);
        assert_ne!(run(a, 500), run(b, 500));
        // Derivation is pure: same shard, same stream.
        assert_eq!(run(fleet.derive(3), 200), run(fleet.derive(3), 200));
    }
}
