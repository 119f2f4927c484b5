//! Deterministic link fault profiles for simulated scrape planes.
//!
//! A distributed fleet's aggregator talks to its shards over links that
//! drop, lag, corrupt, and partition. Reproducing those failures against
//! real sockets makes tests slow and flaky; this module instead models a
//! link as a *seeded random process* the transport layer consults once per
//! request/response exchange. Everything is a pure function of
//! `(profile, exchange index)`, so a 100-shard lossy-fleet simulation is
//! exactly reproducible — the same shards time out on the same rounds on
//! every run, on every machine.
//!
//! Time is **virtual**: a drawn latency is compared against the caller's
//! deadline instead of being slept. A lossy 100-shard soak therefore runs
//! in milliseconds of wall clock while still exercising every timeout
//! path the real transports have.
//!
//! [`LinkProfile`] describes the link (drop probability, latency
//! distribution, corruption rate, recurring partition windows);
//! [`LinkState`] is its runtime: call [`LinkState::exchange`] once per
//! request and act on the returned [`LinkFate`].

use crate::{splitmix64, unit};

/// A seeded fault model for one aggregator↔shard link.
///
/// Probabilities are per request/response exchange. Latency is drawn
/// uniformly in `latency_us ± latency_jitter_us` (clamped at zero) and
/// compared against the caller's deadline — a draw beyond the deadline is
/// a timeout. Partitions are recurring outage windows in exchange counts:
/// exchange `i` is partitioned when
/// `(i + partition_phase) % partition_period < partition_len`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Probability an exchange is silently dropped (request or response
    /// lost; the caller observes only its deadline expiring).
    pub drop_prob: f64,
    /// Probability a delivered response has one byte flipped in flight.
    pub corrupt_prob: f64,
    /// Median round-trip latency, microseconds.
    pub latency_us: f64,
    /// Uniform jitter half-width around `latency_us`, microseconds.
    pub latency_jitter_us: f64,
    /// Length of the recurring partition cycle in exchanges
    /// (`0` = never partitioned).
    pub partition_period: u64,
    /// Leading exchanges of each cycle during which the link is down.
    pub partition_len: u64,
    /// Phase offset into the partition cycle.
    pub partition_phase: u64,
    /// Seed of the link's fault process.
    pub seed: u64,
}

impl LinkProfile {
    /// A perfect link: no drops, no corruption, negligible latency.
    pub fn clean(seed: u64) -> LinkProfile {
        LinkProfile {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            latency_us: 50.0,
            latency_jitter_us: 0.0,
            partition_period: 0,
            partition_len: 0,
            partition_phase: 0,
            seed,
        }
    }

    /// A lossy datacenter link: `drop_prob` frame loss, mild corruption,
    /// latency spread wide enough that tight deadlines occasionally
    /// expire. No partitions — add those per shard.
    pub fn lossy(seed: u64, drop_prob: f64) -> LinkProfile {
        LinkProfile {
            drop_prob,
            corrupt_prob: 0.01,
            latency_us: 200.0,
            latency_jitter_us: 150.0,
            partition_period: 0,
            partition_len: 0,
            partition_phase: 0,
            seed,
        }
    }

    /// Derives shard `shard`'s variant of this profile: a distinct fault
    /// seed and a de-phased partition cycle, with the same loss/latency
    /// character. Mirrors [`ShardProfile::derive`](crate::ShardProfile):
    /// one template describes the fleet, each link misbehaves on its own
    /// schedule.
    pub fn derive(&self, shard: u32) -> LinkProfile {
        let mut state = self.seed ^ u64::from(shard).wrapping_mul(0xa076_1d64_78bd_642f);
        let seed = splitmix64(&mut state);
        let phase = if self.partition_period > 0 {
            (self.partition_phase + splitmix64(&mut state)) % self.partition_period
        } else {
            0
        };
        LinkProfile {
            seed,
            partition_phase: phase,
            ..*self
        }
    }
}

/// The outcome the link decided for one exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFate {
    /// Both frames arrived within the deadline. `corrupt` names a byte to
    /// flip in the response: `(word, mask)` — flip `response[word % len]`
    /// with the non-zero `mask`.
    Delivered {
        /// Round-trip latency of this exchange, microseconds.
        latency_us: u64,
        /// In-flight response corruption to apply, if any.
        corrupt: Option<(u64, u8)>,
    },
    /// A frame was lost; the caller's deadline expires silently.
    Dropped,
    /// The link is inside a partition window; connections fail outright.
    Partitioned,
    /// The drawn latency exceeded the caller's deadline.
    TimedOut {
        /// The latency that was drawn (beyond the deadline).
        latency_us: u64,
    },
}

/// Runtime state of one link: the profile plus the seeded draw stream and
/// the exchange counter that drives partition windows.
#[derive(Debug, Clone)]
pub struct LinkState {
    profile: LinkProfile,
    state: u64,
    exchanges: u64,
}

impl LinkState {
    /// Starts the fault process of `profile`.
    pub fn new(profile: LinkProfile) -> LinkState {
        let mut state = profile.seed ^ 0x5851_f42d_4c95_7f2d;
        // Warm the mixer so near-identical seeds decorrelate immediately.
        splitmix64(&mut state);
        LinkState {
            profile,
            state,
            exchanges: 0,
        }
    }

    /// The profile this link runs.
    pub fn profile(&self) -> &LinkProfile {
        &self.profile
    }

    /// Exchanges decided so far (delivered or not).
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// Whether the *next* exchange falls inside a partition window.
    pub fn partitioned(&self) -> bool {
        let p = &self.profile;
        p.partition_period > 0
            && (self.exchanges + p.partition_phase) % p.partition_period < p.partition_len
    }

    /// Decides the fate of one request/response exchange against
    /// `deadline_us`. Draw order is fixed (drop, latency, corruption), so
    /// a link's fate sequence depends only on its profile — never on what
    /// other links or threads are doing.
    pub fn exchange(&mut self, deadline_us: u64) -> LinkFate {
        let partitioned = self.partitioned();
        self.exchanges += 1;
        let p = self.profile;
        if partitioned {
            return LinkFate::Partitioned;
        }
        if p.drop_prob > 0.0 && unit(splitmix64(&mut self.state)) < p.drop_prob {
            return LinkFate::Dropped;
        }
        let spread = 2.0 * (unit(splitmix64(&mut self.state)) - 0.5);
        let latency = (p.latency_us + spread * p.latency_jitter_us).max(0.0) as u64;
        if latency > deadline_us {
            return LinkFate::TimedOut {
                latency_us: latency,
            };
        }
        let corrupt = if p.corrupt_prob > 0.0 && unit(splitmix64(&mut self.state)) < p.corrupt_prob
        {
            let word = splitmix64(&mut self.state);
            let mask = (splitmix64(&mut self.state) % 255) as u8 + 1;
            Some((word, mask))
        } else {
            None
        };
        LinkFate::Delivered {
            latency_us: latency,
            corrupt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_links_always_deliver_uncorrupted() {
        let mut link = LinkState::new(LinkProfile::clean(7));
        for _ in 0..1000 {
            match link.exchange(1_000) {
                LinkFate::Delivered { corrupt: None, .. } => {}
                other => panic!("clean link misbehaved: {other:?}"),
            }
        }
    }

    #[test]
    fn fate_sequences_are_deterministic_per_seed() {
        let profile = LinkProfile::lossy(11, 0.2);
        let mut a = LinkState::new(profile);
        let mut b = LinkState::new(profile);
        for _ in 0..500 {
            assert_eq!(a.exchange(300), b.exchange(300));
        }
        // A different seed gives a different fate sequence.
        let mut c = LinkState::new(LinkProfile::lossy(12, 0.2));
        let mut a = LinkState::new(profile);
        let same = (0..500)
            .filter(|_| a.exchange(300) == c.exchange(300))
            .count();
        assert!(same < 500, "distinct seeds must diverge");
    }

    #[test]
    fn drop_rate_tracks_the_profile() {
        let mut link = LinkState::new(LinkProfile::lossy(3, 0.15));
        let n = 20_000;
        let dropped = (0..n)
            .filter(|_| matches!(link.exchange(u64::MAX), LinkFate::Dropped))
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.15).abs() < 0.02, "drop rate {rate}");
    }

    #[test]
    fn tight_deadlines_time_out_loose_ones_do_not() {
        let profile = LinkProfile {
            latency_us: 500.0,
            latency_jitter_us: 400.0,
            ..LinkProfile::clean(5)
        };
        let mut link = LinkState::new(profile);
        let timeouts = (0..10_000)
            .filter(|_| matches!(link.exchange(600), LinkFate::TimedOut { .. }))
            .count();
        // latency ~ U[100, 900]: roughly 3/8 of draws exceed 600µs.
        assert!(timeouts > 2_000 && timeouts < 5_500, "timeouts {timeouts}");
        let mut link = LinkState::new(profile);
        for _ in 0..1000 {
            assert!(
                matches!(link.exchange(1_000), LinkFate::Delivered { .. }),
                "900µs worst case fits a 1ms deadline"
            );
        }
    }

    #[test]
    fn partition_windows_recur_and_clear() {
        let profile = LinkProfile {
            partition_period: 10,
            partition_len: 3,
            partition_phase: 0,
            ..LinkProfile::clean(9)
        };
        let mut link = LinkState::new(profile);
        for cycle in 0..5 {
            for i in 0..10 {
                let fate = link.exchange(1_000);
                if i < 3 {
                    assert_eq!(fate, LinkFate::Partitioned, "cycle {cycle} step {i}");
                } else {
                    assert!(
                        matches!(fate, LinkFate::Delivered { .. }),
                        "cycle {cycle} step {i}: {fate:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn derive_reseeds_and_dephases_per_shard() {
        let template = LinkProfile {
            partition_period: 40,
            partition_len: 10,
            ..LinkProfile::lossy(0xBEEF, 0.1)
        };
        let a = template.derive(1);
        let b = template.derive(2);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.drop_prob, template.drop_prob);
        assert!(a.partition_phase < 40 && b.partition_phase < 40);
        assert_eq!(template.derive(1), a, "pure function of (template, shard)");
        // Corruption masks are never zero (a zero mask would be a no-op
        // "corruption" that tests silently pass through).
        let mut link = LinkState::new(LinkProfile {
            corrupt_prob: 1.0,
            ..LinkProfile::clean(2)
        });
        for _ in 0..200 {
            match link.exchange(1_000) {
                LinkFate::Delivered {
                    corrupt: Some((_, mask)),
                    ..
                } => assert_ne!(mask, 0),
                other => panic!("expected corruption, got {other:?}"),
            }
        }
    }
}
