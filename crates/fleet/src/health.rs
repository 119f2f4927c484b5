//! Per-shard health: the Healthy → Degraded → Stale → Dead state machine
//! and the staleness-driven variance inflation it feeds into fusion.
//!
//! A networked scrape plane cannot trust its own inputs: a shard that
//! stopped answering may be dead, partitioned, or merely slow, and the
//! aggregator's cached copy of its posterior ages either way. The paper's
//! principle — model your measurement error instead of ignoring it —
//! applies to the scrape plane itself: a stale posterior is *weaker
//! evidence*, so before the precision-weighted product its variance is
//! inflated by age,
//!
//! ```text
//!   σ²_used = σ² · min(max_inflation, 1 + κ · age)
//! ```
//!
//! where `age` counts poll rounds since the shard last proved its state
//! current (a fresh snapshot *or* an `Unchanged` ack — both mean the
//! cached copy is exactly what the shard would serve). Inflation is ≥ 1
//! always, so a degraded fleet's fused posterior can only be *wider* than
//! the all-healthy fusion of the same inputs — staleness never manufactures
//! confidence. Past `dead_after` rounds the shard is [`Dead`]: its cached
//! posterior is dropped from fusion entirely (inflation would keep an
//! arbitrarily old opinion alive forever), but the scraper keeps probing
//! it, and one successful exchange returns it to [`Healthy`].
//!
//! [`Dead`]: HealthState::Dead
//! [`Healthy`]: HealthState::Healthy

use crate::topology::ShardId;
use bayesperf_core::ShimError;

/// Where a shard sits in the staleness state machine. Ordering is by
/// severity (`Healthy < Degraded < Stale < Dead`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Last poll round reached the shard (snapshot or `Unchanged` ack);
    /// the cached posterior is current. Age 0.
    Healthy,
    /// Recent rounds failed but the cache is younger than
    /// [`HealthPolicy::stale_after`]; contribution fused un-inflated.
    Degraded,
    /// Cache age reached `stale_after`: still fused, but variance-inflated
    /// by age so it widens rather than sharpens the fleet posterior.
    Stale,
    /// Cache age reached [`HealthPolicy::dead_after`]: excluded from
    /// fusion. Still probed; one success returns it to `Healthy`.
    Dead,
}

impl HealthState {
    /// Whether this shard's cached posterior participates in fusion.
    pub fn contributes(self) -> bool {
        self != HealthState::Dead
    }

    /// Stable lowercase name (metric labels, flight-recorder lines).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Stale => "stale",
            HealthState::Dead => "dead",
        }
    }
}

/// Thresholds and inflation constants driving the health state machine.
/// One policy serves the whole fleet; per-shard state lives in
/// [`ShardHealth`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Cache age (failed rounds) at which a shard turns [`Stale`]
    /// and inflation starts. Must be ≥ 1.
    ///
    /// [`Stale`]: HealthState::Stale
    pub stale_after: u32,
    /// Cache age at which a shard turns [`Dead`] and leaves fusion.
    /// Must be > `stale_after`.
    ///
    /// [`Dead`]: HealthState::Dead
    pub dead_after: u32,
    /// κ: per-round variance inflation slope for stale shards.
    pub inflation_per_round: f64,
    /// Inflation ceiling, so a nearly-dead shard's contribution stays a
    /// finite (if very vague) Gaussian rather than overflowing.
    pub max_inflation: f64,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            stale_after: 3,
            dead_after: 10,
            inflation_per_round: 0.5,
            max_inflation: 64.0,
        }
    }
}

impl HealthPolicy {
    /// The state a cache age maps to under this policy.
    pub fn state(&self, age: u32) -> HealthState {
        debug_assert!(self.stale_after >= 1 && self.dead_after > self.stale_after);
        if age == 0 {
            HealthState::Healthy
        } else if age < self.stale_after {
            HealthState::Degraded
        } else if age < self.dead_after {
            HealthState::Stale
        } else {
            HealthState::Dead
        }
    }

    /// The variance multiplier for a cache of `age` rounds:
    /// `min(max_inflation, 1 + κ·age)` once stale, `1` before. Always
    /// ≥ 1 and finite, so fusing inflated inputs can only widen the
    /// fused posterior relative to fusing them fresh.
    pub fn inflation(&self, age: u32) -> f64 {
        if age < self.stale_after {
            return 1.0;
        }
        let raw = 1.0 + self.inflation_per_round * f64::from(age);
        raw.min(self.max_inflation).max(1.0)
    }
}

/// How one poll attempt failed, for the per-shard error counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Deadline expired (dropped frame, lagging link, slow shard).
    Timeout,
    /// Transport-level failure: connect refused, reset, partition.
    Link,
    /// Bytes arrived but did not decode (corruption, foreign catalog).
    Decode,
}

impl FailureKind {
    /// Classifies a scrape error into a counter bucket.
    pub fn from_error(err: &ShimError) -> FailureKind {
        match err {
            ShimError::ScrapeTimeout => FailureKind::Timeout,
            ShimError::LinkDown { .. } => FailureKind::Link,
            _ => FailureKind::Decode,
        }
    }
}

/// Mutable health state the scraper keeps per endpoint: cache age plus
/// cumulative error counters. The state machine itself is derived —
/// `policy.state(health.age)` — so there is no transition table to drift
/// out of sync with the counters.
#[derive(Debug, Clone, Default)]
pub struct ShardHealth {
    /// Poll rounds since the shard last proved its cache current.
    pub age: u32,
    /// Rounds the scraper has run this endpoint through (attempted or
    /// skipped while cooling down).
    pub rounds: u64,
    /// Successful exchanges (snapshot or `Unchanged`).
    pub successes: u64,
    /// Exchanges that missed their deadline.
    pub timeouts: u64,
    /// Transport failures below the wire layer.
    pub link_errors: u64,
    /// Responses that arrived but failed to decode.
    pub decode_errors: u64,
}

impl ShardHealth {
    /// Records a successful exchange: the cache is provably current, so
    /// age resets — a Dead shard jumps straight back to Healthy.
    pub fn on_success(&mut self) {
        self.rounds += 1;
        self.successes += 1;
        self.age = 0;
    }

    /// Records a failed attempt of kind `kind`; the cache ages one round.
    pub fn on_failure(&mut self, kind: FailureKind) {
        self.rounds += 1;
        self.age = self.age.saturating_add(1);
        match kind {
            FailureKind::Timeout => self.timeouts += 1,
            FailureKind::Link => self.link_errors += 1,
            FailureKind::Decode => self.decode_errors += 1,
        }
    }

    /// Records a round in which the endpoint was not attempted (backoff
    /// cooldown). The cache still ages — staleness is about the data,
    /// not about how hard we tried.
    pub fn on_skipped(&mut self) {
        self.rounds += 1;
        self.age = self.age.saturating_add(1);
    }
}

/// One shard's health as published in a
/// [`FleetSnapshot`](crate::FleetSnapshot): the observable face of the
/// state machine, covering *every* registered endpoint — including Dead
/// or never-heard-from shards that contribute nothing to fusion.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHealthView {
    /// Which shard.
    pub shard: ShardId,
    /// Its position in the state machine this round.
    pub state: HealthState,
    /// Poll rounds since the shard last proved its cache current.
    pub age: u32,
    /// The variance multiplier its contribution was fused with
    /// (1.0 unless `state` is `Stale`; meaningless when `Dead`).
    pub inflation: f64,
    /// Cumulative deadline misses.
    pub timeouts: u64,
    /// Cumulative transport failures.
    pub link_errors: u64,
    /// Cumulative decode failures.
    pub decode_errors: u64,
}

impl ShardHealthView {
    /// The view of a shard that is current as of this round (age 0, no
    /// inflation) — what a caller fusing freshly read snapshots itself,
    /// without a scraper's health machine, absorbs them under.
    pub fn healthy(shard: ShardId) -> ShardHealthView {
        ShardHealthView {
            shard,
            state: HealthState::Healthy,
            age: 0,
            inflation: 1.0,
            timeouts: 0,
            link_errors: 0,
            decode_errors: 0,
        }
    }

    /// Builds the view of `health` under `policy`.
    pub fn observe(shard: ShardId, health: &ShardHealth, policy: &HealthPolicy) -> ShardHealthView {
        ShardHealthView {
            shard,
            state: policy.state(health.age),
            age: health.age,
            inflation: policy.inflation(health.age),
            timeouts: health.timeouts,
            link_errors: health.link_errors,
            decode_errors: health.decode_errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ages_map_to_states_in_severity_order() {
        let p = HealthPolicy::default();
        assert_eq!(p.state(0), HealthState::Healthy);
        assert_eq!(p.state(1), HealthState::Degraded);
        assert_eq!(p.state(2), HealthState::Degraded);
        assert_eq!(p.state(3), HealthState::Stale);
        assert_eq!(p.state(9), HealthState::Stale);
        assert_eq!(p.state(10), HealthState::Dead);
        assert_eq!(p.state(u32::MAX), HealthState::Dead);
        assert!(HealthState::Healthy < HealthState::Degraded);
        assert!(HealthState::Stale < HealthState::Dead);
        assert!(HealthState::Stale.contributes());
        assert!(!HealthState::Dead.contributes());
    }

    #[test]
    fn inflation_is_one_before_stale_then_grows_capped() {
        let p = HealthPolicy::default();
        assert_eq!(p.inflation(0), 1.0);
        assert_eq!(p.inflation(2), 1.0);
        assert!((p.inflation(3) - 2.5).abs() < 1e-12); // 1 + 0.5·3
        assert!(p.inflation(4) > p.inflation(3), "monotone in age");
        assert_eq!(p.inflation(1_000_000), p.max_inflation);
        // Never below 1 even with a hostile (zero-slope) policy.
        let flat = HealthPolicy {
            inflation_per_round: 0.0,
            ..p
        };
        assert_eq!(flat.inflation(5), 1.0);
    }

    #[test]
    fn success_resets_age_from_anywhere() {
        let mut h = ShardHealth::default();
        for _ in 0..12 {
            h.on_failure(FailureKind::Timeout);
        }
        let p = HealthPolicy::default();
        assert_eq!(p.state(h.age), HealthState::Dead);
        h.on_success();
        assert_eq!(p.state(h.age), HealthState::Healthy);
        assert_eq!(h.timeouts, 12);
        assert_eq!(h.successes, 1);
        assert_eq!(h.rounds, 13);
    }

    #[test]
    fn skipped_rounds_still_age_the_cache() {
        let mut h = ShardHealth::default();
        h.on_failure(FailureKind::Link);
        h.on_skipped();
        h.on_skipped();
        assert_eq!(h.age, 3);
        assert_eq!(h.link_errors, 1);
        assert_eq!(h.rounds, 3);
    }

    #[test]
    fn errors_classify_into_counter_buckets() {
        assert_eq!(
            FailureKind::from_error(&ShimError::ScrapeTimeout),
            FailureKind::Timeout
        );
        assert_eq!(
            FailureKind::from_error(&ShimError::LinkDown { what: "reset" }),
            FailureKind::Link
        );
        assert_eq!(
            FailureKind::from_error(&ShimError::WireMalformed { what: "x" }),
            FailureKind::Decode
        );
        assert_eq!(
            FailureKind::from_error(&ShimError::WireTruncated { offset: 3 }),
            FailureKind::Decode
        );
    }

    #[test]
    fn observe_builds_the_published_view() {
        let mut h = ShardHealth::default();
        for _ in 0..4 {
            h.on_failure(FailureKind::Timeout);
        }
        let p = HealthPolicy::default();
        let v = ShardHealthView::observe(ShardId::from_raw(7), &h, &p);
        assert_eq!(v.state, HealthState::Stale);
        assert_eq!(v.age, 4);
        assert!((v.inflation - 3.0).abs() < 1e-12);
        assert_eq!(v.timeouts, 4);
        let fresh = ShardHealthView::healthy(ShardId::from_raw(1));
        assert_eq!(fresh.state, HealthState::Healthy);
        assert_eq!(fresh.inflation, 1.0);
    }
}
