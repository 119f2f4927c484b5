//! Analytic posterior fusion: precision-weighted Gaussian products.
//!
//! Each shard's BayesPerf monitor publishes, per event, a Gaussian
//! posterior `N(μᵢ, σᵢ²)` over the event's per-window count. Because the
//! per-shard output is a *distribution* rather than a noisy point value,
//! cross-machine aggregation is closed-form instead of lossy averaging:
//! treating the shards' posteriors as independent Gaussian evidence about
//! the fleet-level rate, their normalized product is again Gaussian with
//!
//! ```text
//!   λ = Σᵢ 1/σᵢ²          (precisions add)
//!   η = Σᵢ μᵢ/σᵢ²         (precision-weighted means add)
//!   fused = N(η/λ, 1/λ)
//! ```
//!
//! A confident shard (small σ²) dominates the fused mean; a vague one
//! (large σ² — e.g. an event the shard never multiplexed in) contributes
//! almost nothing — exactly the weighting raw-counter averaging gets
//! wrong, since it weights noisy and clean machines equally. With one
//! contributing shard the fusion **short-circuits to identity** (no
//! `1/(1/σ²)` round trip), so a degenerate one-shard fleet reproduces the
//! single-monitor posterior bit for bit.

// The ISSUE-7 robustness audit: this file's non-test code must report
// failures as typed errors, never panic on them.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::health::ShardHealthView;
use crate::topology::{ShardId, ShardLabel};
use bayesperf_core::ShimError;
use bayesperf_inference::Gaussian;

/// Fuses independent Gaussian posteriors by precision weighting. Returns
/// `None` on an empty slice; returns the input unchanged when it has
/// exactly one element (bit-exact degenerate case).
///
/// Never panics on valid (positive-finite-variance) inputs: when the
/// precision sums overflow `f64` — possible with individually-valid
/// subnormal-variance posteriors, since `Σ 1/σᵢ²` can exceed `f64::MAX`
/// — the product is no longer representable, so the fusion falls back to
/// the sharpest single input, which the overflowing sum is dominated by
/// anyway. The aggregator thread must survive any decodable snapshot.
pub fn fuse_gaussians(posteriors: &[Gaussian]) -> Option<Gaussian> {
    match posteriors {
        [] => None,
        [only] => Some(*only),
        many => {
            let mut precision = 0.0;
            let mut eta = 0.0;
            for g in many {
                let p = 1.0 / g.var;
                precision += p;
                eta += g.mean * p;
            }
            let mean = eta / precision;
            let var = 1.0 / precision;
            if mean.is_finite() && var.is_finite() && var > 0.0 {
                Some(Gaussian::new(mean, var))
            } else {
                // Overflowed arithmetic: the exact product is dominated
                // by the most precise input, so serve that one verbatim.
                many.iter().min_by(|a, b| a.var.total_cmp(&b.var)).copied()
            }
        }
    }
}

/// One contributing shard's position in a fused snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// Which shard.
    pub shard: ShardId,
    /// Its topology label.
    pub label: ShardLabel,
    /// Most recent corrected window the shard has published.
    pub window: u32,
    /// Inference runs the shard has published.
    pub chunk: u64,
    /// Per-source dropped-late sample counts, indexed by raw source id
    /// (`SnapshotView::late_by_source` at scrape time): observation-plane
    /// health, fused into the fleet summary so a chronically late gauge
    /// on one shard is visible from the aggregator. Empty when no source
    /// has dropped anything (and for pre-observation-plane shards).
    pub late_by_source: Vec<u64>,
}

/// A fleet-level posterior snapshot: per-event fused posteriors plus the
/// per-shard inputs they were fused from, published through the lock-free
/// snapshot cell so fleet reads stay wait-free.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshot {
    /// 1-based aggregation pass counter (monotone per fleet).
    pub generation: u64,
    /// Contributing shards, sorted by id (shards with no published
    /// posterior yet are absent).
    pub shards: Vec<ShardStatus>,
    /// Catalog-indexed precision-weighted fused posteriors.
    pub fused: Vec<Gaussian>,
    /// Catalog-indexed posteriors per contributing shard, parallel to
    /// `shards` — the raw material for percentile and straggler views.
    pub per_shard: Vec<Vec<Gaussian>>,
    /// Health of *every* registered endpoint this round, sorted by shard
    /// id — including Dead or never-heard-from shards absent from
    /// `shards`, so degradation is observable rather than silent.
    pub health: Vec<ShardHealthView>,
}

impl FleetSnapshot {
    /// The most advanced window any contributing shard has corrected.
    pub fn max_window(&self) -> u32 {
        self.shards.iter().map(|s| s.window).max().unwrap_or(0)
    }

    /// Shards trailing the fleet frontier by more than `lag` windows —
    /// the slow scrapers / overloaded machines view.
    pub fn stragglers(&self, lag: u32) -> Vec<ShardId> {
        let frontier = self.max_window();
        self.shards
            .iter()
            .filter(|s| s.window.saturating_add(lag) < frontier)
            .map(|s| s.shard)
            .collect()
    }

    /// This shard's own posterior of `event_index`, if it contributed.
    pub fn shard_posterior(&self, shard: ShardId, event_index: usize) -> Option<Gaussian> {
        let i = self.shards.iter().position(|s| s.shard == shard)?;
        self.per_shard[i].get(event_index).copied()
    }

    /// This shard's health row, if the shard is registered.
    pub fn shard_health(&self, shard: ShardId) -> Option<&ShardHealthView> {
        self.health.iter().find(|h| h.shard == shard)
    }

    /// The `q`-quantile (nearest-rank, `q` in `[0, 1]`) of the shards'
    /// posterior *means* for an event — the cross-fleet distribution view
    /// (`q = 0.99` answers "what does the worst machine look like").
    pub fn percentile_mean(&self, event_index: usize, q: f64) -> Option<f64> {
        if self.shards.is_empty() {
            return None;
        }
        let mut means: Vec<f64> = self
            .per_shard
            .iter()
            .map(|p| p.get(event_index).map(|g| g.mean))
            .collect::<Option<_>>()?;
        means.sort_by(|a, b| a.total_cmp(b));
        let rank = ((q.clamp(0.0, 1.0) * means.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(means.len() - 1);
        Some(means[rank])
    }
}

/// Accumulates per-shard snapshots and fuses them into a
/// [`FleetSnapshot`]. Reusable across scrape passes (entry buffers are
/// recycled by [`Aggregator::begin`]); feed it either in-process
/// [`SnapshotView`](bayesperf_core::SnapshotView)s or wire-decoded
/// [`ShardSnapshot`](crate::wire::ShardSnapshot)s — fusion does not care
/// which side of the byte boundary the posteriors came from.
#[derive(Debug)]
pub struct Aggregator {
    n_events: usize,
    entries: Vec<(ShardStatus, ShardHealthView, Vec<Gaussian>)>,
    /// Entries in use this pass; the tail of `entries` is kept as an
    /// allocation pool.
    used: usize,
    /// Health rows of shards with *no* fusable contribution this pass
    /// (Dead, or never heard from) — published in the snapshot so they
    /// stay observable.
    noted: Vec<ShardHealthView>,
}

impl Aggregator {
    /// Creates an aggregator for a catalog of `n_events` events.
    pub fn new(n_events: usize) -> Aggregator {
        Aggregator {
            n_events,
            entries: Vec::new(),
            used: 0,
            noted: Vec::new(),
        }
    }

    /// Starts a new scrape pass, recycling the previous pass's buffers.
    pub fn begin(&mut self) {
        self.used = 0;
        self.noted.clear();
    }

    /// Adds one shard's posteriors to the current pass as a current
    /// (Healthy) contribution — for callers fusing freshly read
    /// snapshots directly, where staleness cannot arise.
    ///
    /// Fails with [`ShimError::CatalogMismatch`] when the posterior
    /// vector is not catalog-sized (a scrape from a foreign catalog).
    pub fn absorb(
        &mut self,
        status: ShardStatus,
        posteriors: &[Gaussian],
    ) -> Result<(), ShimError> {
        let health = ShardHealthView::healthy(status.shard);
        self.absorb_shard(status, health, posteriors)
    }

    /// Adds one shard's posteriors with explicit health — the networked
    /// scrape path, where the contribution may be a cached copy whose
    /// variance must be inflated by `health.inflation` before fusion. A
    /// [`Dead`](crate::HealthState::Dead) contribution is recorded in the
    /// health rows but excluded from fusion.
    pub fn absorb_shard(
        &mut self,
        status: ShardStatus,
        health: ShardHealthView,
        posteriors: &[Gaussian],
    ) -> Result<(), ShimError> {
        if posteriors.len() != self.n_events {
            return Err(ShimError::CatalogMismatch {
                expected: self.n_events,
                got: posteriors.len(),
            });
        }
        if !health.state.contributes() {
            self.noted.push(health);
            return Ok(());
        }
        if self.used == self.entries.len() {
            self.entries.push((status, health, posteriors.to_vec()));
        } else {
            let slot = &mut self.entries[self.used];
            slot.0 = status;
            slot.1 = health;
            slot.2.clear();
            slot.2.extend_from_slice(posteriors);
        }
        self.used += 1;
        Ok(())
    }

    /// Records the health of a shard with nothing to fuse this pass
    /// (Dead, or no snapshot ever received), so the published snapshot
    /// still carries its row.
    pub fn note_health(&mut self, health: ShardHealthView) {
        self.noted.push(health);
    }

    /// Shards absorbed as fusion contributors in the current pass.
    pub fn absorbed(&self) -> usize {
        self.used
    }

    /// Fuses the absorbed shards into a fleet snapshot (sorted by shard
    /// id, so fusion order — and thus floating-point rounding — is
    /// deterministic regardless of scrape order). Stale contributions are
    /// fused with variance `σ²·inflation` (inflation ≥ 1, so the fused
    /// posterior can only widen relative to fusing them fresh); a Healthy
    /// contribution's inflation is exactly 1 and is fused bit-verbatim,
    /// preserving the one-shard identity guarantee.
    ///
    /// Fails with [`ShimError::NoShards`] when nothing was absorbed.
    pub fn fuse(&mut self, generation: u64) -> Result<FleetSnapshot, ShimError> {
        if self.used == 0 {
            return Err(ShimError::NoShards);
        }
        self.entries[..self.used].sort_by_key(|(s, _, _)| s.shard);
        let live = &self.entries[..self.used];
        let mut scratch = Vec::with_capacity(self.used);
        let mut fused = Vec::with_capacity(self.n_events);
        for e in 0..self.n_events {
            scratch.clear();
            scratch.extend(live.iter().map(|(_, h, p)| inflate(p[e], h.inflation)));
            // `live` is non-empty here (`used > 0`), so the product
            // always exists; the typed fallback keeps this path
            // unwinding-free regardless.
            fused.push(fuse_gaussians(&scratch).ok_or(ShimError::NoShards)?);
        }
        let mut health: Vec<ShardHealthView> = live
            .iter()
            .map(|(_, h, _)| h.clone())
            .chain(self.noted.iter().cloned())
            .collect();
        health.sort_by_key(|h| h.shard);
        Ok(FleetSnapshot {
            generation,
            shards: live.iter().map(|(s, _, _)| s.clone()).collect(),
            fused,
            per_shard: live.iter().map(|(_, _, p)| p.clone()).collect(),
            health,
        })
    }
}

/// Widens `g` by the staleness `inflation` factor. `inflation == 1.0`
/// returns `g` bit-verbatim (the Healthy path must not perturb the
/// single-shard identity guarantee); an overflowing product clamps to
/// `f64::MAX` — still a valid, maximally vague Gaussian.
fn inflate(g: Gaussian, inflation: f64) -> Gaussian {
    if inflation == 1.0 {
        return g;
    }
    let var = g.var * inflation.max(1.0);
    Gaussian::new(g.mean, if var.is_finite() { var } else { f64::MAX })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(id: u32, window: u32) -> ShardStatus {
        ShardStatus {
            shard: ShardId::from_raw(id),
            label: ShardLabel::new(format!("m{id}"), 0),
            window,
            chunk: u64::from(window / 6 + 1),
            late_by_source: Vec::new(),
        }
    }

    #[test]
    fn fusion_matches_the_closed_form_product() {
        let inputs = [
            Gaussian::new(10.0, 4.0),
            Gaussian::new(14.0, 1.0),
            Gaussian::new(9.0, 0.25),
        ];
        let fused = fuse_gaussians(&inputs).unwrap();
        let lambda = 0.25 + 1.0 + 4.0;
        let eta = 10.0 * 0.25 + 14.0 * 1.0 + 9.0 * 4.0;
        assert!((fused.mean - eta / lambda).abs() < 1e-9);
        assert!((fused.var - 1.0 / lambda).abs() < 1e-9);
    }

    #[test]
    fn single_input_fusion_is_bitwise_identity() {
        // 0.3 is the classic 1/(1/x) != x case; the short-circuit must
        // keep the degenerate one-shard fleet bit-exact.
        let g = Gaussian::new(0.1 + 0.2, 0.3);
        let fused = fuse_gaussians(std::slice::from_ref(&g)).unwrap();
        assert_eq!(fused.mean.to_bits(), g.mean.to_bits());
        assert_eq!(fused.var.to_bits(), g.var.to_bits());
        assert!(fuse_gaussians(&[]).is_none());
    }

    #[test]
    fn overflowing_precision_sums_fall_back_instead_of_panicking() {
        // Each input is individually valid (positive finite variance; the
        // wire decoder accepts it), but Σ 1/σᵢ² overflows to infinity —
        // the naive product would build a zero-variance Gaussian and
        // panic the aggregator thread.
        let tiny = Gaussian::new(1.0, f64::MIN_POSITIVE);
        let fused = fuse_gaussians(&[tiny; 5]).unwrap();
        assert!(fused.var > 0.0 && fused.var.is_finite());
        assert!(fused.mean.is_finite());
        // The fallback serves the sharpest input verbatim.
        assert_eq!(fused.var.to_bits(), tiny.var.to_bits());
        assert_eq!(fused.mean.to_bits(), tiny.mean.to_bits());
        // Same overflow on the η side (huge mean × huge precision): the
        // fused mean must stay finite, never ±inf/NaN.
        let wide = Gaussian::new(-5.0e9, f64::MIN_POSITIVE);
        let fused = fuse_gaussians(&[wide, tiny, Gaussian::new(2.0, 1.0)]).unwrap();
        assert!(fused.mean.is_finite() && fused.var.is_finite() && fused.var > 0.0);
    }

    #[test]
    fn confident_shards_dominate_the_fused_mean() {
        let vague = Gaussian::new(100.0, 1.0e6);
        let sharp = Gaussian::new(10.0, 0.01);
        let fused = fuse_gaussians(&[vague, sharp]).unwrap();
        assert!((fused.mean - 10.0).abs() < 0.01, "mean {}", fused.mean);
        assert!(fused.var < 0.01);
    }

    #[test]
    fn aggregator_fuses_sorted_by_shard_id_and_recycles() {
        let mut agg = Aggregator::new(2);
        assert_eq!(agg.fuse(1), Err(ShimError::NoShards));
        let a = [Gaussian::new(1.0, 1.0), Gaussian::new(2.0, 1.0)];
        let b = [Gaussian::new(3.0, 1.0), Gaussian::new(4.0, 1.0)];
        // Absorb out of id order; fusion must sort.
        agg.begin();
        agg.absorb(status(5, 11), &b).unwrap();
        agg.absorb(status(2, 12), &a).unwrap();
        let snap = agg.fuse(1).unwrap();
        assert_eq!(snap.shards[0].shard, ShardId::from_raw(2));
        assert_eq!(snap.shards[1].shard, ShardId::from_raw(5));
        assert!((snap.fused[0].mean - 2.0).abs() < 1e-12);
        assert!((snap.fused[0].var - 0.5).abs() < 1e-12);
        assert_eq!(snap.max_window(), 12);
        // Second pass reuses buffers and forgets the first pass's shards.
        agg.begin();
        agg.absorb(status(7, 3), &a).unwrap();
        let snap = agg.fuse(2).unwrap();
        assert_eq!(snap.shards.len(), 1);
        assert_eq!(snap.generation, 2);
        // One contributor: bit-exact identity.
        assert_eq!(snap.fused[1].var.to_bits(), a[1].var.to_bits());
    }

    #[test]
    fn mismatched_catalog_size_is_a_typed_error() {
        let mut agg = Aggregator::new(3);
        let short = [Gaussian::new(1.0, 1.0)];
        assert_eq!(
            agg.absorb(status(0, 0), &short),
            Err(ShimError::CatalogMismatch {
                expected: 3,
                got: 1
            })
        );
    }

    #[test]
    fn stale_contributions_widen_never_sharpen_the_fused_posterior() {
        use crate::health::{HealthPolicy, ShardHealth, ShardHealthView};
        let a = [Gaussian::new(10.0, 2.0)];
        let b = [Gaussian::new(14.0, 3.0)];
        let mut agg = Aggregator::new(1);
        // All-healthy baseline.
        agg.begin();
        agg.absorb(status(0, 5), &a).unwrap();
        agg.absorb(status(1, 5), &b).unwrap();
        let fresh = agg.fuse(1).unwrap();
        // Same inputs, shard 1 stale at age 5 under the default policy.
        let policy = HealthPolicy::default();
        let stale = ShardHealthView::observe(
            ShardId::from_raw(1),
            &ShardHealth {
                age: 5,
                ..ShardHealth::default()
            },
            &policy,
        );
        assert!(stale.inflation > 1.0);
        agg.begin();
        agg.absorb(status(0, 5), &a).unwrap();
        agg.absorb_shard(status(1, 5), stale.clone(), &b).unwrap();
        let degraded = agg.fuse(2).unwrap();
        assert!(
            degraded.fused[0].var > fresh.fused[0].var,
            "stale evidence must widen: {} vs {}",
            degraded.fused[0].var,
            fresh.fused[0].var
        );
        // The published health rows carry the inflation that was used.
        assert_eq!(degraded.health.len(), 2);
        assert_eq!(
            degraded
                .shard_health(ShardId::from_raw(1))
                .unwrap()
                .inflation,
            stale.inflation
        );
        // per_shard keeps the *uninflated* posteriors (drill-down shows
        // what the shard said, not what fusion weighed it as).
        assert_eq!(degraded.per_shard[1][0].var.to_bits(), b[0].var.to_bits());
        // Inflation overflow clamps instead of panicking.
        let wide = inflate(Gaussian::new(1.0, f64::MAX / 2.0), 64.0);
        assert!(wide.var.is_finite());
    }

    #[test]
    fn dead_shards_are_recorded_but_excluded_from_fusion() {
        use crate::health::{HealthPolicy, HealthState, ShardHealth, ShardHealthView};
        let policy = HealthPolicy::default();
        let dead = ShardHealthView::observe(
            ShardId::from_raw(3),
            &ShardHealth {
                age: policy.dead_after,
                timeouts: 11,
                ..ShardHealth::default()
            },
            &policy,
        );
        assert_eq!(dead.state, HealthState::Dead);
        let mut agg = Aggregator::new(1);
        agg.begin();
        let a = [Gaussian::new(10.0, 2.0)];
        agg.absorb(status(0, 5), &a).unwrap();
        agg.absorb_shard(status(3, 9), dead, &[Gaussian::new(99.0, 1e-9)])
            .unwrap();
        agg.note_health(ShardHealthView::observe(
            ShardId::from_raw(8),
            &ShardHealth {
                age: 30,
                ..ShardHealth::default()
            },
            &policy,
        ));
        assert_eq!(agg.absorbed(), 1);
        let snap = agg.fuse(1).unwrap();
        // Fusion saw only shard 0 — bit-identical single contributor.
        assert_eq!(snap.shards.len(), 1);
        assert_eq!(snap.fused[0].var.to_bits(), a[0].var.to_bits());
        // But all three endpoints are observable, sorted by id.
        let ids: Vec<u32> = snap.health.iter().map(|h| h.shard.raw()).collect();
        assert_eq!(ids, vec![0, 3, 8]);
        assert_eq!(snap.health[1].state, HealthState::Dead);
        assert_eq!(snap.health[1].timeouts, 11);
        assert!(snap.shard_health(ShardId::from_raw(4)).is_none());
        // A pass of only-dead shards has nothing to fuse.
        agg.begin();
        let dead2 = snap.health[1].clone();
        agg.absorb_shard(status(3, 9), dead2, &a).unwrap();
        assert_eq!(agg.fuse(2), Err(ShimError::NoShards));
    }

    #[test]
    fn straggler_and_percentile_views() {
        let mut agg = Aggregator::new(1);
        agg.begin();
        for (id, window, mean) in [(0u32, 20u32, 5.0), (1, 19, 7.0), (2, 8, 100.0)] {
            agg.absorb(status(id, window), &[Gaussian::new(mean, 1.0)])
                .unwrap();
        }
        let snap = agg.fuse(1).unwrap();
        assert_eq!(snap.stragglers(2), vec![ShardId::from_raw(2)]);
        assert_eq!(snap.stragglers(100), Vec::<ShardId>::new());
        assert_eq!(snap.percentile_mean(0, 0.5), Some(7.0));
        assert_eq!(snap.percentile_mean(0, 1.0), Some(100.0));
        assert_eq!(snap.percentile_mean(0, 0.0), Some(5.0));
        assert_eq!(
            snap.shard_posterior(ShardId::from_raw(2), 0).unwrap().mean,
            100.0
        );
        assert!(snap.shard_posterior(ShardId::from_raw(9), 0).is_none());
    }
}
