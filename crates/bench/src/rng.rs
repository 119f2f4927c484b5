//! Counter-based RNG streams for deterministic randomness.
//!
//! One shared sequential generator would make the stream each consumer
//! sees depend on the order of its draws. Instead, every
//! `(seed, stream, step)` triple names its own independent stream: a
//! [`SiteRng`] derived by mixing the triple through SplitMix64-style
//! finalizers into a xoshiro256++ state, so each stream's draws are a pure
//! function of its coordinates. The perf gates ([`crate::gate`]) draw their
//! seeded arm order from [`derive_stream_seed`], and the gate's statistics
//! tests draw their synthetic noise from [`SiteRng`] streams.
//!
//! This is the software analogue of the per-engine hardware RNGs in the
//! accelerator's AcMC² sampler IPs (§5): each engine owns its stream; no
//! cross-engine synchronization is ever needed for randomness.

use rand::RngCore;

/// 64-bit avalanche mixer (SplitMix64 finalizer). Distinct inputs map to
/// effectively independent outputs.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Derives an independent sub-seed from a base seed and a stream index —
/// the shared mixer behind per-site and per-chunk stream derivation (one
/// implementation, so stream-separation hardening happens in one place).
pub fn derive_stream_seed(seed: u64, index: usize) -> u64 {
    mix64(
        seed.wrapping_add(0x9e3779b97f4a7c15)
            .wrapping_add((index as u64).wrapping_mul(0xbf58476d1ce4e5b9)),
    )
}

/// A per-`(seed, site, sweep)` random stream.
///
/// Construction is O(1) — no warm-up draws — so a fresh stream per
/// coordinate costs nothing and touches no shared state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRng {
    s: [u64; 4],
}

impl SiteRng {
    /// Creates the stream for `(seed, site, sweep)`.
    ///
    /// The three coordinates are mixed with distinct round constants before
    /// state expansion, so neighboring sites/sweeps get unrelated streams
    /// (a plain XOR of the triple would make `(site=1, sweep=0)` collide
    /// with `(site=0, sweep=1)` under many seed values).
    pub fn for_site(seed: u64, site: usize, sweep: usize) -> Self {
        let a = mix64(seed);
        let b = mix64((site as u64).wrapping_add(0xa076_1d64_78bd_642f));
        let c = mix64((sweep as u64).wrapping_add(0xe703_7ed1_a0b4_28db));
        let mut state = a ^ b.rotate_left(21) ^ c.rotate_left(42);
        let mut s = [0u64; 4];
        for w in &mut s {
            state = mix64(state);
            *w = state;
        }
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e3779b97f4a7c15;
        }
        SiteRng { s }
    }
}

impl RngCore for SiteRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        // xoshiro256++, same generator family as the workspace StdRng.
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_coordinates_same_stream() {
        let mut a = SiteRng::for_site(7, 3, 2);
        let mut b = SiteRng::for_site(7, 3, 2);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn coordinates_are_not_interchangeable() {
        // (site, sweep) = (1, 0) vs (0, 1) must differ — the collision a
        // naive seed ^ site ^ sweep scheme would produce.
        let mut a = SiteRng::for_site(7, 1, 0);
        let mut b = SiteRng::for_site(7, 0, 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn streams_look_independent() {
        // Cross-correlation of neighboring site streams should be tiny.
        let n = 20_000;
        let mut x = SiteRng::for_site(1, 0, 0);
        let mut y = SiteRng::for_site(1, 1, 0);
        let mut dot = 0.0;
        for _ in 0..n {
            let a: f64 = x.gen::<f64>() - 0.5;
            let b: f64 = y.gen::<f64>() - 0.5;
            dot += a * b;
        }
        let corr = dot / n as f64 / (1.0 / 12.0);
        assert!(corr.abs() < 0.05, "cross-correlation {corr}");
    }

    #[test]
    fn uniform_moments() {
        let mut rng = SiteRng::for_site(42, 9, 4);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += rng.gen::<f64>();
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
