//! The production banded kernels are the reference kernels, bit for bit:
//! on seeded chain models at every bandwidth, every mean and variance
//! [`AnalyticScratch`] computes through `solve_mean`, `solve` and `irls`
//! has the bits [`ReferenceScratch`] (the kernels as they stood before
//! they were rewritten to compute independent entries side by side)
//! computes, and a precision with a non-positive pivot fails both.

use bayesperf_bench::reference::{Chain, ReferenceScratch};
use bayesperf_inference::{AnalyticScratch, Gaussian};
use proptest::prelude::*;

/// A seeded system to solve: a prior and terms emitted in a fixed order.
trait System {
    fn prior(&self) -> &[Gaussian];
    fn terms(&self, term: impl FnMut(&[usize], &[f64], f64, f64));
}

impl System for Chain {
    fn prior(&self) -> &[Gaussian] {
        Chain::prior(self)
    }

    fn terms(&self, term: impl FnMut(&[usize], &[f64], f64, f64)) {
        Chain::terms(self, term)
    }
}

/// A chain's terms, then for each variable `i` two terms on `i` and
/// `i + reach` whose coefficients are `0.0` and `−0.0`: they add signed
/// zeros to the band, so a kernel that let a `−0.0` into an entry the
/// reference holds at `+0.0`, or read padding that is not `+0.0`, would
/// show.
struct SignedZeros {
    chain: Chain,
    reach: usize,
}

impl System for SignedZeros {
    fn prior(&self) -> &[Gaussian] {
        self.chain.prior()
    }

    fn terms(&self, mut term: impl FnMut(&[usize], &[f64], f64, f64)) {
        self.chain.terms(&mut term);
        for i in 0..self.chain.dim().saturating_sub(self.reach) {
            let pair = [i, i + self.reach];
            term(&pair, &[0.0, -0.0], 1.5, 0.7);
            term(&pair, &[-0.0, 0.0], -2.5, 1.3);
        }
    }
}

fn assert_same_bits(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what} {i}: {g:e} vs reference {w:e}"
        );
    }
}

/// Solves the terms of `chain` that fit bandwidth `b` on `ws` and on a
/// reference, by `solve_mean`, by `solve` and by `irls` (weighting each
/// term at the current estimate), and asserts equal bits everywhere.
/// Callers reuse `ws` across shapes, so a kernel that read an entry an
/// earlier solve left behind would show here.
fn assert_bit_identical(ws: &mut AnalyticScratch, chain: &impl System, b: usize) {
    let fits = |l: &[usize]| l.iter().max().unwrap() - l.iter().min().unwrap() <= b;
    let mut reference = ReferenceScratch::new();
    let what = format!("d {} band {b}", chain.prior().len());

    ws.begin(chain.prior(), b);
    reference.begin(chain.prior(), b);
    chain.terms(|l, c, o, v| {
        if fits(l) {
            ws.add_term(l, c, o, v);
            reference.add_term(l, c, o, v);
        }
    });
    assert!(
        ws.solve_mean() && reference.solve_mean(),
        "{what}: positive definite"
    );
    assert_same_bits(
        &format!("{what} solve_mean mean"),
        ws.mean(),
        reference.mean(),
    );

    ws.begin(chain.prior(), b);
    reference.begin(chain.prior(), b);
    chain.terms(|l, c, o, v| {
        if fits(l) {
            ws.add_term(l, c, o, v);
            reference.add_term(l, c, o, v);
        }
    });
    assert!(ws.solve() && reference.solve(), "{what}: positive definite");
    assert_same_bits(&format!("{what} solve mean"), ws.mean(), reference.mean());
    assert_same_bits(&format!("{what} solve var"), ws.var(), reference.var());

    let start = || chain.prior().iter().map(|g| g.mean);
    assert!(ws.irls(chain.prior(), b, start(), |ws| {
        chain.terms(|l, c, o, v| {
            if fits(l) {
                let x = ws.mean()[l[0]];
                ws.add_term(l, c, o, v * (1.0 + 0.01 * x * x));
            }
        });
        true
    }));
    assert!(reference.irls(chain.prior(), b, start(), |reference| {
        chain.terms(|l, c, o, v| {
            if fits(l) {
                let x = reference.mean()[l[0]];
                reference.add_term(l, c, o, v * (1.0 + 0.01 * x * x));
            }
        });
        true
    }));
    assert_same_bits(&format!("{what} irls mean"), ws.mean(), reference.mean());
    assert_same_bits(&format!("{what} irls var"), ws.var(), reference.var());
}

proptest! {
    #[test]
    fn kernels_match_the_reference_at_every_bandwidth(
        n in 1usize..7,
        slices in 1usize..7,
        bands in (0usize..64, 0usize..64),
        seed in 0u64..u64::MAX,
    ) {
        let chain = Chain::seeded(n, slices, seed);
        let d = chain.dim();
        let mut ws = AnalyticScratch::new();
        assert_bit_identical(&mut ws, &chain, bands.0 % d);
        assert_bit_identical(&mut ws, &chain, bands.1 % d);
    }

    #[test]
    fn a_non_positive_pivot_fails_both(
        n in 1usize..6,
        slices in 1usize..6,
        at in 0usize..64,
        seed in 0u64..u64::MAX,
    ) {
        let chain = Chain::seeded(n, slices, seed);
        let d = chain.dim();
        prop_assume!(d >= 2);
        let p = at % (d - 1);
        // x_p + x_{p+1} observed at weight 2^996: every other contribution
        // to that 2×2 block lies below its last bit, so pivot p is exactly
        // 2^996, L(p + 1, p) is 2^498 and pivot p + 1 is exactly 0.
        let heavy = 2f64.powi(-996);
        for mean_only in [false, true] {
            let mut ws = AnalyticScratch::new();
            let mut reference = ReferenceScratch::new();
            ws.begin(chain.prior(), n);
            reference.begin(chain.prior(), n);
            chain.terms(|l, c, o, v| {
                ws.add_term(l, c, o, v);
                reference.add_term(l, c, o, v);
            });
            ws.add_term(&[p, p + 1], &[1.0, 1.0], 0.0, heavy);
            reference.add_term(&[p, p + 1], &[1.0, 1.0], 0.0, heavy);
            let (got, want) = if mean_only {
                (ws.solve_mean(), reference.solve_mean())
            } else {
                (ws.solve(), reference.solve())
            };
            prop_assert!(!got && !want, "d {d} pivot {}: {got} vs reference {want}", p + 1);
        }
    }
}

#[test]
fn bandwidth_zero_a_dense_band_odd_dimensions_and_a_chunk() {
    let mut ws = AnalyticScratch::new();
    for seed in 0..4 {
        // d = 15 and d = 7: odd dimensions, each at bandwidth 0, at its
        // chain's bandwidth and dense.
        for chain in [Chain::seeded(3, 5, seed), Chain::seeded(7, 1, seed)] {
            for b in [0, chain.slice_width(), chain.dim() - 1] {
                assert_bit_identical(&mut ws, &chain, b);
            }
        }
        // A 6-window chunk of the 29-event invariant component.
        assert_bit_identical(&mut ws, &Chain::seeded(29, 6, seed), 29);
    }
}

#[test]
fn bands_wider_than_a_register_window() {
    let mut ws = AnalyticScratch::new();
    for seed in 0..4 {
        // Bands past one and two 32-lane windows, mostly zero.
        for b in [31, 32, 33, 63, 64, 65] {
            assert_bit_identical(&mut ws, &Chain::seeded(12, 6, seed), b);
        }
        // Chains whose own terms fill such bands.
        assert_bit_identical(&mut ws, &Chain::seeded(33, 3, seed), 33);
        assert_bit_identical(&mut ws, &Chain::seeded(65, 2, seed), 65);
    }
}

#[test]
fn signed_zero_coefficients_keep_the_bits() {
    let mut ws = AnalyticScratch::new();
    for seed in 0..4 {
        for (n, b) in [(5, 5), (12, 16), (12, 33), (12, 65)] {
            let system = SignedZeros {
                chain: Chain::seeded(n, 6, seed),
                reach: b,
            };
            assert_bit_identical(&mut ws, &system, b);
        }
    }
}
