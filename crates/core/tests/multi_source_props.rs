//! Property tests for the cross-source invariant factors (the coupling
//! the observation plane adds between PMU and gauge events).
//!
//! The model under test is the §4.2 error model at factor granularity:
//! one PMU variable `x` with a Student-t observation, one gauge variable
//! `y` observed through [`gauge_observation`], and the coupled invariant
//! `y = c·x` as a Gaussian factor on the residual — exactly the shape
//! `ChunkEngine` builds for `disk_dma_bytes` / `power_activity`.
//! Over random truths, couplings, and noise draws:
//!
//! * the invariant only **tightens or preserves** the fused posterior on
//!   consistent sources (an unobserved gauge slice inherits the PMU's
//!   evidence; a consistently observed one gets sharper, never wider);
//! * a corrupted gauge read (the `DataFaultProfile` corruption class: a
//!   huge bogus multiplier) **never oversharpens** either marginal and
//!   never produces non-finite moments — the same
//!   `assert_never_oversharpened` contract the fleet's net-fault harness
//!   enforces one layer up. Mean *accuracy* under corruption is not part
//!   of the factor-level contract: EP starts a site's IRLS solve at its
//!   observation's location every sweep, so a bogus-magnitude read costs
//!   accuracy until quarantine or later windows correct it — what it must
//!   never do is manufacture confidence.

use bayesperf_core::{gauge_observation, observation};
use bayesperf_events::{EventId, SourceId};
use bayesperf_inference::{EpConfig, ExpectationPropagation, FactorSite, Gaussian, StudentT};
use bayesperf_simcpu::Sample;
use proptest::Strategy;

/// A window-total sample in normalized units (scale 1).
fn sample(value: f64, sub_sd: f64, sub_n: u32, source: u16) -> Sample {
    Sample {
        event: EventId::from_raw(0),
        window: 0,
        value,
        sub_mean: value,
        sub_sd,
        sub_n,
        time_enabled: 4,
        time_running: 4,
        source: SourceId::from_raw(source),
    }
}

/// Posterior marginals `(x, y)` of the two-variable model.
///
/// `x` always carries its PMU observation; `obs_y` optionally adds the
/// gauge's; `invariant` optionally adds the coupled factor
/// `y - c·x ~ N(0, (0.01·max(c,1))²)` (the catalog's exact-invariant
/// width on the relative residual).
fn fused(obs_x: StudentT, obs_y: Option<StudentT>, invariant: Option<f64>) -> (Gaussian, Gaussian) {
    let prior = vec![Gaussian::new(1.0, 25.0), Gaussian::new(1.0, 25.0)];
    let mut ep = ExpectationPropagation::new(prior, EpConfig::default());
    ep.add_site(FactorSite::builder(vec![0]).student_t(0, obs_x).build());
    if let Some(t) = obs_y {
        ep.add_site(FactorSite::builder(vec![1]).student_t(0, t).build());
    }
    if let Some(c) = invariant {
        let width = 0.01 * c.max(1.0);
        ep.add_site(
            FactorSite::builder(vec![0, 1])
                .gaussian_linear(&[0, 1], &[-c, 1.0], 0.0, width * width)
                .build(),
        );
    }
    ep.run_farm(1);
    (ep.marginal(0), ep.marginal(1))
}

/// The fleet net-fault harness's contract, at factor level: relative to
/// the all-consistent posterior, a degraded input may only widen — both
/// marginals stay finite with positive variance and neither comes out
/// sharper (beyond a 20% margin).
fn assert_never_oversharpened(degraded: (Gaussian, Gaussian), consistent: (Gaussian, Gaussian)) {
    for (d, c) in [(degraded.0, consistent.0), (degraded.1, consistent.1)] {
        assert!(
            d.mean.is_finite() && d.var.is_finite() && d.var > 0.0,
            "degraded marginal corrupted: {d:?}"
        );
        assert!(
            d.var >= c.var * 0.8,
            "degraded marginal oversharpened: {} vs consistent {}",
            d.var,
            c.var
        );
    }
}

#[test]
fn coupled_invariants_tighten_on_consistent_sources_and_widen_under_faults() {
    proptest::run_n_cases("cross_source_invariant", 24, |rng| {
        let x_true = (0.5f64..2.0).sample(rng);
        let c = (0.5f64..4.0).sample(rng);
        let pmu_eps = (-0.02f64..0.02).sample(rng);
        let gauge_eps = (-0.015f64..0.015).sample(rng);
        // The fourth draw seeded the sampler this property once ran on;
        // consuming it keeps the 24 generated cases unchanged.
        let _ = (0u64..u64::MAX - 1).sample(rng);
        let y_true = c * x_true;

        let sx = sample(x_true * (1.0 + pmu_eps), 0.01 * x_true, 4, 0);
        let obs_x = observation(&sx, 1.0, 0.02);
        let sy = sample(y_true * (1.0 + gauge_eps), 0.0, 1, 2);
        let obs_y = gauge_observation(&sy, 1.0, 0.03, 0.02);
        // The DataFaultProfile corruption class: same read, bogus scale.
        let sy_bad = sample(sy.value * 1.0e9, 0.0, 1, 2);
        let obs_y_bad = gauge_observation(&sy_bad, 1.0, 0.03, 0.02);

        // Unobserved gauge slice: the invariant is the only y evidence.
        // It must tighten y massively versus the prior-only marginal and
        // must not degrade x.
        let (x_solo, y_solo) = fused(obs_x, None, None);
        let (x_inv, y_inv) = fused(obs_x, None, Some(c));
        assert!(
            y_inv.var <= y_solo.var * (1.0 + 1e-9),
            "invariant widened an unobserved gauge: {} vs {}",
            y_inv.var,
            y_solo.var
        );
        assert!(
            x_inv.var <= x_solo.var * 1.5,
            "invariant degraded the PMU marginal: {} vs {}",
            x_inv.var,
            x_solo.var
        );
        assert!(
            (y_inv.mean - y_true).abs() < 0.5 * y_true.max(1.0),
            "invariant-only gauge estimate way off: {} vs {}",
            y_inv.mean,
            y_true
        );

        // Consistent gauge observation: more evidence, so the fused
        // posterior tightens (or at worst preserves, within 10%) relative
        // to the invariant-only marginal.
        let consistent = fused(obs_x, Some(obs_y), Some(c));
        assert!(
            consistent.1.var <= y_inv.var * 1.1,
            "consistent gauge evidence widened the fused posterior: {} vs {}",
            consistent.1.var,
            y_inv.var
        );
        assert!(
            (consistent.1.mean - y_true).abs() < 0.5 * y_true.max(1.0),
            "fused gauge estimate way off: {} vs {}",
            consistent.1.mean,
            y_true
        );

        // Corrupted gauge read: the value-proportional factor scale makes
        // the bogus observation weak evidence. The fused posterior may
        // lose mean accuracy (the site's solve starts at the bogus read
        // each sweep), but it must stay finite and must never come out
        // *sharper* than the consistent run — corruption can cost
        // information, never fabricate it.
        let faulted = fused(obs_x, Some(obs_y_bad), Some(c));
        assert_never_oversharpened(faulted, consistent);
    });
}
