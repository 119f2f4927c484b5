//! The measurement-error model of §4.2.
//!
//! For a single event programmed on an HPC, the measured value is the true
//! value plus zero-mean random noise (`m = v + e`, `e ~ N(0, σ)` with σ
//! unknown). Given the `N` PMI sub-samples of one multiplexing window, the
//! marginal posterior of the true value — with the unknown variance
//! marginalized out — is a scaled and shifted Student-t:
//! `v ~ total + (S·√N) · StudentT(ν = N − 1)`.

use bayesperf_inference::StudentT;
use bayesperf_simcpu::Sample;

/// Builds the normalized observation factor for a sample.
///
/// The returned Student-t is expressed in *normalized* units (window counts
/// divided by `scale`), matching the inference model's variables. The scale
/// parameter is floored at `sigma_floor` (relative) so that a window with
/// zero sub-sample deviation still reflects the residual measurement noise
/// floor instead of collapsing to a delta.
///
/// # Panics
///
/// Panics if `scale` is not positive.
pub fn observation(sample: &Sample, scale: f64, sigma_floor: f64) -> StudentT {
    assert!(scale > 0.0, "scale must be positive, got {scale}");
    let n = sample.sub_n.max(3) as f64;
    // The noise of the window total (a sum of n sub-samples, each with
    // deviation sub_sd) has standard deviation sub_sd·√n.
    let total_sd = sample.sub_sd * n.sqrt();
    let loc = sample.value / scale;
    let t_scale = (total_sd / scale).max(sigma_floor * loc.abs().max(1e-3));
    StudentT::new(loc, finite_scale(t_scale), n - 1.0)
}

/// Builds the observation factor for an **extrapolated** sample
/// ([`Sample::is_extrapolated`]): the event's group was not on the
/// counters, and the value is a `time_enabled/time_running`-style
/// carry-forward — the §2 scaling estimate, not a hardware read.
///
/// The factor is deliberately wide and heavy-tailed: its scale is
/// `extrap_sigma` *relative* to the carried value (floored like a real
/// read), and the degrees of freedom are pinned at the minimum (2.5) so a
/// phase change that makes the carry-forward badly wrong does not drag the
/// posterior with the confidence of a measurement. The factor still
/// anchors otherwise-unobserved slices — extrapolations carry *some*
/// information — but a single real read dominates it.
///
/// `extrap_sigma` is floored at `1e-6` so a misconfigured zero (or a
/// negative value) degrades to an extremely tight factor instead of
/// panicking — this function runs on the monitor's background inference
/// thread, where a panic closes the whole service. The model's own width
/// is asserted at compile time to be at least a real read's noise floor,
/// so a carry-forward can never be *tighter* than a real read (see
/// [`crate::model::ChunkEngine::load`]).
///
/// # Panics
///
/// Panics if `scale` is not positive.
pub fn extrapolated_observation(sample: &Sample, scale: f64, extrap_sigma: f64) -> StudentT {
    assert!(scale > 0.0, "scale must be positive, got {scale}");
    let loc = sample.value / scale;
    let t_scale = extrap_sigma.max(1e-6) * loc.abs().max(1e-3);
    StudentT::new(loc, finite_scale(t_scale), 2.5)
}

/// Builds the observation factor for a **soft gauge** reading
/// ([`bayesperf_events::SourceNoise::Gaussian`]): a single value from a
/// diskstats/RAPL-style source, with no PMI sub-sample statistics.
///
/// The source's advertised relative scale (`rel_scale`, per-read sigma and
/// calibration drift already composed in quadrature) replaces the
/// sub-sample deviation the PMU path gets for free: the factor's scale is
/// `rel_scale` times the reading, floored at `sigma_floor` like a real
/// read. High degrees of freedom (60) make the factor effectively
/// Gaussian — gauge noise is well modelled, unlike the heavy-tailed OS
/// nondeterminism of multiplexed reads — while staying in the same
/// Student-t family the EP sites already handle.
///
/// `rel_scale` is floored at `1e-6` for the same reason as
/// [`extrapolated_observation`]: this runs on the monitor's inference
/// thread, where a panic closes the service.
///
/// # Panics
///
/// Panics if `scale` is not positive.
pub fn gauge_observation(
    sample: &Sample,
    scale: f64,
    rel_scale: f64,
    sigma_floor: f64,
) -> StudentT {
    assert!(scale > 0.0, "scale must be positive, got {scale}");
    let loc = sample.value / scale;
    let rel = rel_scale.max(1e-6).max(sigma_floor);
    let t_scale = rel * loc.abs().max(1e-3);
    StudentT::new(loc, finite_scale(t_scale), 60.0)
}

/// Caps a factor scale at `f64::MAX`: a finite but huge read can overflow
/// its scale to infinity, which no Student-t accepts. The capped factor's
/// IRLS weight still overflows, so the solve quarantines the read instead
/// of the inference thread panicking on it.
fn finite_scale(t_scale: f64) -> f64 {
    t_scale.min(f64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayesperf_events::EventId;

    fn sample(value: f64, sub_sd: f64, sub_n: u32) -> Sample {
        Sample {
            event: EventId::from_raw(0),
            window: 0,
            value,
            sub_mean: value / sub_n as f64,
            sub_sd,
            sub_n,
            time_enabled: 4,
            time_running: 4,
            source: bayesperf_events::SourceId::PMU,
        }
    }

    #[test]
    fn observation_centers_on_normalized_value() {
        let s = sample(1000.0, 10.0, 4);
        let t = observation(&s, 500.0, 0.02);
        assert!((t.loc - 2.0).abs() < 1e-12);
        assert_eq!(t.dof, 3.0);
    }

    #[test]
    fn noisier_windows_get_wider_factors() {
        let quiet = observation(&sample(1000.0, 5.0, 4), 500.0, 0.001);
        let noisy = observation(&sample(1000.0, 50.0, 4), 500.0, 0.001);
        assert!(noisy.scale > 5.0 * quiet.scale);
    }

    #[test]
    fn zero_deviation_is_floored() {
        let t = observation(&sample(1000.0, 0.0, 4), 500.0, 0.02);
        assert!(t.scale >= 0.02 * 2.0 - 1e-12);
    }

    #[test]
    fn more_subsamples_raise_dof() {
        let t4 = observation(&sample(100.0, 1.0, 4), 100.0, 0.02);
        let t16 = observation(&sample(100.0, 1.0, 16), 100.0, 0.02);
        assert!(t16.dof > t4.dof);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn rejects_bad_scale() {
        observation(&sample(1.0, 1.0, 4), 0.0, 0.02);
    }

    #[test]
    fn extrapolated_factor_is_much_wider_than_a_real_read() {
        let real = observation(&sample(1000.0, 5.0, 4), 500.0, 0.02);
        let mut carried = sample(1000.0, 0.0, 0);
        carried.sub_n = 0;
        let extrap = extrapolated_observation(&carried, 500.0, 0.5);
        assert!((extrap.loc - real.loc).abs() < 1e-12, "same location");
        assert!(
            extrap.scale > 10.0 * real.scale,
            "extrapolation scale {} must dwarf the read's {}",
            extrap.scale,
            real.scale
        );
        assert!(extrap.dof < real.dof, "heavier tails than any real read");
    }

    #[test]
    fn extrapolated_factor_survives_nonpositive_sigma() {
        // Runs on the inference thread: a misconfigured extrap_sigma must
        // degrade to a (floored) proper density, never panic the service.
        let mut s = sample(1000.0, 0.0, 0);
        s.sub_n = 0;
        for bad in [0.0, -1.0] {
            let t = extrapolated_observation(&s, 500.0, bad);
            assert!(t.scale > 0.0, "floored scale for extrap_sigma={bad}");
        }
    }

    #[test]
    fn gauge_factor_uses_the_advertised_relative_scale() {
        let s = sample(1000.0, 0.0, 1);
        let t = gauge_observation(&s, 500.0, 0.05, 0.002);
        assert!((t.loc - 2.0).abs() < 1e-12);
        assert!((t.scale - 0.05 * 2.0).abs() < 1e-12);
        assert!(t.dof > 30.0, "gauge factors are near-Gaussian");

        // The PMU sigma floor still applies when the source advertises
        // implausibly tight noise, and a zero rel_scale never panics.
        let floored = gauge_observation(&s, 500.0, 0.0, 0.02);
        assert!(floored.scale >= 0.02 * 2.0 - 1e-12);
    }

    #[test]
    fn extrapolated_factor_handles_zero_counts() {
        let mut s = sample(0.0, 0.0, 0);
        s.sub_n = 0;
        let t = extrapolated_observation(&s, 500.0, 0.5);
        assert_eq!(t.loc, 0.0);
        assert!(t.scale > 0.0, "proper density even at zero carry-forward");
    }
}
