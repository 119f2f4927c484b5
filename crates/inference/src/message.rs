//! Gaussian messages in natural parameters — the algebra EP is built on.

use crate::dist::Gaussian;
use serde::{Deserialize, Serialize};

/// An (unnormalized) Gaussian factor in natural parameters:
/// precision `λ = 1/σ²` and precision-adjusted mean `η = μ/σ²`.
///
/// Unlike [`Gaussian`], a message may have zero precision (the uniform
/// message — multiplicative identity) or even *negative* precision, which
/// arises transiently as a quotient during EP cavity computation. Convert to
/// a proper distribution with [`GaussianMessage::to_gaussian`], which
/// requires positive precision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaussianMessage {
    /// Precision λ (may be zero or negative for improper messages).
    pub precision: f64,
    /// Precision-adjusted mean η = λ·μ.
    pub mean_times_precision: f64,
}

impl GaussianMessage {
    /// The uniform (vacuous) message: multiplicative identity.
    pub fn uniform() -> Self {
        GaussianMessage {
            precision: 0.0,
            mean_times_precision: 0.0,
        }
    }

    /// Message form of a proper Gaussian.
    pub fn from_gaussian(g: &Gaussian) -> Self {
        let precision = 1.0 / g.var;
        GaussianMessage {
            precision,
            mean_times_precision: g.mean * precision,
        }
    }

    /// Message with the given moments.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not positive and finite.
    pub fn from_moments(mean: f64, var: f64) -> Self {
        Self::from_gaussian(&Gaussian::new(mean, var))
    }

    /// Product of two messages (precisions add).
    pub fn mul(&self, other: &GaussianMessage) -> GaussianMessage {
        GaussianMessage {
            precision: self.precision + other.precision,
            mean_times_precision: self.mean_times_precision + other.mean_times_precision,
        }
    }

    /// Quotient of two messages (precisions subtract). The result may be
    /// improper; EP handles that at the call site.
    pub fn div(&self, other: &GaussianMessage) -> GaussianMessage {
        GaussianMessage {
            precision: self.precision - other.precision,
            mean_times_precision: self.mean_times_precision - other.mean_times_precision,
        }
    }

    /// True if this message corresponds to a proper (normalizable) Gaussian.
    pub fn is_proper(&self) -> bool {
        self.precision > 0.0 && self.precision.is_finite() && self.mean_times_precision.is_finite()
    }

    /// Converts to a proper Gaussian, or `None` if the message is improper.
    pub fn to_gaussian(&self) -> Option<Gaussian> {
        if !self.is_proper() {
            return None;
        }
        let var = 1.0 / self.precision;
        Some(Gaussian::new(self.mean_times_precision * var, var))
    }

    /// The mean if proper.
    pub fn mean(&self) -> Option<f64> {
        if self.is_proper() {
            Some(self.mean_times_precision / self.precision)
        } else {
            None
        }
    }

    /// Caps the precision at `cap`, preserving the mean: messages more
    /// precise than `cap` are flattened to exactly `cap`. Improper and
    /// below-cap messages pass through unchanged.
    ///
    /// The EP driver caps every site message at a fixed multiple of the
    /// variable's prior precision, so no single site can pin a variable
    /// arbitrarily tightly.
    pub fn capped_precision(&self, cap: f64) -> GaussianMessage {
        if self.precision > cap {
            GaussianMessage {
                precision: cap,
                mean_times_precision: self.mean_times_precision / self.precision * cap,
            }
        } else {
            *self
        }
    }

    /// Damped geometric interpolation toward `target` in natural-parameter
    /// space: `(1-η)·self + η·target`. `eta` in `[0, 1]`; `eta = 1` jumps to
    /// `target`. This is the standard damping used to stabilize EP updates.
    pub fn damped_toward(&self, target: &GaussianMessage, eta: f64) -> GaussianMessage {
        let eta = eta.clamp(0.0, 1.0);
        GaussianMessage {
            precision: (1.0 - eta) * self.precision + eta * target.precision,
            mean_times_precision: (1.0 - eta) * self.mean_times_precision
                + eta * target.mean_times_precision,
        }
    }
}

impl Default for GaussianMessage {
    fn default() -> Self {
        Self::uniform()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_is_identity() {
        let m = GaussianMessage::from_moments(3.0, 2.0);
        let u = GaussianMessage::uniform();
        assert_eq!(m.mul(&u), m);
        assert_eq!(m.div(&u), m);
        assert!(!u.is_proper());
    }

    #[test]
    fn product_of_gaussians_matches_precision_weighted_mean() {
        let a = GaussianMessage::from_moments(0.0, 1.0);
        let b = GaussianMessage::from_moments(10.0, 1.0);
        let g = a.mul(&b).to_gaussian().unwrap();
        assert!((g.mean - 5.0).abs() < 1e-12);
        assert!((g.var - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quotient_can_be_improper() {
        let wide = GaussianMessage::from_moments(0.0, 10.0);
        let narrow = GaussianMessage::from_moments(0.0, 1.0);
        let q = wide.div(&narrow);
        assert!(!q.is_proper());
        assert!(q.to_gaussian().is_none());
    }

    #[test]
    fn capped_precision_preserves_mean() {
        let m = GaussianMessage::from_moments(3.0, 1e-8); // precision 1e8
        let capped = m.capped_precision(1e4);
        assert_eq!(capped.precision, 1e4);
        assert!((capped.mean().unwrap() - 3.0).abs() < 1e-12);
        // Below-cap and improper messages pass through.
        assert_eq!(m.capped_precision(1e12), m);
        let u = GaussianMessage::uniform();
        assert_eq!(u.capped_precision(1.0), u);
    }

    #[test]
    fn damping_interpolates() {
        let a = GaussianMessage::from_moments(0.0, 1.0);
        let b = GaussianMessage::from_moments(4.0, 1.0);
        let half = a.damped_toward(&b, 0.5);
        assert!((half.mean().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(a.damped_toward(&b, 1.0), b);
        assert_eq!(a.damped_toward(&b, 0.0), a);
    }

    proptest! {
        /// (a*b)/b == a in natural parameters.
        #[test]
        fn mul_div_roundtrip(
            m1 in -50.0f64..50.0, v1 in 0.01f64..50.0,
            m2 in -50.0f64..50.0, v2 in 0.01f64..50.0,
        ) {
            let a = GaussianMessage::from_moments(m1, v1);
            let b = GaussianMessage::from_moments(m2, v2);
            let back = a.mul(&b).div(&b);
            prop_assert!((back.precision - a.precision).abs() < 1e-9 * a.precision.max(1.0));
            prop_assert!((back.mean_times_precision - a.mean_times_precision).abs() < 1e-6);
        }

        /// Multiplication is commutative and associative.
        #[test]
        fn mul_commutes(
            m1 in -10.0f64..10.0, v1 in 0.01f64..10.0,
            m2 in -10.0f64..10.0, v2 in 0.01f64..10.0,
            m3 in -10.0f64..10.0, v3 in 0.01f64..10.0,
        ) {
            let a = GaussianMessage::from_moments(m1, v1);
            let b = GaussianMessage::from_moments(m2, v2);
            let c = GaussianMessage::from_moments(m3, v3);
            prop_assert_eq!(a.mul(&b), b.mul(&a));
            let ab_c = a.mul(&b).mul(&c);
            let a_bc = a.mul(&b.mul(&c));
            prop_assert!((ab_c.precision - a_bc.precision).abs() < 1e-9);
            prop_assert!((ab_c.mean_times_precision - a_bc.mean_times_precision).abs() < 1e-9);
        }

        /// Moments roundtrip through natural parameters.
        #[test]
        fn moments_roundtrip(mean in -100.0f64..100.0, var in 0.001f64..1000.0) {
            let g = GaussianMessage::from_moments(mean, var).to_gaussian().unwrap();
            prop_assert!((g.mean - mean).abs() < 1e-6 * mean.abs().max(1.0));
            prop_assert!((g.var - var).abs() < 1e-6 * var);
        }

        /// (a/b)*b == a even when the intermediate quotient is improper —
        /// the transient state EP's cavity computation passes through.
        #[test]
        fn div_mul_roundtrip_through_improper(
            m1 in -50.0f64..50.0, v1 in 0.01f64..50.0,
            m2 in -50.0f64..50.0, v2 in 0.01f64..50.0,
        ) {
            let a = GaussianMessage::from_moments(m1, v1);
            let b = GaussianMessage::from_moments(m2, v2);
            let back = a.div(&b).mul(&b);
            prop_assert!((back.precision - a.precision).abs() < 1e-9 * a.precision.max(1.0));
            prop_assert!((back.mean_times_precision - a.mean_times_precision).abs() < 1e-6);
        }

        /// Damping is linear in natural parameters and stays within the
        /// endpoint precisions.
        #[test]
        fn damping_is_a_natural_parameter_mixture(
            m1 in -20.0f64..20.0, v1 in 0.01f64..20.0,
            m2 in -20.0f64..20.0, v2 in 0.01f64..20.0,
            eta in 0.0f64..1.0,
        ) {
            let a = GaussianMessage::from_moments(m1, v1);
            let b = GaussianMessage::from_moments(m2, v2);
            let d = a.damped_toward(&b, eta);
            let expect_prec = (1.0 - eta) * a.precision + eta * b.precision;
            prop_assert!((d.precision - expect_prec).abs() < 1e-12 * expect_prec.max(1.0));
            let lo = a.precision.min(b.precision) - 1e-12;
            let hi = a.precision.max(b.precision) + 1e-12;
            prop_assert!(d.precision >= lo && d.precision <= hi);
        }

        /// The uniform message is the two-sided identity under mul/div.
        #[test]
        fn uniform_identity_everywhere(m in -100.0f64..100.0, v in 0.01f64..100.0) {
            let a = GaussianMessage::from_moments(m, v);
            let u = GaussianMessage::uniform();
            prop_assert_eq!(a.mul(&u), a);
            prop_assert_eq!(u.mul(&a), a);
            prop_assert_eq!(a.div(&u), a);
        }
    }
}
