//! Observation sources: where samples come from and how much to trust them.
//!
//! The base BayesPerf pipeline assumes one producer — the multiplexed PMU
//! — whose measurement error the §4.2 Student-t model describes. A real
//! observation plane fuses more than that: block-layer IOPS and byte
//! gauges, power meters, `/proc` scrapes, each arriving at its own cadence
//! with its own noise character. This module gives every sample stream an
//! identity ([`SourceId`]), a classification ([`SourceKind`]), a cadence,
//! and — the part inference consumes — a per-source error model
//! ([`SourceNoise`]) that the factor graph turns into observation factors.
//!
//! A catalog built with
//! [`Catalog::with_observation_plane`](crate::Catalog::with_observation_plane)
//! registers one [`SourceDesc`] per source and maps every gauge event to
//! its owning source; base catalogs carry only the implicit PMU source.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identity of one sample stream. Dense and small: `0` is always the PMU;
/// gauge and `/proc` sources get ids `1..` in catalog registration order.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SourceId(u16);

impl SourceId {
    /// The implicit PMU source every base catalog has.
    pub const PMU: SourceId = SourceId(0);

    /// Constructs a source id from its raw index.
    pub fn from_raw(raw: u16) -> SourceId {
        SourceId(raw)
    }

    /// The raw dense index.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src{}", self.0)
    }
}

/// What kind of producer a source is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SourceKind {
    /// The multiplexed hardware PMU (scaled, corrected, Student-t noise).
    Pmu,
    /// A simulated or OS-level soft gauge (diskstats, RAPL, ...).
    Gauge,
    /// A real `/proc`-backed scrape source.
    Proc,
}

impl fmt::Display for SourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The per-source error model: how an observation from this source becomes
/// a likelihood factor in the graph.
///
/// All scales are *relative* (fraction of the observed magnitude), matching
/// the catalog's unit-invariant convention — the model layer multiplies by
/// the observed location, so the same noise description works in
/// per-mega-cycle rate units and in per-window count units.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SourceNoise {
    /// The PMU path: per-window PMI sub-sample moments drive a Student-t
    /// factor (§4.2). Carries no parameters — the sample itself brings
    /// its sub-sample statistics.
    StudentT,
    /// A soft gauge: near-Gaussian read noise of `rel_sigma` (fraction of
    /// the reading) plus a slow random-walk calibration `drift`,
    /// composed in quadrature into one effective relative scale.
    Gaussian {
        /// Per-read relative noise (e.g. `0.02` = 2% of the reading).
        rel_sigma: f64,
        /// Relative scale of the accumulated calibration drift.
        drift: f64,
    },
    /// A low-trust source (coarse extrapolation, unreliable scrape):
    /// heavy-tailed with a wide relative scale, so a single wild reading
    /// cannot drag the posterior.
    HeavyTail {
        /// Relative scale of the heavy-tailed factor.
        rel_sigma: f64,
    },
}

impl SourceNoise {
    /// The effective relative observation scale this model contributes,
    /// independent of the sample (the Student-t path is sample-driven and
    /// reports `0.0`).
    pub fn rel_scale(&self) -> f64 {
        match *self {
            SourceNoise::StudentT => 0.0,
            SourceNoise::Gaussian { rel_sigma, drift } => {
                (rel_sigma * rel_sigma + drift * drift).sqrt()
            }
            SourceNoise::HeavyTail { rel_sigma } => rel_sigma,
        }
    }
}

/// One registered observation source: identity, classification, cadence,
/// and error model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceDesc {
    /// Dense id of the source.
    pub id: SourceId,
    /// Human-readable name (`"pmu"`, `"disk-ops"`, `"proc"`, ...).
    pub name: String,
    /// Producer classification.
    pub kind: SourceKind,
    /// Nominal sampling cadence in multiplexing windows: the source
    /// produces one sample per event every `cadence` windows (`1` =
    /// every window, like the PMU). Informational for the ingest path;
    /// inference never assumes a sample actually arrives on schedule.
    pub cadence: u32,
    /// The error model observation factors are built from.
    pub noise: SourceNoise,
}

impl SourceDesc {
    /// The implicit PMU source descriptor of a base catalog.
    pub fn pmu() -> SourceDesc {
        SourceDesc {
            id: SourceId::PMU,
            name: "pmu".to_string(),
            kind: SourceKind::Pmu,
            cadence: 1,
            noise: SourceNoise::StudentT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmu_source_is_id_zero_with_student_t_noise() {
        let pmu = SourceDesc::pmu();
        assert_eq!(pmu.id, SourceId::PMU);
        assert_eq!(pmu.id.index(), 0);
        assert_eq!(pmu.kind, SourceKind::Pmu);
        assert_eq!(pmu.cadence, 1);
        assert_eq!(pmu.noise, SourceNoise::StudentT);
        assert_eq!(pmu.noise.rel_scale(), 0.0);
    }

    #[test]
    fn gaussian_noise_composes_sigma_and_drift_in_quadrature() {
        let n = SourceNoise::Gaussian {
            rel_sigma: 0.03,
            drift: 0.04,
        };
        assert!((n.rel_scale() - 0.05).abs() < 1e-12);
        let h = SourceNoise::HeavyTail { rel_sigma: 0.5 };
        assert_eq!(h.rel_scale(), 0.5);
    }

    #[test]
    fn source_ids_are_dense_and_displayable() {
        let s = SourceId::from_raw(3);
        assert_eq!(s.index(), 3);
        assert_eq!(s.to_string(), "src3");
        assert_eq!(SourceId::default(), SourceId::PMU);
    }
}
