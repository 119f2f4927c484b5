//! Accuracy and calibration of posteriors against simulated ground truth.

use bayesperf_inference::Gaussian;

/// Accumulates `err_pct` and the 95% coverage over per-event series.
///
/// A series is one event's estimates over windows (or reads). Its error
/// is the mean over its points of `|estimate − truth| / max(|truth|,
/// 5% of the series' mean |truth|)`, and `err_pct` is the mean over
/// series, so every event weighs the same however large its counts are.
#[derive(Debug, Default, Clone, Copy)]
pub struct Score {
    err_sum: f64,
    series: usize,
    covered: u64,
    pairs: u64,
}

impl Score {
    /// Scores one series of posteriors against its truth.
    pub fn add_series(&mut self, truth: &[f64], posteriors: &[Gaussian]) {
        assert_eq!(truth.len(), posteriors.len(), "one posterior per truth");
        let floor = floor_of(truth);
        let mut err = 0.0;
        for (t, g) in truth.iter().zip(posteriors) {
            let miss = (g.mean - t).abs();
            err += miss / t.abs().max(floor);
            if miss <= 1.96 * g.std_dev() {
                self.covered += 1;
            }
        }
        self.pairs += truth.len() as u64;
        self.add_err(err / truth.len().max(1) as f64);
    }

    /// Scores one series of point estimates (no coverage).
    pub fn add_points(&mut self, truth: &[f64], estimates: &[f64]) {
        assert_eq!(truth.len(), estimates.len(), "one estimate per truth");
        let floor = floor_of(truth);
        let err: f64 = truth
            .iter()
            .zip(estimates)
            .map(|(t, e)| (e - t).abs() / t.abs().max(floor))
            .sum();
        self.add_err(err / truth.len().max(1) as f64);
    }

    /// Adds a series whose per-point errors the caller accumulated.
    pub fn add_err(&mut self, mean_err: f64) {
        self.err_sum += mean_err;
        self.series += 1;
    }

    /// Adds coverage counts the caller accumulated.
    pub fn add_coverage(&mut self, covered: u64, pairs: u64) {
        self.covered += covered;
        self.pairs += pairs;
    }

    pub fn err_pct(&self) -> f64 {
        100.0 * self.err_sum / self.series.max(1) as f64
    }

    /// `|coverage − 0.95|`, where coverage is the share of scored
    /// (point, event) pairs whose truth lies within `1.96·sd` of the mean.
    pub fn coverage95_gap(&self) -> f64 {
        (self.covered as f64 / self.pairs.max(1) as f64 - 0.95).abs()
    }
}

/// The error denominator floor of a series: 5% of its mean |truth|, so a
/// near-zero truth does not blow the relative error up.
pub fn floor_of(truth: &[f64]) -> f64 {
    let mean = truth.iter().map(|t| t.abs()).sum::<f64>() / truth.len().max(1) as f64;
    (0.05 * mean).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_posteriors_score_zero_error_and_full_coverage() {
        let truth = [10.0, 20.0, 30.0];
        let post: Vec<Gaussian> = truth.iter().map(|&t| Gaussian::new(t, 1.0)).collect();
        let mut s = Score::default();
        s.add_series(&truth, &post);
        assert_eq!(s.err_pct(), 0.0);
        assert!((s.coverage95_gap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn relative_error_uses_the_floor_for_tiny_truths() {
        let truth = [0.0, 100.0];
        let mut s = Score::default();
        // Floor = 5% of mean |truth| = 2.5; errors 1/2.5 and 0/100.
        s.add_points(&truth, &[1.0, 100.0]);
        assert!((s.err_pct() - 20.0).abs() < 1e-9);
    }
}
