//! Statistically rigorous perf gates: interleaved A/B measurement with
//! Welch's-t (Behrens–Fisher) confidence intervals.
//!
//! # Why not a point threshold?
//!
//! A raw `assert!(candidate / baseline <= 0.9)` treats one noisy sample of
//! a wall-clock distribution as the truth. On a shared CI runner the
//! distribution is wide, so point-threshold gates either flake (bound set
//! tight) or stop guarding anything (bound set loose). The quantity a gate
//! actually cares about is the *difference of the two distributions'
//! means* — the [Behrens–Fisher problem] — and the honest answer to it is
//! a confidence interval, not a number (the `cbdr` method; see
//! `crates/bench/README.md`).
//!
//! This module runs the two arms **interleaved**: a seeded, deterministic
//! coin-flip schedule decides before every measurement whether the
//! baseline (arm A) or the candidate (arm B) runs next, so slow drift
//! (thermal, cache pressure, a neighbouring build job) lands on both arms
//! with equal probability and cancels out of the comparison instead of
//! masquerading as a regression. From the two sample sets it computes a
//! Welch's-t confidence interval for the **ratio of means** `B/A`
//! (difference-of-means interval normalized by the baseline mean), and the
//! gate passes or fails on the *interval bound*, never on the point
//! estimate.
//!
//! # The stopping rule
//!
//! Sampling proceeds until the first of:
//!
//! 1. **Decision** — both arms hold at least [`GateConfig::min_samples`]
//!    measurements *and* the interval clears the bound on one side
//!    (entirely below an `at_most` bound ⇒ [`Decision::Pass`], entirely
//!    above it ⇒ [`Decision::Fail`]); the minimum-sample floor stops a
//!    lucky early interval from ending the experiment;
//! 2. **Sample budget** — both arms hold [`GateConfig::max_samples`]
//!    measurements; or
//! 3. **Wall-clock budget** — [`GateConfig::max_wall`] has elapsed and
//!    both arms hold at least two measurements (the minimum from which an
//!    interval exists).
//!
//! A budget-terminated run whose interval still straddles the bound is
//! [`Decision::Inconclusive`]: the measurement was too noisy to call at
//! this budget. What an inconclusive verdict does to CI is policy
//! ([`GateConfig::on_inconclusive`]): the default passes iff the point
//! estimate is within the bound (noise alone never blocks a merge, and
//! the verdict records that the call was low-confidence), while
//! [`OnInconclusive::FailClosed`] demands a decisive interval.
//!
//! # Paired gates
//!
//! When the bound is tighter than the arms' run-to-run drift — a ≤ 2%
//! overhead cap on a workload whose wall time wanders by 10% between
//! passes — no amount of unpaired sampling resolves it. For those,
//! [`GateConfig::run_paired`] measures the arms in back-to-back *pairs*
//! (coin-flip order within each pair, a randomized-block design) and
//! gates the mean of **per-pair ratios** with a one-sample Student-t
//! interval: whatever drifts between pairs divides out inside each pair,
//! so the interval width tracks the within-pair noise — typically orders
//! of magnitude tighter.
//!
//! # Example
//!
//! ```
//! use bayesperf_bench::gate::{Decision, GateConfig};
//!
//! // Gate: the candidate may cost at most 1.10x the baseline. The
//! // closures stand in for timed measurement (here: canned samples).
//! let mut a = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2].iter().cycle();
//! let mut b = [103.0, 104.0, 102.0, 103.5, 102.5, 103.2].iter().cycle();
//! let verdict = GateConfig::at_most("demo_overhead", 1.10)
//!     .samples(4, 16)
//!     .seed(7)
//!     .run_ratio(|| *a.next().unwrap(), || *b.next().unwrap());
//! assert_eq!(verdict.decision, Decision::Pass);
//! assert!(verdict.hi <= 1.10, "{}", verdict.summary());
//! ```

use crate::rng::derive_stream_seed;
use bayesperf_inference::ln_gamma;
use std::time::{Duration, Instant};

/// Which side of the bound the gated statistic must stay on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// The statistic must stay `<=` the bound (an overhead/regression cap).
    AtMost,
    /// The statistic must stay `>=` the bound (a speedup/margin floor).
    AtLeast,
}

/// What an inconclusive (budget-exhausted, interval straddles the bound)
/// run means for [`GateVerdict::holds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnInconclusive {
    /// Hold iff the *point estimate* is within the bound. Noise alone
    /// cannot block a merge; the verdict still records low confidence.
    PointEstimate,
    /// Never hold: the gate demands a decisive interval at this budget.
    FailClosed,
}

/// The three-way outcome of a gate run.
///
/// ```
/// use bayesperf_bench::gate::{Decision, GateConfig, OnInconclusive};
/// use std::cell::Cell;
///
/// // A bound sitting in the middle of the noise stays inconclusive at
/// // any budget — and the fail-closed policy turns that into a failure.
/// let flip = Cell::new(0u32);
/// let verdict = GateConfig::at_most("coin", 1.0)
///     .samples(4, 12)
///     .fail_closed()
///     .run_ratio(
///         || f64::from(100 + flip.get() % 3),
///         || {
///             flip.set(flip.get() + 1);
///             f64::from(100 + flip.get() % 5)
///         },
///     );
/// assert_eq!(verdict.decision, Decision::Inconclusive);
/// assert!(!verdict.holds());
/// assert_eq!(verdict.config.on_inconclusive, OnInconclusive::FailClosed);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The whole interval is on the allowed side of the bound.
    Pass,
    /// The whole interval is on the forbidden side of the bound.
    Fail,
    /// The interval straddles the bound at the configured budget.
    Inconclusive,
}

impl Decision {
    fn label(self) -> &'static str {
        match self {
            Decision::Pass => "pass",
            Decision::Fail => "fail",
            Decision::Inconclusive => "inconclusive",
        }
    }
}

/// Configuration for one statistical perf gate.
///
/// Construct with [`GateConfig::at_most`] / [`GateConfig::at_least`],
/// refine with the builder methods, then run with
/// [`GateConfig::run_ratio`] (two interleaved arms, gate on the ratio of
/// means) or [`GateConfig::run_level`] (one arm, gate on the mean against
/// an absolute bound).
///
/// ```
/// use bayesperf_bench::gate::{GateConfig, Rel};
/// use std::time::Duration;
///
/// let cfg = GateConfig::at_least("warm_speedup", 1.2)
///     .samples(5, 30)
///     .max_wall(Duration::from_secs(30));
/// assert_eq!(cfg.rel, Rel::AtLeast);
/// assert_eq!(cfg.min_samples, 5);
/// ```
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Gate name (used in summaries, JSON, and assertion messages).
    pub name: &'static str,
    /// Side of the bound the statistic must stay on.
    pub rel: Rel,
    /// The bound itself (a ratio for [`GateConfig::run_ratio`], an
    /// absolute level for [`GateConfig::run_level`]).
    pub bound: f64,
    /// One-sided error rate of each interval bound. The reported
    /// `[lo, hi]` is the central `1 - 2α` interval, so each bound is a
    /// one-sided `1 - α` bound — the default `α = 0.005` makes a
    /// confident-fail a 1-in-200 event per gate under the null.
    pub alpha: f64,
    /// Minimum samples **per arm** before any decision is taken.
    pub min_samples: usize,
    /// Maximum samples per arm (the sample budget).
    pub max_samples: usize,
    /// Wall-clock budget for the whole gate run.
    pub max_wall: Duration,
    /// Seed of the deterministic coin-flip interleaving schedule.
    pub seed: u64,
    /// Policy for budget-exhausted, undecided runs.
    pub on_inconclusive: OnInconclusive,
}

impl GateConfig {
    fn new(name: &'static str, rel: Rel, bound: f64) -> Self {
        assert!(bound.is_finite(), "gate bound must be finite, got {bound}");
        GateConfig {
            name,
            rel,
            bound,
            alpha: 0.005,
            min_samples: 5,
            max_samples: 40,
            max_wall: Duration::from_secs(60),
            seed: 0x5EED,
            on_inconclusive: OnInconclusive::PointEstimate,
        }
    }

    /// A gate whose statistic must stay `<=` `bound`.
    pub fn at_most(name: &'static str, bound: f64) -> Self {
        GateConfig::new(name, Rel::AtMost, bound)
    }

    /// A gate whose statistic must stay `>=` `bound`.
    pub fn at_least(name: &'static str, bound: f64) -> Self {
        GateConfig::new(name, Rel::AtLeast, bound)
    }

    /// Sets the per-arm minimum and maximum sample counts.
    ///
    /// # Panics
    ///
    /// Panics if `min < 2` (no interval exists from one sample) or
    /// `max < min`.
    pub fn samples(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 2, "need at least 2 samples per arm, got {min}");
        assert!(max >= min, "max_samples {max} < min_samples {min}");
        self.min_samples = min;
        self.max_samples = max;
        self
    }

    /// Sets the wall-clock budget.
    pub fn max_wall(mut self, wall: Duration) -> Self {
        self.max_wall = wall;
        self
    }

    /// Sets the interleaving-schedule seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Makes inconclusive runs fail (see [`OnInconclusive::FailClosed`]).
    pub fn fail_closed(mut self) -> Self {
        self.on_inconclusive = OnInconclusive::FailClosed;
        self
    }

    /// Runs an interleaved two-arm gate on the **ratio of means** `B/A`.
    ///
    /// `arm_a` is the baseline, `arm_b` the candidate; each call must
    /// return one finite, positive measurement of its arm's statistic
    /// (wall-clock nanoseconds, bytes, a posterior spread — anything on a
    /// ratio scale). The caller does its own timing; the gate only decides
    /// *which* arm runs next (seeded coin flips) and *when to stop* (the
    /// module-level stopping rule).
    pub fn run_ratio<A, B>(&self, mut arm_a: A, mut arm_b: B) -> GateVerdict
    where
        A: FnMut() -> f64,
        B: FnMut() -> f64,
    {
        let start = Instant::now();
        let mut xs: Vec<f64> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        let mut flip = 0usize;
        loop {
            let (na, nb) = (xs.len(), ys.len());
            if na >= 2 && nb >= 2 {
                let est = self.ratio_estimate(&xs, &ys);
                let min_met = na >= self.min_samples && nb >= self.min_samples;
                if min_met {
                    if let Some(d) = self.decide(est.lo, est.hi) {
                        return self.verdict(GateKind::Ratio, est, na, nb, d, start.elapsed());
                    }
                }
                let budget_hit = na >= self.max_samples && nb >= self.max_samples;
                if budget_hit || start.elapsed() >= self.max_wall {
                    return self.verdict(
                        GateKind::Ratio,
                        est,
                        na,
                        nb,
                        Decision::Inconclusive,
                        start.elapsed(),
                    );
                }
            }
            // Pick the next arm: starved arms (< 2 samples) and capped
            // arms override the coin so the run always terminates with
            // an interval in hand.
            let pick_a = if (na < 2 && nb >= 2) || nb >= self.max_samples {
                true
            } else if (nb < 2 && na >= 2) || na >= self.max_samples {
                false
            } else {
                derive_stream_seed(self.seed, flip) & 1 == 0
            };
            flip += 1;
            if pick_a {
                xs.push(checked_sample(self.name, "A", arm_a()));
            } else {
                ys.push(checked_sample(self.name, "B", arm_b()));
            }
        }
    }

    /// Runs a **paired** two-arm gate on the mean of per-pair ratios
    /// `B/A`: every sample is one back-to-back `(A, B)` pair, the seeded
    /// coin flip deciding which arm of the pair runs first. Drift that is
    /// slow against a pair's duration divides out inside each pair, so
    /// the Student-t interval on the mean ratio tracks within-pair noise
    /// only — use this when the bound is tighter than the arms'
    /// run-to-run drift (see the module-level *Paired gates* section).
    ///
    /// Sample counts satisfy `n_a == n_b` (= the number of pairs), and
    /// the stopping rule counts pairs.
    ///
    /// ```
    /// use bayesperf_bench::gate::{Decision, GateConfig};
    /// use std::cell::Cell;
    ///
    /// // A 2% overhead cap under 30% machine drift: unpaired arms could
    /// // never resolve this, but each pair shares its drift multiplier,
    /// // so the per-pair ratio is exactly 1.01 and the gate passes.
    /// let drift = Cell::new(0u32);
    /// let scale = || 100.0 * (1.0 + 0.3 * f64::from(drift.get() % 7) / 7.0);
    /// let v = GateConfig::at_most("paired_overhead", 1.02)
    ///     .samples(4, 16)
    ///     .run_paired(
    ///         || {
    ///             drift.set(drift.get() + 1);
    ///             scale()
    ///         },
    ///         || 1.01 * scale(),
    ///     );
    /// assert_eq!(v.decision, Decision::Pass);
    /// assert_eq!(v.n_a, v.n_b);
    /// assert!(v.hi <= 1.02, "{}", v.summary());
    /// ```
    pub fn run_paired<A, B>(&self, mut arm_a: A, mut arm_b: B) -> GateVerdict
    where
        A: FnMut() -> f64,
        B: FnMut() -> f64,
    {
        let start = Instant::now();
        let mut ratios: Vec<f64> = Vec::new();
        let mut sum_a = 0.0;
        let mut sum_b = 0.0;
        let mut flip = 0usize;
        loop {
            let n = ratios.len();
            if n >= 2 {
                let est = self.level_estimate(&ratios);
                let est = Estimate {
                    mean_a: sum_a / n as f64,
                    mean_b: sum_b / n as f64,
                    ..est
                };
                if n >= self.min_samples {
                    if let Some(d) = self.decide(est.lo, est.hi) {
                        return self.verdict(GateKind::Ratio, est, n, n, d, start.elapsed());
                    }
                }
                if n >= self.max_samples || start.elapsed() >= self.max_wall {
                    return self.verdict(
                        GateKind::Ratio,
                        est,
                        n,
                        n,
                        Decision::Inconclusive,
                        start.elapsed(),
                    );
                }
            }
            let a_first = derive_stream_seed(self.seed, flip) & 1 == 0;
            flip += 1;
            let (a, b) = if a_first {
                let a = checked_sample(self.name, "A", arm_a());
                (a, checked_sample(self.name, "B", arm_b()))
            } else {
                let b = checked_sample(self.name, "B", arm_b());
                (checked_sample(self.name, "A", arm_a()), b)
            };
            sum_a += a;
            sum_b += b;
            ratios.push(b / a.max(f64::MIN_POSITIVE));
        }
    }

    /// Runs a one-arm gate on the **mean** of a statistic against an
    /// absolute bound (a one-sample Student-t interval on the mean).
    ///
    /// For quantities with a natural baseline arm prefer
    /// [`GateConfig::run_ratio`] — a level gate cannot cancel machine
    /// drift the way interleaving does, so reserve it for statistics with
    /// absolute meaning (a recovery deadline, a staleness budget).
    pub fn run_level<F>(&self, mut sample: F) -> GateVerdict
    where
        F: FnMut() -> f64,
    {
        let start = Instant::now();
        let mut xs: Vec<f64> = Vec::new();
        loop {
            let n = xs.len();
            if n >= 2 {
                let est = self.level_estimate(&xs);
                if n >= self.min_samples {
                    if let Some(d) = self.decide(est.lo, est.hi) {
                        return self.verdict(GateKind::Level, est, n, 0, d, start.elapsed());
                    }
                }
                if n >= self.max_samples || start.elapsed() >= self.max_wall {
                    return self.verdict(
                        GateKind::Level,
                        est,
                        n,
                        0,
                        Decision::Inconclusive,
                        start.elapsed(),
                    );
                }
            }
            xs.push(checked_sample(self.name, "A", sample()));
        }
    }

    /// `Some(Pass | Fail)` when the interval clears the bound, else `None`.
    fn decide(&self, lo: f64, hi: f64) -> Option<Decision> {
        match self.rel {
            Rel::AtMost if hi <= self.bound => Some(Decision::Pass),
            Rel::AtMost if lo > self.bound => Some(Decision::Fail),
            Rel::AtLeast if lo >= self.bound => Some(Decision::Pass),
            Rel::AtLeast if hi < self.bound => Some(Decision::Fail),
            _ => None,
        }
    }

    fn ratio_estimate(&self, xs: &[f64], ys: &[f64]) -> Estimate {
        let (ma, va, na) = moments(xs);
        let (mb, vb, nb) = moments(ys);
        let denom = ma.max(f64::MIN_POSITIVE);
        let stat = mb / denom;
        // Welch's t on the difference of means, normalized by the baseline
        // mean (the cbdr percentage construction).
        let (sea, seb) = (va / na as f64, vb / nb as f64);
        let se = (sea + seb).sqrt();
        let (lo, hi) = if se == 0.0 {
            (stat, stat)
        } else {
            let dof = (sea + seb) * (sea + seb)
                / (sea * sea / (na as f64 - 1.0) + seb * seb / (nb as f64 - 1.0));
            let h = t_quantile(1.0 - self.alpha, dof) * se / denom;
            (stat - h, stat + h)
        };
        Estimate {
            stat,
            lo,
            hi,
            mean_a: ma,
            mean_b: mb,
        }
    }

    fn level_estimate(&self, xs: &[f64]) -> Estimate {
        let (m, v, n) = moments(xs);
        let se = (v / n as f64).sqrt();
        let (lo, hi) = if se == 0.0 {
            (m, m)
        } else {
            // One-sample Student-t interval: scale sd/√n (floored so a
            // near-constant arm keeps a proper interval), n − 1 dof.
            let scale = (v.sqrt() / (n as f64).sqrt()).max(1e-12);
            let h = t_quantile(1.0 - self.alpha, (n - 1) as f64) * scale;
            (m - h, m + h)
        };
        Estimate {
            stat: m,
            lo,
            hi,
            mean_a: m,
            mean_b: f64::NAN,
        }
    }

    fn verdict(
        &self,
        kind: GateKind,
        est: Estimate,
        n_a: usize,
        n_b: usize,
        decision: Decision,
        elapsed: Duration,
    ) -> GateVerdict {
        GateVerdict {
            config: self.clone(),
            kind,
            stat: est.stat,
            lo: est.lo,
            hi: est.hi,
            mean_a: est.mean_a,
            mean_b: est.mean_b,
            n_a,
            n_b,
            decision,
            elapsed,
        }
    }
}

/// Whether a verdict gates a two-arm ratio or a one-arm level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// Two interleaved arms, statistic = ratio of means `B/A`.
    Ratio,
    /// One arm, statistic = mean, absolute bound.
    Level,
}

struct Estimate {
    stat: f64,
    lo: f64,
    hi: f64,
    mean_a: f64,
    mean_b: f64,
}

/// The outcome of one gate run: the point estimate, its `[lo, hi]`
/// interval, per-arm sample counts and means, and the three-way decision.
///
/// ```
/// use bayesperf_bench::gate::{Decision, GateConfig, GateKind};
///
/// // A recovery deadline: the mean cycle must stay under 100 (it does —
/// // the samples sit near 40, so the interval clears the bound early).
/// let mut cycle = [38.0, 42.0, 40.0, 41.0, 39.0, 40.5].iter().cycle();
/// let v = GateConfig::at_most("restart_deadline", 100.0)
///     .samples(5, 30)
///     .run_level(|| *cycle.next().unwrap());
/// assert_eq!(v.kind, GateKind::Level);
/// assert_eq!(v.decision, Decision::Pass);
/// assert!(v.holds() && v.lo <= v.stat && v.stat <= v.hi);
/// assert_eq!(v.n_a, 5); // decided at the minimum-sample floor
/// // The one-line report and the JSON fragment carry the same numbers.
/// assert!(v.summary().contains("pass"));
/// assert!(v.json().contains("\"verdict\": \"pass\""));
/// ```
#[derive(Debug, Clone)]
pub struct GateVerdict {
    /// The configuration that produced this verdict.
    pub config: GateConfig,
    /// Ratio or level gate.
    pub kind: GateKind,
    /// Point estimate (ratio of means `B/A`, or the mean for level gates).
    pub stat: f64,
    /// Lower bound of the central `1 - 2α` interval.
    pub lo: f64,
    /// Upper bound of the central `1 - 2α` interval.
    pub hi: f64,
    /// Mean of arm A (the baseline; for level gates, the gated mean).
    pub mean_a: f64,
    /// Mean of arm B (the candidate; `NaN` for level gates).
    pub mean_b: f64,
    /// Samples taken from arm A.
    pub n_a: usize,
    /// Samples taken from arm B (`0` for level gates).
    pub n_b: usize,
    /// The three-way outcome.
    pub decision: Decision,
    /// Wall clock the gate run consumed.
    pub elapsed: Duration,
}

impl GateVerdict {
    /// Whether CI should treat this verdict as a pass: [`Decision::Pass`]
    /// holds, [`Decision::Fail`] does not, and [`Decision::Inconclusive`]
    /// defers to [`GateConfig::on_inconclusive`].
    pub fn holds(&self) -> bool {
        match self.decision {
            Decision::Pass => true,
            Decision::Fail => false,
            Decision::Inconclusive => match self.config.on_inconclusive {
                OnInconclusive::FailClosed => false,
                OnInconclusive::PointEstimate => match self.config.rel {
                    Rel::AtMost => self.stat <= self.config.bound,
                    Rel::AtLeast => self.stat >= self.config.bound,
                },
            },
        }
    }

    /// One-line human report, suitable for a CI log or an assert message.
    pub fn summary(&self) -> String {
        let rel = match self.config.rel {
            Rel::AtMost => "<=",
            Rel::AtLeast => ">=",
        };
        let arms = match self.kind {
            GateKind::Ratio => format!("n={}/{}", self.n_a, self.n_b),
            GateKind::Level => format!("n={}", self.n_a),
        };
        format!(
            "{}: {} in [{}, {}] must stay {rel} {} ({arms}, one-sided alpha {}) -> {}",
            self.config.name,
            trim(self.stat),
            trim(self.lo),
            trim(self.hi),
            trim(self.config.bound),
            self.config.alpha,
            self.decision.label(),
        )
    }

    /// The verdict as a `BENCH_inference.json` gate object: point
    /// estimate, `[lo, hi]`, per-arm sample counts, the bound, and the
    /// decision — the fields every perf-trajectory entry carries.
    pub fn json(&self) -> String {
        let rel = match self.config.rel {
            Rel::AtMost => "<=",
            Rel::AtLeast => ">=",
        };
        format!(
            r#"{{ "stat": {}, "lo": {}, "hi": {}, "n_a": {}, "n_b": {}, "rel": "{rel}", "bound": {}, "alpha": {}, "verdict": "{}" }}"#,
            trim(self.stat),
            trim(self.lo),
            trim(self.hi),
            self.n_a,
            self.n_b,
            trim(self.config.bound),
            self.config.alpha,
            self.decision.label(),
        )
    }
}

/// Compact but lossless-enough float formatting for summaries and JSON:
/// six significant decimals, no exponent (these are ratios, nanoseconds
/// and byte counts — all comfortably in fixed range).
fn trim(x: f64) -> String {
    let s = format!("{x:.6}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".into()
    } else {
        s.into()
    }
}

fn checked_sample(gate: &str, arm: &str, v: f64) -> f64 {
    assert!(
        v.is_finite() && v >= 0.0,
        "gate {gate}: arm {arm} produced a non-finite or negative sample ({v})"
    );
    v
}

/// Sample mean, unbiased variance, and count.
fn moments(xs: &[f64]) -> (f64, f64, usize) {
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0).max(1.0);
    (mean, var, n)
}

/// Regularized incomplete beta function `I_x(a, b)` (continued fraction,
/// Lentz's method — Numerical Recipes §6.4).
fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    const EPS: f64 = 1e-14;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=300 {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// CDF of the standard Student-t with `dof` degrees of freedom.
fn t_cdf(t: f64, dof: f64) -> f64 {
    let x = dof / (dof + t * t);
    let tail = 0.5 * reg_inc_beta(0.5 * dof, 0.5, x);
    if t >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Upper quantile of the Student-t: the `t` with `P(T <= t) = p`, for
/// `p in [0.5, 1)`. Monotone bisection on the CDF — a perf gate computes
/// this a handful of times per run, so robustness beats speed.
fn t_quantile(p: f64, dof: f64) -> f64 {
    assert!((0.5..1.0).contains(&p), "p must be in [0.5, 1), got {p}");
    assert!(dof > 0.0, "dof must be positive, got {dof}");
    if p == 0.5 {
        return 0.0;
    }
    let mut hi = 1.0;
    while t_cdf(hi, dof) < p {
        hi *= 2.0;
        if hi > 1e12 {
            return hi; // p astronomically close to 1 at tiny dof
        }
    }
    let mut lo = 0.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if t_cdf(mid, dof) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-10 * (1.0 + hi) {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_gate_cancels_between_pair_drift() {
        // Arm times wander by 3x across pairs (a drift no unpaired gate
        // could see through), but within a pair the candidate is always
        // exactly 0.8x the baseline — the paired ratio interval collapses
        // onto 0.8 and the gate decides at the minimum pair count.
        use std::cell::Cell;
        // Both arms key their drift multiplier off the *pair* index
        // (call_count / 2), so the multiplier changes between pairs but
        // is shared within one regardless of coin-flip order.
        let calls = Cell::new(0u32);
        let scale = |k: u32| 100.0 * (1.0 + 2.0 * f64::from((k / 2) % 5) / 5.0);
        let v = GateConfig::at_most("paired_drift", 0.9)
            .samples(4, 10)
            .run_paired(
                || {
                    let k = calls.get();
                    calls.set(k + 1);
                    scale(k)
                },
                || {
                    let k = calls.get();
                    calls.set(k + 1);
                    0.8 * scale(k)
                },
            );
        assert_eq!(v.decision, Decision::Pass, "{}", v.summary());
        assert_eq!((v.n_a, v.n_b), (4, 4));
        assert!((v.stat - 0.8).abs() < 1e-12, "{}", v.summary());
        assert!(v.hi - v.lo < 1e-9, "paired interval must be tight");
        // The per-arm means still report the raw (drifting) magnitudes.
        assert!(v.mean_a > 100.0 && v.mean_b < v.mean_a);
    }

    #[test]
    fn paired_gate_orders_arms_by_coin_flip() {
        use std::cell::RefCell;
        let mut firsts = Vec::new();
        for seed in 0..4 {
            let order = RefCell::new(Vec::new());
            let cfg = GateConfig::at_most("paired_order", 10.0)
                .samples(4, 4)
                .seed(seed);
            let _ = cfg.run_paired(
                || {
                    order.borrow_mut().push('a');
                    1.0
                },
                || {
                    order.borrow_mut().push('b');
                    1.0
                },
            );
            let order = order.into_inner();
            // Every adjacent pair holds exactly one call of each arm.
            assert_eq!(order.len(), 8);
            for c in order.chunks(2) {
                assert_ne!(c[0], c[1], "seed {seed}: pair ran one arm twice");
                firsts.push(c[0]);
            }
        }
        // Across seeds the coin lands both ways — the order really is
        // randomized, not a fixed A-then-B convention.
        assert!(firsts.contains(&'a') && firsts.contains(&'b'));
    }

    #[test]
    fn t_quantile_matches_tables() {
        // Classic table values (two-sided 95% -> p = 0.975).
        for (p, dof, expect) in [
            (0.975, 10.0, 2.2281),
            (0.995, 7.0, 3.4995),
            (0.95, 4.0, 2.1318),
            (0.975, 1.0, 12.7062),
            (0.975, 10_000.0, 1.9602),
        ] {
            let got = t_quantile(p, dof);
            assert!(
                (got - expect).abs() < 2e-3,
                "t({p}, {dof}) = {got}, want {expect}"
            );
        }
    }

    #[test]
    fn reg_inc_beta_uniform_case() {
        // I_x(1, 1) is the identity.
        for x in [0.1, 0.25, 0.5, 0.9] {
            assert!((reg_inc_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn t_cdf_symmetry() {
        for dof in [1.0, 3.0, 9.5, 50.0] {
            for t in [0.3, 1.0, 2.5] {
                let s = t_cdf(t, dof) + t_cdf(-t, dof);
                assert!((s - 1.0).abs() < 1e-12, "dof {dof} t {t}: {s}");
            }
        }
    }

    #[test]
    fn identical_arms_are_inconclusive_or_pass_at_loose_bound() {
        let mut a = [10.0, 11.0, 9.0, 10.5, 9.5].iter().cycle();
        let mut b = [10.0, 11.0, 9.0, 10.5, 9.5].iter().cycle();
        let v = GateConfig::at_most("null", 1.5)
            .samples(4, 12)
            .run_ratio(|| *a.next().unwrap(), || *b.next().unwrap());
        assert_eq!(v.decision, Decision::Pass, "{}", v.summary());
    }

    #[test]
    fn planted_regression_fails() {
        let mut a = [100.0, 101.0, 99.0, 100.0].iter().cycle();
        let mut b = [150.0, 151.0, 149.0, 150.0].iter().cycle();
        let v = GateConfig::at_most("regress", 1.1)
            .samples(4, 20)
            .run_ratio(|| *a.next().unwrap(), || *b.next().unwrap());
        assert_eq!(v.decision, Decision::Fail, "{}", v.summary());
        assert!(!v.holds());
    }

    #[test]
    fn zero_variance_arms_degenerate_interval() {
        let v = GateConfig::at_most("const", 2.0)
            .samples(3, 6)
            .run_ratio(|| 10.0, || 15.0);
        assert_eq!(v.decision, Decision::Pass);
        assert_eq!(v.lo, v.hi);
        assert!((v.stat - 1.5).abs() < 1e-12);
    }

    #[test]
    fn level_gate_decides_on_interval_not_point() {
        // Mean 40 against a bound of 100: decisive pass at the floor.
        let mut s = [38.0, 42.0, 40.0, 41.0, 39.0].iter().cycle();
        let v = GateConfig::at_most("deadline", 100.0)
            .samples(5, 30)
            .run_level(|| *s.next().unwrap());
        assert_eq!(v.decision, Decision::Pass);
        assert_eq!((v.n_a, v.n_b), (5, 0));
        assert_eq!(v.kind, GateKind::Level);
    }

    #[test]
    fn interleaving_schedule_is_deterministic() {
        let order_of = |seed: u64| {
            let order = std::cell::RefCell::new(Vec::new());
            let mut a = [10.0, 10.5].iter().cycle();
            let mut b = [10.2, 10.1].iter().cycle();
            let cfg = GateConfig::at_most("sched", 5.0).samples(6, 6).seed(seed);
            let _ = cfg.run_ratio(
                || {
                    order.borrow_mut().push('a');
                    *a.next().unwrap()
                },
                || {
                    order.borrow_mut().push('b');
                    *b.next().unwrap()
                },
            );
            order.into_inner()
        };
        assert_eq!(order_of(1), order_of(1));
        assert_ne!(order_of(1), order_of(2), "seed must steer the schedule");
    }

    #[test]
    fn wall_clock_budget_stops_the_run() {
        let calls = std::cell::Cell::new(0u64);
        let v = GateConfig::at_most("wall", 1.0)
            .samples(2, usize::MAX)
            .max_wall(Duration::from_millis(20))
            .run_ratio(
                || {
                    std::thread::sleep(Duration::from_millis(1));
                    10.0 + (calls.get() % 7) as f64
                },
                || {
                    calls.set(calls.get() + 1);
                    std::thread::sleep(Duration::from_millis(1));
                    10.0 + (calls.get() % 5) as f64
                },
            );
        assert!(v.elapsed < Duration::from_secs(5));
        assert!(v.n_a >= 2 && v.n_b >= 2);
    }

    #[test]
    fn summary_and_json_round_trip_the_decision() {
        let v = GateConfig::at_least("speedup", 1.2)
            .samples(3, 6)
            .run_ratio(|| 100.0, || 300.0);
        assert_eq!(v.decision, Decision::Pass);
        assert!(v.summary().contains("speedup"));
        assert!(v.json().contains(r#""rel": ">=""#));
        assert!(v.json().contains(r#""verdict": "pass""#));
    }
}
