//! Statistics: ordinary least squares fits for scaling-law identification.
//!
//! The experiments fit measured round counts against candidate complexity
//! models (`log n`, `log² n`, `log n + log R`, …) and compare explanatory
//! power via `R²`. A reproduction "matches the shape" of Theorem 1 when the
//! `log n` model fits FKN on uniform deployments with high `R²` and a
//! near-zero quadratic residual, while Decay on the radio channel needs the
//! `log² n` term.

use serde::{Deserialize, Serialize};

// The workspace's canonical quantile estimator lives in
// `fading_sim::montecarlo` (it is what `Summary` uses for medians and
// p95s); re-exported here so analysis code never grows a second,
// subtly-different copy. Note `fading_hitting::WinDistribution::quantile`
// is deliberately *not* this estimator: it computes an upper empirical
// quantile over a distribution whose failure mass sits at +∞, where
// interpolation would be meaningless.
pub use fading_sim::montecarlo::{percentile, percentile_f64};

/// An ordinary-least-squares line fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination `R² ∈ [0, 1]` (1 for a perfect line;
    /// defined as 0 when the data has no variance).
    pub r_squared: f64,
}

impl LinearFit {
    /// Predicted value at `x`.
    #[must_use]
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Fits `y ≈ slope·x + intercept` by ordinary least squares.
///
/// # Panics
///
/// Panics if the slices have different lengths or fewer than 2 points, or
/// if all `x` are identical (the slope is then undefined).
///
/// # Example
///
/// ```
/// use fading_analysis::stats::linear_fit;
/// let fit = linear_fit(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]);
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.r_squared - 1.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> LinearFit {
    assert_eq!(xs.len(), ys.len(), "x and y must have equal length");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    assert!(sxx > 0.0, "all x values are identical");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 {
        // No variance in y: the horizontal line is a perfect fit.
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    LinearFit {
        slope,
        intercept,
        r_squared,
    }
}

/// Fits `rounds ≈ a·log₂(n) + b`: the shape of Theorem 1 on deployments
/// with `R` polynomial in `n`.
///
/// # Panics
///
/// Propagates the panics of [`linear_fit`]; additionally panics if any `n`
/// is zero.
#[must_use]
pub fn fit_log_n(ns: &[usize], rounds: &[f64]) -> LinearFit {
    let xs: Vec<f64> = ns
        .iter()
        .map(|&n| {
            assert!(n > 0, "n must be positive");
            (n as f64).log2()
        })
        .collect();
    linear_fit(&xs, rounds)
}

/// Fits `rounds ≈ a·log₂²(n) + b`: the radio-network-model shape.
///
/// # Panics
///
/// Propagates the panics of [`linear_fit`]; additionally panics if any `n`
/// is zero.
#[must_use]
pub fn fit_log_squared_n(ns: &[usize], rounds: &[f64]) -> LinearFit {
    let xs: Vec<f64> = ns
        .iter()
        .map(|&n| {
            assert!(n > 0, "n must be positive");
            let l = (n as f64).log2();
            l * l
        })
        .collect();
    linear_fit(&xs, rounds)
}

/// Fits `rounds ≈ a·(log₂ n + log₂ R) + b`: the full Theorem 1 shape with
/// an explicit `R` term (used on the chain deployments of experiment E2
/// where `log R ≫ log n`).
///
/// # Panics
///
/// Propagates the panics of [`linear_fit`]; additionally panics on
/// non-positive `n` or `R < 1`.
#[must_use]
pub fn fit_log_n_plus_log_r(ns: &[usize], rs: &[f64], rounds: &[f64]) -> LinearFit {
    assert_eq!(ns.len(), rs.len(), "n and R must have equal length");
    let xs: Vec<f64> = ns
        .iter()
        .zip(rs)
        .map(|(&n, &r)| {
            assert!(n > 0, "n must be positive");
            assert!(r >= 1.0, "R must be at least 1");
            (n as f64).log2() + r.log2()
        })
        .collect();
    linear_fit(&xs, rounds)
}

/// Pearson correlation coefficient.
///
/// # Panics
///
/// Panics if the slices differ in length, have fewer than 2 points, or
/// either has zero variance.
#[must_use]
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "x and y must have equal length");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    assert!(sxx > 0.0 && syy > 0.0, "zero variance");
    sxy / (sxx * syy).sqrt()
}

/// Sample mean.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n − 1 denominator; 0 for a single point).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn std_dev(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if xs.len() < 2 {
        return 0.0;
    }
    let var = xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// A 95% confidence interval for the mean (normal approximation:
/// `mean ± 1.96·σ/√n`). Adequate for the trial counts (≥ 25) used by the
/// experiment harness.
///
/// # Panics
///
/// Panics on an empty slice.
///
/// # Example
///
/// ```
/// use fading_analysis::stats::mean_ci95;
/// let (lo, hi) = mean_ci95(&[10.0, 12.0, 11.0, 9.0, 13.0]);
/// assert!(lo < 11.0 && 11.0 < hi);
/// ```
#[must_use]
pub fn mean_ci95(xs: &[f64]) -> (f64, f64) {
    let m = mean(xs);
    let half = 1.96 * std_dev(xs) / (xs.len() as f64).sqrt();
    (m - half, m + half)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line_has_r2_one() {
        let fit = linear_fit(&[0.0, 1.0, 2.0, 3.0], &[5.0, 7.0, 9.0, 11.0]);
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 5.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!((fit.predict(10.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_has_lower_r2() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.0, 2.5, 1.5, 4.5, 3.5];
        let fit = linear_fit(&xs, &ys);
        assert!(fit.r_squared < 1.0);
        assert!(fit.r_squared > 0.5);
        assert!(fit.slope > 0.0);
    }

    #[test]
    fn constant_y_is_perfectly_explained() {
        let fit = linear_fit(&[1.0, 2.0, 3.0], &[4.0, 4.0, 4.0]);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    #[should_panic(expected = "identical")]
    fn degenerate_x_panics() {
        let _ = linear_fit(&[1.0, 1.0], &[1.0, 2.0]);
    }

    #[test]
    fn log_n_model_recovers_synthetic_log_data() {
        let ns = [16usize, 64, 256, 1024, 4096];
        let rounds: Vec<f64> = ns.iter().map(|&n| 3.0 * (n as f64).log2() + 7.0).collect();
        let fit = fit_log_n(&ns, &rounds);
        assert!((fit.slope - 3.0).abs() < 1e-9);
        assert!((fit.intercept - 7.0).abs() < 1e-9);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn log_squared_model_beats_log_on_quadratic_data() {
        let ns = [16usize, 64, 256, 1024, 4096, 16384];
        let rounds: Vec<f64> = ns
            .iter()
            .map(|&n| {
                let l = (n as f64).log2();
                0.5 * l * l + 2.0
            })
            .collect();
        let quad = fit_log_squared_n(&ns, &rounds);
        let lin = fit_log_n(&ns, &rounds);
        assert!(quad.r_squared > 0.999);
        assert!(quad.r_squared > lin.r_squared);
    }

    #[test]
    fn log_n_plus_log_r_fits_chain_style_data() {
        let ns = [8usize, 8, 8, 8];
        let rs = [16.0f64, 256.0, 4096.0, 65536.0];
        let rounds: Vec<f64> = ns
            .iter()
            .zip(&rs)
            .map(|(&n, &r)| 2.0 * ((n as f64).log2() + r.log2()) + 1.0)
            .collect();
        let fit = fit_log_n_plus_log_r(&ns, &rs, &rounds);
        assert!((fit.slope - 2.0).abs() < 1e-9);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn correlation_signs() {
        assert!((correlation(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((correlation(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[2.0, 4.0, 6.0]), 4.0);
        assert!((std_dev(&[2.0, 4.0, 6.0]) - 2.0).abs() < 1e-12);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn mean_rejects_empty() {
        let _ = mean(&[]);
    }

    #[test]
    fn ci95_tightens_with_more_samples() {
        let few: Vec<f64> = (0..10).map(|i| f64::from(i % 3)).collect();
        let many: Vec<f64> = (0..1000).map(|i| f64::from(i % 3)).collect();
        let (lo_f, hi_f) = mean_ci95(&few);
        let (lo_m, hi_m) = mean_ci95(&many);
        assert!(hi_m - lo_m < hi_f - lo_f);
    }

    #[test]
    fn ci95_of_constant_data_is_a_point() {
        let (lo, hi) = mean_ci95(&[4.0, 4.0, 4.0]);
        assert_eq!(lo, 4.0);
        assert_eq!(hi, 4.0);
    }

    /// The re-exported percentile IS the montecarlo one (same function,
    /// not a copy): spot-check exact agreement across sizes and ties,
    /// including the degenerate n=1,2,3 cases and duplicate-heavy data.
    #[test]
    fn percentile_reexport_agrees_with_montecarlo_everywhere() {
        let cases: &[&[u64]] = &[
            &[5],
            &[1, 9],
            &[1, 1, 1],
            &[2, 2, 7],
            &[1, 2, 3, 4, 100],
            &[10, 10, 10, 10, 10, 99],
        ];
        for sorted in cases {
            let as_f64: Vec<f64> = sorted.iter().map(|&v| v as f64).collect();
            for q in [0.0, 10.0, 25.0, 50.0, 75.0, 95.0, 100.0] {
                let canonical = fading_sim::montecarlo::percentile(sorted, q);
                assert_eq!(percentile(sorted, q), canonical, "{sorted:?} q={q}");
                assert_eq!(
                    percentile_f64(&as_f64, q),
                    canonical,
                    "{sorted:?} q={q} (f64)"
                );
            }
        }
        // The median of [10, 20] interpolates — the property the canonical
        // estimator guarantees and an index-based copy would get wrong.
        assert_eq!(percentile(&[10, 20], 50.0), 15.0);
    }
}
