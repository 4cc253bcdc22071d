//! Order statistics for the benchmark's timings.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this crate prints are the
//! ones a reader recomputes from the raw values. Percentiles of operation
//! times use linear interpolation between closest ranks, and a percentile
//! is only reported when at least [`MIN_TAIL_SAMPLES`] samples lie beyond
//! it.

use std::fmt;

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Why a statistic could not be computed.
#[derive(Clone, Debug, PartialEq)]
pub enum StatsError {
    /// Fewer values than the statistic needs.
    TooFew { needed: usize, got: usize },
    /// A value was NaN or infinite.
    NonFinite,
    /// A quantile outside `[0, 1]`.
    BadQuantile(f64),
    /// Fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond the percentile.
    ThinTail { q: f64, n: usize, beyond: usize },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::TooFew { needed, got } => {
                write!(f, "need at least {needed} values, got {got}")
            }
            StatsError::NonFinite => write!(f, "non-finite value"),
            StatsError::BadQuantile(q) => write!(f, "quantile {q} outside [0, 1]"),
            StatsError::ThinTail { q, n, beyond } => write!(
                f,
                "p{} of {n} samples has only {beyond} beyond it (need {MIN_TAIL_SAMPLES})",
                q * 100.0
            ),
        }
    }
}

impl std::error::Error for StatsError {}

fn sorted(values: &[f64]) -> Result<Vec<f64>, StatsError> {
    if values.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v)
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> Result<f64, StatsError> {
    let v = sorted(values)?;
    let n = v.len();
    if n == 0 {
        return Err(StatsError::TooFew { needed: 1, got: 0 });
    }
    Ok(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The three cut points of `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> Result<[f64; 3], StatsError> {
    let v = sorted(values)?;
    let ld = v.len();
    if ld < 2 {
        return Err(StatsError::TooFew { needed: 2, got: ld });
    }
    // Python's integer arithmetic: `delta` may be negative at the ends,
    // where the cut point extrapolates past the first or last value.
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    Ok(out)
}

/// Interquartile range as a share of the median (0 when the median is 0
/// and so is the range).
pub fn iqr_share(values: &[f64]) -> Result<f64, StatsError> {
    let [q1, q2, q3] = quartiles(values)?;
    let spread = q3 - q1;
    Ok(if spread == 0.0 {
        0.0
    } else {
        spread / q2.abs()
    })
}

/// Samples strictly beyond the `q`-quantile rank of `n` samples:
/// `n - ceil(q·n)`, computed in per-mille to stay exact for the quantiles
/// this crate uses.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let per_mille = (q * 1000.0).round() as usize;
    n - (n * per_mille).div_ceil(1000).min(n)
}

/// The `q`-quantile by linear interpolation between closest ranks,
/// rejecting a percentile above the median with fewer than
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, StatsError> {
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::BadQuantile(q));
    }
    let v = sorted(values)?;
    let n = v.len();
    if n == 0 {
        return Err(StatsError::TooFew { needed: 1, got: 0 });
    }
    if q > 0.5 {
        let beyond = samples_beyond(n, q);
        if beyond < MIN_TAIL_SAMPLES {
            return Err(StatsError::ThinTail { q, n, beyond });
        }
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Ok(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Fold one repetition of a fixed sequence of timings into the fastest
/// time seen so far at each position. The first repetition sets the
/// positions; a repetition of another length is folded over the positions
/// both share and returns false, since the sequence should not change.
pub fn fold_min(best: &mut Vec<f64>, times: &[f64]) -> bool {
    if best.is_empty() {
        best.extend_from_slice(times);
        return true;
    }
    for (b, t) in best.iter_mut().zip(times) {
        *b = b.min(*t);
    }
    best.len() == times.len()
}
