//! Order statistics and failure accounting for the benchmark's reports.

use std::fmt;

/// Fewest samples that must lie beyond a reported percentile. A tail
/// percentile resting on fewer is one or two outliers, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// No samples at all.
    Empty,
    /// The percentile is outside `(0, 1)`.
    BadPercentile(f64),
    /// A sample is NaN or infinite.
    NonFinite,
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
    TooFewBeyond {
        /// Requested percentile, as a fraction.
        p: f64,
        /// Samples supplied.
        samples: usize,
        /// Samples that would lie beyond the percentile.
        beyond: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples"),
            StatsError::BadPercentile(p) => write!(f, "percentile {p} is outside (0, 1)"),
            StatsError::NonFinite => write!(f, "a sample is not finite"),
            StatsError::TooFewBeyond { p, samples, beyond } => write!(
                f,
                "p{} of {samples} samples leaves {beyond} beyond it; at least {MIN_BEYOND} are needed",
                p * 100.0
            ),
        }
    }
}

impl std::error::Error for StatsError {}

/// The nearest-rank `p`-quantile of `samples` (`0 < p < 1`), refused
/// unless at least [`MIN_BEYOND`] samples lie strictly beyond its rank.
///
/// # Errors
///
/// Returns a [`StatsError`] for an empty or non-finite sample, a
/// percentile outside `(0, 1)`, or too thin a tail.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, StatsError> {
    if !(p > 0.0 && p < 1.0) {
        return Err(StatsError::BadPercentile(p));
    }
    let sorted = sorted_finite(samples)?;
    let n = sorted.len();
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(StatsError::TooFewBeyond {
            p,
            samples: n,
            beyond,
        });
    }
    sorted.get(rank - 1).copied().ok_or(StatsError::Empty)
}

/// The median of `samples` (mean of the middle pair for even counts).
///
/// # Errors
///
/// Returns a [`StatsError`] for an empty or non-finite sample.
pub fn median(samples: &[f64]) -> Result<f64, StatsError> {
    let sorted = sorted_finite(samples)?;
    let mid = sorted.len() / 2;
    let upper = sorted.get(mid).copied().ok_or(StatsError::Empty)?;
    if sorted.len() % 2 == 1 {
        return Ok(upper);
    }
    let lower = sorted.get(mid - 1).copied().ok_or(StatsError::Empty)?;
    Ok(0.5 * (lower + upper))
}

fn sorted_finite(samples: &[f64]) -> Result<Vec<f64>, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    if samples.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted)
}

/// Operations a workload attempted and how many of them failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations started.
    pub attempted: u64,
    /// Operations that errored, were quarantined or failed their gate.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation, failed or not.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally to this one.
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Operations that succeeded.
    #[must_use]
    pub fn succeeded(&self) -> u64 {
        self.attempted.saturating_sub(self.failed)
    }

    /// Failed operations over attempted ones; 0 when nothing was attempted.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let frac = self.failed as f64 / self.attempted as f64;
        frac
    }
}
