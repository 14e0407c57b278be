//! Order statistics for the benchmark's reports.
//!
//! Latency percentiles come from exact per-query samples, and a percentile
//! is only reported when at least [`MIN_BEYOND`] samples lie beyond it, so
//! a tail figure always rests on a tail. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
//! the spreads this crate prints match the ones a reader recomputes by hand.

/// The fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile could not be reported.
#[derive(Debug, Clone, PartialEq)]
pub enum PercentileError {
    /// Fewer than [`MIN_BEYOND`] samples would lie beyond the percentile.
    TooFewBeyond {
        /// The requested quantile in `(0, 1)`.
        q: f64,
        /// Samples available.
        samples: usize,
        /// Samples that would lie beyond the percentile.
        beyond: usize,
    },
}

impl std::fmt::Display for PercentileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PercentileError::TooFewBeyond { q, samples, beyond } => write!(
                f,
                "p{} of {samples} samples has only {beyond} beyond it (need {MIN_BEYOND})",
                q * 100.0
            ),
        }
    }
}

impl std::error::Error for PercentileError {}

/// The nearest-rank `q`-quantile of `samples` (`0 < q < 1`), refused unless
/// at least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, PercentileError> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(PercentileError::TooFewBeyond { q, samples: n, beyond });
    }
    Ok(sorted[rank - 1])
}

/// The middle value (mean of the two middle values for even counts); 0 for
/// no samples. For summaries that carry no tail claim.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The three cut points `[q1, median, q3]`, computed exactly as Python's
/// `statistics.quantiles(samples, n=4)`. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// the benchmark's bounds are judged against.
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Split `n` ordered items into consecutive blocks of at least `min` items
/// each, at most `max` blocks, sizes differing by at most one. Fewer than
/// `min` items make one block.
pub fn blocks(n: usize, min: usize, max: usize) -> Vec<std::ops::Range<usize>> {
    let k = (n / min.max(1)).clamp(1, max.max(1));
    (0..k).map(|i| i * n / k..(i + 1) * n / k).collect()
}

/// Steal shares below this are too small to move a block's figures.
pub const STEAL_FLOOR: f64 = 0.01;

/// The blocks a run's figures are taken from: those whose share of stolen
/// CPU time is at most the median block's, or below [`STEAL_FLOOR`].
///
/// Hypervisor steal slows every figure of a block without saying anything
/// about the program. With little or no steal all blocks are kept. An
/// episode that covers less than half of a run is dropped whole; one that
/// covers more leaves the least-stolen half.
pub fn calm_blocks(steal_shares: &[f64]) -> Vec<usize> {
    let cut = median(steal_shares).max(STEAL_FLOOR);
    (0..steal_shares.len()).filter(|&i| steal_shares[i] <= cut).collect()
}
