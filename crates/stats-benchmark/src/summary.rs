//! Medians, quartiles, tail percentiles and a trimmed mean — the only
//! statistics the benchmark reports. No best-of anywhere: a per-layer value
//! is the median of its samples, an end-to-end timing the mean of all but
//! the slowest tenth (see [`Summary::steady`]), and a spread is the distance
//! between the quartiles.

/// Reported value, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value: the median of the samples ([`Summary::of`]) or
    /// their trimmed mean ([`Summary::steady`]).
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples behind the three numbers.
    pub n: usize,
}

impl Summary {
    /// A value that is not a sample statistic (an exact count, a ratio of
    /// two medians): quartiles collapse onto it.
    pub fn exact(value: f64) -> Self {
        Summary {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Summarise `samples` (empty input summarises to zero).
    pub fn of(samples: &[f64]) -> Self {
        let (q1, value, q3) = quartiles(samples);
        Summary {
            value,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// Summarise the timings behind an end-to-end metric: the value is the
    /// mean of all samples but the slowest tenth ([`TRIM_PCT`]; of fewer
    /// than ten, all), the quartiles are those of all samples.
    ///
    /// On the reference box (two vCPUs of a shared host) a timing sample is
    /// the program's own time plus what the neighbours add, and how much
    /// they add changes from one second to the next: the samples of a run
    /// form two or three clusters a quarter or more apart, in shares that
    /// differ from run to run. Any single quantile of such samples is a
    /// step function of those shares: where the shares put the quantile
    /// between two clusters, two runs of the same code read a cluster apart
    /// (the median when the clusters are even, the lower decile when the
    /// fast one is rare; both were tried, and each spread 0.25–0.40 across
    /// ten runs on some workload in some hour). A mean moves with the shares
    /// smoothly, so its worst case is bounded by how far they move; dropping
    /// the slowest tenth keeps a single stall of a few hundred milliseconds
    /// from deciding the value of a rung that has fifty samples.
    pub fn steady(samples: &[f64]) -> Self {
        let v = sorted(samples);
        let kept = &v[..v.len() - v.len() * TRIM_PCT / 100];
        Summary {
            value: if kept.is_empty() {
                0.0
            } else {
                kept.iter().sum::<f64>() / kept.len() as f64
            },
            ..Summary::of(samples)
        }
    }

    /// Apply `f` to value and quartiles. A decreasing `f` (a rate from a
    /// time) swaps the quartiles so `q1 <= q3` still holds.
    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        let (a, b) = (f(self.q1), f(self.q3));
        Summary {
            value: f(self.value),
            q1: a.min(b),
            q3: a.max(b),
            n: self.n,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(q1, median, q3)` by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so spreads
/// computed here agree with the ones the driver computes from the same
/// values. Fewer than two samples collapse onto the one value (or zero).
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |i: usize| {
                // Position i*(n+1)/4 on a 1-based scale, clamped into the
                // sample range and linearly interpolated.
                let pos = (i * (n + 1)) as f64 / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * frac
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() * p as usize).div_ceil(100);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Share of the samples, the slowest, that [`Summary::steady`] leaves out.
pub const TRIM_PCT: usize = 10;

/// The percentiles a tail may be reported at.
const TAIL_STEPS: [u32; 5] = [50, 75, 90, 95, 99];

/// The highest of the standard percentiles, not above `wanted`, that has at
/// least ten of `n` samples beyond it. With fewer than twenty samples even
/// the median fails that, and the median is what is returned.
pub fn tail_step(n: usize, wanted: u32) -> u32 {
    TAIL_STEPS
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= wanted && n as u64 * u64::from(100 - p) >= 1000)
        .unwrap_or(50)
}

/// `(median, tail, tail percentile used)` of latency samples: the tail is
/// taken at `wanted` when ten samples lie beyond it, else at the highest
/// lower step that has them.
pub fn median_and_tail(samples: &[f64], wanted: u32) -> (f64, f64, u32) {
    let v = sorted(samples);
    let step = tail_step(v.len(), wanted);
    (percentile(&v, 50), percentile(&v, step), step)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn median_is_order_independent_and_never_a_best_of() {
        assert_eq!(Summary::of(&[9.0, 1.0, 5.0]).value, 5.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).value, 2.5);
    }

    #[test]
    fn steady_is_the_mean_without_the_slowest_tenth() {
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let s = Summary::steady(&v);
        // 1..=36 are kept: their mean is 18.5.
        assert_eq!((s.value, s.n), (18.5, 40));
        assert_eq!((s.q1, s.q3), (Summary::of(&v).q1, Summary::of(&v).q3));
        // A stall in the slowest tenth does not move it; a slower program
        // moves it in proportion; a shifted share of slow samples moves it
        // by that share, not by a whole cluster.
        let mut stalled = v.clone();
        stalled[0] = 4000.0;
        assert_eq!(Summary::steady(&stalled).value, 18.5);
        let slower: Vec<f64> = v.iter().map(|x| x * 1.5).collect();
        assert_eq!(Summary::steady(&slower).value, 27.75);
        let clusters = |slow: usize| -> Vec<f64> {
            (0..100)
                .map(|i| if i < slow { 14.0 } else { 10.0 })
                .collect()
        };
        let (a, b) = (
            Summary::steady(&clusters(45)).value,
            Summary::steady(&clusters(55)).value,
        );
        assert!((b - a) / a < 0.04, "{a} {b}");
        assert_eq!(Summary::of(&clusters(45)).value, 10.0);
        assert_eq!(Summary::of(&clusters(55)).value, 14.0);
        // Fewer than ten samples: all are kept.
        assert_eq!(Summary::steady(&[3.0, 2.0, 4.0]).value, 3.0);
        assert_eq!(Summary::steady(&[]).value, 0.0);
    }

    #[test]
    fn rate_summaries_keep_quartiles_ordered() {
        let s = Summary::of(&[1.0, 2.0, 4.0]).map(|t| 8.0 / t);
        assert_eq!((s.q1, s.value, s.q3), (2.0, 4.0, 8.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_step(1000, 99), 99);
        assert_eq!(tail_step(999, 99), 95);
        assert_eq!(tail_step(200, 99), 95);
        assert_eq!(tail_step(199, 99), 90);
        assert_eq!(tail_step(100, 90), 90);
        assert_eq!(tail_step(99, 90), 75);
        assert_eq!(tail_step(40, 99), 75);
        assert_eq!(tail_step(39, 99), 50);
        assert_eq!(tail_step(5, 99), 50);
        // Never above what the workload asked for.
        assert_eq!(tail_step(100_000, 90), 90);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 500.0);
        assert_eq!(percentile(&v, 99), 990.0);
        assert_eq!(percentile(&v, 100), 1000.0);
        let (p50, tail, step) = median_and_tail(&v, 99);
        assert_eq!((p50, tail, step), (500.0, 990.0, 99));
    }
}
