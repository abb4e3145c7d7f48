//! Percentiles and the reporting rule: a timing is printed as its median
//! plus the highest percentile that still has at least ten samples beyond
//! it, together with the sample count.

/// Percentile `q` (0..=1) of `sorted` by linear interpolation between
/// closest ranks. `sorted` must be ascending; an empty slice gives NaN.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Number of the `n` samples ranked strictly above percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    n - 1 - pos.ceil() as usize
}

/// The reported tail percentiles, highest first.
const TAILS: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// The highest of p99.9, p99, p90 and p50 with at least ten samples
/// beyond it, or `None` when even the median has fewer than ten.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&q| samples_beyond(n, q) >= 10)
}

/// A timing summary under the reporting rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The reported tail percentile (`None` when too few samples).
    pub tail_q: Option<f64>,
    /// Its value (NaN when `tail_q` is `None`).
    pub tail: f64,
}

impl Summary {
    /// Summarizes unsorted samples.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(v.len());
        Summary {
            n: v.len(),
            p50: percentile(&v, 0.5),
            tail_q,
            tail: tail_q.map_or(f64::NAN, |q| percentile(&v, q)),
        }
    }

    /// `name: p50=… p99=… (n=…)` in the given unit.
    pub fn render(&self, name: &str, unit: &str) -> String {
        match self.tail_q {
            Some(q) => format!(
                "{name}: p50={:.4}{unit} p{}={:.4}{unit} (n={})",
                self.p50,
                (q * 1000.0).round() / 10.0,
                self.tail,
                self.n
            ),
            None => format!("{name}: p50={:.4}{unit} (n={})", self.p50, self.n),
        }
    }
}

/// Sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// Time slices per measured phase for [`sliced_median`].
pub const SLICES: usize = 5;

/// Splits `items` into `n` slices of equal time between `start` and
/// `end` by `time(item)`; items outside the range go to the nearest
/// slice.
pub fn slices<T>(
    items: &[T],
    time: impl Fn(&T) -> f64,
    start: f64,
    end: f64,
    n: usize,
) -> Vec<Vec<&T>> {
    let n = n.max(1);
    let width = (end - start) / n as f64;
    let mut out: Vec<Vec<&T>> = (0..n).map(|_| Vec::new()).collect();
    for it in items {
        let i = if width > 0.0 {
            ((time(it) - start) / width).floor()
        } else {
            0.0
        };
        out[(i.max(0.0) as usize).min(n - 1)].push(it);
    }
    out
}

/// The median over time slices of a per-slice statistic: a burst of
/// contention from outside (another tenant of the host) spoils one or two
/// slices, not the reported value. Empty slices are skipped.
pub fn sliced_median<T>(
    items: &[T],
    time: impl Fn(&T) -> f64,
    start: f64,
    end: f64,
    n: usize,
    stat: impl Fn(&[&T]) -> f64,
) -> f64 {
    let per: Vec<f64> = slices(items, time, start, end, n)
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| stat(s))
        .filter(|v| !v.is_nan())
        .collect();
    median(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliced_median_ignores_one_disturbed_slice() {
        // Five slices of steady 1.0 latencies, one of them disturbed.
        let items: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                (
                    i as f64 / 10.0,
                    if (20..30).contains(&i) { 9.0 } else { 1.0 },
                )
            })
            .collect();
        let m = sliced_median(
            &items,
            |x| x.0,
            0.0,
            5.0,
            5,
            |s| median(&s.iter().map(|x| x.1).collect::<Vec<_>>()),
        );
        assert_eq!(m, 1.0);
        let parts = slices(&items, |x| x.0, 0.0, 5.0, 5);
        assert!(parts.iter().all(|p| p.len() == 10));
        // Out-of-range times land in the end slices.
        let edge = slices(&[-1.0, 7.0], |x| *x, 0.0, 5.0, 5);
        assert_eq!((edge[0].len(), edge[4].len()), (1, 1));
    }

    #[test]
    fn interpolated_percentiles() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn samples_beyond_counts_strictly_higher_ranks() {
        assert_eq!(samples_beyond(0, 0.5), 0);
        assert_eq!(samples_beyond(1, 0.5), 0);
        assert_eq!(samples_beyond(5, 0.5), 2);
        assert_eq!(samples_beyond(101, 0.9), 10);
        assert_eq!(samples_beyond(100, 0.9), 9);
        assert_eq!(samples_beyond(1001, 0.99), 10);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_quantile(20), None);
        assert_eq!(tail_quantile(21), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.5));
        assert_eq!(tail_quantile(101), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.9));
        assert_eq!(tail_quantile(1001), Some(0.99));
        assert_eq!(tail_quantile(10_001), Some(0.999));
        for n in [21, 101, 1001, 10_001, 50_000] {
            let q = tail_quantile(n).unwrap();
            assert!(samples_beyond(n, q) >= 10, "n={n} q={q}");
        }
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let samples: Vec<f64> = (0..101).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 101);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail_q, Some(0.9));
        assert_eq!(s.tail, 90.0);
        assert_eq!(
            s.render("x", "ms"),
            "x: p50=50.0000ms p90=90.0000ms (n=101)"
        );
        let few = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(few.tail_q, None);
        assert_eq!(few.render("y", "s"), "y: p50=2.0000s (n=3)");
    }
}
