//! Order statistics for the benchmark's reports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads the benchmark prints are
//! the ones a reader recomputes from its raw samples.

/// Ladder of percentiles considered for a timing's tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count), or `None`
/// for no samples.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by Python's exclusive method, or
/// `None` for fewer than two samples.
#[must_use]
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    // Signed: for two or three samples the outer quartiles extrapolate
    // (negative or oversized `delta`), exactly as Python does.
    let ld = i64::try_from(ld).expect("sample count fits i64");
    let (m, n) = (ld + 1, 4i64);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let at = |k: i64| v[usize::try_from(k).expect("index in range")];
        *slot = (at(j - 1) * (n as f64 - delta) + at(j) * delta) / n as f64;
    }
    Some(out)
}

/// Nearest-rank percentile of `xs` (`pct` in (0, 100]) and how many
/// samples lie strictly beyond it.
#[must_use]
pub fn percentile(xs: &[f64], pct: f64) -> Option<(f64, usize)> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * v.len() as f64).ceil().clamp(1.0, v.len() as f64) as usize;
    let value = v[rank - 1];
    let beyond = v.iter().filter(|&&x| x > value).count();
    Some((value, beyond))
}

/// The highest percentile on the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(pct, value)`.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER.iter().find_map(|&pct| {
        let (value, beyond) = percentile(xs, pct)?;
        (beyond >= TAIL_MIN_BEYOND).then_some((pct, value))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1.5, 2.25, 9, 4], n=4) == [1.6875, 3.125, 7.75]
        assert_eq!(quartiles(&[1.5, 2.25, 9.0, 4.0]), Some([1.6875, 3.125, 7.75]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 = 90 leaves exactly 10 beyond; p95 would leave 5.
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        // Fewer than 20 samples: not even the median has ten beyond.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few), None);
    }

    #[test]
    fn ties_do_not_count_as_beyond() {
        let mut xs = vec![1.0; 95];
        xs.extend([2.0; 5]);
        assert_eq!(percentile(&xs, 90.0), Some((1.0, 5)));
        assert_eq!(tail(&xs), None, "only five samples exceed any ladder percentile");
    }
}
