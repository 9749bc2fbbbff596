//! Summary statistics and the result digest.

use desq_core::Sequence;

/// Median and quartiles of a sample, with its size.
///
/// Quartiles follow the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the numbers printed here match
/// the ones a reader recomputes from the raw runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub reps: usize,
}

impl Summary {
    /// Summarizes `values`; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v: Vec<f64> = values.to_vec();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let median = median_sorted(&v);
        let (p25, p75) = if v.len() < 2 {
            (median, median)
        } else {
            (quartile_sorted(&v, 1), quartile_sorted(&v, 3))
        };
        Some(Summary {
            median,
            p25,
            p75,
            reps: v.len(),
        })
    }

    /// A single derived value (a ratio or a percentile) backed by `reps`
    /// samples; it has no spread of its own.
    pub fn scalar(value: f64, reps: usize) -> Summary {
        Summary {
            median: value,
            p25: value,
            p75: value,
            reps,
        }
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartile `i` (1 or 3) of a sorted sample of at least two values, by
/// the exclusive method: position `i·(n+1)/4`, interpolated between its
/// neighbours (and, like Python, extrapolated past the ends of a tiny
/// sample).
fn quartile_sorted(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let m = i * (n + 1);
    let j = (m / 4).clamp(1, n - 1);
    let delta = m as f64 - (4 * j) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Samples that must lie strictly above a percentile before it is
/// reported: a tail figure resting on fewer is one unlucky sample.
const MIN_BEYOND: usize = 10;

/// The `q`-th percentile (0 < q < 100) of `values` by nearest rank, or
/// `None` unless at least [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(0.0..100.0).contains(&q) {
        return None;
    }
    let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Geometric mean of positive values (`None` if empty or any is ≤ 0).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Order-independent fingerprint of a result: the pattern count plus a
/// 64-bit FNV-1a hash over the patterns in sorted order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub patterns: usize,
    pub hash: u64,
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{:016x}", self.patterns, self.hash)
    }
}

impl Digest {
    /// Digests `(pattern, support)` pairs in any order (they are sorted
    /// first, so a streamed result and a sorted one digest the same).
    pub fn of(patterns: &[(Sequence, u64)]) -> Digest {
        let mut sorted: Vec<&(Sequence, u64)> = patterns.iter().collect();
        sorted.sort_unstable();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (pattern, support) in sorted {
            eat(&(pattern.len() as u64).to_le_bytes());
            for item in pattern {
                eat(&item.to_le_bytes());
            }
            eat(&support.to_le_bytes());
        }
        Digest {
            patterns: patterns.len(),
            hash,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.p25, s.median, s.p75, s.reps), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (0.75, 1.5, 2.25));
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75, s.reps), (4.0, 4.0, 4.0, 1));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 of 1000 leaves exactly ten samples beyond.
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn geomean_weighs_every_value_alike() {
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = vec![(vec![1, 2], 5), (vec![3], 7)];
        let b = vec![(vec![3], 7), (vec![1, 2], 5)];
        assert_eq!(Digest::of(&a), Digest::of(&b));
        assert_eq!(Digest::of(&a).patterns, 2);
        // A changed support, a changed item and a split pattern all differ.
        assert_ne!(Digest::of(&a), Digest::of(&[(vec![1, 2], 6), (vec![3], 7)]));
        assert_ne!(Digest::of(&a), Digest::of(&[(vec![1, 4], 5), (vec![3], 7)]));
        assert_ne!(
            Digest::of(&[(vec![1, 2], 5)]),
            Digest::of(&[(vec![1], 5), (vec![2], 5)])
        );
        assert_ne!(Digest::of(&a), Digest::of(&[]));
    }
}
