//! Summary statistics: a log-linear latency histogram for the hot path
//! and exact quantiles for small sample sets.

/// Sub-buckets per power of two: bucket width is at most 1/64 of its
/// lower edge, so an interpolated quantile is within about 1.6%.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Mergeable log-linear histogram of nanosecond durations. Recording is
/// one index computation and one increment.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // e >= SUB_BITS
        let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
        ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }
}

/// `[lower, upper)` edges of bucket `i`.
fn edges(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        (i as f64, (i + 1) as f64)
    } else {
        let e = i / SUB + u64::from(SUB_BITS) - 1;
        let sub = i % SUB;
        // In floating point: the top bucket's upper edge is 2^64.
        let width = ((e - u64::from(SUB_BITS)) as f64).exp2();
        let lower = (SUB + sub) as f64 * width;
        (lower, lower + width)
    }
}

impl Hist {
    /// Records one duration.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile in nanoseconds, interpolated linearly by rank
    /// inside the bucket that holds it; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= target {
                let (lo, hi) = edges(i);
                let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
            below += c;
        }
        edges(BUCKETS - 1).1
    }
}

/// Exact `q`-quantile of `xs` by linear interpolation between order
/// statistics; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Mean of `xs`; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for i in 0..BUCKETS - 1 {
            assert_eq!(edges(i).1, edges(i + 1).0, "gap after bucket {i}");
        }
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            123_456_789,
            u64::MAX / 3,
        ] {
            let (lo, hi) = edges(index(v));
            assert!(
                lo <= v as f64 && (v as f64) < hi,
                "{v} outside [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn hist_quantiles_track_exact_ones() {
        let mut h = Hist::default();
        let xs: Vec<f64> = (1..=10_000u64).map(|i| (i * 37) as f64).collect();
        for &x in &xs {
            h.record(x as u64);
        }
        for q in [0.5, 0.99] {
            let exact = quantile(&xs, q);
            let approx = h.quantile(q);
            assert!(
                (approx - exact).abs() / exact < 0.02,
                "q{q}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn exact_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
