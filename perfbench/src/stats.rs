//! Order statistics over samples.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `xs`, which it sorts.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    xs.sort_unstable_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Sub-buckets per power of two: 1/1024 relative resolution.
const SUB_BITS: u32 = 10;

/// Host durations (ns) in log-linear buckets 1/1024 wide. Memory grows
/// with the largest duration recorded, never with the op count: a faster
/// host completes more ops, and a per-op sample vector would then grow
/// `peak_rss_mb` with speed.
#[derive(Default)]
pub struct FineHist {
    counts: Vec<u64>,
    n: u64,
}

impl FineHist {
    fn index(v: u64) -> usize {
        if v < 1 << SUB_BITS {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        ((e - SUB_BITS) << SUB_BITS) as usize + (v >> (e - SUB_BITS)) as usize
    }

    /// Midpoint of bucket `i`.
    fn value(i: usize) -> f64 {
        if i < 1 << SUB_BITS {
            return i as f64;
        }
        let shift = (i >> SUB_BITS) as u32 - 1;
        let mantissa = ((i & ((1 << SUB_BITS) - 1)) + (1 << SUB_BITS)) as u64;
        ((mantissa << shift) as f64) + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, v: u64) {
        let i = Self::index(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &FineHist) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`), as a bucket midpoint.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!(self.n > 0, "percentile of no samples");
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_hist_is_within_a_bucket_of_the_exact_percentile() {
        let mut h = FineHist::default();
        let mut xs = Vec::new();
        let mut x: u64 = 1;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 500 + (x >> 40) % 20_000_000;
            h.record(v);
            xs.push(v as f64);
        }
        for q in [0.01, 0.5, 0.99, 1.0] {
            let exact = percentile(&mut xs, q);
            let got = h.percentile(q);
            assert!(
                (got - exact).abs() <= exact / 1024.0 + 1.0,
                "q {q}: {got} vs {exact}"
            );
        }
    }
}
