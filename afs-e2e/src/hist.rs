//! A fixed log-bucket latency histogram that merges across threads.
//!
//! Values are nanoseconds.  Every power of two is split into 64 linear
//! sub-buckets, so a bucket is at most 1/64 (1.6 %) wide relative to its lower
//! edge; quantiles interpolate inside the bucket.  Recording is one index
//! computation and one add, so a client thread can keep its own histogram and
//! the harness merges them after the window.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros()) - SUB_BITS;
    (((shift + 1) as usize) << SUB_BITS) + ((v >> shift) - SUB) as usize
}

/// Lower edge and width of bucket `idx`.
fn bounds(idx: usize) -> (u64, u64) {
    if idx < SUB as usize {
        return (idx as u64, 1);
    }
    let shift = (idx >> SUB_BITS) as u32 - 1;
    (((idx as u64 & (SUB - 1)) + SUB) << shift, 1 << shift)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 < q <= 1) in nanoseconds; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).max(1.0);
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (seen + count) as f64 >= rank {
                let (low, width) = bounds(idx);
                let inside = (rank - seen as f64) / count as f64;
                return low as f64 + inside * width as f64;
            }
            seen += count;
        }
        unreachable!("rank {rank} beyond total {}", self.total)
    }

    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile(q) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn oracle(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    /// Latency-shaped samples: a log-uniform body from 1 µs to ~16 ms.
    fn samples(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                let exp = rng.below(14);
                (1000 << exp) + rng.below(1000 << exp)
            })
            .collect()
    }

    #[test]
    fn bucket_edges_are_contiguous_and_cover_u64() {
        let mut next = 0u64;
        for idx in 0..BUCKETS {
            let (low, width) = bounds(idx);
            assert_eq!(low, next, "bucket {idx}");
            assert_eq!(index(low), idx);
            assert_eq!(index(low + (width - 1)), idx);
            next = low.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at 2^64");
    }

    #[test]
    fn percentiles_match_a_sorted_sample_oracle() {
        let mut values = samples(7, 50_000);
        let mut hist = Hist::default();
        for &v in &values {
            hist.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = oracle(&values, q);
            let got = hist.quantile(q);
            assert!(
                (got - want).abs() <= want / 64.0 + 1.0,
                "q={q}: histogram {got} vs oracle {want}"
            );
        }
    }

    #[test]
    fn merging_per_thread_histograms_equals_one_histogram() {
        let parts: Vec<Vec<u64>> = (0..4).map(|t| samples(100 + t, 10_000)).collect();
        let per_thread: Vec<Hist> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .map(|part| {
                    scope.spawn(move || {
                        let mut hist = Hist::default();
                        part.iter().for_each(|&v| hist.record(v));
                        hist
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut merged = Hist::default();
        per_thread.iter().for_each(|h| merged.merge(h));

        let mut all: Vec<u64> = parts.concat();
        let mut single = Hist::default();
        all.iter().for_each(|&v| single.record(v));
        all.sort_unstable();
        assert_eq!(merged.count(), all.len() as u64);
        for q in [0.5, 0.99] {
            assert_eq!(merged.quantile(q), single.quantile(q));
            let want = oracle(&all, q);
            assert!((merged.quantile(q) - want).abs() <= want / 64.0 + 1.0);
        }
    }

    #[test]
    fn an_empty_histogram_reports_zero() {
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }
}
