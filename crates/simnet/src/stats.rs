//! Measurement collection: histograms and summaries.
//!
//! Latency samples are recorded into a log-bucketed histogram (HdrHistogram
//! style, base-2 with linear sub-buckets) so that million-sample runs stay
//! O(1) per sample; percentiles are then interpolated within buckets.

use crate::time::Nanos;

/// Number of linear sub-buckets per power of two. 32 gives ~3% worst-case
/// relative error on percentiles, plenty for figure-shape comparisons.
const SUB_BUCKETS: usize = 32;
/// Number of powers of two covered (2^0 .. 2^47 ns ~= 1.6 days).
const EXPONENTS: usize = 48;

/// A log-bucketed latency histogram over nanosecond samples.
///
/// # Examples
///
/// ```
/// use simnet::stats::Histogram;
/// use simnet::time::Nanos;
///
/// let mut h = Histogram::new();
/// for i in 1..=100u64 {
///     h.record(Nanos::new(i * 10));
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.percentile(50.0).as_nanos();
/// assert!((495..=505).contains(&p50), "p50 = {p50}");
/// ```
#[derive(Clone)]
pub struct Histogram {
    /// Empty until the first sample: a histogram that never records
    /// (most of a rack's per-stream ones) allocates nothing.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

// Manual impl: the bucket vector is noise, and the raw `min`/`max`
// fields hold sentinels when empty — print the guarded accessors.
impl core::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("min", &self.min())
            .field("max", &self.max())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// Creates an empty histogram. Its counters are allocated by the
    /// first [`record`](Histogram::record), or the first
    /// [`merge`](Histogram::merge) of a non-empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as usize; // floor(log2(v))
        let shift = exp - SUB_BUCKETS.trailing_zeros() as usize;
        let sub = (v >> shift) as usize;
        debug_assert!((SUB_BUCKETS..2 * SUB_BUCKETS).contains(&sub));
        // Buckets 0..SUB_BUCKETS are exact values; afterwards each exponent
        // contributes SUB_BUCKETS buckets and `sub` (the top six bits of
        // `v`) lands directly in [SUB_BUCKETS, 2*SUB_BUCKETS), so the
        // group base plus `sub` is the index.
        (shift * SUB_BUCKETS + sub).min(SUB_BUCKETS * EXPONENTS - 1)
    }

    fn bucket_value(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            return idx as u64;
        }
        let group = (idx - SUB_BUCKETS) / SUB_BUCKETS;
        let sub = (idx - SUB_BUCKETS) % SUB_BUCKETS;
        let shift = group;
        ((SUB_BUCKETS + sub) as u64) << shift
    }

    /// Records one sample.
    pub fn record(&mut self, v: Nanos) {
        let v = v.as_nanos();
        self.counters()[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples (zero when empty).
    pub fn mean(&self) -> Nanos {
        if self.count == 0 {
            return Nanos::ZERO;
        }
        Nanos::new((self.sum / self.count as u128) as u64)
    }

    /// Smallest recorded sample (zero when empty).
    pub fn min(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos::new(self.min)
        }
    }

    /// Largest recorded sample (zero when empty).
    pub fn max(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            Nanos::new(self.max)
        }
    }

    /// The value at percentile `p` in `[0, 100]` (zero when empty).
    ///
    /// The returned value is linearly interpolated within the bucket the
    /// rank falls into (midpoint convention: the `k`-th of `c` samples in
    /// a bucket sits at fraction `(k - 0.5) / c` of the bucket span), so
    /// the error is bounded by one sub-bucket width rather than biased a
    /// full sub-bucket low. The result is clamped to the observed
    /// `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Nanos {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return Nanos::ZERO;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if seen + c >= target {
                let lo = Self::bucket_value(idx);
                let hi = Self::bucket_value(idx + 1);
                let rank_in_bucket = (target - seen) as f64 - 0.5;
                let v = lo as f64 + (hi - lo) as f64 * rank_in_bucket / c as f64;
                return Nanos::new((v as u64).max(self.min).min(self.max));
            }
            seen += c;
        }
        Nanos::new(self.max)
    }

    /// Merges another histogram into this one. Merging an empty side is
    /// a no-op: the sentinel-initialized `min`/`max` fields of an empty
    /// histogram never contaminate the populated one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.counters().iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The bucket counters, allocated on first use.
    fn counters(&mut self) -> &mut [u64] {
        if self.buckets.is_empty() {
            self.buckets = vec![0; SUB_BUCKETS * EXPONENTS];
        }
        &mut self.buckets
    }

    /// A printable summary of this histogram.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean: self.mean(),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// Percentile summary of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean latency.
    pub mean: Nanos,
    /// Median latency.
    pub p50: Nanos,
    /// 90th percentile.
    pub p90: Nanos,
    /// 99th percentile.
    pub p99: Nanos,
    /// 99.9th percentile (the open-loop tail experiments report it).
    pub p999: Nanos,
    /// Minimum.
    pub min: Nanos,
    /// Maximum.
    pub max: Nanos,
}

impl core::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p90={} p99={} p99.9={} min={} max={}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.p999, self.min, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exact_small_values() {
        let mut h = Histogram::new();
        h.record(Nanos::new(5));
        h.record(Nanos::new(5));
        h.record(Nanos::new(7));
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Nanos::new(5));
        assert_eq!(h.max(), Nanos::new(7));
        assert_eq!(h.percentile(0.0), Nanos::new(5));
        assert_eq!(h.percentile(100.0), Nanos::new(7));
    }

    #[test]
    fn histogram_percentile_accuracy_within_buckets() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(Nanos::new(i));
        }
        for p in [10.0, 50.0, 90.0, 99.0] {
            let expected = (p / 100.0 * 1000.0) as u64;
            let got = h.percentile(p).as_nanos();
            let err = (got as f64 - expected as f64).abs() / expected as f64;
            // Within-bucket interpolation keeps a uniform distribution
            // well under the one-sub-bucket (~3%) worst case.
            assert!(err < 0.01, "p{p}: got {got}, expected ~{expected}");
        }
    }

    #[test]
    fn bucket_round_trip_brackets_value() {
        // `bucket_value(bucket_index(v))` is the floor of `v`'s bucket
        // and the next bucket's floor is strictly above `v`, for every
        // value below the clamp point of the last bucket.
        crate::prop::check("bucket_round_trip_brackets_value", |g| {
            let exp = g.u32(0..51);
            let v = g.u64(0..(1u64 << exp).max(2));
            let idx = Histogram::bucket_index(v);
            let lo = Histogram::bucket_value(idx);
            let hi = Histogram::bucket_value(idx + 1);
            crate::prop_assert!(lo <= v && v < hi, "v={v}: bucket [{lo}, {hi})");
            Ok(())
        });
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new();
        h.record(Nanos::new(100));
        h.record(Nanos::new(300));
        assert_eq!(h.mean(), Nanos::new(200));
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Nanos::new(10));
        b.record(Nanos::new(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Nanos::new(10));
        assert_eq!(a.max(), Nanos::new(1_000_000));
    }

    #[test]
    fn histogram_empty_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.mean(), Nanos::ZERO);
        assert_eq!(h.percentile(50.0), Nanos::ZERO);
        assert_eq!(h.min(), Nanos::ZERO);
        assert_eq!(h.max(), Nanos::ZERO);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, Nanos::ZERO);
        assert_eq!(s.max, Nanos::ZERO);
        assert_eq!(s.mean, Nanos::ZERO);
    }

    #[test]
    fn merge_with_empty_side_is_sentinel_safe() {
        // Populated <- empty: values unchanged.
        let mut a = Histogram::new();
        a.record(Nanos::new(100));
        a.record(Nanos::new(300));
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Nanos::new(100));
        assert_eq!(a.max(), Nanos::new(300));
        assert_eq!(a.mean(), Nanos::new(200));

        // Empty <- populated: adopts the other's extrema.
        let mut b = Histogram::new();
        b.merge(&a);
        assert_eq!(b.count(), 2);
        assert_eq!(b.min(), Nanos::new(100));
        assert_eq!(b.max(), Nanos::new(300));

        // Empty <- empty: still reports zeroes, not sentinels.
        let mut c = Histogram::new();
        c.merge(&Histogram::new());
        assert_eq!(c.count(), 0);
        assert_eq!(c.min(), Nanos::ZERO);
        assert_eq!(c.max(), Nanos::ZERO);
        assert_eq!(c.summary().max, Nanos::ZERO);
    }

    #[test]
    fn debug_prints_guarded_accessors() {
        let text = format!("{:?}", Histogram::new());
        assert!(text.contains("count: 0"), "{text}");
        assert!(!text.contains(&u64::MAX.to_string()), "{text}");
    }

    #[test]
    fn counters_are_allocated_by_the_first_sample() {
        let empty = Histogram::new();
        assert!(empty.buckets.is_empty());
        let zero = Nanos::ZERO;
        let summary = LatencySummary {
            count: 0,
            mean: zero,
            p50: zero,
            p90: zero,
            p99: zero,
            p999: zero,
            min: zero,
            max: zero,
        };
        assert_eq!(empty.summary(), summary);
        assert_eq!(
            format!("{empty:?}"),
            "Histogram { count: 0, mean: 0ns, min: 0ns, max: 0ns, .. }"
        );

        let mut c = Histogram::new();
        c.merge(&Histogram::new());
        assert!(c.buckets.is_empty(), "merging empty into empty allocated");

        // Record-then-merge, into an empty and into a populated side,
        // equals recording directly.
        let samples = [3, 31, 32, 1_000, 1_000, 65_537, 9_999_999, u64::MAX / 2];
        let mut direct = Histogram::new();
        let (mut low, mut high) = (Histogram::new(), Histogram::new());
        for (i, &v) in samples.iter().enumerate() {
            direct.record(Nanos::new(v));
            if i % 2 == 0 { &mut low } else { &mut high }.record(Nanos::new(v));
        }
        let mut merged = Histogram::new();
        merged.merge(&low);
        merged.merge(&high);
        low.merge(&high);
        for h in [&merged, &low] {
            assert_eq!(h.buckets, direct.buckets);
            assert_eq!(
                (h.count, h.sum, h.min, h.max),
                (direct.count, direct.sum, direct.min, direct.max)
            );
            assert_eq!(h.summary(), direct.summary());
            assert_eq!(format!("{h:?}"), format!("{direct:?}"));
        }
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn histogram_percentile_range_checked() {
        Histogram::new().percentile(101.0);
    }

    #[test]
    fn histogram_huge_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(Nanos::new(u64::MAX / 2));
        assert_eq!(h.count(), 1);
        assert!(h.percentile(50.0).as_nanos() > 0);
    }

    #[test]
    fn latency_summary_display() {
        let mut h = Histogram::new();
        h.record(Nanos::new(1500));
        let s = h.summary();
        let text = format!("{s}");
        assert!(text.contains("n=1"), "{text}");
    }
}
