//! Deterministic randomness for workloads.
//!
//! All stochastic behaviour in the simulators flows through [`SimRng`], a
//! seeded PRNG. The engine itself never consults randomness, so a fixed
//! seed makes entire experiments bit-for-bit reproducible.
//!
//! The generator is an in-tree xoshiro256++ (Blackman & Vigna) whose
//! 256-bit state is expanded from the 64-bit seed with SplitMix64 — the
//! reference seeding procedure. The implementation is ~40 lines of
//! shift/rotate arithmetic with no dependencies, so the exact stream is
//! auditable and stable forever: it can never change underneath us via a
//! crate upgrade.
//!
//! **Stream change (hermetic-build migration):** earlier revisions
//! wrapped an external `StdRng` (ChaCha). Any given seed now produces a
//! *different* — but equally deterministic — value stream. Tests and
//! experiments assert distributional tolerance bands (see
//! EXPERIMENTS.md), never golden values from a particular stream, so
//! only the exact per-seed numbers moved, not any calibrated result.
//!
//! Statistical caveats: xoshiro256++ passes BigCrush and has a period of
//! 2^256 − 1, far beyond any simulation horizon here, but it is **not**
//! cryptographically secure and must never be used for key material.
//! Unlike the `+` variant, the `++` scrambler has no weak low bits, so
//! taking `% n` or the low bits of [`SimRng::next_u64`] is safe.

use std::sync::Arc;

/// SplitMix64 step: the reference mixer used to expand a 64-bit seed
/// into xoshiro's 256-bit state (and to derive fork/case seeds).
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded PRNG (xoshiro256++) with workload-oriented helpers.
///
/// # Examples
///
/// ```
/// use simnet::rng::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.uniform_u64(1000), b.uniform_u64(1000));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a PRNG from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        // SplitMix64 expansion guarantees a non-degenerate (not all
        // zero) xoshiro state for every seed, including 0.
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next raw 64-bit output of the generator.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Derives an independent child PRNG, e.g. one per simulated client.
    ///
    /// The child's 256-bit state is re-expanded (SplitMix64) from a seed
    /// drawn from the parent, so parent and child streams share no state:
    /// drawing more values from either never perturbs the other.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s: u64 = self.next_u64() ^ salt.rotate_left(17);
        SimRng::seed(s)
    }

    /// A uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift reduction with rejection, so every
    /// value is exactly equally likely (no modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn uniform_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "uniform bound must be positive");
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
            }
        }
        (m >> 64) as u64
    }

    /// A uniform f64 in `[0, 1)` with 53 bits of precision.
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniformly random address in `[base, base + range)`, aligned down
    /// to `align` bytes (the paper's random-offset access pattern, §2.4).
    ///
    /// # Panics
    ///
    /// Panics if `align == 0` or `range < align`.
    pub fn addr_in_range(&mut self, base: u64, range: u64, align: u64) -> u64 {
        assert!(align > 0, "alignment must be positive");
        assert!(range >= align, "range must cover at least one slot");
        let slots = range / align;
        base + self.uniform_u64(slots) * align
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform_f64() < p
    }

    /// Picks a uniformly random element index for a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.uniform_u64(len as u64) as usize
    }
}

/// A Zipfian-distributed key sampler (used by the key-value workloads).
///
/// Implements the standard rejection-free inverse-CDF-table approach for a
/// fixed population; good enough for up to ~10M keys. Clones share the
/// tables, so a stream builds them once and hands a clone to each shard.
///
/// A draw `u` returns the smallest index whose CDF value is at least `u`.
/// It starts at a guide entry and scans up: with `n` items, `u` falls in
/// bucket `⌊u·n⌋`, and `guide[j]` is the first index whose CDF value
/// falls in bucket `j` or later. Bucketing is monotone, so no earlier
/// index can reach `u`; on a strictly increasing CDF the result is the
/// index a binary search finds.
#[derive(Clone)]
pub struct Zipf {
    cdf: Arc<[f64]>,
    /// `n + 1` scan starts, one per bucket (the last CDF value, 1, is
    /// alone in bucket `n`).
    guide: Arc<[usize]>,
}

impl Zipf {
    /// Builds a sampler over `n` items with exponent `theta` (0 = uniform,
    /// 0.99 = classic YCSB skew).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta < 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "population must be non-empty");
        assert!(theta >= 0.0, "zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // One pass: the CDF is non-decreasing, so its buckets are too.
        let mut guide = Vec::with_capacity(n + 1);
        for (i, &c) in cdf.iter().enumerate() {
            let b = bucket(c, n);
            while guide.len() <= b {
                guide.push(i);
            }
        }
        guide.resize(n + 1, n - 1);
        Zipf {
            cdf: cdf.into(),
            guide: guide.into(),
        }
    }

    /// Samples an item index in `[0, n)`; index 0 is the hottest key.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.index_of(rng.uniform_f64())
    }

    /// The smallest index whose CDF value is at least `u`, or the last.
    fn index_of(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let mut i = self.guide[bucket(u, self.cdf.len())];
        while i < last && self.cdf[i] < u {
            i += 1;
        }
        i
    }
}

/// The guide bucket of a CDF value or draw `x` in `[0, 1]` over `n`
/// items: `⌊x·n⌋`, at most `n`. Monotone in `x`.
#[inline]
fn bucket(x: f64, n: usize) -> usize {
    ((x * n as f64) as usize).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        let va: Vec<u64> = (0..32).map(|_| a.uniform_u64(1 << 20)).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.uniform_u64(1 << 20)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn forked_streams_differ() {
        let mut root = SimRng::seed(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let v1: Vec<u64> = (0..16).map(|_| c1.uniform_u64(1000)).collect();
        let v2: Vec<u64> = (0..16).map(|_| c2.uniform_u64(1000)).collect();
        assert_ne!(v1, v2);
    }

    #[test]
    fn fork_is_stream_independent() {
        // Drawing from the parent after the fork must not change what
        // the child produces, and vice versa.
        let mut p1 = SimRng::seed(99);
        let mut c1 = p1.fork(5);
        let child_alone: Vec<u64> = (0..32).map(|_| c1.uniform_u64(1 << 30)).collect();

        let mut p2 = SimRng::seed(99);
        let mut c2 = p2.fork(5);
        let mut child_interleaved = Vec::new();
        for _ in 0..32 {
            let _ = p2.next_u64(); // parent keeps drawing
            child_interleaved.push(c2.uniform_u64(1 << 30));
        }
        assert_eq!(child_alone, child_interleaved);
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = SimRng::seed(0);
        let v: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0), "all-zero stream from seed 0");
        assert_ne!(v[0], v[1]);
    }

    #[test]
    fn uniform_covers_small_bound() {
        // Unbiased reduction: every residue of a tiny bound appears.
        let mut r = SimRng::seed(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.uniform_u64(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = SimRng::seed(13);
        for _ in 0..10_000 {
            let v = r.uniform_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn addr_alignment_and_range() {
        let mut rng = SimRng::seed(1);
        for _ in 0..1000 {
            let a = rng.addr_in_range(4096, 1 << 20, 64);
            assert_eq!(a % 64, 0);
            assert!((4096..4096 + (1 << 20)).contains(&a));
        }
    }

    #[test]
    fn addr_single_slot() {
        let mut rng = SimRng::seed(1);
        assert_eq!(rng.addr_in_range(128, 64, 64), 128);
    }

    #[test]
    #[should_panic(expected = "range must cover")]
    fn addr_range_too_small_panics() {
        SimRng::seed(1).addr_in_range(0, 32, 64);
    }

    #[test]
    fn zipf_uniform_theta_zero() {
        let z = Zipf::new(100, 0.0);
        let mut rng = SimRng::seed(3);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Roughly uniform: every bucket within 3x of the mean.
        for &c in &counts {
            assert!(c > 300 && c < 3000, "count {c}");
        }
    }

    #[test]
    fn zipf_skewed_head_is_hot() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = SimRng::seed(3);
        let mut head = 0u32;
        const N: u32 = 100_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Top-10 of 1000 keys should attract >30% of accesses at 0.99 skew.
        assert!(head > N * 3 / 10, "head share {head}/{N}");
    }

    /// The guide-started scan against `partition_point` and, on the
    /// strictly increasing tables every exponent here builds, against the
    /// binary search it replaced: random draws, draws equal to a CDF
    /// value and the floats on either side of one, and the extremes.
    #[test]
    fn zipf_guide_matches_the_searches() {
        use crate::{prop_assert, prop_assert_eq};
        crate::prop::check("zipf_guide_matches_the_searches", |g| {
            let n = if g.bool() {
                g.usize(1..64)
            } else {
                g.usize(1..5_001)
            };
            let theta = [0.0, 0.5, 0.99, 1.5][g.usize(0..4)];
            let z = Zipf::new(n, theta);
            let cdf = &z.cdf;
            prop_assert!(
                cdf.windows(2).all(|w| w[0] < w[1]),
                "n {n}, theta {theta}: CDF not strictly increasing"
            );
            let mut draws: Vec<f64> = (0..256).map(|_| g.f64_unit()).collect();
            for _ in 0..64 {
                let c = cdf[g.usize(0..n)];
                draws.extend([
                    c,
                    f64::from_bits(c.to_bits() - 1),
                    f64::from_bits(c.to_bits() + 1),
                ]);
            }
            draws.extend([0.0, 1.0 - f64::EPSILON / 2.0, 1.0]);
            for u in draws {
                let got = z.index_of(u);
                let first = cdf.partition_point(|&c| c < u).min(n - 1);
                prop_assert_eq!(got, first, "n {n}, theta {theta}, u {u:e}");
                let searched = match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("finite")) {
                    Ok(i) => i,
                    Err(i) => i.min(n - 1),
                };
                prop_assert_eq!(got, searched, "n {n}, theta {theta}, u {u:e}");
            }
            Ok(())
        });
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.1));
    }
}
