//! Deterministic page-access generation: working-set reuse + Zipf skew.
//!
//! Mirrors the access pattern far-memory papers assume: most accesses
//! hit a small, Zipf-skewed hot set; the remainder scatter uniformly
//! over the cold tail. Built on the forked-RNG discipline of
//! `simnet::arrivals` — each stream owns a `SimRng` fork, so the trace
//! is a pure function of the scenario seed regardless of worker count.

use simnet::rng::{SimRng, Zipf};

/// One generated access: which page and whether it stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageAccess {
    /// Page index in `0..n_pages`.
    pub page: u64,
    /// `true` when the access dirties the page.
    pub write: bool,
}

/// A deterministic generator of [`PageAccess`]es.
pub struct PageAccessGen {
    rng: SimRng,
    zipf: Zipf,
    n_pages: u64,
    working_set: u64,
    reuse: f64,
    write_fraction: f64,
}

impl PageAccessGen {
    /// Build a generator owning the forked `rng`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < working_set <= n_pages`.
    pub fn new(
        rng: SimRng,
        n_pages: u64,
        working_set: u64,
        reuse: f64,
        theta: f64,
        write_fraction: f64,
    ) -> Self {
        let zipf = Zipf::new(working_set as usize, theta);
        Self::with_zipf(rng, zipf, n_pages, working_set, reuse, write_fraction)
    }

    /// Like [`PageAccessGen::new`], but drawing hot pages from `zipf`, a
    /// table over the `working_set` pages that every generator of one
    /// stream shares.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < working_set <= n_pages`.
    pub fn with_zipf(
        rng: SimRng,
        zipf: Zipf,
        n_pages: u64,
        working_set: u64,
        reuse: f64,
        write_fraction: f64,
    ) -> Self {
        assert!(working_set > 0, "empty working set");
        assert!(working_set <= n_pages, "working set exceeds page space");
        PageAccessGen {
            rng,
            zipf,
            n_pages,
            working_set,
            reuse,
            write_fraction,
        }
    }

    /// Draw the next access. Hot draws sample the Zipf distribution
    /// over the working set; cold draws are uniform over the tail
    /// (falling back to the working set when there is no tail).
    pub fn next_access(&mut self) -> PageAccess {
        let write = self.rng.chance(self.write_fraction);
        let hot = self.rng.chance(self.reuse);
        let page = if hot || self.working_set == self.n_pages {
            self.zipf.sample(&mut self.rng) as u64
        } else {
            self.working_set + self.rng.uniform_u64(self.n_pages - self.working_set)
        };
        PageAccess { page, write }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(seed: u64, reuse: f64, theta: f64) -> PageAccessGen {
        PageAccessGen::new(SimRng::seed(seed), 1 << 16, 2048, reuse, theta, 0.2)
    }

    #[test]
    fn trace_is_deterministic() {
        let mut a = gen(7, 0.9, 0.99);
        let mut b = gen(7, 0.9, 0.99);
        for _ in 0..1000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn high_reuse_concentrates_in_working_set() {
        let mut g = gen(11, 0.9, 0.99);
        let n = 10_000;
        let hot = (0..n).filter(|_| g.next_access().page < 2048).count() as f64;
        assert!(hot / n as f64 > 0.85, "hot fraction {}", hot / n as f64);
    }

    #[test]
    fn flat_pattern_spreads_over_whole_space() {
        let mut g = gen(13, 0.0, 0.0);
        let n = 10_000;
        let hot = (0..n).filter(|_| g.next_access().page < 2048).count() as f64;
        // 2048/65536 = 3.125 % of the space.
        assert!(hot / (n as f64) < 0.08, "hot fraction {}", hot / n as f64);
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut g = gen(17, 0.9, 0.99);
        let n = 10_000;
        let writes = (0..n).filter(|_| g.next_access().write).count() as f64;
        let frac = writes / n as f64;
        assert!((0.15..0.25).contains(&frac), "write fraction {frac}");
    }
}
