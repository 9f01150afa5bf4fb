//! Minimal in-tree property-testing harness.
//!
//! Replaces the external property-testing framework with a deterministic,
//! dependency-free equivalent: a property is a closure over a [`Gen`]
//! that draws a random case and returns `Err(message)` (usually via
//! [`prop_assert!`](crate::prop_assert)/
//! [`prop_assert_eq!`](crate::prop_assert_eq)) when the invariant is
//! violated. [`check`] runs the closure over a seeded case sequence and,
//! on failure, panics with the exact 64-bit case seed so the case
//! reproduces in isolation.
//!
//! Determinism: case seeds are derived (SplitMix64) from an FNV-1a hash
//! of the property name — no wall clock, no process entropy — so a given
//! binary always tests the same cases. Environment knobs:
//!
//! * `PROP_CASES=<n>` — cases per property (default 64);
//! * `PROP_SEED=<hex-or-dec>` — replay exactly one case with this seed,
//!   as printed by a failure.
//!
//! There is no input shrinking: cases are drawn smallest-range-first
//! often enough in practice, and the printed seed makes any failure
//! replayable under a debugger, which is what the simulator tests need.
//!
//! ```
//! use simnet::prop::{check, Gen};
//!
//! check("addition_commutes", |g: &mut Gen| {
//!     let (a, b) = (g.u64(0..1000), g.u64(0..1000));
//!     simnet::prop_assert_eq!(a + b, b + a);
//!     Ok(())
//! });
//! ```

use std::collections::HashSet;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::{splitmix64, SimRng};

/// Outcome of one property case: `Err` carries the failure message.
pub type CaseResult = Result<(), String>;

/// A seeded source of random test cases.
pub struct Gen {
    rng: SimRng,
}

impl Gen {
    /// A generator for one case, from that case's seed.
    pub fn from_seed(seed: u64) -> Gen {
        Gen {
            rng: SimRng::seed(seed),
        }
    }

    /// A uniform `u64` in `range` (half-open, like the former strategy
    /// syntax `lo..hi`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.rng.uniform_u64(range.end - range.start)
    }

    /// A uniform `u32` in `range`.
    pub fn u32(&mut self, range: Range<u32>) -> u32 {
        self.u64(range.start as u64..range.end as u64) as u32
    }

    /// A uniform `usize` in `range`.
    pub fn usize(&mut self, range: Range<usize>) -> usize {
        self.u64(range.start as u64..range.end as u64) as usize
    }

    /// Any `u64` (full 64-bit range).
    pub fn any_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        self.rng.uniform_f64()
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// A vector whose length is drawn from `len` and whose elements are
    /// produced by `item` (which may draw anything from the generator,
    /// including tuples).
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// A set of distinct `u64`s: up to `len.end - 1` draws from `values`,
    /// deduplicated, with at least `len.start` distinct elements
    /// guaranteed (requires the value range to be at least that wide).
    pub fn hash_set_u64(&mut self, values: Range<u64>, len: Range<usize>) -> HashSet<u64> {
        let target = self.usize(len.clone());
        let mut set = HashSet::with_capacity(target);
        // Rejection-sample; the ranges used in tests are far wider than
        // the set sizes, so this terminates quickly. Cap the attempts to
        // stay total on adversarial (narrow) ranges.
        let mut attempts = 0usize;
        while set.len() < target.max(len.start) && attempts < 64 * target.max(1) {
            set.insert(self.u64(values.clone()));
            attempts += 1;
        }
        set
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{name}={raw:?} is not a decimal or 0x-hex u64"),
    }
}

/// FNV-1a, used to give every property its own deterministic seed
/// sequence so properties cannot mask each other by sharing cases.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `property` over a deterministic sequence of seeded cases and
/// panics, printing the reproducing seed, on the first failure.
///
/// A failure is either an `Err` returned by the closure (the
/// [`prop_assert!`](crate::prop_assert) family) or a panic escaping it
/// (an `assert!` deep in library code); both are reported with the case
/// seed.
///
/// # Panics
///
/// Panics if any case fails, with a message of the form
/// `property <name> failed ... rerun with PROP_SEED=0x...`.
pub fn check<F>(name: &str, property: F)
where
    F: Fn(&mut Gen) -> CaseResult,
{
    if let Some(seed) = env_u64("PROP_SEED") {
        run_case(name, &property, seed, 0, 1);
        return;
    }
    let cases = env_u64("PROP_CASES").unwrap_or(64).max(1);
    let mut state = fnv1a(name);
    for i in 0..cases {
        let seed = splitmix64(&mut state);
        run_case(name, &property, seed, i, cases);
    }
}

fn run_case<F>(name: &str, property: &F, seed: u64, i: u64, cases: u64)
where
    F: Fn(&mut Gen) -> CaseResult,
{
    let mut g = Gen::from_seed(seed);
    match catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
        Ok(Ok(())) => {}
        Ok(Err(msg)) => panic!(
            "property {name} failed at case {i}/{cases} (seed {seed:#018x}): {msg}\n\
             rerun just this case with PROP_SEED={seed:#x}"
        ),
        Err(payload) => {
            eprintln!(
                "property {name} panicked at case {i}/{cases} (seed {seed:#018x}); \
                 rerun just this case with PROP_SEED={seed:#x}"
            );
            resume_unwind(payload);
        }
    }
}

/// Asserts a condition inside a property, returning `Err` (with an
/// optional formatted message) instead of panicking so the harness can
/// attach the case seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Asserts two expressions are equal inside a property, reporting both
/// values on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                l,
                r
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut n = 0u32;
        let counter = std::cell::Cell::new(0u32);
        check("always_true", |g| {
            let _ = g.u64(0..10);
            counter.set(counter.get() + 1);
            Ok(())
        });
        n += counter.get();
        assert_eq!(n, 64, "default case count");
    }

    #[test]
    fn failing_property_reports_seed() {
        let err = catch_unwind(|| {
            check("always_false", |_| Err("boom".into()));
        })
        .expect_err("property should fail");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries a message");
        assert!(msg.contains("PROP_SEED=0x"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn cases_are_deterministic_per_name() {
        let collect = || {
            let out = std::cell::RefCell::new(Vec::new());
            check("stream_pin", |g| {
                out.borrow_mut().push(g.any_u64());
                Ok(())
            });
            out.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn distinct_names_get_distinct_cases() {
        let first = std::cell::Cell::new(0u64);
        check("name_a", |g| {
            if first.get() == 0 {
                first.set(g.any_u64());
            }
            Ok(())
        });
        let second = std::cell::Cell::new(0u64);
        check("name_b", |g| {
            if second.get() == 0 {
                second.set(g.any_u64());
            }
            Ok(())
        });
        assert_ne!(first.get(), second.get());
    }

    #[test]
    fn ranges_are_half_open() {
        check("half_open", |g| {
            let v = g.u64(3..7);
            prop_assert!((3..7).contains(&v), "{v} out of 3..7");
            let u = g.usize(1..2);
            prop_assert_eq!(u, 1);
            Ok(())
        });
    }

    #[test]
    fn vec_and_set_respect_bounds() {
        check("collections", |g| {
            let v = g.vec(1..9, |g| g.u64(0..100));
            prop_assert!((1..9).contains(&v.len()));
            let s = g.hash_set_u64(0..1_000_000, 1..33);
            prop_assert!(!s.is_empty() && s.len() < 33);
            Ok(())
        });
    }
}
