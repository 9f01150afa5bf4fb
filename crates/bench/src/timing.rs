//! Minimal in-tree wall-clock benchmark harness.
//!
//! Replaces the external benchmark framework with a few dependency-free
//! pages: each benchmark runs a warmup phase, then N timed iterations,
//! and reports min/mean/p50/p99 per iteration. Optimization barriers use
//! [`std::hint::black_box`] (re-exported as [`black_box`]).
//!
//! Environment knobs (validated uniformly at harness construction — a
//! bad value fails immediately with the offending name and value, never
//! mid-run):
//!
//! * `BENCH_SAMPLES=<n>` — timed iterations per benchmark (default set
//!   per bench binary); must be an unsigned integer >= 1;
//! * `BENCH_WARMUP=<n>`  — warmup iterations (default 3); must be an
//!   unsigned integer (0 disables warmup and is valid).
//!
//! Unlike the simulators, which are bit-for-bit deterministic, wall
//! times are inherently noisy; the harness reports distribution summary
//! statistics and leaves regression judgement to the reader.

use std::time::Instant;

pub use std::hint::black_box;

/// A benchmark runner: warmup + sample count configuration plus a
/// uniform report format.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    samples: usize,
    warmup: usize,
}

/// Parses one environment knob value. Pure so the validation rules are
/// unit-testable without touching the process environment: the value
/// must be an unsigned integer and at least `min` (`min = 1` for sample
/// counts, `min = 0` for warmup counts).
fn parse_knob(name: &str, raw: &str, min: usize) -> Result<usize, String> {
    let v: usize = raw
        .trim()
        .parse()
        .map_err(|_| format!("{name}={raw:?} is not an unsigned integer"))?;
    if v < min {
        return Err(format!(
            "{name}={v} is out of range: must be at least {min}"
        ));
    }
    Ok(v)
}

/// Reads an environment knob, failing fast with a uniform, clear error
/// for *both* malformed and out-of-range values (historically
/// `BENCH_SAMPLES=0` was silently clamped to 1 while `BENCH_SAMPLES=x`
/// panicked mid-run with a misleading message).
fn env_knob(name: &str, default: usize, min: usize) -> usize {
    match std::env::var(name) {
        Ok(v) => match parse_knob(name, &v, min) {
            Ok(v) => v,
            Err(msg) => panic!("{msg}"),
        },
        Err(_) => default,
    }
}

impl Bench {
    /// A runner taking `default_samples` timed iterations per benchmark
    /// (overridable with `BENCH_SAMPLES`, which must be >= 1) after
    /// `BENCH_WARMUP` (default 3, 0 allowed) warmup iterations.
    pub fn from_env(default_samples: usize) -> Bench {
        Bench {
            samples: env_knob("BENCH_SAMPLES", default_samples.max(1), 1),
            warmup: env_knob("BENCH_WARMUP", 3, 0),
        }
    }

    /// Times `f`, printing a one-line summary keyed by `name`.
    ///
    /// The closure's return value is passed through [`black_box`] so the
    /// compiler cannot elide the measured work.
    pub fn run<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        self.run_batched(name, || (), |()| f());
    }

    /// Like [`Bench::run`] but with a per-iteration `setup` whose cost
    /// is excluded from the measurement (the former `iter_batched`).
    pub fn run_batched<S, R>(
        &self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        for _ in 0..self.warmup {
            black_box(routine(setup()));
        }
        let mut ns: Vec<u64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            ns.push(t0.elapsed().as_nanos() as u64);
        }
        ns.sort_unstable();
        let mean = ns.iter().sum::<u64>() as f64 / ns.len() as f64;
        let pct = |q: f64| ns[nearest_rank_index(q, ns.len())];
        println!(
            "{name:<44} min {:>10}  mean {:>10}  p50 {:>10}  p99 {:>10}  ({} samples)",
            fmt_ns(ns[0]),
            fmt_ns(mean as u64),
            fmt_ns(pct(50.0)),
            fmt_ns(pct(99.0)),
            ns.len()
        );
    }
}

/// Index of the nearest-rank percentile `q` in a sorted sample of size
/// `n >= 1`: rank `ceil(q/100 * n)` clamped to `[1, n]`, zero-based.
///
/// The previous formula rounded `q/100 * (n-1)`, which is neither
/// nearest-rank nor interpolation: with two samples it returned the
/// *maximum* as the median (`0.5 * 1` rounds to 1, and `round()` on the
/// half-way case rounds away from zero).
fn nearest_rank_index(q: f64, n: usize) -> usize {
    let rank = (q / 100.0 * n as f64).ceil().max(1.0) as usize;
    rank.min(n) - 1
}

/// Formats a nanosecond duration with an adaptive unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_reports() {
        let b = Bench {
            samples: 5,
            warmup: 1,
        };
        let mut calls = 0u32;
        b.run("test/trivial", || {
            calls += 1;
            calls
        });
        // 1 warmup + 5 samples.
        assert_eq!(calls, 6);
    }

    #[test]
    fn batched_setup_runs_per_iteration() {
        let b = Bench {
            samples: 4,
            warmup: 2,
        };
        let mut setups = 0u32;
        b.run_batched(
            "test/batched",
            || {
                setups += 1;
            },
            |()| 0u8,
        );
        assert_eq!(setups, 6);
    }

    #[test]
    fn knob_validation_is_uniform() {
        // Samples: must be >= 1 — zero is rejected with a clear message,
        // never silently clamped.
        assert_eq!(parse_knob("BENCH_SAMPLES", "5", 1), Ok(5));
        assert_eq!(parse_knob("BENCH_SAMPLES", " 7 ", 1), Ok(7));
        let e = parse_knob("BENCH_SAMPLES", "0", 1).unwrap_err();
        assert!(
            e.contains("BENCH_SAMPLES=0") && e.contains("at least 1"),
            "{e}"
        );
        let e = parse_knob("BENCH_SAMPLES", "five", 1).unwrap_err();
        assert!(
            e.contains("BENCH_SAMPLES=\"five\"") && e.contains("not an unsigned integer"),
            "{e}"
        );
        // Warmup: 0 is a valid request (skip warmup), negatives and junk
        // fail with the same message shape as the samples knob.
        assert_eq!(parse_knob("BENCH_WARMUP", "0", 0), Ok(0));
        let e = parse_knob("BENCH_WARMUP", "-3", 0).unwrap_err();
        assert!(e.contains("BENCH_WARMUP=\"-3\""), "{e}");
        let e = parse_knob("BENCH_WARMUP", "1.5", 0).unwrap_err();
        assert!(e.contains("not an unsigned integer"), "{e}");
    }

    fn pct(samples: &[u64], q: f64) -> u64 {
        samples[nearest_rank_index(q, samples.len())]
    }

    #[test]
    fn percentiles_of_one_sample() {
        for q in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(pct(&[42], q), 42, "q={q}");
        }
    }

    #[test]
    fn percentiles_of_two_samples() {
        let m = [10, 20];
        assert_eq!(pct(&m, 0.0), 10);
        // Nearest-rank median of two samples is the *lower* one — the
        // old round() formula returned the maximum here.
        assert_eq!(pct(&m, 50.0), 10);
        assert_eq!(pct(&m, 99.0), 20);
        assert_eq!(pct(&m, 100.0), 20);
    }

    #[test]
    fn percentiles_of_three_samples() {
        let m = [10, 20, 30];
        assert_eq!(pct(&m, 0.0), 10);
        assert_eq!(pct(&m, 50.0), 20, "true median of 3");
        assert_eq!(pct(&m, 99.0), 30);
        assert_eq!(pct(&m, 100.0), 30);
        // Rank boundary: q covering exactly one sample stays on it.
        assert_eq!(pct(&m, 100.0 / 3.0), 10);
        assert_eq!(pct(&m, 34.0), 20);
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.500 us");
        assert_eq!(fmt_ns(2_500_000), "2.500 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
    }
}
