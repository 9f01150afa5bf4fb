//! Simulated-time primitives.
//!
//! All simulation time is kept in integer nanoseconds ([`Nanos`]) so that
//! event ordering is exact and runs are bit-for-bit reproducible. Bandwidth
//! is kept as bytes-per-second ([`Bandwidth`]) with explicit, lossy
//! conversions to durations.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in nanoseconds.
///
/// The simulator never consults the wall clock; every timestamp is derived
/// from [`Nanos::ZERO`] plus modelled delays, which keeps runs deterministic.
///
/// # Examples
///
/// ```
/// use simnet::time::Nanos;
///
/// let t = Nanos::from_micros(2) + Nanos::new(500);
/// assert_eq!(t.as_nanos(), 2_500);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The origin of simulated time.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable instant (used as "never").
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a timestamp from raw nanoseconds.
    #[inline]
    pub const fn new(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a duration from a floating-point number of nanoseconds,
    /// rounding to the nearest representable value (halves away from
    /// zero, as [`f64::round`]).
    ///
    /// Negative or non-finite inputs saturate to zero.
    #[inline]
    pub fn from_nanos_f64(ns: f64) -> Self {
        // On `[1, 2^52)` the ulp is at most 0.5, so `ns + 0.5` is exact
        // below the next power of two, and truncating it is `round`; a sum
        // that reaches the power is at most half past it, and `round`
        // gives that power too. On the baseline x86-64 target `round` is
        // a software call, and every pipe reservation would make it.
        if (1.0..EXACT_HALF_UP).contains(&ns) {
            Nanos((ns + 0.5) as u64)
        } else if ns.is_finite() && ns > 0.0 {
            Nanos(ns.round() as u64)
        } else {
            Nanos(0)
        }
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration expressed in (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This duration expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; clamps at zero instead of wrapping.
    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, rhs: Nanos) -> Nanos {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, rhs: Nanos) -> Nanos {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }
}

/// 2^52: the bound of [`Nanos::from_nanos_f64`]'s add-a-half rounding.
const EXACT_HALF_UP: f64 = (1u64 << 52) as f64;

/// The measured span of a run of `duration` whose first `warmup` is
/// discarded: `duration - warmup`. Equal values give an empty window.
///
/// # Panics
///
/// Panics, in every build, if the warmup ends after the run.
pub fn measured_window(warmup: Nanos, duration: Nanos) -> Nanos {
    assert!(
        warmup <= duration,
        "warmup ({warmup}) exceeds duration ({duration})"
    );
    duration - warmup
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A transfer rate in bytes per second.
///
/// Network marketing units (Gbps = 10^9 bits/s) and memory units
/// (GiB/s) are both supported; internally everything is bytes/s.
///
/// # Examples
///
/// ```
/// use simnet::time::Bandwidth;
///
/// let link = Bandwidth::gbps(200.0);
/// // 25 GB/s: transferring 25 bytes takes 1 ns.
/// assert_eq!(link.transfer_time(25).as_nanos(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// Zero bandwidth. Useful as an "unconstrained by bytes" sentinel in
    /// combination with [`Bandwidth::is_zero`].
    pub const ZERO: Bandwidth = Bandwidth { bytes_per_sec: 0.0 };

    /// Creates a bandwidth from raw bytes per second.
    #[inline]
    pub const fn bytes_per_sec(b: f64) -> Self {
        Bandwidth { bytes_per_sec: b }
    }

    /// `bytes` moved over `window`: zero over an empty window, like
    /// [`Rate::over`].
    pub fn over(bytes: u64, window: Nanos) -> Self {
        Bandwidth::bytes_per_sec(Rate::over(bytes, window).as_per_sec())
    }

    /// Creates a bandwidth from gigabits per second (10^9 bits).
    #[inline]
    pub fn gbps(g: f64) -> Self {
        Bandwidth {
            bytes_per_sec: g * 1e9 / 8.0,
        }
    }

    /// Creates a bandwidth from gigabytes per second (10^9 bytes).
    #[inline]
    pub fn gigabytes_per_sec(g: f64) -> Self {
        Bandwidth {
            bytes_per_sec: g * 1e9,
        }
    }

    /// Bandwidth in gigabits per second.
    #[inline]
    pub fn as_gbps(self) -> f64 {
        self.bytes_per_sec * 8.0 / 1e9
    }

    /// Bandwidth in bytes per second.
    #[inline]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.bytes_per_sec
    }

    /// Whether this bandwidth is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.bytes_per_sec == 0.0
    }

    /// Time to push `bytes` through this bandwidth, rounded to whole
    /// nanoseconds (at least 1 ns for a non-empty transfer).
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is zero and `bytes > 0`; callers must treat
    /// zero bandwidth as "not byte-limited" before calling.
    #[inline]
    pub fn transfer_time(self, bytes: u64) -> Nanos {
        if bytes == 0 {
            return Nanos::ZERO;
        }
        assert!(
            self.bytes_per_sec > 0.0,
            "transfer over zero bandwidth is undefined"
        );
        let ns = bytes as f64 * 1e9 / self.bytes_per_sec;
        Nanos::from_nanos_f64(ns.max(1.0))
    }

    /// Scales the bandwidth by a factor (e.g. protocol efficiency).
    #[inline]
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth {
            bytes_per_sec: self.bytes_per_sec * factor,
        }
    }

    /// The smaller of two bandwidths.
    #[inline]
    pub fn min(self, rhs: Bandwidth) -> Bandwidth {
        if self.bytes_per_sec <= rhs.bytes_per_sec {
            self
        } else {
            rhs
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} Gbps", self.as_gbps())
    }
}

/// A processing rate in items per second (e.g. packets/s, requests/s).
///
/// # Examples
///
/// ```
/// use simnet::time::Rate;
///
/// let nic = Rate::per_sec(195e6);
/// assert!(nic.service_time(1).as_nanos() >= 5);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Rate {
    per_sec: f64,
}

impl Rate {
    /// Creates a rate from items per second.
    #[inline]
    pub const fn per_sec(r: f64) -> Self {
        Rate { per_sec: r }
    }

    /// `count` items over `window`: zero over an empty window, whose
    /// quotient would be NaN.
    pub fn over(count: u64, window: Nanos) -> Self {
        if window == Nanos::ZERO {
            return Rate::per_sec(0.0);
        }
        Rate::per_sec(count as f64 / window.as_secs_f64())
    }

    /// Creates a rate from millions of items per second.
    #[inline]
    pub fn mops(m: f64) -> Self {
        Rate { per_sec: m * 1e6 }
    }

    /// Items per second.
    #[inline]
    pub fn as_per_sec(self) -> f64 {
        self.per_sec
    }

    /// Items per second, in millions.
    #[inline]
    pub fn as_mops(self) -> f64 {
        self.per_sec / 1e6
    }

    /// Time to process `n` items at this rate (fractional ns rounded).
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero and `n > 0`.
    #[inline]
    pub fn service_time(self, n: u64) -> Nanos {
        if n == 0 {
            return Nanos::ZERO;
        }
        assert!(self.per_sec > 0.0, "service at zero rate is undefined");
        Nanos::from_nanos_f64((n as f64 * 1e9 / self.per_sec).max(1.0))
    }

    /// Scales the rate by a factor.
    #[inline]
    pub fn scale(self, factor: f64) -> Rate {
        Rate {
            per_sec: self.per_sec * factor,
        }
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} M/s", self.as_mops())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::new(100);
        let b = Nanos::from_micros(1);
        assert_eq!((a + b).as_nanos(), 1_100);
        assert_eq!((b - a).as_nanos(), 900);
        assert_eq!((a * 3).as_nanos(), 300);
        assert_eq!((b / 4).as_nanos(), 250);
    }

    #[test]
    fn nanos_saturating_sub_clamps() {
        assert_eq!(Nanos::new(5).saturating_sub(Nanos::new(9)), Nanos::ZERO);
    }

    #[test]
    fn measured_window_allows_an_empty_run() {
        let t = Nanos::from_micros(3);
        assert_eq!(measured_window(t, t), Nanos::ZERO);
        assert_eq!(measured_window(Nanos::ZERO, t), t);
    }

    #[test]
    fn nanos_ordering_and_minmax() {
        let a = Nanos::new(1);
        let b = Nanos::new(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn nanos_display_units() {
        assert_eq!(format!("{}", Nanos::new(12)), "12ns");
        assert_eq!(format!("{}", Nanos::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", Nanos::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(1)), "1.000s");
    }

    #[test]
    fn nanos_from_f64_saturates() {
        assert_eq!(Nanos::from_nanos_f64(-3.0), Nanos::ZERO);
        assert_eq!(Nanos::from_nanos_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_nanos_f64(2.6), Nanos::new(3));
    }

    /// `from_nanos_f64` as it was before its add-a-half fast path.
    fn rounded(ns: f64) -> u64 {
        if ns.is_finite() && ns > 0.0 {
            ns.round() as u64
        } else {
            0
        }
    }

    /// The fast path is `round()` exactly: on the edges of its range and
    /// of the halves, and on random bit patterns of either sign in every
    /// binade from 2^-4 to 2^66.
    #[test]
    fn from_nanos_f64_matches_round() {
        let p52 = (1u64 << 52) as f64;
        let edges = [
            0.49999999999999994,
            0.5,
            1.0,
            1.5,
            2.5,
            p52 - 0.5,
            p52 - 1.5,
            p52,
            p52 + 1.0,
            (1u64 << 53) as f64,
            u64::MAX as f64,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            -0.5,
            -1.5,
            f64::MIN_POSITIVE,
        ];
        for ns in edges {
            assert_eq!(Nanos::from_nanos_f64(ns).as_nanos(), rounded(ns), "{ns:e}");
        }
        crate::prop::check("from_nanos_f64_matches_round", |g| {
            for _ in 0..256 {
                let exponent = g.u64(1023 - 4..1023 + 67);
                let bits = (u64::from(g.bool()) << 63) | (exponent << 52) | g.u64(0..1 << 52);
                let ns = f64::from_bits(bits);
                crate::prop_assert_eq!(Nanos::from_nanos_f64(ns).as_nanos(), rounded(ns), "{ns:e}");
                // The nearest halves and their neighbours.
                let half = ns.trunc() + 0.5;
                for x in [
                    half,
                    f64::from_bits(half.to_bits() - 1),
                    f64::from_bits(half.to_bits() + 1),
                ] {
                    crate::prop_assert_eq!(
                        Nanos::from_nanos_f64(x).as_nanos(),
                        rounded(x),
                        "{x:e}"
                    );
                }
            }
            Ok(())
        });
    }

    #[test]
    fn bandwidth_round_trip() {
        let bw = Bandwidth::gbps(200.0);
        assert!((bw.as_gbps() - 200.0).abs() < 1e-9);
        // 200 Gbps is 25 bytes/ns: 4 KiB takes ~164 ns.
        let t = bw.transfer_time(4096);
        assert!(t.as_nanos() >= 163 && t.as_nanos() <= 165, "{t:?}");
    }

    #[test]
    fn bandwidth_zero_bytes_is_free() {
        assert_eq!(Bandwidth::gbps(1.0).transfer_time(0), Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn bandwidth_zero_panics_on_transfer() {
        let _ = Bandwidth::ZERO.transfer_time(1);
    }

    #[test]
    fn rate_service_time() {
        let r = Rate::mops(100.0); // 10 ns per item
        assert_eq!(r.service_time(1).as_nanos(), 10);
        assert_eq!(r.service_time(10).as_nanos(), 100);
        assert_eq!(r.service_time(0), Nanos::ZERO);
    }

    #[test]
    fn bandwidth_min_and_scale() {
        let a = Bandwidth::gbps(100.0);
        let b = Bandwidth::gbps(200.0);
        assert_eq!(a.min(b), a);
        assert!((b.scale(0.5).as_gbps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn nanos_sum() {
        let total: Nanos = [Nanos::new(1), Nanos::new(2), Nanos::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Nanos::new(6));
    }
}
