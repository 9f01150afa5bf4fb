//! Deterministic fault injection.
//!
//! A [`FaultSpec`] describes seeded, schedulable fault processes — wire
//! packet loss/corruption, per-crossing PCIe TLP corruption, PCIe link
//! degradation windows (Gen4 -> Gen1 retraining on the Bluefield-2) and
//! transient SoC-core stalls. A [`FaultPlane`] turns the spec into
//! verdicts the simulators consult.
//!
//! Two properties drive the design:
//!
//! * **Order independence.** Every stochastic verdict is a pure hash of
//!   `(seed, fault key)` via SplitMix64 — there is no shared RNG stream
//!   whose state would depend on the order in which requests are
//!   simulated. Cluster shards running under any worker count therefore
//!   see identical verdicts, preserving the runtime's worker-count
//!   determinism (see `cluster::runtime`).
//! * **Zero cost when off.** An inert spec ([`FaultSpec::is_inert`])
//!   installs no plane at all, so the healthy-path simulation performs
//!   no hashing, no extra branches inside resource reservations, and no
//!   event-schedule changes — outputs stay byte-identical to a build
//!   without the fault plane.
//!
//! Time-indexed faults (degradation windows, stalls) are *scheduled*,
//! not stochastic: they are `[from, to)` windows in simulated time, so
//! they too are independent of simulation order.

use crate::rng::splitmix64;
use crate::time::Nanos;

/// A scheduled PCIe degradation window: between `from` and `to` the
/// affected links serve transfers `slowdown` times slower and each hop
/// pays `extra_latency` (link retraining to a lower generation/width).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedWindow {
    /// Window start (inclusive).
    pub from: Nanos,
    /// Window end (exclusive).
    pub to: Nanos,
    /// Service-time multiplier (>= 1.0; e.g. Gen4 x8 -> Gen1 x8 = 12.8).
    pub slowdown: f64,
    /// Additional per-hop propagation latency while degraded.
    pub extra_latency: Nanos,
}

impl DegradedWindow {
    /// Whether the window covers instant `at`.
    pub fn covers(&self, at: Nanos) -> bool {
        self.from <= at && at < self.to
    }

    /// Whether the window would change any behaviour at all.
    pub fn is_inert(&self) -> bool {
        self.from >= self.to || (self.slowdown <= 1.0 && self.extra_latency == Nanos::ZERO)
    }
}

/// A scheduled transient SoC-core stall: message handling on the SoC
/// pays `stall` extra service time inside the window (e.g. a firmware
/// interrupt storm or thermal throttle on the A72 cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallWindow {
    /// Window start (inclusive).
    pub from: Nanos,
    /// Window end (exclusive).
    pub to: Nanos,
    /// Extra per-message service time while stalled.
    pub stall: Nanos,
}

impl StallWindow {
    /// Whether the window covers instant `at`.
    pub fn covers(&self, at: Nanos) -> bool {
        self.from <= at && at < self.to
    }

    /// Whether the window would change any behaviour at all.
    pub fn is_inert(&self) -> bool {
        self.from >= self.to || self.stall == Nanos::ZERO
    }
}

/// A complete fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed mixed into every stochastic verdict.
    pub seed: u64,
    /// Probability a network-wire crossing loses the frame.
    pub wire_loss: f64,
    /// Probability a network-wire crossing corrupts the frame (detected
    /// by CRC at the receiver; indistinguishable from loss to the
    /// transport).
    pub wire_corrupt: f64,
    /// Probability one PCIe1 crossing corrupts a TLP of the request
    /// (detected by LCRC; the transport-level attempt fails).
    pub pcie_corrupt: f64,
    /// Scheduled PCIe degradation windows.
    pub pcie_windows: Vec<DegradedWindow>,
    /// Scheduled SoC-core stall windows.
    pub soc_stalls: Vec<StallWindow>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultSpec {
    /// The healthy-hardware spec: no faults at all.
    pub fn none() -> Self {
        FaultSpec {
            seed: 0,
            wire_loss: 0.0,
            wire_corrupt: 0.0,
            pcie_corrupt: 0.0,
            pcie_windows: Vec::new(),
            soc_stalls: Vec::new(),
        }
    }

    /// Sets the verdict seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-crossing wire loss probability.
    pub fn with_wire_loss(mut self, p: f64) -> Self {
        self.wire_loss = p;
        self
    }

    /// Sets the per-crossing wire corruption probability.
    pub fn with_wire_corrupt(mut self, p: f64) -> Self {
        self.wire_corrupt = p;
        self
    }

    /// Sets the per-crossing PCIe1 TLP corruption probability.
    pub fn with_pcie_corrupt(mut self, p: f64) -> Self {
        self.pcie_corrupt = p;
        self
    }

    /// Adds a PCIe degradation window.
    pub fn with_pcie_window(mut self, w: DegradedWindow) -> Self {
        self.pcie_windows.push(w);
        self
    }

    /// Adds an SoC stall window.
    pub fn with_soc_stall(mut self, w: StallWindow) -> Self {
        self.soc_stalls.push(w);
        self
    }

    /// Whether this schedule can never change any behaviour. Inert specs
    /// install no [`FaultPlane`], keeping the healthy path byte-identical
    /// to a build without fault injection.
    pub fn is_inert(&self) -> bool {
        self.wire_loss <= 0.0
            && self.wire_corrupt <= 0.0
            && self.pcie_corrupt <= 0.0
            && self.pcie_windows.iter().all(DegradedWindow::is_inert)
            && self.soc_stalls.iter().all(StallWindow::is_inert)
    }
}

/// Mixes an identity tuple into a single fault key. Callers pass the
/// coordinates that make a decision unique (e.g. queue pair, work
/// request, attempt number); equal coordinates always produce the same
/// verdict, independent of simulation order.
pub fn fault_key(parts: &[u64]) -> u64 {
    let mut state = 0x006f_6666_7061_7468_u64; // "offpath"
    for &p in parts {
        state ^= p;
        let _ = splitmix64(&mut state);
    }
    state
}

/// Outcome of [`drive_attempts`]: the last attempt's result plus the
/// retry accounting every transport site needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryOutcome<T> {
    /// The final attempt's result (the successful one, or — when
    /// `exhausted` — the last failed one, for callers that serve the
    /// operation anyway).
    pub result: T,
    /// Retransmissions performed (failed attempts that were followed by
    /// another attempt). Feeds `retransmits`-style counters.
    pub retries: u32,
    /// Whether the retry budget ran out (the final attempt also failed).
    pub exhausted: bool,
    /// Simulated start instant of the final attempt. An exhausted
    /// requester gives up one `timeout` after this.
    pub last_start: Nanos,
}

/// Drives a reliable-transport retry loop: run `attempt` at `start`,
/// and while it reports failure, retry one `timeout` later, up to
/// `budget` retransmissions before declaring exhaustion.
///
/// The closure receives the attempt's start instant and its 0-based
/// attempt number, performs the work (burning full fabric resources —
/// loss is detected only after the transfer crossed every hop), and
/// returns `(result, failed)`. The verdict is typically
/// [`FaultPlane::attempt_fails`] over a [`fault_key`] identity that
/// includes the attempt number, rolled once per wire/PCIe1 crossing —
/// which is why path ③ (two PCIe1 crossings per attempt) retries
/// roughly twice as often as path ① at equal corruption rates.
///
/// This is the one retry engine shared by the single-machine harness,
/// the cluster's path-③ streams, the KV value fetch, the far-memory
/// tier and the RC queue pairs of the verbs API, so the crossing cost
/// model lands once.
pub fn drive_attempts<T>(
    start: Nanos,
    timeout: Nanos,
    budget: u32,
    mut attempt: impl FnMut(Nanos, u32) -> (T, bool),
) -> RetryOutcome<T> {
    let mut t = start;
    let mut n: u32 = 0;
    loop {
        let (result, failed) = attempt(t, n);
        if !failed || n >= budget {
            return RetryOutcome {
                result,
                retries: n,
                exhausted: failed,
                last_start: t,
            };
        }
        n += 1;
        t += timeout;
    }
}

/// The runtime view of a [`FaultSpec`]: verdicts and window lookups.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    spec: FaultSpec,
}

impl FaultPlane {
    /// Builds a plane. Returns `None` for inert specs so the caller's
    /// `Option<FaultPlane>` gate keeps the healthy path branch-free.
    pub fn new(spec: FaultSpec) -> Option<Self> {
        if spec.is_inert() {
            None
        } else {
            Some(FaultPlane { spec })
        }
    }

    /// The underlying schedule.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// A deterministic unit-interval coin for `key` under salt `salt`.
    fn coin(&self, key: u64, salt: u64) -> f64 {
        let mut state = self.spec.seed ^ key.rotate_left(17) ^ salt.wrapping_mul(0x9E37);
        let raw = splitmix64(&mut state);
        // 53-bit mantissa -> uniform in [0, 1).
        (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether one network-wire crossing of the identified transfer is
    /// lost or corrupted (CRC-detected at the receiver; either way the
    /// attempt fails). `crossing` distinguishes the request and response
    /// legs of one attempt.
    pub fn wire_verdict(&self, key: u64, crossing: u64) -> bool {
        self.coin(key, crossing << 1) < self.spec.wire_loss
            || self.coin(key, (crossing << 1) | 1) < self.spec.wire_corrupt
    }

    /// Whether one PCIe1 crossing of the identified transfer corrupts a
    /// TLP (LCRC-detected; the transport-level attempt fails).
    pub fn pcie_verdict(&self, key: u64, crossing: u64) -> bool {
        self.coin(key, 0x8000_0000_0000_0000 | crossing) < self.spec.pcie_corrupt
    }

    /// Whether one transport attempt fails, given how many wire and
    /// PCIe1 crossings it makes. This is the mechanistic source of the
    /// path asymmetry: a path-3 transfer crosses PCIe1 twice per attempt
    /// (read leg + write leg through the NIC), a path-1 transfer once,
    /// and a plain RNIC transfer not at all — so at equal per-crossing
    /// corruption rates the attempt-failure probability roughly doubles
    /// on path 3, doubling its retransmission rate.
    pub fn attempt_fails(&self, key: u64, wire_crossings: u64, pcie1_crossings: u64) -> bool {
        for c in 0..wire_crossings {
            if self.wire_verdict(key, c) {
                return true;
            }
        }
        for c in 0..pcie1_crossings {
            if self.pcie_verdict(key, c) {
                return true;
            }
        }
        false
    }

    /// Whether any stochastic (per-attempt) fault is configured. When
    /// false, transports can skip the retransmission machinery entirely.
    pub fn has_stochastic_faults(&self) -> bool {
        self.spec.wire_loss > 0.0 || self.spec.wire_corrupt > 0.0 || self.spec.pcie_corrupt > 0.0
    }

    /// Whether any scheduled window (degradation or stall) exists.
    pub fn has_windows(&self) -> bool {
        !self.spec.pcie_windows.is_empty() || !self.spec.soc_stalls.is_empty()
    }

    /// The PCIe degradation in effect at `at`: `(slowdown, extra_latency)`.
    /// Overlapping windows compose multiplicatively/additively.
    pub fn pcie_degradation(&self, at: Nanos) -> (f64, Nanos) {
        let mut slowdown = 1.0;
        let mut extra = Nanos::ZERO;
        for w in &self.spec.pcie_windows {
            if w.covers(at) {
                slowdown *= w.slowdown.max(1.0);
                extra += w.extra_latency;
            }
        }
        (slowdown, extra)
    }

    /// The SoC stall in effect at `at` (sum of covering windows).
    pub fn soc_stall(&self, at: Nanos) -> Nanos {
        let mut stall = Nanos::ZERO;
        for w in &self.spec.soc_stalls {
            if w.covers(at) {
                stall += w.stall;
            }
        }
        stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(p: f64) -> FaultPlane {
        FaultPlane::new(FaultSpec::none().with_seed(7).with_wire_loss(p)).expect("not inert")
    }

    #[test]
    fn inert_specs_install_no_plane() {
        assert!(FaultPlane::new(FaultSpec::none()).is_none());
        // Zero-rate + empty windows stays inert even with a seed.
        assert!(FaultPlane::new(FaultSpec::none().with_seed(99)).is_none());
        // Degenerate windows are inert too.
        let w = DegradedWindow {
            from: Nanos::new(100),
            to: Nanos::new(100),
            slowdown: 4.0,
            extra_latency: Nanos::ZERO,
        };
        assert!(FaultPlane::new(FaultSpec::none().with_pcie_window(w)).is_none());
        let s = StallWindow {
            from: Nanos::ZERO,
            to: Nanos::new(100),
            stall: Nanos::ZERO,
        };
        assert!(FaultPlane::new(FaultSpec::none().with_soc_stall(s)).is_none());
    }

    #[test]
    fn verdicts_are_pure_functions_of_key() {
        let p = lossy(0.5);
        for key in 0..2000u64 {
            assert_eq!(p.wire_verdict(key, 0), p.wire_verdict(key, 0));
        }
    }

    #[test]
    fn loss_rate_tracks_probability() {
        for &rate in &[0.01, 0.1, 0.5] {
            let p = lossy(rate);
            let n = 20_000u64;
            let hits = (0..n)
                .filter(|&k| p.wire_verdict(fault_key(&[k]), 0))
                .count() as f64;
            let got = hits / n as f64;
            assert!(
                (got - rate).abs() < 0.02 + rate * 0.2,
                "rate {rate}: observed {got}"
            );
        }
    }

    #[test]
    fn extreme_rates_are_certain() {
        let never = lossy(0.0 + f64::MIN_POSITIVE);
        let always = FaultPlane::new(FaultSpec::none().with_wire_loss(1.0)).expect("not inert");
        for k in 0..100 {
            assert!(always.wire_verdict(k, 0));
            let _ = never.wire_verdict(k, 0); // must not panic
        }
    }

    #[test]
    fn crossings_scale_attempt_failure() {
        // With per-crossing probability p, two PCIe1 crossings must fail
        // noticeably more often than one — the path-3 amplification.
        let plane = FaultPlane::new(FaultSpec::none().with_seed(3).with_pcie_corrupt(0.05))
            .expect("not inert");
        let n = 20_000u64;
        let one = (0..n)
            .filter(|&k| plane.attempt_fails(fault_key(&[k]), 0, 1))
            .count();
        let two = (0..n)
            .filter(|&k| plane.attempt_fails(fault_key(&[k]), 0, 2))
            .count();
        assert!(
            two as f64 > one as f64 * 1.5,
            "two crossings {two} !>> one crossing {one}"
        );
    }

    #[test]
    fn windows_compose() {
        let spec = FaultSpec::none()
            .with_pcie_window(DegradedWindow {
                from: Nanos::new(100),
                to: Nanos::new(200),
                slowdown: 2.0,
                extra_latency: Nanos::new(10),
            })
            .with_pcie_window(DegradedWindow {
                from: Nanos::new(150),
                to: Nanos::new(300),
                slowdown: 3.0,
                extra_latency: Nanos::new(5),
            });
        let p = FaultPlane::new(spec).expect("not inert");
        assert_eq!(p.pcie_degradation(Nanos::new(50)), (1.0, Nanos::ZERO));
        assert_eq!(p.pcie_degradation(Nanos::new(120)), (2.0, Nanos::new(10)));
        assert_eq!(p.pcie_degradation(Nanos::new(175)), (6.0, Nanos::new(15)));
        assert_eq!(p.pcie_degradation(Nanos::new(250)), (3.0, Nanos::new(5)));
        assert_eq!(p.pcie_degradation(Nanos::new(300)), (1.0, Nanos::ZERO));
    }

    #[test]
    fn soc_stalls_sum() {
        let spec = FaultSpec::none()
            .with_soc_stall(StallWindow {
                from: Nanos::ZERO,
                to: Nanos::new(100),
                stall: Nanos::new(40),
            })
            .with_soc_stall(StallWindow {
                from: Nanos::new(50),
                to: Nanos::new(150),
                stall: Nanos::new(60),
            });
        let p = FaultPlane::new(spec).expect("not inert");
        assert_eq!(p.soc_stall(Nanos::new(10)), Nanos::new(40));
        assert_eq!(p.soc_stall(Nanos::new(75)), Nanos::new(100));
        assert_eq!(p.soc_stall(Nanos::new(120)), Nanos::new(60));
        assert_eq!(p.soc_stall(Nanos::new(200)), Nanos::ZERO);
    }

    #[test]
    fn drive_attempts_success_counts_no_retry() {
        let o = drive_attempts(Nanos::new(100), Nanos::new(50), 7, |t, n| ((t, n), false));
        assert_eq!(o.result, (Nanos::new(100), 0));
        assert_eq!(o.retries, 0);
        assert!(!o.exhausted);
        assert_eq!(o.last_start, Nanos::new(100));
    }

    #[test]
    fn drive_attempts_retries_on_timeout_boundaries() {
        // Fail attempts 0 and 1, succeed on attempt 2: two retransmits,
        // each one timeout apart.
        let mut starts = Vec::new();
        let o = drive_attempts(Nanos::new(1000), Nanos::new(100), 7, |t, n| {
            starts.push((t, n));
            ((), n < 2)
        });
        assert_eq!(o.retries, 2);
        assert!(!o.exhausted);
        assert_eq!(o.last_start, Nanos::new(1200));
        assert_eq!(
            starts,
            vec![
                (Nanos::new(1000), 0),
                (Nanos::new(1100), 1),
                (Nanos::new(1200), 2)
            ]
        );
    }

    #[test]
    fn drive_attempts_exhaustion_spends_full_budget() {
        // Every attempt fails: budget+1 attempts run, `retries` counts
        // only the retransmitted ones, and the last (failed) result is
        // still returned for serve-anyway callers.
        let mut attempts = 0u32;
        let o = drive_attempts(Nanos::ZERO, Nanos::new(10), 3, |t, _| {
            attempts += 1;
            (t, true)
        });
        assert_eq!(attempts, 4);
        assert_eq!(o.retries, 3);
        assert!(o.exhausted);
        assert_eq!(o.last_start, Nanos::new(30));
        assert_eq!(o.result, Nanos::new(30));
    }

    #[test]
    fn drive_attempts_zero_budget_fails_fast() {
        let o = drive_attempts(Nanos::ZERO, Nanos::new(10), 0, |_, _| ((), true));
        assert_eq!(o.retries, 0);
        assert!(o.exhausted);
        assert_eq!(o.last_start, Nanos::ZERO);
    }

    #[test]
    fn fault_key_mixes_all_parts() {
        assert_ne!(fault_key(&[1, 2, 3]), fault_key(&[1, 2, 4]));
        assert_ne!(fault_key(&[1, 2, 3]), fault_key(&[3, 2, 1]));
        assert_eq!(fault_key(&[1, 2, 3]), fault_key(&[1, 2, 3]));
    }
}
