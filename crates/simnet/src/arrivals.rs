//! Open-loop arrival processes and bounded admission queues.
//!
//! Closed-loop load generation (a fixed window of outstanding requests
//! per thread) measures latency from the *actual* issue instant, which
//! hides tail latency by coordinated omission: when the system stalls,
//! the generator politely stops offering load, so the stall is recorded
//! once instead of once per op that should have been issued. The
//! open-loop tier fixes this in two parts:
//!
//! * an [`ArrivalGen`] produces *intended* arrival instants from a
//!   deterministic stochastic process ([`ArrivalProcess`]); offered load
//!   becomes a dial, decoupled from thread counts and completions, and
//!   latency is measured from the intended arrival;
//! * an [`AdmissionQueue`] bounds the server-side backlog explicitly,
//!   with drop-tail or drop-deadline policies, so overload sheds load
//!   visibly (drops are counted separately) instead of silently
//!   self-throttling.
//!
//! Each generator aggregates many logical users into one interleaved
//! arrival stream (arrivals carry a user id), so one client shard can
//! model millions of users. Everything is driven by [`SimRng`]: arrival
//! schedules are pure functions of the seed, which preserves the cluster
//! runtime's worker-count determinism.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::rng::SimRng;
use crate::time::Nanos;

/// A stochastic arrival process. All rates are arrivals per second of
/// simulated time; all processes are sampled exclusively through
/// [`SimRng`] draws.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate` per second.
    Poisson {
        /// Mean arrival rate [1/s].
        rate: f64,
    },
    /// Two-state Markov-modulated Poisson process (bursty traffic): the
    /// process alternates between a calm state emitting at `base_rate`
    /// and a burst state emitting at `burst_rate`, with exponentially
    /// distributed state dwell times.
    Mmpp {
        /// Arrival rate in the calm state [1/s].
        base_rate: f64,
        /// Arrival rate in the burst state [1/s].
        burst_rate: f64,
        /// Mean dwell time in the calm state.
        mean_base: Nanos,
        /// Mean dwell time in the burst state.
        mean_burst: Nanos,
    },
    /// Time-varying Poisson following a periodic rate schedule (a
    /// compressed diurnal curve): the instantaneous rate is `peak_rate`
    /// scaled by the profile slot covering the current phase of
    /// `period`. Sampled by thinning against the peak rate, which is
    /// exact for piecewise-constant profiles.
    Diurnal {
        /// Peak arrival rate [1/s]; the profile multiplies this.
        peak_rate: f64,
        /// Schedule period.
        period: Nanos,
        /// Rate multipliers in `[0, 1]`, one per equal slice of the
        /// period.
        profile: Vec<f64>,
    },
}

impl ArrivalProcess {
    /// Long-run mean arrival rate [1/s].
    pub fn mean_rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate } => *rate,
            ArrivalProcess::Mmpp {
                base_rate,
                burst_rate,
                mean_base,
                mean_burst,
            } => {
                let b = mean_base.as_secs_f64();
                let u = mean_burst.as_secs_f64();
                (base_rate * b + burst_rate * u) / (b + u)
            }
            ArrivalProcess::Diurnal {
                peak_rate, profile, ..
            } => peak_rate * profile.iter().sum::<f64>() / profile.len() as f64,
        }
    }

    /// The same process with every rate scaled by `factor` — used to
    /// split one offered-load dial evenly across client shards.
    pub fn scaled(&self, factor: f64) -> ArrivalProcess {
        match self.clone() {
            ArrivalProcess::Poisson { rate } => ArrivalProcess::Poisson {
                rate: rate * factor,
            },
            ArrivalProcess::Mmpp {
                base_rate,
                burst_rate,
                mean_base,
                mean_burst,
            } => ArrivalProcess::Mmpp {
                base_rate: base_rate * factor,
                burst_rate: burst_rate * factor,
                mean_base,
                mean_burst,
            },
            ArrivalProcess::Diurnal {
                peak_rate,
                period,
                profile,
            } => ArrivalProcess::Diurnal {
                peak_rate: peak_rate * factor,
                period,
                profile,
            },
        }
    }

    /// Validates the parameters; called by [`ArrivalGen::new`].
    fn validate(&self) {
        match self {
            ArrivalProcess::Poisson { rate } => {
                assert!(rate.is_finite() && *rate > 0.0, "Poisson rate {rate} <= 0");
            }
            ArrivalProcess::Mmpp {
                base_rate,
                burst_rate,
                mean_base,
                mean_burst,
            } => {
                assert!(
                    base_rate.is_finite() && *base_rate > 0.0,
                    "MMPP base rate {base_rate} <= 0"
                );
                assert!(
                    burst_rate.is_finite() && *burst_rate > 0.0,
                    "MMPP burst rate {burst_rate} <= 0"
                );
                assert!(
                    *mean_base > Nanos::ZERO && *mean_burst > Nanos::ZERO,
                    "MMPP dwell means must be positive"
                );
            }
            ArrivalProcess::Diurnal {
                peak_rate,
                period,
                profile,
            } => {
                assert!(
                    peak_rate.is_finite() && *peak_rate > 0.0,
                    "diurnal peak rate {peak_rate} <= 0"
                );
                assert!(*period > Nanos::ZERO, "diurnal period must be positive");
                assert!(!profile.is_empty(), "diurnal profile is empty");
                assert!(
                    profile.iter().all(|m| (0.0..=1.0).contains(m)),
                    "diurnal profile multipliers must be in [0, 1]"
                );
                assert!(
                    profile.iter().any(|m| *m > 0.0),
                    "diurnal profile is all-zero (no arrivals would ever occur)"
                );
            }
        }
    }
}

/// One intended arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Intended arrival instant (latency is measured from here).
    pub at: Nanos,
    /// Logical user issuing the op, in `[0, users)`.
    pub user: u64,
}

/// Deterministic open-loop arrival generator: repeatedly yields the
/// next intended arrival of an [`ArrivalProcess`], tagged with a logical
/// user id, consuming only [`SimRng`] draws.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: SimRng,
    users: u64,
    /// Last emitted arrival instant.
    now: Nanos,
    /// MMPP only: currently in the burst state?
    in_burst: bool,
    /// MMPP only: when the current state's dwell ends.
    state_until: Nanos,
}

/// Samples an exponential interval with mean `1/rate_per_sec` seconds.
fn exp_interval(rng: &mut SimRng, rate_per_sec: f64) -> Nanos {
    // uniform_f64() is in [0, 1); 1-u is in (0, 1] so ln() is finite.
    let u = rng.uniform_f64();
    Nanos::from_nanos_f64(-(1.0 - u).ln() / rate_per_sec * 1e9)
}

/// Samples an exponential dwell with the given mean.
fn exp_dwell(rng: &mut SimRng, mean: Nanos) -> Nanos {
    let u = rng.uniform_f64();
    Nanos::from_nanos_f64(-(1.0 - u).ln() * mean.as_nanos() as f64)
}

impl ArrivalGen {
    /// A generator for `process` aggregating `users` logical users,
    /// starting at t = 0 and drawing from `rng`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive rates, an empty or out-of-range diurnal
    /// profile, or `users == 0`.
    pub fn new(process: ArrivalProcess, users: u64, mut rng: SimRng) -> Self {
        process.validate();
        assert!(users > 0, "at least one logical user is required");
        let (in_burst, state_until) = match &process {
            ArrivalProcess::Mmpp { mean_base, .. } => {
                let dwell = exp_dwell(&mut rng, *mean_base);
                (false, dwell)
            }
            _ => (false, Nanos::ZERO),
        };
        ArrivalGen {
            process,
            rng,
            users,
            now: Nanos::ZERO,
            in_burst,
            state_until,
        }
    }

    /// Long-run mean arrival rate [1/s] of the underlying process.
    pub fn mean_rate(&self) -> f64 {
        self.process.mean_rate()
    }

    /// The next intended arrival (strictly non-decreasing in time).
    pub fn next_arrival(&mut self) -> Arrival {
        let at = match self.process.clone() {
            ArrivalProcess::Poisson { rate } => {
                self.now += exp_interval(&mut self.rng, rate);
                self.now
            }
            ArrivalProcess::Mmpp {
                base_rate,
                burst_rate,
                mean_base,
                mean_burst,
            } => loop {
                let rate = if self.in_burst { burst_rate } else { base_rate };
                let dt = exp_interval(&mut self.rng, rate);
                if self.now + dt <= self.state_until {
                    self.now += dt;
                    break self.now;
                }
                // The candidate falls past the state boundary: advance
                // to the boundary and resample there. Exact for the
                // memoryless exponential.
                self.now = self.state_until;
                self.in_burst = !self.in_burst;
                let mean = if self.in_burst { mean_burst } else { mean_base };
                self.state_until = self.now + exp_dwell(&mut self.rng, mean);
            },
            ArrivalProcess::Diurnal {
                peak_rate,
                period,
                profile,
            } => loop {
                // Thinning: candidates at the peak rate, accepted with
                // the profile multiplier of the slot they land in.
                self.now += exp_interval(&mut self.rng, peak_rate);
                let phase = self.now.as_nanos() % period.as_nanos();
                let slot =
                    ((phase as u128 * profile.len() as u128) / period.as_nanos() as u128) as usize;
                let m = profile[slot.min(profile.len() - 1)];
                if self.rng.uniform_f64() < m {
                    break self.now;
                }
            },
        };
        Arrival {
            at,
            user: self.rng.uniform_u64(self.users),
        }
    }
}

/// What to do when an op arrives at a full (or too-slow) server queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPolicy {
    /// Reject when the queue already holds its capacity of waiting ops.
    DropTail,
    /// Additionally reject when the projected queueing delay (the latest
    /// pending service start minus now) exceeds the deadline.
    DropDeadline(Nanos),
}

/// The verdict of [`AdmissionQueue::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted: the caller reserves resources, then calls
    /// [`AdmissionQueue::commit`] with the granted service start.
    Admit,
    /// Rejected: the queue is at capacity.
    DropTail,
    /// Rejected: the projected wait exceeds the deadline.
    DropDeadline,
}

/// A bounded server-side admission queue over reservation-based
/// resources.
///
/// The simulator's resources grant *future* service starts rather than
/// maintaining literal queues, so occupancy is derived: an admitted op
/// is "waiting" while its granted service start lies in the future.
/// `offer(now)` first retires pending ops whose service has started,
/// then applies the drop policy to the remainder.
#[derive(Debug, Clone, Default)]
pub struct AdmissionQueue {
    cap: usize,
    policy: Option<DropPolicy>,
    /// Service starts of admitted ops, min-heap so retirement pops in
    /// start order.
    pending: BinaryHeap<Reverse<u64>>,
    /// Latest committed service start — the projected start of the next
    /// admitted op under FIFO service.
    tail_start: Nanos,
    admitted: u64,
    dropped_tail: u64,
    dropped_deadline: u64,
}

impl AdmissionQueue {
    /// A queue admitting at most `cap` waiting ops under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` (nothing could ever be admitted).
    pub fn new(cap: usize, policy: DropPolicy) -> Self {
        assert!(cap > 0, "admission queue capacity must be positive");
        AdmissionQueue {
            cap,
            policy: Some(policy),
            pending: BinaryHeap::new(),
            tail_start: Nanos::ZERO,
            admitted: 0,
            dropped_tail: 0,
            dropped_deadline: 0,
        }
    }

    /// Offers an op arriving at `now`; on [`Admission::Admit`] the
    /// caller must follow up with [`AdmissionQueue::commit`].
    pub fn offer(&mut self, now: Nanos) -> Admission {
        while let Some(Reverse(start)) = self.pending.peek() {
            if Nanos::new(*start) <= now {
                self.pending.pop();
            } else {
                break;
            }
        }
        if self.pending.len() >= self.cap {
            self.dropped_tail += 1;
            return Admission::DropTail;
        }
        if let Some(DropPolicy::DropDeadline(deadline)) = self.policy {
            if !self.pending.is_empty() && self.tail_start.saturating_sub(now) > deadline {
                self.dropped_deadline += 1;
                return Admission::DropDeadline;
            }
        }
        self.admitted += 1;
        Admission::Admit
    }

    /// Records the service start granted to the op just admitted.
    pub fn commit(&mut self, start: Nanos) {
        self.pending.push(Reverse(start.as_nanos()));
        self.tail_start = self.tail_start.max(start);
    }

    /// Ops admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Ops rejected because the queue was at capacity.
    pub fn dropped_tail(&self) -> u64 {
        self.dropped_tail
    }

    /// Ops rejected because the projected wait exceeded the deadline.
    pub fn dropped_deadline(&self) -> u64 {
        self.dropped_deadline
    }

    /// Total rejected ops.
    pub fn dropped(&self) -> u64 {
        self.dropped_tail + self.dropped_deadline
    }

    /// Admitted ops whose service start is still pending retirement.
    pub fn depth(&self) -> usize {
        self.pending.len()
    }
}

/// Configuration of one open-loop stream: the arrival process, how many
/// logical users it aggregates, and the server-side admission bound.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopSpec {
    /// The arrival process (total offered load across all shards).
    pub process: ArrivalProcess,
    /// Logical users aggregated into the stream (tags arrivals; each
    /// user deterministically maps to a home address).
    pub users: u64,
    /// Server-side admission queue capacity (waiting ops).
    pub queue_cap: usize,
    /// Drop policy applied at admission.
    pub policy: DropPolicy,
}

impl OpenLoopSpec {
    /// Poisson arrivals at `rate_per_sec` with the default user
    /// aggregation (100k users) and a 512-deep drop-tail queue.
    pub fn poisson(rate_per_sec: f64) -> Self {
        OpenLoopSpec {
            process: ArrivalProcess::Poisson { rate: rate_per_sec },
            users: 100_000,
            queue_cap: 512,
            policy: DropPolicy::DropTail,
        }
    }

    /// Overrides the admission queue capacity.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Overrides the drop policy.
    pub fn with_policy(mut self, policy: DropPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Total offered load [1/s].
    pub fn offered_per_sec(&self) -> f64 {
        self.process.mean_rate()
    }

    /// The per-shard slice of this spec when the stream spans `shards`
    /// client shards: the process rate is divided evenly so the sum of
    /// the slices offers the configured total.
    pub fn share(&self, shards: usize) -> OpenLoopSpec {
        assert!(shards > 0, "open-loop stream spans zero shards");
        OpenLoopSpec {
            process: self.process.scaled(1.0 / shards as f64),
            ..self.clone()
        }
    }
}

/// Deterministic home address for a logical user: each user hits one
/// aligned slot of the target region, so an open-loop stream's address
/// trace has per-user locality without per-arrival RNG draws.
pub fn user_home_addr(user: u64, base: u64, range: u64, align: u64) -> u64 {
    if range < align {
        return base;
    }
    let slots = range / align;
    base + (user.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % slots * align
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> SimRng {
        SimRng::seed(seed)
    }

    #[test]
    fn poisson_hits_mean_rate() {
        let mut g = ArrivalGen::new(ArrivalProcess::Poisson { rate: 1.0e6 }, 1000, rng(7));
        let n = 20_000;
        let mut last = Nanos::ZERO;
        for _ in 0..n {
            let a = g.next_arrival();
            assert!(a.at >= last, "arrivals must be non-decreasing");
            assert!(a.user < 1000);
            last = a.at;
        }
        // Mean inter-arrival should be 1000 ns within a few percent.
        let mean = last.as_nanos() as f64 / n as f64;
        assert!((950.0..1050.0).contains(&mean), "mean gap {mean} ns");
    }

    #[test]
    fn generator_is_deterministic() {
        let p = ArrivalProcess::Mmpp {
            base_rate: 1.0e5,
            burst_rate: 5.0e6,
            mean_base: Nanos::from_micros(50),
            mean_burst: Nanos::from_micros(10),
        };
        let mut a = ArrivalGen::new(p.clone(), 64, rng(9));
        let mut b = ArrivalGen::new(p, 64, rng(9));
        for _ in 0..5000 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
    }

    #[test]
    fn mmpp_mean_rate_between_states() {
        let p = ArrivalProcess::Mmpp {
            base_rate: 1.0e5,
            burst_rate: 5.0e6,
            mean_base: Nanos::from_micros(50),
            mean_burst: Nanos::from_micros(50),
        };
        // Equal dwells: mean rate is the average of the two states.
        let want = (1.0e5 + 5.0e6) / 2.0;
        assert!((p.mean_rate() - want).abs() / want < 1e-9);
        let mut g = ArrivalGen::new(p, 8, rng(3));
        let n = 50_000;
        let mut last = Nanos::ZERO;
        for _ in 0..n {
            last = g.next_arrival().at;
        }
        let empirical = n as f64 / last.as_secs_f64();
        assert!(
            (empirical - want).abs() / want < 0.15,
            "empirical {empirical:.0}/s vs {want:.0}/s"
        );
    }

    #[test]
    fn diurnal_thins_against_profile() {
        let period = Nanos::from_micros(100);
        let p = ArrivalProcess::Diurnal {
            peak_rate: 2.0e6,
            period,
            profile: vec![1.0, 0.0],
        };
        assert!((p.mean_rate() - 1.0e6).abs() < 1.0);
        let mut g = ArrivalGen::new(p, 8, rng(4));
        let mut last = Nanos::ZERO;
        let n = 20_000;
        for _ in 0..n {
            let a = g.next_arrival();
            // The second half of every period has multiplier 0.
            let phase = a.at.as_nanos() % period.as_nanos();
            assert!(
                phase < period.as_nanos() / 2,
                "arrival in a zero-rate slot (phase {phase})"
            );
            last = a.at;
        }
        let empirical = n as f64 / last.as_secs_f64();
        assert!(
            (empirical - 1.0e6).abs() / 1.0e6 < 0.1,
            "empirical {empirical:.0}/s"
        );
    }

    #[test]
    fn scaled_divides_rate() {
        let p = ArrivalProcess::Poisson { rate: 6.0e6 };
        assert!((p.scaled(1.0 / 3.0).mean_rate() - 2.0e6).abs() < 1.0);
        let spec = OpenLoopSpec::poisson(6.0e6);
        assert!((spec.share(3).offered_per_sec() - 2.0e6).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn zero_rate_rejected() {
        let _ = ArrivalGen::new(ArrivalProcess::Poisson { rate: 0.0 }, 1, rng(1));
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn all_zero_profile_rejected() {
        let _ = ArrivalGen::new(
            ArrivalProcess::Diurnal {
                peak_rate: 1.0e6,
                period: Nanos::from_micros(10),
                profile: vec![0.0, 0.0],
            },
            1,
            rng(1),
        );
    }

    #[test]
    fn drop_tail_rejects_at_capacity() {
        let mut q = AdmissionQueue::new(2, DropPolicy::DropTail);
        let now = Nanos::new(100);
        // Two ops admitted, both starting service far in the future.
        assert_eq!(q.offer(now), Admission::Admit);
        q.commit(Nanos::new(10_000));
        assert_eq!(q.offer(now), Admission::Admit);
        q.commit(Nanos::new(20_000));
        assert_eq!(q.depth(), 2);
        // Queue full: the third is dropped.
        assert_eq!(q.offer(now), Admission::DropTail);
        assert_eq!(q.dropped_tail(), 1);
        // Once service started for the backlog, admission resumes.
        assert_eq!(q.offer(Nanos::new(20_000)), Admission::Admit);
        q.commit(Nanos::new(21_000));
        assert_eq!(q.admitted(), 3);
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn drop_deadline_bounds_projected_wait() {
        let mut q = AdmissionQueue::new(64, DropPolicy::DropDeadline(Nanos::new(1_000)));
        let now = Nanos::new(100);
        assert_eq!(q.offer(now), Admission::Admit);
        q.commit(Nanos::new(5_000)); // projected wait 4.9 us > 1 us
        assert_eq!(q.offer(now), Admission::DropDeadline);
        assert_eq!(q.dropped_deadline(), 1);
        // With the backlog retired the projection resets.
        assert_eq!(q.offer(Nanos::new(5_000)), Admission::Admit);
    }

    #[test]
    fn user_home_addr_is_aligned_and_in_range() {
        for u in 0..1000u64 {
            let a = user_home_addr(u, 4096, 1 << 20, 64);
            assert_eq!(a % 64, 0);
            assert!((4096..4096 + (1 << 20)).contains(&a));
        }
        // Range narrower than the alignment degenerates to the base.
        assert_eq!(user_home_addr(7, 128, 32, 64), 128);
    }
}
