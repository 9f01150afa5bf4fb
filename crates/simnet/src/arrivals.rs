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

/// A stochastic arrival process. Rates are arrivals per second of
/// simulated time; the process is sampled exclusively through
/// [`SimRng`] draws.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate` per second.
    Poisson {
        /// Mean arrival rate [1/s].
        rate: f64,
    },
}

impl ArrivalProcess {
    /// Long-run mean arrival rate [1/s].
    pub fn mean_rate(&self) -> f64 {
        let ArrivalProcess::Poisson { rate } = self;
        *rate
    }

    /// The same process with its rate scaled by `factor` — used to split
    /// one offered-load dial evenly across client shards.
    pub fn scaled(&self, factor: f64) -> ArrivalProcess {
        ArrivalProcess::Poisson {
            rate: self.mean_rate() * factor,
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
}

/// Samples an exponential interval with mean `1/rate_per_sec` seconds.
fn exp_interval(rng: &mut SimRng, rate_per_sec: f64) -> Nanos {
    // uniform_f64() is in [0, 1); 1-u is in (0, 1] so ln() is finite.
    let u = rng.uniform_f64();
    Nanos::from_nanos_f64(-(1.0 - u).ln() / rate_per_sec * 1e9)
}

impl ArrivalGen {
    /// A generator for `process` aggregating `users` logical users,
    /// starting at t = 0 and drawing from `rng`.
    ///
    /// # Panics
    ///
    /// Panics on a rate that is not positive and finite, or `users == 0`.
    pub fn new(process: ArrivalProcess, users: u64, rng: SimRng) -> Self {
        let rate = process.mean_rate();
        assert!(rate.is_finite() && rate > 0.0, "Poisson rate {rate} <= 0");
        assert!(users > 0, "at least one logical user is required");
        ArrivalGen {
            process,
            rng,
            users,
            now: Nanos::ZERO,
        }
    }

    /// Long-run mean arrival rate [1/s] of the underlying process.
    pub fn mean_rate(&self) -> f64 {
        self.process.mean_rate()
    }

    /// The next intended arrival (strictly non-decreasing in time).
    pub fn next_arrival(&mut self) -> Arrival {
        self.now += exp_interval(&mut self.rng, self.process.mean_rate());
        Arrival {
            at: self.now,
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
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    cap: usize,
    policy: DropPolicy,
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
            policy,
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
        if let DropPolicy::DropDeadline(deadline) = self.policy {
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
        let p = ArrivalProcess::Poisson { rate: 2.0e6 };
        let mut a = ArrivalGen::new(p.clone(), 64, rng(9));
        let mut b = ArrivalGen::new(p, 64, rng(9));
        for _ in 0..5000 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
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
