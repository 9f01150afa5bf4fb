//! Property-based tests of the simulation-engine invariants (in-tree
//! `simnet::prop` harness; failures print a reproducing `PROP_SEED`).

use simnet::engine::{BaselineEngine, Engine};
use simnet::prop::check;
use simnet::resource::{Dir, DuplexPipe, Pipe};
use simnet::rng::SimRng;
use simnet::stats::Histogram;
use simnet::time::{Bandwidth, Nanos, Rate};
use simnet::{prop_assert, prop_assert_eq};

/// Events always pop in non-decreasing time order, whatever the
/// scheduling order.
#[test]
fn engine_pops_in_time_order() {
    check("engine_pops_in_time_order", |g| {
        let times = g.vec(1..512, |g| g.u64(0..1_000_000));
        let mut eng: Engine<usize> = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            eng.schedule(Nanos::new(t), i).unwrap();
        }
        let mut last = Nanos::ZERO;
        while let Some((t, _)) = eng.pop() {
            prop_assert!(t >= last);
            last = t;
        }
        Ok(())
    });
}

/// Same-instant events preserve scheduling (FIFO) order.
#[test]
fn engine_fifo_at_same_instant() {
    check("engine_fifo_at_same_instant", |g| {
        let n = g.usize(1..256);
        let t = g.u64(0..1000);
        let mut eng: Engine<usize> = Engine::new();
        for i in 0..n {
            eng.schedule(Nanos::new(t), i).unwrap();
        }
        let mut expect = 0;
        while let Some((_, ev)) = eng.pop() {
            prop_assert_eq!(ev, expect);
            expect += 1;
        }
        prop_assert_eq!(expect, n);
        Ok(())
    });
}

/// A pipe conserves work: total busy time equals the sum of service
/// times, and utilization never exceeds 1 over the busy horizon.
#[test]
fn pipe_work_conservation() {
    check("pipe_work_conservation", |g| {
        let transfers = g.vec(1..128, |g| (g.u64(1..100_000), g.u64(0..10_000)));
        let mut p = Pipe::new(Bandwidth::gigabytes_per_sec(1.0));
        let mut expected_busy = Nanos::ZERO;
        let mut last_finish = Nanos::ZERO;
        for &(bytes, arrive) in &transfers {
            expected_busy += p.service_time(bytes);
            let r = p.reserve(Nanos::new(arrive), bytes);
            prop_assert!(r.start >= Nanos::new(arrive));
            prop_assert!(r.finish >= last_finish, "FIFO order violated");
            last_finish = r.finish;
        }
        prop_assert_eq!(p.busy_time(), expected_busy);
        prop_assert!(p.busy_time() <= last_finish);
        Ok(())
    });
}

/// Duplex directions are fully independent.
#[test]
fn duplex_independence() {
    check("duplex_independence", |g| {
        let n = g.usize(1..64);
        let mut d = DuplexPipe::new(Bandwidth::gigabytes_per_sec(1.0));
        for _ in 0..n {
            d.reserve(Dir::Fwd, Nanos::ZERO, 1000);
        }
        // The reverse direction is still immediate.
        let r = d.reserve(Dir::Rev, Nanos::ZERO, 1000);
        prop_assert_eq!(r.start, Nanos::ZERO);
        Ok(())
    });
}

/// Bandwidth/time round trip: transferring N bytes at B bytes/ns
/// takes N/B ns within rounding.
#[test]
fn bandwidth_round_trip() {
    check("bandwidth_round_trip", |g| {
        let bytes = g.u64(1..(1 << 30));
        let gbps = g.u64(1..1000);
        let bw = Bandwidth::gbps(gbps as f64);
        let t = bw.transfer_time(bytes);
        let ideal = bytes as f64 * 8.0 / (gbps as f64); // ns
        prop_assert!((t.as_nanos() as f64 - ideal).abs() <= ideal * 0.01 + 1.0);
        Ok(())
    });
}

/// Rate service time is inverse-linear in the rate.
#[test]
fn rate_linearity() {
    check("rate_linearity", |g| {
        let n = g.u64(1..1_000_000);
        let mops = g.u64(1..500);
        let r = Rate::mops(mops as f64);
        let t1 = r.service_time(n);
        let t2 = r.service_time(2 * n);
        let ratio = t2.as_nanos() as f64 / t1.as_nanos() as f64;
        prop_assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
        Ok(())
    });
}

/// Histogram percentiles track the exact sorted-vector percentile to
/// within one sub-bucket width: the rank's sample and the interpolated
/// value live in the same log bucket, whose span is at most `exact/32`
/// (plus one nanosecond of integer slack). Interpolation centers the
/// estimate instead of pinning it a full sub-bucket low, so the same
/// tolerance now holds on both sides.
#[test]
fn histogram_percentile_tracks_exact() {
    check("histogram_percentile_tracks_exact", |g| {
        // Mix magnitudes so both the exact (<32 ns) and log-bucketed
        // regimes are exercised in one distribution.
        let samples = g.vec(1..512, |g| {
            let exp = g.u32(0..40);
            g.u64(0..(1u64 << exp).max(2))
        });
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(Nanos::new(s));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let p = g.u64(0..1001) as f64 / 10.0;
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let exact = sorted[(rank - 1) as usize];
        let approx = h.percentile(p).as_nanos();
        let tol = exact / 32 + 1;
        prop_assert!(
            approx.abs_diff(exact) <= tol,
            "p{p}: approx {approx} not within {tol} of exact {exact} (n={n})"
        );
        // Exact-regime samples (< 32 ns) stay exact.
        if exact < 32 && approx < 32 {
            prop_assert!(approx.abs_diff(exact) <= 1, "p{p}: {approx} vs {exact}");
        }
        Ok(())
    });
}

/// The timing-wheel [`Engine`] and the original heap [`BaselineEngine`]
/// deliver identical `(at, seq, event)` streams over randomized
/// schedules — including same-instant FIFO ties, schedule-at-now during
/// a drain, read-only peeks past a deadline (the cluster epoch pattern:
/// peek far ahead, then schedule *earlier* cross-shard arrivals), and
/// far-future deliveries that park in the wheel's overflow heap.
#[test]
fn wheel_engine_matches_baseline_heap() {
    check("wheel_engine_matches_baseline_heap", |g| {
        let mut wheel: Engine<u32> = Engine::new();
        let mut base: BaselineEngine<u32> = BaselineEngine::new();
        let mut next_id: u32 = 0;
        // Delay magnitudes spanning every wheel level plus the overflow
        // horizon (64^8 ns), with frequent small values for dense ties.
        let delay = |g: &mut simnet::prop::Gen| -> u64 {
            let exp = g.u32(0..51);
            g.u64(0..(1u64 << exp).max(2))
        };
        let schedule_both =
            |wheel: &mut Engine<u32>, base: &mut BaselineEngine<u32>, at: Nanos, id: u32| {
                let a = wheel.schedule(at, id);
                let b = base.schedule(at, id);
                assert_eq!(a, b, "schedule verdicts diverged at {at}");
            };
        // Initial burst from t = 0.
        for _ in 0..g.usize(1..48) {
            let at = Nanos::new(delay(g));
            schedule_both(&mut wheel, &mut base, at, next_id);
            next_id += 1;
        }
        // Epochs: drain up to a deadline in lockstep, comparing every
        // peek and every pop; reschedule mid-drain; then (like the
        // cluster barrier) inject events earlier than the peeked future.
        let epochs = g.usize(2..8);
        for epoch in 0..=epochs {
            let final_epoch = epoch == epochs;
            let deadline = if final_epoch {
                Nanos::MAX
            } else {
                wheel.now() + Nanos::new(g.u64(0..200_000))
            };
            loop {
                let (pw, pb) = (wheel.peek_time(), base.peek_time());
                prop_assert_eq!(pw, pb, "peek diverged");
                match pw {
                    None => break,
                    Some(t) if t > deadline => break,
                    Some(_) => {}
                }
                let (ew, eb) = (wheel.pop(), base.pop());
                prop_assert_eq!(ew, eb, "pop diverged");
                let (now, _) = ew.expect("peek said an event was due");
                if next_id < 4096 && g.f64_unit() < 0.4 {
                    // Follow-up work, sometimes at exactly `now` (the
                    // FIFO-across-schedule-at-now case).
                    let at = if g.f64_unit() < 0.35 {
                        now
                    } else {
                        now.checked_add(Nanos::new(delay(g))).unwrap_or(now)
                    };
                    schedule_both(&mut wheel, &mut base, at, next_id);
                    next_id += 1;
                }
            }
            prop_assert_eq!(wheel.now(), base.now(), "clocks diverged");
            prop_assert_eq!(wheel.pending(), base.pending());
            // Cross-epoch injection: delivery times at or after `now`,
            // typically *before* whatever the deadline peek saw.
            for _ in 0..g.usize(0..6) {
                let at = wheel.now() + Nanos::new(delay(g) >> 1);
                schedule_both(&mut wheel, &mut base, at, next_id);
                next_id += 1;
            }
        }
        // Drain the cross-epoch tail injected after the final epoch.
        loop {
            let (ew, eb) = (wheel.pop(), base.pop());
            prop_assert_eq!(ew, eb, "tail pop diverged");
            if ew.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.delivered(), base.delivered());
        prop_assert_eq!(wheel.pending(), 0);
        Ok(())
    });
}

/// Seeded RNG streams are reproducible and respect bounds.
#[test]
fn rng_bounds_and_determinism() {
    check("rng_bounds_and_determinism", |g| {
        let seed = g.any_u64();
        let bound = g.u64(1..1_000_000);
        let mut a = SimRng::seed(seed);
        let mut b = SimRng::seed(seed);
        for _ in 0..32 {
            let va = a.uniform_u64(bound);
            let vb = b.uniform_u64(bound);
            prop_assert_eq!(va, vb);
            prop_assert!(va < bound);
        }
        Ok(())
    });
}
