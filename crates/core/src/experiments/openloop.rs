//! Open-loop load vs closed-loop load: the coordinated-omission gap.
//!
//! The paper's §2.4 methodology (and every figure it feeds) is
//! closed-loop: each client thread keeps a fixed window of requests in
//! flight, so when the responder stalls the *generator* stalls with it
//! and the stall never shows up as latency — the classic coordinated
//! omission. This experiment drives the same cluster paths with
//! deterministic Poisson arrival chains ([`OpenLoopSpec`]) where
//! latency is measured from the *intended* arrival instant, and
//! overload is shed by a bounded admission queue instead of silently
//! throttling the source.
//!
//! Four artifacts:
//!
//! 1. closed-loop capacity per path (the saturation point `C`);
//! 2. the CO gap — a closed configuration and an open Poisson stream at
//!    the *same measured throughput* near saturation, whose tails
//!    diverge (open p99 strictly above closed p99);
//! 3. an offered-load sweep (fractions of `C`) per path ①/②/③ showing
//!    the p50/p99/p99.9 knee, drop onset and excess issue delay;
//! 4. drop-tail vs drop-deadline admission at 1.3x capacity.

use nicsim::{PathKind, Verb};
use simnet::arrivals::{DropPolicy, OpenLoopSpec};
use simnet::time::Nanos;
use snic_cluster::{run_cluster, ClusterStream, ClusterStreamResult};

use crate::report::{fmt_f, Table};

use super::cluster_scenario;

/// Request payload for every point (small enough that the PU pools, not
/// the wire, set the saturation point).
const PAYLOAD: u64 = 512;

/// Paths swept: client->host, client->SoC, and the local host->SoC
/// composite (path 3 has no remote clients; its arrivals are generated
/// on the server machine itself).
const PATHS: [PathKind; 3] = [PathKind::Snic1, PathKind::Snic2, PathKind::Snic3H2S];

/// Queue bound for the capacity-bound (drop-tail) overload row.
const TAIL_QUEUE_CAP: usize = 64;

/// Queue bound for the latency-bound (drop-deadline) overload row: deep
/// enough that the deadline, not the depth, is what sheds load.
const DEADLINE_QUEUE_CAP: usize = 4096;

/// Client machines driving a path: six requesters for the remote paths,
/// none for the server-local path 3.
fn clients(path: PathKind) -> Vec<usize> {
    if path.is_remote() {
        (0..6).collect()
    } else {
        Vec::new()
    }
}

/// One closed-loop point at `window` outstanding per thread.
fn closed_point(quick: bool, path: PathKind, window: usize, threads: usize) -> ClusterStreamResult {
    let stream = ClusterStream::new(path, Verb::Write, PAYLOAD, clients(path))
        .with_window(window)
        .with_threads(threads);
    let mut r = run_cluster(&cluster_scenario(quick), &[stream]);
    r.streams.remove(0)
}

/// One open-loop point plus the responder-side admission drop split
/// `(stream, drop_tail, drop_deadline)`.
fn open_point(quick: bool, path: PathKind, spec: OpenLoopSpec) -> (ClusterStreamResult, u64, u64) {
    let stream = ClusterStream::new(path, Verb::Write, PAYLOAD, clients(path)).open_loop(spec);
    let mut r = run_cluster(&cluster_scenario(quick), &[stream]);
    let tail = r.metrics.counter_value("admission_drop_tail").unwrap_or(0);
    let deadline = r
        .metrics
        .counter_value("admission_drop_deadline")
        .unwrap_or(0);
    (r.streams.remove(0), tail, deadline)
}

/// Closed-loop saturation throughput (Mops) of a path: deep windows on
/// twelve threads per machine.
pub fn capacity_mops(quick: bool, path: PathKind) -> f64 {
    closed_point(quick, path, 8, 12).ops.as_mops()
}

/// The matched-throughput closed/open pair demonstrating coordinated
/// omission on `SNIC(1)`.
pub struct CoGap {
    /// Window depth of the chosen closed configuration.
    pub closed_window: usize,
    /// The closed-loop stream result.
    pub closed: ClusterStreamResult,
    /// The open-loop stream result at the closed run's measured rate.
    pub open: ClusterStreamResult,
}

/// Measures the CO gap: the smallest closed window reaching 85% of the
/// path's capacity fixes the comparison throughput; an open Poisson
/// stream then offers exactly that measured rate. Latency recorded from
/// intended arrivals makes the queueing the closed loop hides visible.
pub fn co_gap(quick: bool) -> CoGap {
    let path = PathKind::Snic1;
    let cap = capacity_mops(quick, path);
    let mut pick = None;
    for window in [1usize, 2, 4, 8] {
        let r = closed_point(quick, path, window, 4);
        if r.ops.as_mops() >= 0.85 * cap {
            pick = Some((window, r));
            break;
        }
    }
    // Shallow windows on four threads may never reach 85%: fall back to
    // the capacity configuration itself.
    let (closed_window, closed) = pick.unwrap_or_else(|| (8, closed_point(quick, path, 8, 12)));
    let rate = closed.ops.as_mops() * 1e6;
    let (open, _, _) = open_point(quick, path, OpenLoopSpec::poisson(rate));
    CoGap {
        closed_window,
        closed,
        open,
    }
}

/// Offered-load fractions of capacity swept per path.
pub fn load_fractions(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.6, 1.0, 1.4]
    } else {
        vec![0.5, 0.8, 0.95, 1.1, 1.4]
    }
}

/// Nanos as microseconds.
fn us(n: Nanos) -> f64 {
    n.as_nanos() as f64 / 1e3
}

/// Mean excess issue delay (µs per generated op).
fn excess_us(r: &ClusterStreamResult) -> f64 {
    if r.generated == 0 {
        0.0
    } else {
        r.excess_ns as f64 / r.generated as f64 / 1e3
    }
}

/// Runs the open-loop characterization.
pub fn run(quick: bool) -> Vec<Table> {
    let gap = co_gap(quick);
    let mut co = Table::new(
        "Coordinated omission: closed vs open at matched throughput (SNIC(1) WRITE 512 B)",
        &[
            "mode",
            "window",
            "mops",
            "p50_us",
            "p99_us",
            "p999_us",
            "excess_us",
            "dropped",
        ],
    );
    co.push(vec![
        "closed".into(),
        gap.closed_window.to_string(),
        fmt_f(gap.closed.ops.as_mops()),
        fmt_f(us(gap.closed.latency.p50)),
        fmt_f(us(gap.closed.latency.p99)),
        fmt_f(us(gap.closed.latency.p999)),
        fmt_f(0.0),
        "0".into(),
    ]);
    co.push(vec![
        "open".into(),
        "-".into(),
        fmt_f(gap.open.ops.as_mops()),
        fmt_f(us(gap.open.latency.p50)),
        fmt_f(us(gap.open.latency.p99)),
        fmt_f(us(gap.open.latency.p999)),
        fmt_f(excess_us(&gap.open)),
        gap.open.dropped.to_string(),
    ]);

    let mut sweep = Table::new(
        "Open-loop offered-load sweep (Poisson arrivals, WRITE 512 B)",
        &[
            "path",
            "frac",
            "offered_mops",
            "measured_mops",
            "p50_us",
            "p99_us",
            "p999_us",
            "generated",
            "dropped",
            "drop_frac",
            "inflight",
            "excess_us",
        ],
    );
    for path in PATHS {
        let cap = capacity_mops(quick, path);
        for frac in load_fractions(quick) {
            let rate = frac * cap * 1e6;
            let (r, _, _) = open_point(quick, path, OpenLoopSpec::poisson(rate));
            let drop_frac = if r.generated == 0 {
                0.0
            } else {
                r.dropped as f64 / r.generated as f64
            };
            sweep.push(vec![
                path.label().into(),
                fmt_f(frac),
                fmt_f(r.offered.as_mops()),
                fmt_f(r.ops.as_mops()),
                fmt_f(us(r.latency.p50)),
                fmt_f(us(r.latency.p99)),
                fmt_f(us(r.latency.p999)),
                r.generated.to_string(),
                r.dropped.to_string(),
                fmt_f(drop_frac),
                r.inflight.to_string(),
                fmt_f(excess_us(&r)),
            ]);
        }
    }

    let mut policy = Table::new(
        "Admission policy at 1.3x capacity (SNIC(1) WRITE 512 B)",
        &[
            "policy",
            "queue_cap",
            "offered_mops",
            "measured_mops",
            "p99_us",
            "drop_tail",
            "drop_deadline",
            "dropped",
        ],
    );
    let rate = 1.3 * capacity_mops(quick, PathKind::Snic1) * 1e6;
    // Capacity-bound vs latency-bound shedding: the tail row drops when
    // the backlog hits a shallow depth cap; the deadline row gets a deep
    // queue so only the projected-wait bound rejects.
    let policies = [
        ("drop_tail", TAIL_QUEUE_CAP, DropPolicy::DropTail),
        (
            "drop_deadline_2us",
            DEADLINE_QUEUE_CAP,
            DropPolicy::DropDeadline(Nanos::from_micros(2)),
        ),
    ];
    for (name, cap, p) in policies {
        let spec = OpenLoopSpec::poisson(rate)
            .with_queue_cap(cap)
            .with_policy(p);
        let (r, tail, deadline) = open_point(quick, PathKind::Snic1, spec);
        policy.push(vec![
            name.into(),
            cap.to_string(),
            fmt_f(r.offered.as_mops()),
            fmt_f(r.ops.as_mops()),
            fmt_f(us(r.latency.p99)),
            tail.to_string(),
            deadline.to_string(),
            r.dropped.to_string(),
        ]);
    }

    vec![co, sweep, policy]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_p99_exceeds_closed_p99_at_matched_throughput() {
        let gap = co_gap(true);
        // The comparison is only meaningful if the two modes actually
        // carried similar load near saturation.
        let closed = gap.closed.ops.as_mops();
        let open = gap.open.ops.as_mops();
        assert!(closed > 0.0 && open > 0.0);
        assert!(
            open > 0.6 * closed,
            "open stream should sustain most of the matched rate: {open:.2} vs {closed:.2} Mops"
        );
        // The coordinated-omission gap: latency from intended arrivals
        // strictly dominates the closed loop's self-clocked tail.
        assert!(
            gap.open.latency.p99 > gap.closed.latency.p99,
            "open p99 {} must exceed closed p99 {}",
            gap.open.latency.p99,
            gap.closed.latency.p99
        );
    }

    #[test]
    fn overload_sweep_shows_drop_onset() {
        let path = PathKind::Snic1;
        let cap = capacity_mops(true, path);
        let (under, _, _) = open_point(true, path, OpenLoopSpec::poisson(0.6 * cap * 1e6));
        let (over, tail, deadline) = open_point(
            true,
            path,
            OpenLoopSpec::poisson(1.4 * cap * 1e6).with_queue_cap(64),
        );
        assert_eq!(under.dropped, 0, "well below capacity nothing drops");
        assert!(over.dropped > 0, "40% overload must shed load");
        // Server-side admission rejections cover every client-accounted
        // drop; NACKs still on the wire at the horizon sit in inflight.
        assert!(tail + deadline >= over.dropped);
        assert!(tail + deadline <= over.dropped + over.inflight);
        // Conservation: every generated op is accounted for.
        assert_eq!(
            over.generated,
            over.completed_total + over.dropped + over.inflight
        );
    }

    #[test]
    fn quick_tables_cover_sweep() {
        let tables = run(true);
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].rows.len(), 2);
        assert_eq!(
            tables[1].rows.len(),
            PATHS.len() * load_fractions(true).len()
        );
        assert_eq!(tables[2].rows.len(), 2);
    }
}
