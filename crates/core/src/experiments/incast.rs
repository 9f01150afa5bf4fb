//! Incast: fan-in sweep on the cluster runtime.
//!
//! 1..20 client machines (one shard each) issue 4 KB WRITEs over path
//! `SNIC(1)` at a single Bluefield-2 responder. Each client's ConnectX-4
//! uplink carries at most 100 Gbps; the responder's 200 Gbps NIC bonds
//! two 100 Gbps switch ports, so aggregate goodput climbs until two
//! clients saturate the responder and then plateaus, while queueing at
//! the responder's switch ports drives the p99 latency up — the classic
//! incast knee. This experiment only exists at cluster scale: the
//! single-machine harness has no switch ports to congest.

use nicsim::{PathKind, Verb};
use snic_cluster::{run_cluster, ClusterStream};

use crate::report::{fmt_f, Table};

use super::cluster_scenario;

/// Request payload.
const PAYLOAD: u64 = 4 << 10;

/// Fan-in degrees swept.
pub fn fan_in(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 2, 8, 20]
    } else {
        vec![1, 2, 3, 4, 6, 8, 10, 12, 16, 20]
    }
}

/// One sweep point: `(goodput Gbps, Mops, p50 us, p99 us)`.
pub fn point(quick: bool, n_clients: usize) -> (f64, f64, f64, f64) {
    let sc = cluster_scenario(quick);
    let stream = ClusterStream::new(
        PathKind::Snic1,
        Verb::Write,
        PAYLOAD,
        (0..n_clients).collect(),
    );
    let r = run_cluster(&sc, &[stream]);
    let s = &r.streams[0];
    (
        s.goodput.as_gbps(),
        s.ops.as_mops(),
        s.latency.p50.as_nanos() as f64 / 1e3,
        s.latency.p99.as_nanos() as f64 / 1e3,
    )
}

/// Runs the incast sweep.
pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "Incast: n clients -> one Bluefield-2 responder (SNIC(1) WRITE 4 KB)",
        &["clients", "goodput_gbps", "mops", "p50_us", "p99_us"],
    );
    for n in fan_in(quick) {
        let (gbps, mops, p50, p99) = point(quick, n);
        t.push(vec![
            n.to_string(),
            fmt_f(gbps),
            fmt_f(mops),
            fmt_f(p50),
            fmt_f(p99),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_monotone_to_saturation_then_p99_knee() {
        // One ConnectX-4 client cannot fill the responder; two can.
        let (g1, _, _, p99_1) = point(true, 1);
        let (g2, _, _, _) = point(true, 2);
        let (g20, _, _, p99_20) = point(true, 20);
        assert!(g1 < 100.0, "one 100G client capped: {g1:.0} Gbps");
        assert!(g2 > g1 * 1.5, "fan-in 2 should scale: {g1:.0} -> {g2:.0}");
        assert!(
            g20 > 0.85 * g2,
            "saturated goodput must hold at deep fan-in: {g2:.0} -> {g20:.0}"
        );
        assert!((150.0..=230.0).contains(&g20), "saturation {g20:.0} Gbps");
        // Past saturation the offered load queues at the responder's
        // switch ports: tail latency blows up.
        assert!(
            p99_20 > 3.0 * p99_1,
            "incast must show a p99 knee: {p99_1:.1}us -> {p99_20:.1}us"
        );
    }

    #[test]
    fn quick_table_covers_sweep() {
        let t = run(true);
        assert_eq!(t[0].rows.len(), fan_in(true).len());
    }
}
