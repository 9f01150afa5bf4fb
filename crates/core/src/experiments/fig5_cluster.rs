//! Figure 5 at cluster scale: the flow-combination experiment of
//! `fig5_flows`, rerun on the full rack (`snic-cluster`) instead of the
//! single-machine harness.
//!
//! Each remote flow is issued by three dedicated 100 Gbps client
//! *machines* (their own shards), and the traffic really crosses the
//! SB7890's per-port arbitration — the responder's 200 Gbps NIC bonds
//! two switch ports. The paper's ordering must survive the move:
//! READ+WRITE multiplexes opposite link directions (~2x), while path-3
//! combinations cross PCIe1 twice per request and gain nothing (§3.3).

use nicsim::{PathKind, Verb};
use snic_cluster::{run_cluster, ClusterScenario, ClusterStream};

use crate::report::{fmt_f, Table};

use super::cluster_scenario;

/// Flow payload used by the paper.
const PAYLOAD: u64 = 4 << 10;

fn combo(sc: &ClusterScenario, path: PathKind, va: Verb, vb: Verb) -> f64 {
    let (clients_a, clients_b) = if path.is_remote() {
        // Three 100 Gbps client machines per flow so the requester side
        // never caps the 200 Gbps responder.
        (vec![0, 1, 2], vec![3, 4, 5])
    } else {
        (vec![], vec![])
    };
    let a = ClusterStream::new(path, va, PAYLOAD, clients_a)
        .with_window(16)
        .with_threads(12);
    let b = ClusterStream::new(path, vb, PAYLOAD, clients_b)
        .with_window(16)
        .with_threads(12);
    run_cluster(sc, &[a, b]).total_goodput().as_gbps()
}

/// Runs the cluster-scale Figure 5 reproduction.
pub fn run(quick: bool) -> Vec<Table> {
    let sc = cluster_scenario(quick);
    let mut t = Table::new(
        "Fig 5(b) on the cluster runtime: peak throughput [Gbps] of flow combinations (4 KB)",
        &["path", "READ+WRITE", "READ+READ", "WRITE+WRITE"],
    );
    for path in [
        PathKind::Snic1,
        PathKind::Snic2,
        PathKind::Snic3S2H,
        PathKind::Snic3H2S,
    ] {
        t.push(vec![
            path.label().to_string(),
            fmt_f(combo(&sc, path, Verb::Read, Verb::Write)),
            fmt_f(combo(&sc, path, Verb::Read, Verb::Read)),
            fmt_f(combo(&sc, path, Verb::Write, Verb::Write)),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_directions_multiplex_on_path1_at_cluster_scale() {
        let sc = cluster_scenario(true);
        let rw = combo(&sc, PathKind::Snic1, Verb::Read, Verb::Write);
        let rr = combo(&sc, PathKind::Snic1, Verb::Read, Verb::Read);
        assert!(rw > 1.6 * rr, "R+W {rw:.0} !>> R+R {rr:.0}");
        assert!((150.0..=230.0).contains(&rr), "R+R {rr:.0} Gbps");
        assert!((300.0..=420.0).contains(&rw), "R+W {rw:.0} Gbps");
    }

    #[test]
    fn path3_gains_nothing_from_opposite_flows_at_cluster_scale() {
        let sc = cluster_scenario(true);
        let rw = combo(&sc, PathKind::Snic3H2S, Verb::Read, Verb::Write);
        let rr = combo(&sc, PathKind::Snic3H2S, Verb::Read, Verb::Read);
        assert!(
            rw < 1.35 * rr,
            "path3 R+W {rw:.0} should not double vs R+R {rr:.0}"
        );
    }

    #[test]
    fn quick_table_has_all_paths() {
        let t = run(true);
        assert_eq!(t[0].rows.len(), 4);
    }
}
