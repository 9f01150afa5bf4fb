//! Where parallel epochs start to pay: the paper's rack scaled k times
//! (20k client machines and 3k BlueField-3 servers) under a KV open loop
//! at 8k Mops/s on half the clients and a closed 4 KiB READ stream on the
//! other half. For each rack it prints the events and the spare work per
//! epoch (the events of the active shards other than the busiest, which
//! a second thread could take), the epochs the runtime chose to run on
//! its workers, and the best wall time of N runs at one and two workers.
//! The runtime's parallel grain (DESIGN.md §9) was read off this sweep.
//!
//! Run with `cargo run --release --example rack_scaling` (add `--quick`
//! for k = 1 and 2 at a shorter horizon).

use std::time::Instant;

use offpath_smartnic::cluster::{
    advisor_policy, run_cluster, ClusterResult, ClusterScenario, ClusterStream, KvPlacement,
    KvStreamSpec,
};
use offpath_smartnic::kvstore::{KeyDist, Mix};
use offpath_smartnic::nicsim::{PathKind, Verb};
use offpath_smartnic::simnet::arrivals::OpenLoopSpec;
use offpath_smartnic::simnet::time::Nanos;
use offpath_smartnic::topology::MachineSpec;

/// The paper's rack scaled `k` times, with its two streams.
fn rack(k: usize, duration: Nanos) -> (ClusterScenario, Vec<ClusterStream>) {
    let mut sc = ClusterScenario::quick();
    sc.cluster.clients = vec![MachineSpec::cli(); 20 * k];
    sc.cluster.servers = vec![MachineSpec::srv_with_bluefield3(); 3 * k];
    sc.duration = duration;
    let half = 10 * k;
    let kv = KvStreamSpec::new(
        Mix::A,
        KeyDist::Zipf(0.99),
        KvPlacement::Online(advisor_policy),
    );
    let streams = vec![
        ClusterStream::kv_service(kv, (0..half).collect())
            .open_loop(OpenLoopSpec::poisson(8.0e6 * k as f64)),
        ClusterStream::new(
            PathKind::Snic1,
            Verb::Read,
            4096,
            (half..2 * half).collect(),
        ),
    ];
    (sc, streams)
}

/// The best wall time of `runs` runs at `workers` workers, and the last
/// run's result.
fn best_of(
    sc: &ClusterScenario,
    streams: &[ClusterStream],
    workers: usize,
    runs: usize,
) -> (f64, ClusterResult) {
    let sc = sc.clone().with_workers(workers);
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs {
        let t = Instant::now();
        let r = run_cluster(&sc, streams);
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("at least one run"))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (scales, duration, runs): (&[usize], _, _) = if quick {
        (&[1, 2], Nanos::from_micros(300), 3)
    } else {
        (&[1, 2, 3, 4, 8, 16], Nanos::from_millis(1), 7)
    };
    println!(
        "{:>2} {:>7} {:>7} {:>7} {:>14} {:>13} {:>15} {:>9} {:>9} {:>6}",
        "k",
        "clients",
        "servers",
        "epochs",
        "events/epoch",
        "spare/epoch",
        "parallel_epochs",
        "wall_1w_ms",
        "wall_2w_ms",
        "2w/1w"
    );
    for &k in scales {
        let (sc, streams) = rack(k, duration);
        let (w1, one) = best_of(&sc, &streams, 1, runs);
        let (w2, two) = best_of(&sc, &streams, 2, runs);
        assert_eq!(
            one.to_csv(),
            two.to_csv(),
            "the worker cap showed in the results"
        );
        let epochs = two.epochs as f64;
        println!(
            "{:>2} {:>7} {:>7} {:>7} {:>14.1} {:>13.1} {:>15} {:>9.2} {:>9.2} {:>6.2}",
            k,
            sc.cluster.clients.len(),
            sc.cluster.servers.len(),
            two.epochs,
            two.events as f64 / epochs,
            two.spare_events as f64 / epochs,
            two.parallel_epochs,
            w1 * 1e3,
            w2 * 1e3,
            w2 / w1
        );
    }
    println!(
        "\nwall_Nw_ms is the best of {runs} runs at a cap of N workers on this host \
         (available_parallelism = {}).",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
}
