//! Worker-count invariance on the parallel path. Most of the integration
//! tests' racks of 3–6 clients carry too little spare work for the
//! runtime to choose its workers, so each scenario family of
//! `tests/determinism.rs::cluster_worker_count_invariance*` and
//! `tests/properties.rs::open_loop_conserves_ops` runs here again with
//! the grain forced to zero, which puts every multi-shard epoch on the
//! workers. The last test pins the rule itself on the paper's rack.

use nicsim::{PathKind, Verb};
use simnet::arrivals::{DropPolicy, OpenLoopSpec};
use simnet::faults::{DegradedWindow, FaultSpec};
use simnet::prop::check;
use simnet::time::Nanos;
use simnet::{prop_assert, prop_assert_eq};
use snic_farmem::{FmPlacement, FmStreamSpec};
use snic_kvstore::{KeyDist, Mix};
use topology::MachineSpec;

use crate::kv::{advisor_policy, KvPlacement, KvStreamSpec};
use crate::scenario::{run_cluster, run_with_grain, ClusterResult, ClusterScenario, ClusterStream};

/// Runs `streams` at one worker under the shipped rule, then at 2, 3
/// and 8 workers with the grain forced to zero. Every forced run must
/// run parallel epochs and match the one-worker run byte for byte.
/// Shards are claimed dynamically, so which thread runs a shard changes
/// from run to run: the two-worker case runs three times.
fn forced_parallel_matches_one_worker(
    sc: &ClusterScenario,
    streams: &[ClusterStream],
) -> ClusterResult {
    let one = run_cluster(&sc.clone().with_workers(1), streams);
    assert_eq!(one.parallel_epochs, 0);
    for n in [2, 2, 2, 3, 8] {
        let r = run_with_grain(&sc.clone().with_workers(n), streams, 0);
        assert!(r.parallel_epochs > 0, "no parallel epoch at {n} workers");
        assert_eq!(
            one.to_csv(),
            r.to_csv(),
            "CSV diverged between 1 and {n} workers"
        );
        assert!(
            one.metrics.counters().eq(r.metrics.counters()),
            "registry diverged at {n} workers"
        );
        assert_eq!(
            one.epochs, r.epochs,
            "epoch schedule diverged at {n} workers"
        );
        assert_eq!(
            one.messages, r.messages,
            "message count diverged at {n} workers"
        );
    }
    one
}

/// The registry counter `name`, 0 when absent.
fn count(r: &ClusterResult, name: &str) -> u64 {
    r.metrics
        .counters()
        .find(|&(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// `ClusterScenario::quick()` on six clients at `seed`.
fn six_clients(seed: u64) -> ClusterScenario {
    let mut sc = ClusterScenario::quick().with_seed(seed);
    sc.cluster.clients.truncate(6);
    sc
}

/// Remote streams through the switch and a server-local path-③ stream.
fn mixed_streams() -> Vec<ClusterStream> {
    vec![
        ClusterStream::new(PathKind::Snic1, Verb::Write, 4096, vec![0, 1, 2]),
        ClusterStream::new(PathKind::Snic2, Verb::Read, 256, vec![3, 4, 5]),
        ClusterStream::new(PathKind::Snic3H2S, Verb::Write, 1024, vec![]),
    ]
}

#[test]
fn forced_parallel_invariance() {
    let r = forced_parallel_matches_one_worker(&six_clients(17), &mixed_streams());
    assert!(r.messages > 1000, "too little cross-shard traffic");
}

#[test]
fn forced_parallel_invariance_with_faults() {
    let faults = FaultSpec::none()
        .with_seed(99)
        .with_wire_loss(0.005)
        .with_pcie_corrupt(0.01)
        .with_pcie_window(DegradedWindow {
            from: Nanos::from_micros(200),
            to: Nanos::from_micros(400),
            slowdown: 4.0,
            extra_latency: Nanos::new(200),
        });
    let r =
        forced_parallel_matches_one_worker(&six_clients(17).with_faults(faults), &mixed_streams());
    assert!(count(&r, "msgs_dropped") > 0);
}

#[test]
fn forced_parallel_invariance_openloop() {
    let streams = [
        ClusterStream::new(PathKind::Snic1, Verb::Write, 512, vec![0, 1, 2])
            .open_loop(OpenLoopSpec::poisson(60.0e6).with_queue_cap(16)),
        ClusterStream::new(PathKind::Snic2, Verb::Read, 256, vec![3, 4, 5]).open_loop(
            OpenLoopSpec::poisson(2.0e6)
                .with_policy(DropPolicy::DropDeadline(Nanos::from_micros(20))),
        ),
        ClusterStream::new(PathKind::Snic3H2S, Verb::Write, 1024, vec![])
            .open_loop(OpenLoopSpec::poisson(2.0e6)),
    ];
    let r = forced_parallel_matches_one_worker(&six_clients(17), &streams);
    assert!(r.streams[0].dropped > 0, "overload never dropped");
}

#[test]
fn forced_parallel_invariance_kv() {
    let spec = KvStreamSpec::new(
        Mix::B,
        KeyDist::Zipf(0.99),
        KvPlacement::Online(advisor_policy),
    );
    let stream =
        ClusterStream::kv_service(spec, (0..6).collect()).open_loop(OpenLoopSpec::poisson(16.0e6));
    let r = forced_parallel_matches_one_worker(&six_clients(17), &[stream]);
    assert!(count(&r, "kv_design_changes") > 0);
}

#[test]
fn forced_parallel_invariance_farmem() {
    let stream =
        ClusterStream::fm_service(FmStreamSpec::new(FmPlacement::RemoteSoc), (0..6).collect())
            .open_loop(OpenLoopSpec::poisson(2.0e6));
    let r = forced_parallel_matches_one_worker(&six_clients(29), &[stream]);
    assert!(count(&r, "fm_demotions") > 0);
}

#[test]
fn forced_parallel_invariance_dpa() {
    let mut sc = six_clients(23);
    sc.cluster.servers = vec![MachineSpec::srv_with_bluefield3_dpa(); sc.cluster.servers.len()];
    let spec = KvStreamSpec::new(
        Mix::C,
        KeyDist::Uniform,
        KvPlacement::Online(advisor_policy),
    )
    .with_keys(500)
    .with_value_size(64);
    let stream =
        ClusterStream::kv_service(spec, (0..6).collect()).open_loop(OpenLoopSpec::poisson(16.0e6));
    let r = forced_parallel_matches_one_worker(&sc, &[stream]);
    assert!(count(&r, "kv_dpa_gets") > 0);
}

#[test]
fn forced_parallel_invariance_open_loop_conserves_ops() {
    // `open_loop_conserves_ops`' generator on the remote paths only: a
    // path-③ stream runs on one shard and never has a multi-shard epoch.
    check("forced_parallel_invariance_open_loop_conserves_ops", |g| {
        let paths = [PathKind::Snic1, PathKind::Snic2];
        let path = paths[g.usize(0..paths.len())];
        let rate = g.u64(1..40) as f64 * 1e6;
        let policy = if g.u32(0..2) == 0 {
            DropPolicy::DropTail
        } else {
            DropPolicy::DropDeadline(Nanos::from_micros(g.u64(5..50)))
        };
        let spec = OpenLoopSpec::poisson(rate)
            .with_queue_cap(g.usize(4..256))
            .with_policy(policy);
        let mut sc = ClusterScenario::quick().with_seed(g.u64(0..1_000_000));
        sc.cluster.clients.truncate(3);
        sc.warmup = Nanos::from_micros(50);
        sc.duration = Nanos::from_micros(300);
        let streams = [
            ClusterStream::new(path, Verb::Write, g.u64(1..4096), vec![0, 1, 2]).open_loop(spec),
        ];
        let r = forced_parallel_matches_one_worker(&sc, &streams);
        let s = &r.streams[0];
        prop_assert!(s.generated > 0, "no arrivals generated");
        prop_assert_eq!(s.generated, s.completed_total + s.dropped + s.inflight);
        Ok(())
    });
}

#[test]
fn the_paper_racks_verb_streams_run_no_parallel_epoch() {
    // The benchmark's `rack_verbs` streams on the paper's rack: a start-up
    // burst of huge epochs, then about 9 spare events per epoch, far below
    // the grain. Two workers must leave every epoch on the calling thread.
    let wide = |s: ClusterStream| s.with_threads(12).with_window(16);
    let streams = [
        wide(ClusterStream::new(
            PathKind::Snic1,
            Verb::Read,
            4096,
            (0..5).collect(),
        )),
        wide(ClusterStream::new(
            PathKind::Snic1,
            Verb::Write,
            4096,
            (5..10).collect(),
        )),
        ClusterStream::new(PathKind::Snic2, Verb::Read, 256, (10..15).collect()),
        ClusterStream::new(PathKind::Snic2, Verb::Write, 64, (15..20).collect()),
    ];
    let r = run_cluster(&ClusterScenario::quick().with_workers(2), &streams);
    assert!(r.epochs > 1000, "{} epochs", r.epochs);
    assert!(r.spare_events > 0, "the rule saw no multi-shard epoch");
    assert_eq!(r.parallel_epochs, 0);
}
