//! Whole-stack determinism: identical seeds produce bit-identical
//! results across the harness, the KV store and the figure pipelines.

use offpath_smartnic::nicsim::{PathKind, Verb};
use offpath_smartnic::simnet::rng::SimRng;
use offpath_smartnic::simnet::time::Nanos;
use offpath_smartnic::study::harness::{run_scenario, Scenario, ScenarioResult, StreamSpec};
use offpath_smartnic::study::report::Table;

fn quick(seed: u64) -> Scenario {
    Scenario {
        warmup: Nanos::from_micros(100),
        duration: Nanos::from_micros(600),
        seed,
        ..Scenario::default()
    }
}

#[test]
fn scenario_bit_identical_across_runs() {
    let spec = || {
        vec![
            StreamSpec::new(PathKind::Snic1, Verb::Read, 256, 5),
            StreamSpec::new(PathKind::Snic3H2S, Verb::Write, 1024, 1),
        ]
    };
    let a = run_scenario(&quick(7), &spec());
    let b = run_scenario(&quick(7), &spec());
    for (x, y) in a.streams.iter().zip(b.streams.iter()) {
        assert_eq!(x.ops.as_per_sec(), y.ops.as_per_sec());
        assert_eq!(x.latency.p50, y.latency.p50);
        assert_eq!(x.latency.p99, y.latency.p99);
        assert_eq!(x.goodput.as_bytes_per_sec(), y.goodput.as_bytes_per_sec());
    }
    assert_eq!(a.counters.total_tlps(), b.counters.total_tlps());
}

/// Renders a scenario result exactly as the figure runner does (a
/// [`Table`] serialized to CSV), down to every formatted digit.
fn result_csv(r: &ScenarioResult) -> String {
    let mut t = Table::new(
        "determinism probe",
        &["stream", "mops", "p50_ns", "p99_ns", "goodput_bps", "tlps"],
    );
    for s in &r.streams {
        t.push(vec![
            s.label.clone(),
            format!("{}", s.ops.as_per_sec()),
            format!("{}", s.latency.p50.as_nanos()),
            format!("{}", s.latency.p99.as_nanos()),
            format!("{}", s.goodput.as_bytes_per_sec()),
            format!("{}", r.counters.total_tlps()),
        ]);
    }
    t.to_csv()
}

#[test]
fn scenario_csv_byte_identical_across_runs() {
    // Same seed => the *serialized artifact* (not just summary floats)
    // is byte-for-byte identical across two full pipeline invocations.
    let spec = || {
        vec![
            StreamSpec::new(PathKind::Snic1, Verb::Read, 256, 5),
            StreamSpec::new(PathKind::Snic2, Verb::Write, 64, 5).with_range(1 << 16),
        ]
    };
    let a = result_csv(&run_scenario(&quick(21), &spec()));
    let b = result_csv(&run_scenario(&quick(21), &spec()));
    assert!(!a.is_empty() && a.lines().count() >= 4);
    assert_eq!(
        a.as_bytes(),
        b.as_bytes(),
        "CSV output diverged:\n{a}\nvs\n{b}"
    );
}

#[test]
fn trace_dump_byte_identical_and_ring_wraps() {
    // A deliberately tiny ring: the run records two events per request
    // (post + completion), so the ring wraps many times over — and the
    // retained tail must still be byte-identical across same-seed runs.
    let cap = 64;
    let spec = || {
        vec![
            StreamSpec::new(PathKind::Snic1, Verb::Read, 256, 5),
            StreamSpec::new(PathKind::Snic3H2S, Verb::Write, 1024, 1),
        ]
    };
    let run = || {
        let scenario = quick(13).with_trace_cap(cap);
        run_scenario(&scenario, &spec())
    };
    let a = run();
    let b = run();

    // Wraparound actually happened and eviction kept exactly `cap`.
    assert!(
        a.trace.recorded() > cap as u64,
        "ring never wrapped: {} events",
        a.trace.recorded()
    );
    assert_eq!(a.trace.iter().count(), cap);

    // Same seed => byte-identical dumps, wraparound and all.
    assert_eq!(a.trace.recorded(), b.trace.recorded());
    let da = a.trace.dump();
    let db = b.trace.dump();
    assert!(!da.is_empty());
    assert_eq!(
        da.as_bytes(),
        db.as_bytes(),
        "trace dumps diverged:\n{da}\nvs\n{db}"
    );
}

#[test]
fn trace_disabled_by_default() {
    let spec = vec![StreamSpec::new(PathKind::Snic1, Verb::Read, 256, 2)];
    let r = run_scenario(&quick(13), &spec);
    assert!(!r.trace.is_enabled());
    assert_eq!(r.trace.recorded(), 0);
}

#[test]
fn measured_breakdown_deterministic() {
    let run = || {
        let scenario = quick(29).with_metrics();
        let spec = vec![StreamSpec::new(PathKind::Snic2, Verb::Write, 512, 3)];
        run_scenario(&scenario, &spec)
    };
    let a = run();
    let b = run();
    assert_eq!(a.breakdown[0].count, b.breakdown[0].count);
    assert_eq!(a.breakdown[0].residency, b.breakdown[0].residency);
    assert_eq!(a.breakdown[0].e2e_total, b.breakdown[0].e2e_total);
    for (ca, cb) in a.metrics.counters().zip(b.metrics.counters()) {
        assert_eq!(ca, cb, "counter diverged");
    }
}

#[test]
fn fork_children_independent_of_parent() {
    // A forked child owns private state re-expanded from its derived
    // seed: however much the parent keeps drawing, the child's stream
    // is unchanged (and vice versa). This is what makes per-thread RNGs
    // in the harness insensitive to stream-creation order.
    let mut p1 = SimRng::seed(4242);
    let mut c1 = p1.fork(7);
    let undisturbed: Vec<u64> = (0..128).map(|_| c1.uniform_u64(1 << 40)).collect();

    let mut p2 = SimRng::seed(4242);
    let mut c2 = p2.fork(7);
    let mut interleaved = Vec::new();
    let mut parent_draws = Vec::new();
    for _ in 0..128 {
        parent_draws.push(p2.uniform_u64(1 << 40)); // parent races ahead
        interleaved.push(c2.uniform_u64(1 << 40));
    }
    assert_eq!(undisturbed, interleaved, "parent draws perturbed the child");
    assert_ne!(
        undisturbed, parent_draws,
        "child stream must not mirror the parent's"
    );

    // Distinct salts at the same fork point give distinct streams.
    let mut root = SimRng::seed(4242);
    let mut k1 = root.fork(1);
    let mut k2 = root.fork(2);
    let s1: Vec<u64> = (0..64).map(|_| k1.uniform_u64(1 << 40)).collect();
    let s2: Vec<u64> = (0..64).map(|_| k2.uniform_u64(1 << 40)).collect();
    assert_ne!(s1, s2, "sibling forks must be decorrelated");
}

#[test]
fn different_seeds_differ() {
    let spec = || vec![StreamSpec::new(PathKind::Snic2, Verb::Write, 64, 5).with_range(1 << 16)];
    let a = run_scenario(&quick(1), &spec());
    let b = run_scenario(&quick(2), &spec());
    // Same physics, different address streams: rates close but latencies
    // (orderings) generally not bit-identical.
    let ra = a.streams[0].ops.as_mops();
    let rb = b.streams[0].ops.as_mops();
    assert!(
        (ra - rb).abs() / ra < 0.1,
        "seeds changed physics: {ra} vs {rb}"
    );
}

#[test]
fn figure_pipeline_deterministic() {
    let a = offpath_smartnic::study::experiments::fig7_skew::run(true);
    let b = offpath_smartnic::study::experiments::fig7_skew::run(true);
    for (ta, tb) in a.iter().zip(b.iter()) {
        assert_eq!(ta.rows, tb.rows, "{}", ta.title);
    }
}

#[test]
fn cluster_worker_count_invariance() {
    // The tentpole property of the parallel cluster runtime: the same
    // scenario run on 1, 2 and 8 worker threads produces byte-identical
    // serialized artifacts and an identical metrics registry. A mix of
    // remote streams (cross-shard traffic through the switch) and a
    // path-3 stream (server-shard-local) exercises both codepaths.
    use offpath_smartnic::cluster::{run_cluster, ClusterScenario, ClusterStream};

    let run = |workers: usize| {
        let mut sc = ClusterScenario::quick().with_workers(workers).with_seed(17);
        sc.cluster.clients.truncate(6);
        let streams = vec![
            ClusterStream::new(PathKind::Snic1, Verb::Write, 4096, vec![0, 1, 2]),
            ClusterStream::new(PathKind::Snic2, Verb::Read, 256, vec![3, 4, 5]),
            ClusterStream::new(PathKind::Snic3H2S, Verb::Write, 1024, vec![]),
        ];
        run_cluster(&sc, &streams)
    };
    let a = run(1);
    assert!(
        a.streams.iter().all(|s| s.completions > 100),
        "scenario too idle to prove anything"
    );
    assert!(a.messages > 1000, "too little cross-shard traffic");

    // Shards are claimed dynamically, so which thread runs a shard
    // changes from run to run: repeat the two-worker case.
    for n in [2, 2, 2, 8] {
        let other = &run(n);
        assert_eq!(
            a.to_csv().as_bytes(),
            other.to_csv().as_bytes(),
            "CSV diverged between 1 and {n} workers:\n{}\nvs\n{}",
            a.to_csv(),
            other.to_csv()
        );
        assert_eq!(a.epochs, other.epochs, "epoch schedule diverged");
        assert_eq!(a.messages, other.messages, "message count diverged");
        let ca: Vec<(&str, u64)> = a.metrics.counters().collect();
        let co: Vec<(&str, u64)> = other.metrics.counters().collect();
        assert_eq!(ca, co, "metrics registry diverged at {n} workers");
    }
}

#[test]
fn inert_fault_spec_is_byte_identical_to_no_faults() {
    // The zero-cost guarantee: a scenario carrying an explicitly inert
    // FaultSpec must produce byte-identical CSV and metrics to the
    // default scenario that never mentions faults — the inert spec
    // installs no fault plane, so not a single verdict is rolled.
    use offpath_smartnic::simnet::faults::FaultSpec;

    let spec = || {
        vec![
            StreamSpec::new(PathKind::Snic1, Verb::Read, 256, 5),
            StreamSpec::new(PathKind::Snic3H2S, Verb::Write, 1024, 1),
        ]
    };
    let base = quick(33).with_metrics();
    let a = run_scenario(&base.clone(), &spec());
    let b = run_scenario(&base.with_faults(FaultSpec::none()), &spec());
    assert_eq!(
        result_csv(&a).as_bytes(),
        result_csv(&b).as_bytes(),
        "inert faults changed the serialized artifact"
    );
    let ca: Vec<(&str, u64)> = a.metrics.counters().collect();
    let cb: Vec<(&str, u64)> = b.metrics.counters().collect();
    assert_eq!(ca, cb, "inert faults changed the metrics registry");
    assert_eq!(a.streams[0].retransmits, 0);
    assert_eq!(a.streams[0].retry_exhausted, 0);
}

#[test]
fn cluster_inert_fault_spec_is_byte_identical() {
    use offpath_smartnic::cluster::{run_cluster, ClusterScenario, ClusterStream};
    use offpath_smartnic::simnet::faults::FaultSpec;

    let run = |sc: ClusterScenario| {
        let mut sc = sc.with_workers(1).with_seed(5);
        sc.cluster.clients.truncate(3);
        let streams = vec![ClusterStream::new(
            PathKind::Snic1,
            Verb::Write,
            512,
            vec![0, 1, 2],
        )];
        run_cluster(&sc, &streams)
    };
    let a = run(ClusterScenario::quick());
    let b = run(ClusterScenario::quick().with_faults(FaultSpec::none()));
    assert_eq!(a.to_csv().as_bytes(), b.to_csv().as_bytes());
    let ca: Vec<(&str, u64)> = a.metrics.counters().collect();
    let cb: Vec<(&str, u64)> = b.metrics.counters().collect();
    assert_eq!(ca, cb, "inert faults changed the cluster registry");
}

#[test]
fn cluster_worker_count_invariance_with_faults() {
    // Determinism must survive an *active* fault plane: wire loss drops
    // frames at the switch, requester timeouts retransmit, and a PCIe
    // degradation window derates the responder — and the results must
    // still be byte-identical for every worker count, because every
    // verdict is a pure function of (seed, src, seq), never of thread
    // scheduling.
    use offpath_smartnic::cluster::{run_cluster, ClusterScenario, ClusterStream};
    use offpath_smartnic::simnet::faults::{DegradedWindow, FaultSpec};

    let run = |workers: usize| {
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
        let mut sc = ClusterScenario::quick()
            .with_workers(workers)
            .with_seed(17)
            .with_faults(faults);
        sc.cluster.clients.truncate(6);
        let streams = vec![
            ClusterStream::new(PathKind::Snic1, Verb::Write, 4096, vec![0, 1, 2]),
            ClusterStream::new(PathKind::Snic2, Verb::Read, 256, vec![3, 4, 5]),
            ClusterStream::new(PathKind::Snic3H2S, Verb::Write, 1024, vec![]),
        ];
        run_cluster(&sc, &streams)
    };
    let a = run(1);
    let b = run(2);
    let c = run(8);
    let count = |r: &offpath_smartnic::cluster::ClusterResult, name: &str| {
        r.metrics
            .counters()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .unwrap_or(0)
    };
    assert!(
        count(&a, "rc_retransmits") > 0,
        "fault plane never fired; the test proves nothing"
    );
    assert!(count(&a, "msgs_dropped") > 0, "no frames were dropped");
    for (other, n) in [(&b, 2), (&c, 8)] {
        assert_eq!(
            a.to_csv().as_bytes(),
            other.to_csv().as_bytes(),
            "CSV diverged between 1 and {n} workers under faults"
        );
        assert_eq!(a.epochs, other.epochs, "epoch schedule diverged");
        assert_eq!(a.messages, other.messages, "message count diverged");
        let ca: Vec<(&str, u64)> = a.metrics.counters().collect();
        let co: Vec<(&str, u64)> = other.metrics.counters().collect();
        assert_eq!(ca, co, "metrics registry diverged at {n} workers");
    }
}

#[test]
fn cluster_worker_count_invariance_openloop() {
    // Open-loop arrival chains must be just as worker-count-invariant as
    // the closed loop: the Poisson chains are forked per stream index,
    // admission verdicts depend only on committed service starts, and
    // drop NACKs ride the same deterministic message plane. Overload one
    // stream so drops (the newest codepath) demonstrably fire.
    use offpath_smartnic::cluster::{run_cluster, ClusterScenario, ClusterStream};
    use offpath_smartnic::simnet::arrivals::{DropPolicy, OpenLoopSpec};

    let run = |workers: usize| {
        let mut sc = ClusterScenario::quick().with_workers(workers).with_seed(17);
        sc.cluster.clients.truncate(6);
        let streams = vec![
            ClusterStream::new(PathKind::Snic1, Verb::Write, 512, vec![0, 1, 2])
                .open_loop(OpenLoopSpec::poisson(60.0e6).with_queue_cap(16)),
            ClusterStream::new(PathKind::Snic2, Verb::Read, 256, vec![3, 4, 5]).open_loop(
                OpenLoopSpec::poisson(2.0e6)
                    .with_policy(DropPolicy::DropDeadline(Nanos::from_micros(20))),
            ),
            ClusterStream::new(PathKind::Snic3H2S, Verb::Write, 1024, vec![])
                .open_loop(OpenLoopSpec::poisson(2.0e6)),
        ];
        run_cluster(&sc, &streams)
    };
    let a = run(1);
    let b = run(2);
    let c = run(8);
    let count = |r: &offpath_smartnic::cluster::ClusterResult, name: &str| {
        r.metrics
            .counters()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .unwrap_or(0)
    };
    // Non-trivial: arrivals were generated, completions happened, and the
    // overloaded stream actually shed load.
    assert!(a.streams.iter().all(|s| s.generated > 100));
    assert!(a.streams[0].dropped > 0, "overload never dropped");
    // Conservation holds on the registry the workers merged.
    assert_eq!(
        count(&a, "openloop_generated"),
        count(&a, "openloop_completed")
            + count(&a, "openloop_dropped")
            + count(&a, "openloop_inflight")
    );
    for (other, n) in [(&b, 2), (&c, 8)] {
        assert_eq!(
            a.to_csv().as_bytes(),
            other.to_csv().as_bytes(),
            "open-loop CSV diverged between 1 and {n} workers:\n{}\nvs\n{}",
            a.to_csv(),
            other.to_csv()
        );
        assert_eq!(a.epochs, other.epochs, "epoch schedule diverged");
        assert_eq!(a.messages, other.messages, "message count diverged");
        let ca: Vec<(&str, u64)> = a.metrics.counters().collect();
        let co: Vec<(&str, u64)> = other.metrics.counters().collect();
        assert_eq!(ca, co, "metrics registry diverged at {n} workers");
    }
}

#[test]
fn cluster_worker_count_invariance_kv() {
    // The KV service must preserve the invariance with the *online
    // advisor* live: per-server placement re-decisions happen at fixed
    // epoch instants from shard-local window state, multi-trip probe
    // chains ride the deterministic message plane, and Zipf key draws
    // come from per-shard forked RNGs. Load the service hard enough
    // (with skew) that the advisor demonstrably re-places the index,
    // then demand byte-identical artifacts at 1, 2 and 8 workers.
    use offpath_smartnic::cluster::{
        advisor_policy, run_cluster, ClusterScenario, ClusterStream, KvPlacement, KvStreamSpec,
    };
    use offpath_smartnic::kvstore::{KeyDist, Mix};
    use offpath_smartnic::simnet::arrivals::OpenLoopSpec;

    let run = |workers: usize| {
        let mut sc = ClusterScenario::quick().with_workers(workers).with_seed(17);
        sc.cluster.clients.truncate(6);
        let spec = KvStreamSpec::new(
            Mix::B,
            KeyDist::Zipf(0.99),
            KvPlacement::Online(advisor_policy),
        );
        let stream = ClusterStream::kv_service(spec, (0..6).collect())
            .open_loop(OpenLoopSpec::poisson(16.0e6));
        run_cluster(&sc, &[stream])
    };
    let a = run(1);
    let b = run(2);
    let c = run(8);
    let count = |r: &offpath_smartnic::cluster::ClusterResult, name: &str| {
        r.metrics
            .counters()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .unwrap_or(0)
    };
    // Non-trivial: the service served both op kinds and the online
    // advisor actually moved the index at least once somewhere.
    assert!(count(&a, "kv_gets") > 1000, "{}", count(&a, "kv_gets"));
    assert!(count(&a, "kv_puts") > 0);
    assert!(count(&a, "kv_decisions") > 0);
    assert!(
        count(&a, "kv_design_changes") > 0,
        "load never forced a re-placement; the test proves nothing"
    );
    for (other, n) in [(&b, 2), (&c, 8)] {
        assert_eq!(
            a.to_csv().as_bytes(),
            other.to_csv().as_bytes(),
            "KV CSV diverged between 1 and {n} workers:\n{}\nvs\n{}",
            a.to_csv(),
            other.to_csv()
        );
        assert_eq!(a.epochs, other.epochs, "epoch schedule diverged");
        assert_eq!(a.messages, other.messages, "message count diverged");
        let ca: Vec<(&str, u64)> = a.metrics.counters().collect();
        let co: Vec<(&str, u64)> = other.metrics.counters().collect();
        assert_eq!(ca, co, "metrics registry diverged at {n} workers");
    }
}

#[test]
fn cluster_worker_count_invariance_farmem() {
    // The far-memory tier must preserve the invariance with its whole
    // lifecycle live: page-access draws from per-shard forked RNGs,
    // miss-triggered promotions riding the message plane, age-based
    // demotions sweeping at completion instants, and background FmPut
    // write-backs that the access stream never waits on. Run the
    // remote pool hot enough that promotions *and* demotions both
    // happen, then demand byte-identical artifacts at 1, 2 and 8
    // workers.
    use offpath_smartnic::cluster::{run_cluster, ClusterScenario, ClusterStream};
    use offpath_smartnic::farmem::{FmPlacement, FmStreamSpec};
    use offpath_smartnic::simnet::arrivals::OpenLoopSpec;

    let run = |workers: usize| {
        let mut sc = ClusterScenario::quick().with_workers(workers).with_seed(29);
        sc.cluster.clients.truncate(6);
        let stream =
            ClusterStream::fm_service(FmStreamSpec::new(FmPlacement::RemoteSoc), (0..6).collect())
                .open_loop(OpenLoopSpec::poisson(2.0e6));
        run_cluster(&sc, &[stream])
    };
    let a = run(1);
    let b = run(2);
    let c = run(8);
    let count = |r: &offpath_smartnic::cluster::ClusterResult, name: &str| {
        r.metrics
            .counters()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .unwrap_or(0)
    };
    // Non-trivial: the residency machinery demonstrably cycled pages
    // both ways and every generated access is accounted for.
    assert!(
        count(&a, "fm_accesses") > 500,
        "{}",
        count(&a, "fm_accesses")
    );
    assert!(count(&a, "fm_promotes") > 0, "no promotion ever completed");
    assert!(count(&a, "fm_demotions") > 0, "no page ever aged out");
    let s = &a.streams[0];
    assert_eq!(s.dropped, 0, "far-memory streams have no admission queue");
    assert_eq!(
        s.generated,
        s.completed_total + s.inflight,
        "conservation: generated == completed + inflight"
    );
    for (other, n) in [(&b, 2), (&c, 8)] {
        assert_eq!(
            a.to_csv().as_bytes(),
            other.to_csv().as_bytes(),
            "far-memory CSV diverged between 1 and {n} workers:\n{}\nvs\n{}",
            a.to_csv(),
            other.to_csv()
        );
        assert_eq!(a.epochs, other.epochs, "epoch schedule diverged");
        assert_eq!(a.messages, other.messages, "message count diverged");
        let ca: Vec<(&str, u64)> = a.metrics.counters().collect();
        let co: Vec<(&str, u64)> = other.metrics.counters().collect();
        assert_eq!(ca, co, "metrics registry diverged at {n} workers");
    }
}

#[test]
fn kvstore_deterministic() {
    use offpath_smartnic::kvstore::{Design, KeyDist, Mix};
    use offpath_smartnic::study::experiments::kv_tables::kv_point;
    let a = kv_point(Design::SocIndex, Mix::C, KeyDist::Zipf(0.9), true, 11);
    let b = kv_point(Design::SocIndex, Mix::C, KeyDist::Zipf(0.9), true, 11);
    assert_eq!(a.mean_latency, b.mean_latency);
    assert_eq!(a.p99_latency, b.p99_latency);
    assert_eq!(a.ops_per_sec.to_bits(), b.ops_per_sec.to_bits());
}

#[test]
fn cluster_worker_count_invariance_dpa() {
    // The BF-3 DPA plane must preserve the invariance with its whole
    // serving path live: the online advisor observing per-window DPA
    // capacity signals, gets terminating on the NIC-resident cores
    // (kick + handle, no PCIe1 crossing), and the scratch/spill
    // accounting feeding the dpa_* conservation counters. A
    // scratch-resident table under 2x load makes the advisor move the
    // index onto the plane; demand byte-identical artifacts at 1, 2
    // and 8 workers.
    use offpath_smartnic::cluster::{
        advisor_policy, run_cluster, ClusterScenario, ClusterStream, KvPlacement, KvStreamSpec,
    };
    use offpath_smartnic::kvstore::{KeyDist, Mix};
    use offpath_smartnic::simnet::arrivals::OpenLoopSpec;
    use offpath_smartnic::topology::MachineSpec;

    let run = |workers: usize| {
        let mut sc = ClusterScenario::quick().with_workers(workers).with_seed(23);
        sc.cluster.clients.truncate(6);
        let n = sc.cluster.servers.len();
        sc.cluster.servers = vec![MachineSpec::srv_with_bluefield3_dpa(); n];
        let spec = KvStreamSpec::new(
            Mix::C,
            KeyDist::Uniform,
            KvPlacement::Online(advisor_policy),
        )
        .with_keys(500)
        .with_value_size(64);
        let stream = ClusterStream::kv_service(spec, (0..6).collect())
            .open_loop(OpenLoopSpec::poisson(16.0e6));
        run_cluster(&sc, &[stream])
    };
    let a = run(1);
    let b = run(2);
    let c = run(8);
    let count = |r: &offpath_smartnic::cluster::ClusterResult, name: &str| {
        r.metrics
            .counters()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .unwrap_or(0)
    };
    // Non-trivial: the advisor demonstrably moved the index onto the
    // DPA plane, and the plane's accounting conserves every serve.
    assert!(count(&a, "kv_gets") > 1000, "{}", count(&a, "kv_gets"));
    assert!(
        count(&a, "kv_dpa_gets") > 0,
        "load never moved the index onto the DPA; the test proves nothing"
    );
    assert_eq!(
        count(&a, "dpa_served"),
        count(&a, "dpa_scratch_hits") + count(&a, "dpa_spills"),
        "DPA conservation: served == scratch hits + spills"
    );
    assert_eq!(count(&a, "kv_dpa_gets"), count(&a, "dpa_served"));
    for (other, n) in [(&b, 2), (&c, 8)] {
        assert_eq!(
            a.to_csv().as_bytes(),
            other.to_csv().as_bytes(),
            "DPA CSV diverged between 1 and {n} workers:\n{}\nvs\n{}",
            a.to_csv(),
            other.to_csv()
        );
        assert_eq!(a.epochs, other.epochs, "epoch schedule diverged");
        assert_eq!(a.messages, other.messages, "message count diverged");
        let ca: Vec<(&str, u64)> = a.metrics.counters().collect();
        let co: Vec<(&str, u64)> = other.metrics.counters().collect();
        assert_eq!(ca, co, "metrics registry diverged at {n} workers");
    }
}
