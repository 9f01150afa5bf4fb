//! Property-based tests of cross-stack invariants (in-tree
//! `simnet::prop` harness; failures print a reproducing `PROP_SEED`).

use offpath_smartnic::nicsim::{Fabric, PathKind, RequestDesc, Verb};
use offpath_smartnic::pcie::tlp::{completion_tlps, read_request_tlps, tlp_count, write_tlps};
use offpath_smartnic::simnet::prop::check;
use offpath_smartnic::simnet::resource::{MultiServer, Server};
use offpath_smartnic::simnet::stats::Histogram;
use offpath_smartnic::simnet::time::Nanos;
use offpath_smartnic::simnet::{prop_assert, prop_assert_eq};

/// Completions never precede posts, and milestones stay ordered, for
/// any verb/path/payload combination.
#[test]
fn fabric_milestones_ordered() {
    check("fabric_milestones_ordered", |g| {
        let verb = Verb::ALL[g.usize(0..3)];
        let path = PathKind::ALL[g.usize(0..5)];
        let payload = g.u64(0..(1 << 20));
        let posted_us = g.u64(0..1000);
        let mut f = if path == PathKind::Rnic1 {
            Fabric::rnic_testbed(1)
        } else {
            Fabric::bluefield_testbed(1)
        };
        let c = f.execute(
            Nanos::from_micros(posted_us),
            RequestDesc::new(verb, path, payload, 4096, 0),
        );
        prop_assert!(c.posted <= c.nic_start);
        prop_assert!(c.nic_start <= c.completed);
        Ok(())
    });
}

/// Request latency is monotone in payload for one-sided verbs on an
/// otherwise idle fabric.
#[test]
fn latency_monotone_in_payload() {
    check("latency_monotone_in_payload", |g| {
        let small = g.u64(1..(1 << 16));
        let factor = g.u64(2..16);
        let large = small * factor;
        let mut f1 = Fabric::bluefield_testbed(1);
        let c_small = f1.execute(
            Nanos::ZERO,
            RequestDesc::new(Verb::Read, PathKind::Snic1, small, 0, 0),
        );
        let mut f2 = Fabric::bluefield_testbed(1);
        let c_large = f2.execute(
            Nanos::ZERO,
            RequestDesc::new(Verb::Read, PathKind::Snic1, large, 0, 0),
        );
        prop_assert!(c_large.latency() >= c_small.latency());
        Ok(())
    });
}

/// TLP counts: splitting a transfer never reduces the packet count,
/// and counts are exact for multiples.
#[test]
fn tlp_count_superadditive() {
    check("tlp_count_superadditive", |g| {
        let a = g.u64(1..(1 << 22));
        let b = g.u64(1..(1 << 22));
        let mtu = 1u64 << g.u32(7..13);
        prop_assert!(tlp_count(a, mtu) + tlp_count(b, mtu) >= tlp_count(a + b, mtu));
        prop_assert_eq!(tlp_count(a * mtu, mtu), a);
        Ok(())
    });
}

/// A DMA read returns as many completions as a write of the same size
/// at the same MPS sends data TLPs, and at MRRS = MPS it sends as many
/// requests.
#[test]
fn read_write_budget_symmetry() {
    check("read_write_budget_symmetry", |g| {
        let bytes = g.u64(0..(1 << 24));
        let mps = 1u64 << g.u32(7..13);
        prop_assert_eq!(write_tlps(bytes, mps), completion_tlps(bytes, mps));
        prop_assert_eq!(read_request_tlps(bytes, mps), completion_tlps(bytes, mps));
        Ok(())
    });
}

/// FIFO servers never start a request before its arrival and never
/// overlap service.
#[test]
fn server_reservations_are_disjoint() {
    check("server_reservations_are_disjoint", |g| {
        let arrivals = g.vec(1..64, |g| g.u64(0..10_000));
        let mut s = Server::new();
        let mut last_finish = Nanos::ZERO;
        for a in arrivals {
            let r = s.reserve(Nanos::new(a), Nanos::new(10));
            prop_assert!(r.start >= Nanos::new(a));
            prop_assert!(r.start >= last_finish);
            last_finish = r.finish;
        }
        Ok(())
    });
}

/// A k-unit pool admits at most k overlapping reservations.
#[test]
fn multiserver_parallelism_bounded() {
    check("multiserver_parallelism_bounded", |g| {
        let k = g.usize(1..8);
        let n = g.usize(1..64);
        let mut m = MultiServer::new(k);
        let service = Nanos::new(100);
        let mut finishes: Vec<Nanos> = Vec::new();
        for _ in 0..n {
            finishes.push(m.reserve(Nanos::ZERO, service).finish);
        }
        // With all arrivals at t=0, the i-th completion (sorted) is at
        // ceil((i+1)/k) * service.
        finishes.sort();
        for (i, f) in finishes.iter().enumerate() {
            let wave = (i / k + 1) as u64;
            prop_assert_eq!(f.as_nanos(), wave * 100);
        }
        Ok(())
    });
}

/// Histogram percentiles are monotone and bounded by min/max.
#[test]
fn histogram_percentiles_monotone() {
    check("histogram_percentiles_monotone", |g| {
        let values = g.vec(1..256, |g| g.u64(1..1_000_000));
        let mut h = Histogram::new();
        for &v in &values {
            h.record(Nanos::new(v));
        }
        let p = |q: f64| h.percentile(q);
        prop_assert!(p(10.0) <= p(50.0));
        prop_assert!(p(50.0) <= p(90.0));
        prop_assert!(p(90.0) <= p(99.9));
        prop_assert!(p(0.0) >= h.min());
        prop_assert!(p(100.0) <= h.max());
        Ok(())
    });
}

/// Open-loop rack runs conserve operations exactly: every generated
/// arrival is either completed, dropped by admission, or still in flight
/// at the horizon — for any rate, queue bound, drop policy and path —
/// and the run is byte-identical at 1 and 2 workers.
#[test]
fn open_loop_conserves_ops() {
    check("open_loop_conserves_ops", |g| {
        use offpath_smartnic::cluster::{run_cluster, ClusterScenario, ClusterStream};
        use offpath_smartnic::simnet::arrivals::{DropPolicy, OpenLoopSpec};

        let paths = [
            PathKind::Snic1,
            PathKind::Snic2,
            PathKind::Snic3H2S,
            PathKind::Snic3S2H,
        ];
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
        let clients = if path.is_remote() {
            vec![0, 1, 2]
        } else {
            vec![]
        };
        let streams =
            [ClusterStream::new(path, Verb::Write, g.u64(1..4096), clients).open_loop(spec)];
        let run = |workers| run_cluster(&sc.clone().with_workers(workers), &streams);
        let r = run(1);
        let s = &r.streams[0];
        prop_assert!(s.generated > 0, "no arrivals generated");
        prop_assert_eq!(s.generated, s.completed_total + s.dropped + s.inflight);
        prop_assert_eq!(r.to_csv(), run(2).to_csv());
        Ok(())
    });
}

/// KV index: any insertion set round-trips, whatever the key set.
#[test]
fn kv_index_roundtrip() {
    check("kv_index_roundtrip", |g| {
        use offpath_smartnic::kvstore::HashIndex;
        let keys = g.hash_set_u64(0..1_000_000, 1..256);
        let mut idx = HashIndex::new(512, 0);
        let mut inserted = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            if idx.insert(k, i as u64 * 64, 64).is_ok() {
                inserted.push((k, i as u64 * 64));
            }
        }
        for (k, addr) in inserted {
            let l = idx.lookup(k);
            prop_assert!(l.is_ok(), "lost key {k}");
            prop_assert_eq!(l.unwrap().entry.value_addr, addr);
        }
        Ok(())
    });
}
