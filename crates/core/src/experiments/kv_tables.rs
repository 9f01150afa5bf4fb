//! Figure 1 and the YCSB mixes, measured on the rack KV service.
//!
//! Every point is one [`kv_point`] run: a one-client, one-server rack
//! whose [`snic_cluster::kv`] service is pinned to one [`Design`], driven
//! by a single requester thread with one op in flight. The one-sided
//! RNIC row runs on a ConnectX-6 server, the other designs on a
//! BlueField-2. The store is loaded enough that one-sided gets walk
//! multi-bucket probe chains: 3,500 keys in 1,024 buckets (`quick`) or
//! 200k keys in 64 Ki buckets, 256 B values.

use simnet::time::Nanos;
use snic_cluster::{run_cluster, ClusterScenario, ClusterStream, KvPlacement, KvStreamSpec};
use snic_kvstore::{Design, KeyDist, Mix};
use topology::MachineSpec;

use crate::report::{fmt_f, Table};

/// One measured design point.
#[derive(Debug, Clone, Copy)]
pub struct KvPoint {
    /// Mean op latency over the measurement window.
    pub mean_latency: Nanos,
    /// p99 op latency over the measurement window.
    pub p99_latency: Nanos,
    /// Mean network round trips per get.
    pub mean_trips: f64,
    /// Ops completed in the measurement window.
    pub ops: u64,
    /// Completed ops per second.
    pub ops_per_sec: f64,
}

/// Runs `mix` under `dist` against one server serving `design`: 4 ms
/// of measurement (`quick`, at least 300 ops for every design) or 45
/// ms, after a 100 µs warmup.
///
/// A one-sided get is charged one `kv_probe_trips` per READ (the chain
/// reply, each further probe, the value); the other designs answer a
/// get in one round trip and charge none.
pub fn kv_point(design: Design, mix: Mix, dist: KeyDist, quick: bool, seed: u64) -> KvPoint {
    let (n_keys, index_buckets, window) = if quick {
        (3_500, 1024, Nanos::from_millis(4))
    } else {
        (200_000, 64 << 10, Nanos::from_millis(45))
    };
    let spec = KvStreamSpec {
        index_buckets,
        ..KvStreamSpec::new(mix, dist, KvPlacement::Static(design)).with_keys(n_keys)
    };
    let mut sc = ClusterScenario::quick().with_workers(1).with_seed(seed);
    sc.duration = sc.warmup + window;
    sc.cluster.servers = vec![match design {
        Design::OneSidedRnic => MachineSpec::srv_with_rnic(),
        _ => MachineSpec::srv_with_bluefield(),
    }];
    sc.cluster.clients.truncate(1);
    let st = ClusterStream::kv_service(spec, vec![0])
        .with_threads(1)
        .with_window(1);
    let r = run_cluster(&sc, &[st]);
    let counter = |name| r.metrics.counter_value(name).unwrap_or(0);
    let (gets, trips) = (counter("kv_gets"), counter("kv_probe_trips"));
    let s = &r.streams[0];
    KvPoint {
        mean_latency: s.latency.mean,
        p99_latency: s.latency.p99,
        mean_trips: if trips == 0 {
            1.0
        } else {
            trips as f64 / gets as f64
        },
        ops: s.completions,
        ops_per_sec: s.ops.as_per_sec(),
    }
}

/// Regenerates the Figure 1 comparison table.
pub fn fig1_table(quick: bool) -> Table {
    let mut t = Table::new(
        "Fig 1: KV get designs (loaded index, uniform keys)",
        &[
            "design",
            "mean latency [us]",
            "p99 [us]",
            "net round trips",
            "gets/s (1 client)",
        ],
    );
    for d in Design::ALL {
        let p = kv_point(d, Mix::C, KeyDist::Uniform, quick, 7);
        t.push(vec![
            d.label().to_string(),
            fmt_f(p.mean_latency.as_micros_f64()),
            fmt_f(p.p99_latency.as_micros_f64()),
            fmt_f(p.mean_trips),
            fmt_f(p.ops_per_sec),
        ]);
    }
    t
}

/// Renders the full design x mix comparison.
pub fn ycsb_table(quick: bool, dist: KeyDist) -> Table {
    let dist_label = match dist {
        KeyDist::Uniform => "uniform".to_string(),
        KeyDist::Zipf(t) => format!("zipf({t})"),
    };
    let mut t = Table::new(
        format!("YCSB mixes over KV designs ({dist_label} keys)"),
        &["design", "mix", "ops/s", "mean [us]", "p99 [us]"],
    );
    for d in Design::ALL {
        for m in Mix::ALL {
            let p = kv_point(d, m, dist, quick, 11);
            t.push(vec![
                d.label().to_string(),
                m.label().to_string(),
                fmt_f(p.ops_per_sec),
                fmt_f(p.mean_latency.as_micros_f64()),
                fmt_f(p.p99_latency.as_micros_f64()),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_table_has_all_designs() {
        let t = fig1_table(true);
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn offloaded_index_removes_the_amplification() {
        let point = |d| kv_point(d, Mix::C, KeyDist::Uniform, true, 7);
        let of = point(Design::SocIndex);
        assert_eq!(of.mean_trips, 1.0);
        for d in Design::ALL {
            let p = point(d);
            assert!(p.ops >= 300, "{d:?} measured {} gets", p.ops);
            if let Design::OneSidedRnic | Design::OneSidedSnic = d {
                assert!(p.mean_trips > 1.5, "{d:?} trips {}", p.mean_trips);
                assert!(of.mean_latency < p.mean_latency, "{d:?} mean");
                assert!(of.p99_latency < p.p99_latency, "{d:?} p99");
            }
        }
    }

    #[test]
    fn offload_wins_read_heavy_skewed_mix() {
        // Zipfian C-mix: the hottest keys were loaded first and sit in
        // their home buckets, yet a one-sided get still pays the chain
        // reply plus the value READ, and the colder tail walks longer
        // chains; the offloaded index stays one round trip.
        let os = kv_point(Design::OneSidedSnic, Mix::C, KeyDist::Zipf(0.99), true, 5);
        let of = kv_point(Design::SocIndex, Mix::C, KeyDist::Zipf(0.99), true, 5);
        assert!(
            of.p99_latency < os.p99_latency,
            "offload p99 {} !< one-sided p99 {}",
            of.p99_latency,
            os.p99_latency
        );
    }

    #[test]
    fn table_covers_design_mix_matrix() {
        let t = ycsb_table(true, KeyDist::Uniform);
        assert_eq!(t.rows.len(), 4 * 3);
    }
}
