//! One representative point of every paper figure, as a timed bench:
//! `cargo bench` therefore exercises the full experiment matrix end to
//! end (with micro horizons; `run_all` runs the full sweeps).
//!
//! Runs on the in-tree harness (`snic_bench::timing`); tune with
//! `BENCH_SAMPLES` / `BENCH_WARMUP`.

use nicsim::{PathKind, Verb};
use simnet::time::Nanos;
use snic_bench::timing::Bench;
use snic_core::harness::{run_scenario, Scenario, ServerKind, StreamSpec};
use snic_core::model::{BottleneckModel, LatencyModel, PacketModel};
use snic_kvstore::{Design, KeyDist, KvConfig};

/// A scenario short enough to iterate under the timing harness.
fn micro() -> Scenario {
    Scenario {
        warmup: Nanos::from_micros(50),
        duration: Nanos::from_micros(350),
        ..Scenario::default()
    }
}

fn bench_fig4(b: &Bench) {
    b.run("fig4/snic1_read_64b_throughput", || {
        let spec = StreamSpec::new(PathKind::Snic1, Verb::Read, 64, 5);
        run_scenario(&micro(), &[spec]).streams[0].ops.as_mops()
    });
    let m = LatencyModel::paper_testbed();
    b.run("fig4/latency_model_all_paths", || {
        PathKind::ALL
            .iter()
            .map(|&p| m.predict(p, Verb::Read, 64).as_nanos())
            .sum::<u64>()
    });
}

fn bench_fig5(b: &Bench) {
    b.run("fig5/read_write_multiplex", || {
        let mut a = StreamSpec::new(PathKind::Snic1, Verb::Read, 4096, 4).with_window(8);
        a.clients = vec![0, 1];
        let mut w = StreamSpec::new(PathKind::Snic1, Verb::Write, 4096, 4).with_window(8);
        w.clients = vec![2, 3];
        run_scenario(&micro(), &[a, w]).total_goodput().as_gbps()
    });
}

fn bench_fig7(b: &Bench) {
    b.run("fig7/soc_write_narrow_range", || {
        let spec = StreamSpec::new(PathKind::Snic2, Verb::Write, 64, 5).with_range(1536);
        run_scenario(&micro(), &[spec]).streams[0].ops.as_mops()
    });
}

fn bench_fig8(b: &Bench) {
    b.run("fig8/soc_read_12mb_collapsed", || {
        let sc = Scenario {
            warmup: Nanos::from_millis(2),
            duration: Nanos::from_millis(12),
            ..Scenario::default()
        };
        let spec = StreamSpec::new(PathKind::Snic2, Verb::Read, 12 << 20, 2)
            .with_threads(2)
            .with_window(2);
        run_scenario(&sc, &[spec]).streams[0].goodput.as_gbps()
    });
}

fn bench_fig9(b: &Bench) {
    b.run("fig9/s2h_256kb_peak", || {
        let sc = Scenario {
            warmup: Nanos::from_millis(1),
            duration: Nanos::from_millis(6),
            ..Scenario::default()
        };
        let spec = StreamSpec::new(PathKind::Snic3S2H, Verb::Read, 256 << 10, 1)
            .with_threads(4)
            .with_window(3);
        run_scenario(&sc, &[spec]).streams[0].goodput.as_gbps()
    });
}

fn bench_fig10(b: &Bench) {
    let m = rdma_sim::PostCostModel::new(
        &topology::MachineSpec::srv_with_bluefield(),
        rdma_sim::PosterKind::SocCore,
    );
    b.run("fig10/doorbell_model_sweep", || {
        (1..=80).map(|n| m.db_speedup(n)).sum::<f64>()
    });
}

fn bench_fig11(b: &Bench) {
    b.run("fig11/zero_byte_saturation", || {
        let spec = StreamSpec::new(PathKind::Snic1, Verb::Read, 0, 5).with_window(16);
        run_scenario(&micro(), &[spec]).streams[0].ops.as_mops()
    });
}

fn bench_table3(b: &Bench) {
    let pm = PacketModel::default();
    b.run("table3/packet_model", || {
        PathKind::ALL
            .iter()
            .map(|&p| pm.packets(p, 1 << 20).total())
            .sum::<u64>()
    });
    let bm = BottleneckModel::bluefield2();
    b.run("table3/bottleneck_model", || {
        bm.path3_budget().as_gbps()
            + bm.concurrent_limit(PathKind::Snic1, PathKind::Snic3H2S)
                .as_gbps()
    });
}

fn bench_fig1(b: &Bench) {
    let cfg = KvConfig {
        n_keys: 2000,
        index_buckets: 1024,
        value_size: 256,
        n_clients: 2,
    };
    b.run("fig1/kv_gets_soc_offload", || {
        snic_kvstore::run_gets(Design::SocIndex, cfg, 50, KeyDist::Uniform, 3).gets_per_sec
    });
}

fn bench_rnic_baseline(b: &Bench) {
    b.run("baseline/rnic_read_64b", || {
        let sc = Scenario {
            server: ServerKind::Rnic,
            ..micro()
        };
        let spec = StreamSpec::new(PathKind::Rnic1, Verb::Read, 64, 5);
        run_scenario(&sc, &[spec]).streams[0].ops.as_mops()
    });
}

fn main() {
    let b = Bench::from_env(10);
    bench_fig4(&b);
    bench_fig5(&b);
    bench_fig7(&b);
    bench_fig8(&b);
    bench_fig9(&b);
    bench_fig10(&b);
    bench_fig11(&b);
    bench_table3(&b);
    bench_fig1(&b);
    bench_rnic_baseline(&b);
}
