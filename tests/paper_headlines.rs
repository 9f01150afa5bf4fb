//! End-to-end assertions of the paper's headline findings, exercised
//! through the full stack (topology -> nicsim -> rdma -> harness).
//!
//! These are the "abstract results" of the study; each test names the
//! paper section it reproduces.

use offpath_smartnic::nicsim::{PathKind, Verb};
use offpath_smartnic::simnet::time::Nanos;
use offpath_smartnic::study::harness::{
    measure_latency, run_scenario, Scenario, ServerKind, StreamSpec,
};
use offpath_smartnic::study::model::BottleneckModel;

fn quick() -> Scenario {
    Scenario {
        warmup: Nanos::from_micros(100),
        duration: Nanos::from_micros(700),
        ..Scenario::default()
    }
}

/// §3.1: being "smart" taxes the host path — READ latency 15-30% up,
/// small-payload throughput 19-26% down.
#[test]
fn headline_snic1_tax() {
    let r_lat = measure_latency(PathKind::Rnic1, Verb::Read, 64).latency.p50;
    let s_lat = measure_latency(PathKind::Snic1, Verb::Read, 64).latency.p50;
    let tax = s_lat.as_nanos() as f64 / r_lat.as_nanos() as f64 - 1.0;
    assert!((0.08..=0.35).contains(&tax), "latency tax {tax:.2}");

    let rn = run_scenario(
        &Scenario {
            server: ServerKind::Rnic,
            ..quick()
        },
        &[StreamSpec::new(PathKind::Rnic1, Verb::Read, 64, 11)],
    );
    let sn = run_scenario(
        &quick(),
        &[StreamSpec::new(PathKind::Snic1, Verb::Read, 64, 11)],
    );
    let drop = 1.0 - sn.streams[0].ops.as_mops() / rn.streams[0].ops.as_mops();
    assert!((0.10..=0.35).contains(&drop), "throughput drop {drop:.2}");
}

/// §3.2: the RDMA path to the SoC is up to 1.48x faster than to the
/// host, and (for READ) can beat even the plain RNIC.
#[test]
fn headline_soc_path_faster() {
    let s1 = run_scenario(
        &quick(),
        &[StreamSpec::new(PathKind::Snic1, Verb::Read, 64, 11)],
    );
    let s2 = run_scenario(
        &quick(),
        &[StreamSpec::new(PathKind::Snic2, Verb::Read, 64, 11)],
    );
    let ratio = s2.streams[0].ops.as_mops() / s1.streams[0].ops.as_mops();
    assert!((1.05..=1.60).contains(&ratio), "SNIC2/SNIC1 {ratio:.2}");

    let rn = run_scenario(
        &Scenario {
            server: ServerKind::Rnic,
            ..quick()
        },
        &[StreamSpec::new(PathKind::Rnic1, Verb::Read, 64, 11)],
    );
    assert!(
        s2.streams[0].ops.as_mops() > rn.streams[0].ops.as_mops(),
        "SNIC2 READ should beat the RNIC ({} vs {})",
        s2.streams[0].ops,
        rn.streams[0].ops
    );
}

/// §3.2 Advice #1: skewed writes against the SoC collapse; the DDIO host
/// does not.
#[test]
fn headline_skew_anomaly() {
    let narrow = run_scenario(
        &quick(),
        &[StreamSpec::new(PathKind::Snic2, Verb::Write, 64, 11).with_range(1536)],
    );
    let wide = run_scenario(
        &quick(),
        &[StreamSpec::new(PathKind::Snic2, Verb::Write, 64, 11).with_range(1 << 20)],
    );
    let collapse = wide.streams[0].ops.as_mops() / narrow.streams[0].ops.as_mops();
    assert!(
        collapse > 2.0,
        "SoC write skew collapse only {collapse:.2}x"
    );

    let host_narrow = run_scenario(
        &quick(),
        &[StreamSpec::new(PathKind::Snic1, Verb::Write, 64, 11).with_range(1536)],
    );
    let host_wide = run_scenario(
        &quick(),
        &[StreamSpec::new(PathKind::Snic1, Verb::Write, 64, 11).with_range(1 << 20)],
    );
    let host_ratio = host_wide.streams[0].ops.as_mops() / host_narrow.streams[0].ops.as_mops();
    assert!(
        (0.8..=1.3).contains(&host_ratio),
        "DDIO host should be flat, got {host_ratio:.2}x"
    );
}

/// §3.2 Advice #2: READs above 9 MB to the SoC collapse; segmenting them
/// (the advice) recovers the bandwidth.
#[test]
fn headline_large_read_collapse_and_mitigation() {
    let sc = Scenario {
        warmup: Nanos::from_millis(10),
        duration: Nanos::from_millis(60),
        ..Scenario::default()
    };
    let big = StreamSpec::new(PathKind::Snic2, Verb::Read, 12 << 20, 4)
        .with_threads(2)
        .with_window(2);
    let collapsed = run_scenario(&sc, &[big]).streams[0].goodput.as_gbps();

    // Mitigation: the same bytes in 1 MB chunks (12x the requests).
    let seg = StreamSpec::new(PathKind::Snic2, Verb::Read, 1 << 20, 4)
        .with_threads(2)
        .with_window(24);
    let segmented = run_scenario(&sc, &[seg]).streams[0].goodput.as_gbps();
    assert!(
        segmented > 1.2 * collapsed,
        "segmentation should recover bandwidth: {segmented:.0} vs {collapsed:.0} Gbps"
    );
}

/// §3.3: path 3 peaks above the wire-bound paths (PCIe-bound, ~204 vs
/// ~191 Gbps) but collapses for large transfers.
#[test]
fn headline_path3_bottlenecks() {
    let sc = Scenario {
        warmup: Nanos::from_millis(10),
        duration: Nanos::from_millis(60),
        ..Scenario::default()
    };
    let peak = run_scenario(
        &sc,
        &[
            StreamSpec::new(PathKind::Snic3S2H, Verb::Read, 256 << 10, 1)
                .with_threads(4)
                .with_window(3),
        ],
    )
    .streams[0]
        .goodput
        .as_gbps();
    let wire_bound = run_scenario(
        &sc,
        &[StreamSpec::new(PathKind::Snic1, Verb::Read, 256 << 10, 6)
            .with_threads(4)
            .with_window(2)],
    )
    .streams[0]
        .goodput
        .as_gbps();
    assert!(
        peak > wire_bound,
        "path 3 ({peak:.0}) should exceed the wire-bound path ({wire_bound:.0})"
    );

    let collapsed = run_scenario(
        &sc,
        &[StreamSpec::new(PathKind::Snic3S2H, Verb::Read, 12 << 20, 1)
            .with_threads(4)
            .with_window(3)],
    )
    .streams[0]
        .goodput
        .as_gbps();
    assert!(
        collapsed < 0.75 * peak,
        "large path-3 transfers should collapse: {collapsed:.0} vs peak {peak:.0}"
    );
}

/// §4: the P-N budget — capping intra-machine traffic at the spare PCIe
/// headroom beats letting it run free.
#[test]
fn headline_budget_rule() {
    let uncapped = offpath_smartnic::study::experiments::budget::aggregate_gbps(true, None);
    let capped = offpath_smartnic::study::experiments::budget::aggregate_gbps(
        true,
        Some(BottleneckModel::bluefield2().path3_budget()),
    );
    assert!(
        capped > uncapped,
        "budgeted {capped:.0} Gbps should beat uncapped {uncapped:.0} Gbps"
    );
}

/// Figure 1: the SmartNIC-offloaded KV design removes the network
/// amplification of the one-sided design.
#[test]
fn headline_kvstore_offload() {
    use offpath_smartnic::kvstore::{Design, KeyDist, Mix};
    use offpath_smartnic::study::experiments::kv_tables::kv_point;
    let os = kv_point(Design::OneSidedSnic, Mix::C, KeyDist::Uniform, true, 1);
    let of = kv_point(Design::SocIndex, Mix::C, KeyDist::Uniform, true, 1);
    assert!(os.mean_trips > 1.5);
    assert!((of.mean_trips - 1.0).abs() < 1e-9);
    assert!(of.mean_latency < os.mean_latency);
}
