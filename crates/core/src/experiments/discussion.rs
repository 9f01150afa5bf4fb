//! §5 Discussion experiments: generalization and vendor suggestions.
//!
//! Three what-ifs the paper argues qualitatively, quantified on our
//! models:
//!
//! * **on-path vs off-path separation** (§2.2) — offloaded compute on an
//!   on-path NIC steals host throughput; on the off-path design the SoC
//!   can be fully busy without touching the host path;
//! * **Bluefield-3** (§5) — same architecture, rescaled parts: the
//!   anomalies persist, with shifted knees (predicted from the models);
//! * **CXL for host<->SoC** (§5) — removing the double PCIe1 crossing
//!   would lift path 3's ceiling and cut its packet load.

use nicsim::{PathKind, Verb};
use simnet::time::Nanos;
use topology::{MachineSpec, NicSpec, SmartNicSpec};

use crate::harness::{run_scenario, Scenario, ServerKind, StreamSpec};
use crate::model::{BottleneckModel, PacketModel};
use crate::report::{fmt_bytes, fmt_f, Table};

/// Host-path throughput on the off-path design, plus the SoC-core
/// utilization it induces.
///
/// On the off-path architecture, *pure compute* offloaded to the SoC
/// (the paper's path 4) shares no resource with the host datapath — we
/// verify that structurally: serving the host path leaves the SoC cores
/// completely idle, so any amount of SoC-local computation is free.
fn offpath_host_and_soc_util(quick: bool) -> (f64, f64) {
    let sc = super::scenario(quick);
    let streams = vec![StreamSpec::new(PathKind::Snic1, Verb::Read, 64, 5)];
    let (r, fabric) = crate::harness::run_scenario_detailed(&sc, &streams);
    let soc_util = fabric.server.utilization(sc.duration)[3];
    (r.streams[0].ops.as_mops(), soc_util)
}

/// On-path vs off-path: who keeps the host path safe under offload?
pub fn separation_table(quick: bool) -> Table {
    let mut t = Table::new(
        "§2.2/§5: host-path throughput under offloaded compute [M reqs/s]",
        &["design", "no offload", "offload busy", "degradation"],
    );
    // On-path (a LiquidIO-class device on the same core complex):
    // offloaded code steals NIC cores from the packet pipeline, so host
    // capacity is the core peak scaled by the share left to it.
    let offload_share = 0.5;
    let on_free = NicSpec::connectx6().peak_request_rate_mops();
    let on_busy = on_free * (1.0 - offload_share);
    t.push(vec![
        "on-path (LiquidIO-like, 50% cores offloaded)".into(),
        fmt_f(on_free),
        fmt_f(on_busy),
        format!("{:.0}%", (1.0 - on_busy / on_free) * 100.0),
    ]);
    // Off-path: the host datapath never touches the SoC cores, so
    // compute-only offload (path 4) cannot degrade it. We verify the
    // structural claim: full host load leaves the SoC cores idle.
    let (off_free, soc_util) = offpath_host_and_soc_util(quick);
    assert!(
        soc_util < 1e-9,
        "host path unexpectedly consumed SoC cores: {soc_util}"
    );
    t.push(vec![
        "off-path (Bluefield-2, SoC compute saturated)".into(),
        fmt_f(off_free),
        fmt_f(off_free),
        "0% (structural separation)".into(),
    ]);
    t
}

/// Bluefield-3 what-if: the model-predicted knees and ceilings.
pub fn bluefield3_table() -> Table {
    let bf2 = SmartNicSpec::bluefield2();
    let bf3 = SmartNicSpec::bluefield3();
    let m2 = BottleneckModel::from_spec(&bf2);
    let m3 = BottleneckModel::from_spec(&bf3);
    let mut t = Table::new(
        "§5: Bluefield-2 vs Bluefield-3 (model predictions)",
        &["metric", "BF-2", "BF-3"],
    );
    t.push(vec![
        "NIC bandwidth [Gbps]".into(),
        fmt_f(bf2.nic.network_bw.as_gbps()),
        fmt_f(bf3.nic.network_bw.as_gbps()),
    ]);
    t.push(vec![
        "PCIe1 raw [Gbps]".into(),
        fmt_f(bf2.pcie1.raw_bandwidth().as_gbps()),
        fmt_f(bf3.pcie1.raw_bandwidth().as_gbps()),
    ]);
    t.push(vec![
        "path-3 budget P-N [Gbps]".into(),
        fmt_f(m2.path3_budget().as_gbps()),
        fmt_f(m3.path3_budget().as_gbps()),
    ]);
    t.push(vec![
        "READ collapse threshold (SoC)".into(),
        fmt_bytes(bf2.read_collapse_threshold()),
        fmt_bytes(bf3.read_collapse_threshold()),
    ]);
    t.push(vec![
        "host-path tax one-way [ns]".into(),
        bf2.host_path_tax_oneway().as_nanos().to_string(),
        bf3.host_path_tax_oneway().as_nanos().to_string(),
    ]);
    t.push(vec![
        "NIC-core peak [M reqs/s]".into(),
        fmt_f(bf2.nic.peak_request_rate_mops()),
        fmt_f(bf3.nic.peak_request_rate_mops()),
    ]);
    t
}

/// Measured Bluefield-3 behaviour on the simulator (the architecture is
/// the same, so the anomalies persist).
pub fn bluefield3_measured(quick: bool) -> Table {
    let sc = Scenario {
        server: ServerKind::Custom(MachineSpec::srv_with_bluefield3()),
        ..super::scenario(quick)
    };
    let mut t = Table::new(
        "§5: Bluefield-3 measured on the simulator",
        &["metric", "value"],
    );
    let r = run_scenario(&sc, &[StreamSpec::new(PathKind::Snic2, Verb::Read, 64, 11)]);
    t.push(vec![
        "SNIC(2) READ 64B [M reqs/s]".into(),
        fmt_f(r.streams[0].ops.as_mops()),
    ]);
    let sc_l = Scenario {
        server: ServerKind::Custom(MachineSpec::srv_with_bluefield3()),
        warmup: Nanos::from_millis(10),
        duration: Nanos::from_millis(if quick { 60 } else { 150 }),
        ..Scenario::default()
    };
    // The collapse knee moves to slots * 128 B = 18 MB on BF-3.
    for payload in [16u64 << 20, 24 << 20] {
        let spec = StreamSpec::new(PathKind::Snic2, Verb::Read, payload, 6)
            .with_threads(2)
            .with_window(3);
        let r = run_scenario(&sc_l, &[spec]);
        t.push(vec![
            format!("SNIC(2) READ {} [Gbps]", fmt_bytes(payload)),
            fmt_f(r.streams[0].goodput.as_gbps()),
        ]);
    }
    t
}

/// CXL what-if: host<->SoC transfers without the PCIe1 double-crossing.
pub fn cxl_table() -> Table {
    let bf2 = SmartNicSpec::bluefield2();
    let packets = PacketModel::default();
    let mut t = Table::new(
        "§5: CXL suggestion — path 3 with vs without the PCIe1 double-crossing",
        &["metric", "today (via RNIC)", "with CXL (switch-direct)"],
    );
    // Packets per 1 MiB moved host<->SoC.
    let today = packets.packets(PathKind::Snic3S2H, 1 << 20);
    let cxl_pkts = (1u64 << 20) / 512; // one crossing at host MTU
    t.push(vec![
        "PCIe packets per 1M transferred".into(),
        (today.pcie1 + today.pcie0).to_string(),
        cxl_pkts.to_string(),
    ]);
    // Ceiling: today the uni-directional PCIe (both dirs of PCIe1
    // consumed); with CXL each direction carries one crossing.
    let m = BottleneckModel::from_spec(&bf2);
    let today_bw = m.unidirectional_limit(PathKind::Snic3H2S);
    t.push(vec![
        "uni-directional ceiling [Gbps]".into(),
        fmt_f(today_bw.as_gbps()),
        fmt_f(bf2.pcie0.raw_bandwidth().as_gbps()),
    ]);
    t.push(vec![
        "opposite-direction flows multiplex?".into(),
        "no (PCIe1 exhausted)".into(),
        "yes (2x ceiling)".into(),
    ]);
    t
}

/// Runs the discussion experiments.
pub fn run(quick: bool) -> Vec<Table> {
    vec![
        separation_table(quick),
        bluefield3_table(),
        bluefield3_measured(quick),
        cxl_table(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offpath_separation_holds() {
        // §2.2: the host datapath never consumes SoC cores (the table
        // asserts it), so offloaded compute is structurally isolated —
        // while the on-path design loses host throughput in proportion
        // to the offloaded share.
        let t = separation_table(true);
        let (on_path, off_path) = (&t.rows[0], &t.rows[1]);
        assert!(on_path[0].starts_with("on-path"), "{on_path:?}");
        assert_eq!(on_path[3], "50%", "on-path must lose proportionally");
        let host_rate: f64 = off_path[1].parse().expect("numeric");
        assert!(host_rate > 10.0, "off-path host rate {host_rate}");
    }

    #[test]
    fn bf3_budget_scales_with_pcie5() {
        let m3 = BottleneckModel::from_spec(&SmartNicSpec::bluefield3());
        let b = m3.path3_budget().as_gbps();
        // 504 raw - 400 NIC ~ 104 Gbps.
        assert!((80.0..=120.0).contains(&b), "BF-3 budget {b:.0}");
    }

    #[test]
    fn bf3_collapse_knee_doubles() {
        let bf3 = SmartNicSpec::bluefield3();
        assert_eq!(bf3.nic.reorder_tlp_slots * bf3.soc.pcie_mtu, 18 << 20);
    }

    #[test]
    fn bf3_still_collapses_past_its_knee() {
        let t = bluefield3_measured(true);
        let at_16mb: f64 = t.rows[1][1].parse().expect("numeric");
        let at_24mb: f64 = t.rows[2][1].parse().expect("numeric");
        assert!(
            at_24mb < 0.8 * at_16mb,
            "BF-3 should still collapse past 18 MB: {at_16mb} vs {at_24mb}"
        );
    }

    #[test]
    fn cxl_cuts_packets_six_fold() {
        let t = cxl_table();
        let today: f64 = t.rows[0][1].parse().expect("numeric");
        let cxl: f64 = t.rows[0][2].parse().expect("numeric");
        assert!((5.5..=6.5).contains(&(today / cxl)), "{today} vs {cxl}");
    }
}
