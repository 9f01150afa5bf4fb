//! Ablations of the mechanisms DESIGN.md §7 flags: each test turns one
//! architectural knob of the Bluefield-2 model and checks that the
//! figure metric it drives moves the way the paper explains.
//!
//! 1. PU reservation split (Figure 11): units reserved per endpoint cap
//!    a path running alone.
//! 2. Completion-reorder buffer (Figure 8): the large-READ collapse sets
//!    in past `slots × MTU`.
//! 3. DDIO (Figure 7): the host LLC absorbs hot-line WRITEs.
//! 4. SoC PCIe MTU (Figure 8, Advice #2): a larger MTU lifts the
//!    collapse threshold.
//!
//! The doorbell-batching polarity (Figure 10) is pinned by
//! `pin_fig10_host_db_regression` in `crates/core/tests/calibration.rs`.
//! Each test asserts a direction with a margin, not exact values.

use offpath_smartnic::nicsim::{PathKind, Verb};
use offpath_smartnic::simnet::time::Nanos;
use offpath_smartnic::study::harness::{run_scenario, Scenario, ServerKind, StreamSpec};
use offpath_smartnic::topology::{MachineSpec, NicDevice, SmartNicSpec};

/// A short run: enough for small-request saturation.
fn micro(server: ServerKind) -> Scenario {
    Scenario {
        server,
        warmup: Nanos::from_micros(50),
        duration: Nanos::from_micros(350),
        ..Scenario::default()
    }
}

/// A run long enough for a few multi-MB READs to complete.
fn long(server: ServerKind) -> Scenario {
    Scenario {
        server,
        warmup: Nanos::from_millis(8),
        duration: Nanos::from_millis(40),
        ..Scenario::default()
    }
}

/// A Bluefield machine with one machine-level knob turned.
fn machine(modify: impl FnOnce(&mut MachineSpec)) -> ServerKind {
    let mut m = MachineSpec::srv_with_bluefield();
    modify(&mut m);
    ServerKind::Custom(m)
}

/// A Bluefield machine with one SmartNIC knob turned.
fn smartnic(modify: impl FnOnce(&mut SmartNicSpec)) -> ServerKind {
    machine(|m| match &mut m.nic {
        NicDevice::SmartNic(s) => modify(s),
        NicDevice::Rnic(_) => unreachable!("the Bluefield machine carries a SmartNIC"),
    })
}

/// Peak M req/s of one stream.
fn mops(sc: &Scenario, spec: StreamSpec) -> f64 {
    run_scenario(sc, &[spec]).streams[0].ops.as_mops()
}

/// Goodput in Gbps of one stream.
fn gbps(sc: &Scenario, spec: StreamSpec) -> f64 {
    run_scenario(sc, &[spec]).streams[0].goodput.as_gbps()
}

/// Two threads with two outstanding multi-MB READs each against the SoC.
fn soc_large_read(payload: u64) -> StreamSpec {
    StreamSpec::new(PathKind::Snic2, Verb::Read, payload, 2)
        .with_threads(2)
        .with_window(2)
}

#[test]
fn pu_reservation_caps_a_path_running_alone() {
    // A path alone can use only the shared pool plus its own reserved
    // units, so every unit reserved per endpoint lowers its 0 B peak.
    let peak = |reserved: u32| {
        let server = smartnic(|s| s.nic.pu_reserved_per_endpoint = reserved);
        let spec = StreamSpec::new(PathKind::Snic1, Verb::Read, 0, 8).with_window(16);
        mops(&micro(server), spec)
    };
    let (r0, r3, r6) = (peak(0), peak(3), peak(6));
    assert!(r0 > 1.05 * r3, "reserve 0: {r0:.0} vs 3: {r3:.0} M req/s");
    assert!(r3 > 1.05 * r6, "reserve 3: {r3:.0} vs 6: {r6:.0} M req/s");
}

#[test]
fn reorder_buffer_sets_the_large_read_collapse() {
    // 8 MB exceeds 36K slots x 128 B but fits in 72K slots: doubling
    // the buffer lifts the READ out of the collapse.
    let read = |slots: u64| {
        let server = smartnic(|s| s.nic.reorder_tlp_slots = slots);
        gbps(&long(server), soc_large_read(8 << 20))
    };
    let (small, large) = (read(36 << 10), read(72 << 10));
    assert!(
        large > 1.3 * small,
        "36K: {small:.0} vs 72K: {large:.0} Gbps"
    );
}

#[test]
fn ddio_absorbs_hot_line_host_writes() {
    // WRITEs confined to one 128 B stripe of host memory: the LLC
    // absorbs them under DDIO; without it they serialize on one DRAM
    // channel's open row.
    let write = |ddio: bool| {
        let server = machine(|m| m.host.ddio = ddio);
        let spec = StreamSpec::new(PathKind::Snic1, Verb::Write, 64, 5).with_range(128);
        mops(&micro(server), spec)
    };
    let (on, off) = (write(true), write(false));
    assert!(on > 1.4 * off, "DDIO on: {on:.0} vs off: {off:.0} M req/s");
}

#[test]
fn soc_mtu_scales_the_collapse_threshold() {
    // The collapse threshold is slots x MTU: 12 MB collapses at a
    // 128 B SoC MTU and clears it at 256 B.
    let read = |mtu: u64| {
        let server = smartnic(|s| s.soc.pcie_mtu = mtu);
        gbps(&long(server), soc_large_read(12 << 20))
    };
    let (narrow, wide) = (read(128), read(256));
    assert!(
        wide > 1.3 * narrow,
        "MTU 128: {narrow:.0} vs 256: {wide:.0} Gbps"
    );
}
