//! Property-based tests of the device simulator (in-tree `simnet::prop`
//! harness; failures print a reproducing `PROP_SEED`).

use memsys::MemOp;
use nicsim::{Endpoint, Fabric, PathKind, RequestDesc, ServerMachine, Verb};
use simnet::prop::check;
use simnet::time::Nanos;
use simnet::{prop_assert, prop_assert_eq};
use topology::MachineSpec;

/// DMA legs are causal and the counters never decrease.
#[test]
fn dma_causality_and_counters() {
    check("dma_causality_and_counters", |g| {
        let ops = g.vec(1..64, |g| {
            (g.u64(0..(1 << 22)), g.u64(1..65536), g.bool(), g.bool())
        });
        let mut s = ServerMachine::new(MachineSpec::srv_with_bluefield());
        let mut last_total = 0;
        for &(addr, bytes, is_read, to_soc) in &ops {
            let ep = if to_soc {
                Endpoint::Soc
            } else {
                Endpoint::Host
            };
            let op = if is_read { MemOp::Read } else { MemOp::Write };
            let leg = s.dma(Nanos::new(500), ep, op, addr & !63, bytes, true);
            prop_assert!(leg.data_ready >= Nanos::new(500));
            let total = s.counters().total_tlps();
            prop_assert!(total >= last_total);
            last_total = total;
        }
        Ok(())
    });
}

/// For any payload, TLP counters after one WRITE match the Table 3
/// arithmetic exactly.
#[test]
fn write_counters_match_table3() {
    check("write_counters_match_table3", |g| {
        use pcie_model::counters::LinkId;
        let bytes = g.u64(1..(1 << 22));
        let to_soc = g.bool();
        let mut s = ServerMachine::new(MachineSpec::srv_with_bluefield());
        let ep = if to_soc {
            Endpoint::Soc
        } else {
            Endpoint::Host
        };
        s.dma(Nanos::ZERO, ep, MemOp::Write, 0, bytes, true);
        let mtu = if to_soc { 128 } else { 512 };
        let expect = bytes.div_ceil(mtu);
        prop_assert_eq!(s.counters().tlps(LinkId::Pcie1), expect);
        if to_soc {
            prop_assert_eq!(s.counters().tlps(LinkId::SocAttach), expect);
            prop_assert_eq!(s.counters().tlps(LinkId::Pcie0), 0);
        } else {
            prop_assert_eq!(s.counters().tlps(LinkId::Pcie0), expect);
        }
        Ok(())
    });
}

/// Path-3 composites: moving N bytes never completes before the
/// theoretical minimum (N at the PCIe1 raw rate, twice).
#[test]
fn intra_dma_respects_physics() {
    check("intra_dma_respects_physics", |g| {
        let kb = g.u64(1..4096);
        let s2h = g.bool();
        let bytes = kb << 10;
        let mut s = ServerMachine::new(MachineSpec::srv_with_bluefield());
        let (req, src, dst) = if s2h {
            (Endpoint::Soc, Endpoint::Soc, Endpoint::Host)
        } else {
            (Endpoint::Host, Endpoint::Host, Endpoint::Soc)
        };
        let leg = s.intra_dma(Nanos::ZERO, req, src, dst, 0, 0, bytes);
        // 252 Gbps = 31.5 GB/s; each byte crosses PCIe1 twice but the two
        // crossings use different directions, so the floor is one pass.
        let floor = Nanos::from_nanos_f64(bytes as f64 / 31.5);
        prop_assert!(
            leg.data_ready >= floor,
            "{} < floor {}",
            leg.data_ready,
            floor
        );
        Ok(())
    });
}

/// The fabric never loses a request: every execute returns a finite,
/// ordered completion even under randomized batches.
#[test]
fn fabric_robust_under_random_load() {
    check("fabric_robust_under_random_load", |g| {
        let reqs = g.vec(1..128, |g| {
            (
                g.usize(0..3),
                g.usize(0..5),
                g.u64(0..(1 << 16)),
                g.u64(0..200),
            )
        });
        let mut f = Fabric::bluefield_testbed(2);
        for &(verb_i, path_i, payload, t_us) in &reqs {
            let path = PathKind::ALL[path_i];
            if path == PathKind::Rnic1 {
                continue; // this fabric carries a SmartNIC
            }
            let verb = Verb::ALL[verb_i];
            let c = f.execute(
                Nanos::from_micros(t_us),
                RequestDesc::new(verb, path, payload, payload & !63, 0),
            );
            prop_assert!(c.completed >= c.posted);
            prop_assert!(c.completed < Nanos::from_secs(1), "runaway completion");
        }
        Ok(())
    });
}
