//! Cluster-level (testbed) description.

use simnet::time::{Bandwidth, Nanos};

use crate::machine::MachineSpec;

/// The network fabric between machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireSpec {
    /// One-way latency between any two NICs through the switch (switch
    /// store-and-forward + SerDes + cables).
    pub one_way_latency: Nanos,
    /// Per-port bandwidth of the switch.
    pub port_bw: Bandwidth,
    /// Maximum switch ports one NIC may bond (§2.4: the 200 Gbps NICs
    /// connect with *two* 100 Gbps ports so the switch does not
    /// bottleneck them). Port-level arbitration in `snic-cluster`
    /// consumes this instead of assuming it in a comment.
    pub ports_per_nic: u32,
}

impl WireSpec {
    /// The Mellanox SB7890 100 Gbps InfiniBand switch of the paper's
    /// testbed. 200 Gbps NICs connect with two ports, so the switch does
    /// not bottleneck them (§2.4).
    pub fn sb7890() -> Self {
        WireSpec {
            one_way_latency: Nanos::new(450),
            port_bw: Bandwidth::gbps(100.0),
            ports_per_nic: 2,
        }
    }

    /// Number of switch ports a NIC of bandwidth `nic_bw` actually
    /// bonds: enough ports to carry its line rate, capped by the cabling
    /// limit [`WireSpec::ports_per_nic`]. A 100 Gbps ConnectX-4 gets one
    /// port; a 200 Gbps ConnectX-6 / Bluefield-2 gets two.
    pub fn ports_for(&self, nic_bw: Bandwidth) -> u32 {
        if self.port_bw.is_zero() {
            return 1;
        }
        let need = (nic_bw.as_gbps() / self.port_bw.as_gbps()).ceil() as u32;
        need.clamp(1, self.ports_per_nic.max(1))
    }

    /// Aggregate switch-side bandwidth available to a NIC of bandwidth
    /// `nic_bw` (ports × per-port bandwidth).
    pub fn nic_port_bw(&self, nic_bw: Bandwidth) -> Bandwidth {
        self.port_bw.scale(self.ports_for(nic_bw) as f64)
    }
}

/// The whole testbed: servers under test, client machines, and the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Server machines (responders / SmartNIC carriers).
    pub servers: Vec<MachineSpec>,
    /// Client machines (requesters).
    pub clients: Vec<MachineSpec>,
    /// Interconnect.
    pub wire: WireSpec,
}

impl ClusterSpec {
    /// The paper's rack-scale testbed (Table 2): 3 SRV machines (each can
    /// carry a Bluefield-2 or a ConnectX-6) and 20 CLI machines with
    /// ConnectX-4, all on one SB7890 switch.
    pub fn paper_testbed() -> Self {
        ClusterSpec {
            servers: vec![MachineSpec::srv_with_bluefield(); 3],
            clients: vec![MachineSpec::cli(); 20],
            wire: WireSpec::sb7890(),
        }
    }

    /// A testbed whose servers carry plain RNICs (the baseline rows).
    pub fn rnic_testbed() -> Self {
        ClusterSpec {
            servers: vec![MachineSpec::srv_with_rnic(); 3],
            clients: vec![MachineSpec::cli(); 20],
            wire: WireSpec::sb7890(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let t = ClusterSpec::paper_testbed();
        assert_eq!(t.servers.len(), 3);
        assert_eq!(t.clients.len(), 20);
        assert!(t.servers[0].nic.smartnic().is_some());
    }

    #[test]
    fn rnic_testbed_has_no_soc() {
        let t = ClusterSpec::rnic_testbed();
        assert!(t.servers[0].nic.smartnic().is_none());
    }

    #[test]
    fn wire_does_not_limit_200g_nics() {
        // Two 100 Gbps ports connect each 200 Gbps NIC (§2.4) — now an
        // explicit model, not a comment.
        let w = WireSpec::sb7890();
        assert_eq!(w.ports_per_nic, 2);
        assert_eq!(w.ports_for(Bandwidth::gbps(200.0)), 2);
        assert!(w.nic_port_bw(Bandwidth::gbps(200.0)).as_gbps() >= 200.0);
    }

    #[test]
    fn port_bonding_is_capped_and_floored() {
        let w = WireSpec::sb7890();
        // A 100 Gbps CX-4 needs (and gets) a single port.
        assert_eq!(w.ports_for(Bandwidth::gbps(100.0)), 1);
        // A hypothetical 400 Gbps NIC is capped at the cabling limit.
        assert_eq!(w.ports_for(Bandwidth::gbps(400.0)), 2);
        // Degenerate bandwidths still get one port.
        assert_eq!(w.ports_for(Bandwidth::gbps(0.0)), 1);
    }
}
