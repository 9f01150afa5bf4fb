//! Hardware-style PCIe performance counters.
//!
//! Bluefield exposes per-channel packet counters [paper ref 29]; the
//! authors used them to produce Figure 8(b) and Figure 9(b). The simulator
//! mirrors that observability: every component that pushes TLPs across a
//! link also tick these counters, and the figure harness reads them back.

use std::collections::BTreeMap;

use simnet::time::{Nanos, Rate};

/// Identifies one PCIe channel of the simulated fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkId {
    /// The channel between NIC cores and the PCIe switch ("PCIe1").
    Pcie1,
    /// The channel between the PCIe switch and the host ("PCIe0").
    Pcie0,
    /// The requester-side host PCIe channel (client machines).
    ClientPcie,
    /// The direct attach between switch and SoC memory (not a PCIe channel
    /// on real hardware, but counted for symmetric observability).
    SocAttach,
}

impl LinkId {
    /// All counted links, in display order.
    pub const ALL: [LinkId; 4] = [
        LinkId::Pcie1,
        LinkId::Pcie0,
        LinkId::ClientPcie,
        LinkId::SocAttach,
    ];

    /// Human-readable channel name matching the paper's notation.
    pub fn name(self) -> &'static str {
        match self {
            LinkId::Pcie1 => "PCIe1",
            LinkId::Pcie0 => "PCIe0",
            LinkId::ClientPcie => "client-PCIe",
            LinkId::SocAttach => "SoC-attach",
        }
    }

    /// The latency-attribution hop charged for residency on this link
    /// (see `simnet::metrics`): components that reserve a link record
    /// their span under this category.
    pub fn hop(self) -> simnet::metrics::Hop {
        match self {
            LinkId::Pcie1 => simnet::metrics::Hop::Pcie1,
            LinkId::Pcie0 => simnet::metrics::Hop::Pcie0,
            LinkId::ClientPcie => simnet::metrics::Hop::ClientNic,
            LinkId::SocAttach => simnet::metrics::Hop::SocAttach,
        }
    }
}

/// Direction of a counted transfer relative to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CountDir {
    /// Towards the endpoint (downstream).
    Down,
    /// From the endpoint (upstream).
    Up,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    tlps: u64,
    data_tlps: u64,
    bytes: u64,
}

/// Aggregated per-link, per-direction TLP and byte counts.
///
/// # Examples
///
/// ```
/// use pcie_model::counters::{CountDir, LinkId, PcieCounters};
/// use simnet::time::Nanos;
///
/// let mut c = PcieCounters::new();
/// c.count(LinkId::Pcie1, CountDir::Down, 8, 4096);
/// assert_eq!(c.tlps(LinkId::Pcie1), 8);
/// assert_eq!(c.bytes(LinkId::Pcie1), 4096);
/// let rate = c.tlp_rate(LinkId::Pcie1, Nanos::from_micros(1));
/// assert!((rate.as_mops() - 8.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PcieCounters {
    tallies: BTreeMap<(LinkId, CountDir), Tally>,
}

impl PcieCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `tlps` packets carrying `bytes` of payload on a link.
    /// Packets with zero payload are control TLPs (read requests etc.)
    /// and are excluded from the data-TLP tallies.
    pub fn count(&mut self, link: LinkId, dir: CountDir, tlps: u64, bytes: u64) {
        let t = self.tallies.entry((link, dir)).or_default();
        t.tlps += tlps;
        if bytes > 0 {
            t.data_tlps += tlps;
        }
        t.bytes += bytes;
    }

    /// Total TLPs on `link`, both directions.
    pub fn tlps(&self, link: LinkId) -> u64 {
        self.dir_tlps(link, CountDir::Down) + self.dir_tlps(link, CountDir::Up)
    }

    /// TLPs on `link` in one direction.
    pub fn dir_tlps(&self, link: LinkId, dir: CountDir) -> u64 {
        self.tallies.get(&(link, dir)).map_or(0, |t| t.tlps)
    }

    /// Data-bearing TLPs on `link`, both directions (Table 3's metric:
    /// the simplified model "omits control path packets").
    pub fn data_tlps(&self, link: LinkId) -> u64 {
        self.dir_data_tlps(link, CountDir::Down) + self.dir_data_tlps(link, CountDir::Up)
    }

    /// Data-bearing TLPs on `link` in one direction.
    pub fn dir_data_tlps(&self, link: LinkId, dir: CountDir) -> u64 {
        self.tallies.get(&(link, dir)).map_or(0, |t| t.data_tlps)
    }

    /// Total payload bytes on `link`, both directions.
    pub fn bytes(&self, link: LinkId) -> u64 {
        self.dir_bytes(link, CountDir::Down) + self.dir_bytes(link, CountDir::Up)
    }

    /// Payload bytes on `link` in one direction.
    pub fn dir_bytes(&self, link: LinkId, dir: CountDir) -> u64 {
        self.tallies.get(&(link, dir)).map_or(0, |t| t.bytes)
    }

    /// TLPs summed over every link — the "PCIe packets the SmartNIC must
    /// process" metric of Figure 9(b).
    pub fn total_tlps(&self) -> u64 {
        self.tallies.values().map(|t| t.tlps).sum()
    }

    /// TLP throughput on one link over an elapsed window.
    pub fn tlp_rate(&self, link: LinkId, elapsed: Nanos) -> Rate {
        Rate::over(self.tlps(link), elapsed)
    }

    /// TLP throughput across all links over an elapsed window.
    pub fn total_tlp_rate(&self, elapsed: Nanos) -> Rate {
        Rate::over(self.total_tlps(), elapsed)
    }

    /// Snapshot used to compute deltas across a measurement window.
    pub fn snapshot(&self) -> PcieCounters {
        self.clone()
    }

    /// Per-link difference `self - earlier` (counters are monotonic).
    pub fn delta_since(&self, earlier: &PcieCounters) -> PcieCounters {
        let mut out = PcieCounters::new();
        for (&k, &t) in &self.tallies {
            let before = earlier.tallies.get(&k).copied().unwrap_or_default();
            out.tallies.insert(
                k,
                Tally {
                    tlps: t.tlps - before.tlps,
                    data_tlps: t.data_tlps - before.data_tlps,
                    bytes: t.bytes - before.bytes,
                },
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_accumulates_per_direction() {
        let mut c = PcieCounters::new();
        c.count(LinkId::Pcie0, CountDir::Down, 3, 300);
        c.count(LinkId::Pcie0, CountDir::Up, 2, 200);
        c.count(LinkId::Pcie0, CountDir::Down, 1, 100);
        assert_eq!(c.dir_tlps(LinkId::Pcie0, CountDir::Down), 4);
        assert_eq!(c.dir_tlps(LinkId::Pcie0, CountDir::Up), 2);
        assert_eq!(c.tlps(LinkId::Pcie0), 6);
        assert_eq!(c.bytes(LinkId::Pcie0), 600);
    }

    #[test]
    fn links_are_independent() {
        let mut c = PcieCounters::new();
        c.count(LinkId::Pcie1, CountDir::Down, 5, 0);
        assert_eq!(c.tlps(LinkId::Pcie0), 0);
        assert_eq!(c.total_tlps(), 5);
    }

    #[test]
    fn delta_since_subtracts() {
        let mut c = PcieCounters::new();
        c.count(LinkId::Pcie1, CountDir::Down, 10, 1000);
        let snap = c.snapshot();
        c.count(LinkId::Pcie1, CountDir::Down, 7, 700);
        c.count(LinkId::Pcie0, CountDir::Up, 2, 20);
        let d = c.delta_since(&snap);
        assert_eq!(d.tlps(LinkId::Pcie1), 7);
        assert_eq!(d.tlps(LinkId::Pcie0), 2);
        assert_eq!(d.bytes(LinkId::Pcie1), 700);
    }

    #[test]
    fn rates_over_window() {
        let mut c = PcieCounters::new();
        c.count(LinkId::Pcie1, CountDir::Up, 100, 0);
        let r = c.total_tlp_rate(Nanos::from_micros(1));
        assert!((r.as_mops() - 100.0).abs() < 1e-9);
        assert_eq!(c.tlp_rate(LinkId::Pcie1, Nanos::ZERO).as_per_sec(), 0.0);
    }

    #[test]
    fn link_names_match_paper() {
        assert_eq!(LinkId::Pcie1.name(), "PCIe1");
        assert_eq!(LinkId::Pcie0.name(), "PCIe0");
    }
}
