//! The SmartNIC-internal PCIe switch.
//!
//! Bluefield-2 integrates a PCIe switch that bridges the NIC cores (via
//! PCIe1), the host (via PCIe0) and the SoC (attached directly to the
//! switch, not via a PCIe channel — §2.3). Every path that crosses the
//! switch pays its store-and-forward latency, which the paper puts at
//! 150–200 ns one way; this is the SmartNIC "performance tax" of §3.1.

use simnet::time::Nanos;

/// Static description of a PCIe switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchSpec {
    /// One-way traversal latency per crossing.
    pub crossing_latency: Nanos,
}

impl SwitchSpec {
    /// A switch with the paper's quoted 150–200 ns traversal; we take the
    /// midpoint.
    pub fn bluefield2() -> Self {
        SwitchSpec {
            crossing_latency: Nanos::new(175),
        }
    }

    /// A switch with a custom latency (for ablations).
    pub fn with_latency(crossing_latency: Nanos) -> Self {
        SwitchSpec { crossing_latency }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bluefield_default_in_paper_range() {
        let s = SwitchSpec::bluefield2();
        let ns = s.crossing_latency.as_nanos();
        assert!((150..=200).contains(&ns), "{ns}");
    }
}
