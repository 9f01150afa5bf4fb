//! PCIe link bandwidth model.
//!
//! A link's usable bandwidth is its raw lane rate, reduced by line encoding
//! (128b/130b from Gen3 on) and by per-TLP protocol overhead (TLP header,
//! DLLP, framing). The per-TLP overhead is why a link moving 128-byte TLPs
//! (the SoC "PCIe MTU" in the paper) delivers markedly less payload
//! bandwidth than the same link moving 512-byte TLPs — one of the
//! mechanisms behind the paper's Figure 8.

use simnet::time::Bandwidth;

/// Per-TLP protocol overhead in bytes: 12 B TLP header (3DW, no address
/// extension) + 2 B framing + 4 B sequence/LCRC + ~8 B amortized DLLP
/// (ACK/flow-control), following Neugebauer et al. (SIGCOMM'18).
pub const TLP_OVERHEAD_BYTES: u64 = 26;

/// PCIe generation (transfer rate per lane).
///
/// Gen1/Gen2 exist for *degraded-link* modeling: a marginal link (bad
/// riser, signal-integrity fault) retrains to a lower generation, a mode
/// Liu et al. observed on Bluefield-2 deployments (Gen4 -> Gen1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcieGen {
    /// 2.5 GT/s per lane, 8b/10b encoding (degraded-link mode).
    Gen1,
    /// 5 GT/s per lane, 8b/10b encoding (degraded-link mode).
    Gen2,
    /// 8 GT/s per lane, 128b/130b encoding.
    Gen3,
    /// 16 GT/s per lane, 128b/130b encoding.
    Gen4,
    /// 32 GT/s per lane, 128b/130b encoding.
    Gen5,
}

impl PcieGen {
    /// Raw transfer rate per lane in gigatransfers/s (= Gb/s pre-encoding).
    pub fn gt_per_lane(self) -> f64 {
        match self {
            PcieGen::Gen1 => 2.5,
            PcieGen::Gen2 => 5.0,
            PcieGen::Gen3 => 8.0,
            PcieGen::Gen4 => 16.0,
            PcieGen::Gen5 => 32.0,
        }
    }

    /// Line-encoding efficiency (8b/10b through Gen2, 128b/130b from
    /// Gen3 on).
    pub fn encoding_efficiency(self) -> f64 {
        match self {
            PcieGen::Gen1 | PcieGen::Gen2 => 0.8,
            PcieGen::Gen3 | PcieGen::Gen4 | PcieGen::Gen5 => 128.0 / 130.0,
        }
    }
}

/// Static description of one PCIe link (one hop of the fabric).
///
/// `mps` is the negotiated Maximum Payload Size — what the paper calls the
/// "PCIe MTU" (512 B towards the host, 128 B towards the Bluefield-2 SoC).
/// `mrrs` is the Maximum Read Request Size.
///
/// # Examples
///
/// ```
/// use pcie_model::link::PcieLinkSpec;
/// use pcie_model::PcieGen;
///
/// // The Bluefield-2 PCIe0: Gen4 x16, 512 B MPS towards the host.
/// let l = PcieLinkSpec::new(PcieGen::Gen4, 16, 512, 512);
/// let raw = l.raw_bandwidth().as_gbps();
/// assert!((raw - 252.0).abs() < 1.0, "raw = {raw}"); // 256 * 128/130
/// // Payload bandwidth at full-size TLPs is lower still.
/// assert!(l.payload_bandwidth(512).as_gbps() < raw);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieLinkSpec {
    /// Link generation.
    pub gen: PcieGen,
    /// Number of lanes.
    pub lanes: u32,
    /// Maximum Payload Size in bytes (the "PCIe MTU").
    pub mps: u64,
    /// Maximum Read Request Size in bytes.
    pub mrrs: u64,
}

impl PcieLinkSpec {
    /// Creates a link spec.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`, or `mps`/`mrrs` are zero or not powers of
    /// two (PCIe negotiates powers of two between 128 B and 4096 B).
    pub fn new(gen: PcieGen, lanes: u32, mps: u64, mrrs: u64) -> Self {
        assert!(lanes > 0, "a link needs at least one lane");
        for (name, v) in [("mps", mps), ("mrrs", mrrs)] {
            assert!(
                v.is_power_of_two() && (128..=4096).contains(&v),
                "{name} must be a power of two in [128, 4096], got {v}"
            );
        }
        PcieLinkSpec {
            gen,
            lanes,
            mps,
            mrrs,
        }
    }

    /// Post-encoding link bandwidth, before TLP overhead.
    pub fn raw_bandwidth(&self) -> Bandwidth {
        Bandwidth::gbps(self.gen.gt_per_lane() * self.lanes as f64 * self.gen.encoding_efficiency())
    }

    /// Usable *payload* bandwidth when every TLP carries `tlp_payload`
    /// bytes: raw bandwidth scaled by payload / (payload + overhead).
    ///
    /// # Panics
    ///
    /// Panics if `tlp_payload == 0`.
    pub fn payload_bandwidth(&self, tlp_payload: u64) -> Bandwidth {
        assert!(tlp_payload > 0, "a TLP must carry payload");
        let eff = tlp_payload as f64 / (tlp_payload + TLP_OVERHEAD_BYTES) as f64;
        self.raw_bandwidth().scale(eff)
    }

    /// Wire bytes (payload + headers) for a transfer of `payload_bytes`
    /// segmented at this link's MPS.
    pub fn wire_bytes(&self, payload_bytes: u64) -> u64 {
        let tlps = crate::tlp::tlp_count(payload_bytes, self.mps);
        payload_bytes + tlps * TLP_OVERHEAD_BYTES
    }

    /// This link retrained to a lower generation and/or width — same
    /// negotiated MPS/MRRS, degraded signaling (fault injection).
    pub fn degraded(&self, gen: PcieGen, lanes: u32) -> Self {
        PcieLinkSpec::new(gen, lanes, self.mps, self.mrrs)
    }

    /// How many times slower `to` serves the same transfer than this
    /// link: the raw-bandwidth ratio. This is the mechanistic source of
    /// a `DegradedWindow`'s slowdown factor — e.g. Gen4 x16 retraining
    /// to Gen1 x16 yields 16/2.5 * (128/130)/0.8 ~ 7.9.
    pub fn slowdown_versus(&self, to: &PcieLinkSpec) -> f64 {
        let healthy = self.raw_bandwidth().as_gbps();
        let degraded = to.raw_bandwidth().as_gbps();
        assert!(degraded > 0.0, "degraded link must still move bits");
        (healthy / degraded).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_rates() {
        assert_eq!(PcieGen::Gen1.gt_per_lane(), 2.5);
        assert_eq!(PcieGen::Gen2.gt_per_lane(), 5.0);
        assert_eq!(PcieGen::Gen3.gt_per_lane(), 8.0);
        assert_eq!(PcieGen::Gen4.gt_per_lane(), 16.0);
        assert_eq!(PcieGen::Gen5.gt_per_lane(), 32.0);
        // Legacy generations use 8b/10b encoding.
        assert_eq!(PcieGen::Gen1.encoding_efficiency(), 0.8);
        assert_eq!(PcieGen::Gen2.encoding_efficiency(), 0.8);
    }

    #[test]
    fn degraded_retrain_and_slowdown() {
        let healthy = PcieLinkSpec::new(PcieGen::Gen4, 16, 512, 512);
        let degraded = healthy.degraded(PcieGen::Gen1, 16);
        assert_eq!(degraded.mps, healthy.mps);
        assert_eq!(degraded.mrrs, healthy.mrrs);
        let s = healthy.slowdown_versus(&degraded);
        // 16 GT/s * 128/130 vs 2.5 GT/s * 0.8 per lane.
        let expect = (16.0 * 128.0 / 130.0) / (2.5 * 0.8);
        assert!((s - expect).abs() < 0.01, "slowdown {s} vs {expect}");
        // Same link: no slowdown; never below 1.
        assert_eq!(healthy.slowdown_versus(&healthy), 1.0);
        assert_eq!(degraded.slowdown_versus(&healthy), 1.0);
    }

    #[test]
    fn gen4_x16_raw_bandwidth() {
        let l = PcieLinkSpec::new(PcieGen::Gen4, 16, 512, 512);
        let g = l.raw_bandwidth().as_gbps();
        assert!((g - 256.0 * 128.0 / 130.0).abs() < 0.01, "{g}");
    }

    #[test]
    fn gen3_x16_raw_bandwidth() {
        let l = PcieLinkSpec::new(PcieGen::Gen3, 16, 256, 512);
        let g = l.raw_bandwidth().as_gbps();
        assert!((g - 128.0 * 128.0 / 130.0).abs() < 0.01, "{g}");
    }

    #[test]
    fn smaller_mtu_means_less_payload_bandwidth() {
        let l = PcieLinkSpec::new(PcieGen::Gen4, 16, 512, 512);
        let big = l.payload_bandwidth(512).as_gbps();
        let small = l.payload_bandwidth(128).as_gbps();
        assert!(small < big, "{small} !< {big}");
        // 128 B TLPs lose ~17% to headers, 512 B lose ~5%.
        assert!((small / big - (128.0 / 154.0) / (512.0 / 538.0)).abs() < 0.01);
    }

    #[test]
    fn wire_bytes_accounts_headers() {
        let l = PcieLinkSpec::new(PcieGen::Gen4, 16, 512, 512);
        // 1024 B at 512 B MPS = 2 TLPs.
        assert_eq!(l.wire_bytes(1024), 1024 + 2 * TLP_OVERHEAD_BYTES);
        // Zero-byte transfers still cost nothing on the wire here; control
        // TLPs are charged separately by the NIC model.
        assert_eq!(l.wire_bytes(0), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_mps() {
        PcieLinkSpec::new(PcieGen::Gen4, 16, 300, 512);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn rejects_zero_lanes() {
        PcieLinkSpec::new(PcieGen::Gen4, 0, 512, 512);
    }

    #[test]
    #[should_panic(expected = "must carry payload")]
    fn rejects_zero_tlp_payload() {
        PcieLinkSpec::new(PcieGen::Gen4, 16, 512, 512).payload_bandwidth(0);
    }
}
