//! NIC and SmartNIC device specifications.

use memsys::dram::DramSpec;
use pcie_model::link::{PcieGen, PcieLinkSpec};
use pcie_model::switch::SwitchSpec;
use simnet::time::{Bandwidth, Nanos};

/// Specification of the RDMA NIC-core complex (a ConnectX-class ASIC).
///
/// Processing-unit (PU) structure: the ASIC exposes `pu_total` request
/// processors. On Bluefield, a few are *reserved* per endpoint (host/SoC)
/// and the rest are shared — the paper's §4 microbenchmark ("most NIC
/// cores are still shared ... and only a few is dedicated") is how the
/// reservation is observable, and `pu_reserved_per_endpoint` encodes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicSpec {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Aggregate network bandwidth (all ports).
    pub network_bw: Bandwidth,
    /// Total request processing units.
    pub pu_total: u32,
    /// PUs reserved for each directly-attached endpoint (0 on plain RNICs).
    pub pu_reserved_per_endpoint: u32,
    /// PU occupancy to parse/execute one request (pipeline stage time).
    pub pu_request_time: Nanos,
    /// Number of concurrent DMA read contexts (outstanding request slots
    /// that can be waiting on PCIe completions at once).
    pub dma_contexts: u32,
    /// Number of concurrent posted-write engine slots. Smaller than the
    /// read pool: writes need no completion tracking but share the
    /// doorbell/egress scheduler.
    pub dma_write_contexts: u32,
    /// Fixed per-request DMA-context occupancy for reads, besides the
    /// PCIe round trip (descriptor handling, address translation,
    /// completion reassembly).
    pub dma_read_fixed: Nanos,
    /// Fixed per-request DMA-context occupancy for posted writes (no
    /// completion to reassemble, but flow-control credits to obtain).
    pub dma_write_fixed: Nanos,
    /// Completion-reorder buffer capacity in TLP slots. A DMA read whose
    /// completion stream exceeds this window degrades to a tag-limited
    /// fetch (the Figure 8 head-of-line collapse).
    pub reorder_tlp_slots: u64,
    /// Outstanding completion tags available once the reorder buffer is
    /// exceeded.
    pub completion_tags: u64,
    /// Time for the NIC to serve one MMIO doorbell write.
    pub doorbell_time: Nanos,
    /// Per-WQE time when the NIC fetches work-queue entries by DMA
    /// (doorbell batching), excluding the memory round trip.
    pub wqe_fetch_unit: Nanos,
}

impl NicSpec {
    /// NVIDIA ConnectX-6: 2x100 Gbps ports, the NIC-core complex of both
    /// the standalone RNIC and Bluefield-2 (paper Table 1).
    ///
    /// `pu_total`/`pu_request_time` are calibrated so the ASIC processes
    /// just over 195 M requests/s of 0 B traffic (§2.1) with ~176 M
    /// available to a single endpoint on Bluefield (§4: 352 Mpps summed
    /// over two paths vs 195 Mpps concurrently).
    pub fn connectx6() -> Self {
        NicSpec {
            name: "ConnectX-6",
            network_bw: Bandwidth::gbps(200.0),
            pu_total: 32,
            pu_reserved_per_endpoint: 3,
            pu_request_time: Nanos::new(163),
            dma_contexts: 234,
            dma_write_contexts: 128,
            dma_read_fixed: Nanos::new(1280),
            dma_write_fixed: Nanos::new(940),
            reorder_tlp_slots: 72 << 10,
            completion_tags: 90,
            doorbell_time: Nanos::new(80),
            wqe_fetch_unit: Nanos::new(20),
        }
    }

    /// Mellanox ConnectX-4: the 100 Gbps client NIC (paper Table 2 CLI).
    pub fn connectx4() -> Self {
        NicSpec {
            name: "ConnectX-4",
            network_bw: Bandwidth::gbps(100.0),
            pu_total: 16,
            pu_reserved_per_endpoint: 0,
            pu_request_time: Nanos::new(220),
            dma_contexts: 128,
            dma_write_contexts: 96,
            dma_read_fixed: Nanos::new(1400),
            dma_write_fixed: Nanos::new(1050),
            reorder_tlp_slots: 32 << 10,
            completion_tags: 64,
            doorbell_time: Nanos::new(90),
            wqe_fetch_unit: Nanos::new(25),
        }
    }

    /// NVIDIA ConnectX-7: the 400 Gbps NIC cores of Bluefield-3 (§5).
    ///
    /// Calibration note: the completion-tag pool scales with the reorder
    /// window — CX-7 doubles CX-6's 72Ki TLP slots, and Chen et al.'s
    /// BF-3 characterization shows large tag-limited READs *above* BF-2,
    /// not below. A value under CX-6's 90 would silently invert that.
    pub fn connectx7() -> Self {
        NicSpec {
            name: "ConnectX-7",
            network_bw: Bandwidth::gbps(400.0),
            pu_total: 48,
            pu_reserved_per_endpoint: 4,
            pu_request_time: Nanos::new(120),
            dma_contexts: 384,
            dma_write_contexts: 224,
            dma_read_fixed: Nanos::new(1100),
            dma_write_fixed: Nanos::new(800),
            reorder_tlp_slots: 144 << 10,
            completion_tags: 180,
            doorbell_time: Nanos::new(70),
            wqe_fetch_unit: Nanos::new(15),
        }
    }

    /// Peak 0 B request throughput of the whole ASIC in M requests/s.
    pub fn peak_request_rate_mops(&self) -> f64 {
        self.pu_total as f64 / self.pu_request_time.as_nanos() as f64 * 1e3
    }

    /// The largest DMA read whose completions, at `mtu` bytes per TLP,
    /// fit the reorder buffer. A larger read degrades to the tag-limited
    /// fetch (the Figure 8 head-of-line collapse).
    pub fn reorder_window_bytes(&self, mtu: u64) -> u64 {
        self.reorder_tlp_slots * mtu
    }
}

/// Specification of the SmartNIC's on-board SoC (the ARM complex).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocSpec {
    /// Number of SoC cores.
    pub cores: u32,
    /// Per-message CPU time for two-sided handling (echo-server loop).
    pub msg_handle_time: Nanos,
    /// Extra end-to-end latency of two-sided handling on the SoC versus
    /// the host (slower poll loop / cache refills on the wimpy cores) —
    /// behind the 21-30 % SEND/RECV latency gap of §3.2.
    pub msg_extra_latency: Nanos,
    /// Per-request CPU time to post a verb (build WQE etc.).
    pub post_time: Nanos,
    /// MMIO write latency from a SoC core to the NIC doorbell register.
    pub mmio_latency: Nanos,
    /// PCIe MTU negotiated for the SoC endpoint (Table 3: 128 B).
    pub pcie_mtu: u64,
    /// SoC DRAM subsystem.
    pub dram: DramSpec,
    /// Bandwidth of the direct switch/SoC-memory attach.
    pub attach_bw: Bandwidth,
    /// One-way latency of the switch/SoC-memory attach.
    pub attach_latency: Nanos,
}

impl SocSpec {
    /// The Bluefield-3 SoC: 16x ARMv8.2+ A78 cores (§5), DDR5-class
    /// memory, same 128 B PCIe MTU (the architecture is unchanged).
    pub fn bluefield3() -> Self {
        SocSpec {
            cores: 16,
            msg_handle_time: Nanos::new(190),
            msg_extra_latency: Nanos::new(350),
            post_time: Nanos::new(80),
            mmio_latency: Nanos::new(520),
            pcie_mtu: 128,
            dram: DramSpec::soc_ddr4(),
            attach_bw: Bandwidth::gbps(640.0),
            attach_latency: Nanos::new(20),
        }
    }

    /// The Bluefield-2 SoC: 8x ARM Cortex-A72 @ 2.75 GHz, 16 GB DDR4,
    /// no DDIO, 128 B PCIe MTU (Table 1, Table 3).
    ///
    /// `msg_handle_time` is calibrated to the paper's observation that
    /// two-sided throughput against the SoC drops by up to ~64 % versus
    /// the host (§3.2); `mmio_latency` to Figure 10(a)'s high SoC posting
    /// latency.
    pub fn bluefield2() -> Self {
        SocSpec {
            cores: 8,
            msg_handle_time: Nanos::new(290),
            msg_extra_latency: Nanos::new(550),
            post_time: Nanos::new(110),
            mmio_latency: Nanos::new(690),
            pcie_mtu: 128,
            dram: DramSpec::soc_ddr4(),
            attach_bw: Bandwidth::gbps(320.0),
            attach_latency: Nanos::new(25),
        }
    }
}

/// The BlueField-3 datapath accelerator (DPA): a plane of wimpy RISC-V
/// cores *inside* the NIC complex, kicked directly by arriving packets
/// with no PCIe crossing (Chen et al., "Demystifying Datapath
/// Accelerator Enhanced Off-path SmartNIC"). A DPA handler terminates a
/// request entirely on the NIC — neither PCIe1 nor the switch is
/// touched — but its working state must fit the tiny local scratch
/// memory; anything larger spills to SoC DRAM over the internal fabric
/// and pays `spill_latency` plus serialization at `spill_bw`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpaSpec {
    /// Number of DPA execution cores available to one handler group.
    pub cores: u32,
    /// Per-request core occupancy of a simple handler (parse + hash
    /// probe + reply build). Wimpy single-issue cores: several times a
    /// server-class host core's per-message time.
    pub handle_time: Nanos,
    /// Hardware kick latency from the NIC parser to a DPA thread
    /// activation (no doorbell, no PCIe).
    pub kick_latency: Nanos,
    /// Usable local scratch memory (aggregate handler heap). Working
    /// state beyond this spills to SoC DRAM on every request.
    pub scratch_bytes: u64,
    /// Round-trip latency of one spill access into SoC DRAM.
    pub spill_latency: Nanos,
    /// Serialization bandwidth of the spill channel into SoC DRAM.
    pub spill_bw: Bandwidth,
}

impl DpaSpec {
    /// The Bluefield-3 DPA, calibrated to Chen et al.: 16 RV cores
    /// behind a ~190 ns hardware kick, per-request handling roughly
    /// twice a Xeon core's, ~1 MiB of usable handler heap, and a
    /// ~750 ns spill round trip into SoC DRAM (the DPA reaches SoC
    /// memory through a narrow window, not a cache hierarchy).
    pub fn bluefield3() -> Self {
        DpaSpec {
            cores: 16,
            handle_time: Nanos::new(500),
            kick_latency: Nanos::new(190),
            scratch_bytes: 1 << 20,
            spill_latency: Nanos::new(750),
            spill_bw: Bandwidth::gbps(160.0),
        }
    }

    /// Peak request rate of the DPA plane when state fits scratch.
    pub fn peak_request_rate_mops(&self) -> f64 {
        self.cores as f64 / self.handle_time.as_nanos() as f64 * 1e3
    }

    /// True when `resident_bytes` of handler state fits local scratch.
    pub fn fits_scratch(&self, resident_bytes: u64) -> bool {
        resident_bytes <= self.scratch_bytes
    }

    /// Extra per-request service time when the handler spills: the SoC
    /// DRAM round trip plus serialization of the touched bytes.
    pub fn spill_cost(&self, touched_bytes: u64) -> Nanos {
        self.spill_latency + self.spill_bw.transfer_time(touched_bytes)
    }
}

/// A complete off-path SmartNIC: NIC cores + PCIe switch + SoC, plus the
/// two internal channels PCIe1 (NIC <-> switch) and PCIe0 (switch <->
/// host), following Figure 2(c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmartNicSpec {
    /// The embedded NIC-core complex.
    pub nic: NicSpec,
    /// The on-board SoC.
    pub soc: SocSpec,
    /// The internal PCIe switch.
    pub switch: SwitchSpec,
    /// NIC cores <-> switch channel.
    pub pcie1: PcieLinkSpec,
    /// Switch <-> host channel.
    pub pcie0: PcieLinkSpec,
    /// One-way propagation latency of PCIe1. NIC cores and switch share
    /// the Bluefield package, so this hop is short; the PCIe0 hop to the
    /// host uses the host's own `pcie_latency`.
    pub pcie1_hop_latency: Nanos,
    /// The datapath-accelerator plane, when the product exposes one
    /// (Bluefield-3 with DPA firmware; `None` on BF-2 and on BF-3 used
    /// as a plain off-path part).
    pub dpa: Option<DpaSpec>,
}

impl SmartNicSpec {
    /// NVIDIA Bluefield-3 (§5 Discussion): 400 Gbps ConnectX-7 NIC
    /// cores, PCIe 5.0 internal channels, ARMv8.2+ A78 SoC — the *same*
    /// architecture as Bluefield-2, so every anomaly mechanism persists
    /// with rescaled parameters.
    pub fn bluefield3() -> Self {
        SmartNicSpec {
            nic: NicSpec::connectx7(),
            soc: SocSpec::bluefield3(),
            switch: SwitchSpec::with_latency(Nanos::new(150)),
            pcie1: PcieLinkSpec::new(PcieGen::Gen5, 16, 512, 512),
            pcie0: PcieLinkSpec::new(PcieGen::Gen5, 16, 512, 512),
            pcie1_hop_latency: Nanos::new(35),
            dpa: None,
        }
    }

    /// Bluefield-3 with the DPA plane enabled: identical off-path
    /// topology, plus [`DpaSpec::bluefield3`] handler cores that
    /// terminate requests on the NIC without any PCIe crossing.
    pub fn bluefield3_dpa() -> Self {
        SmartNicSpec {
            dpa: Some(DpaSpec::bluefield3()),
            ..Self::bluefield3()
        }
    }

    /// NVIDIA Bluefield-2 (Table 1): ConnectX-6 NIC cores, PCIe 4.0 x16
    /// internal channels, 175 ns switch crossing, 128 B SoC MTU and 512 B
    /// host MTU.
    pub fn bluefield2() -> Self {
        SmartNicSpec {
            nic: NicSpec::connectx6(),
            soc: SocSpec::bluefield2(),
            switch: SwitchSpec::bluefield2(),
            pcie1: PcieLinkSpec::new(PcieGen::Gen4, 16, 512, 512),
            pcie0: PcieLinkSpec::new(PcieGen::Gen4, 16, 512, 512),
            pcie1_hop_latency: Nanos::new(40),
            dpa: None,
        }
    }

    /// The extra one-way latency a SmartNIC adds on the path to host
    /// memory versus a plain RNIC: one switch crossing plus the PCIe1
    /// hop. The paper quotes 150-200 ns one way for the switch; READ pays
    /// it twice (request + completion), WRITE once (posted), matching the
    /// +0.6 us / +0.4 us asymmetry of §3.1.
    pub fn host_path_tax_oneway(&self) -> Nanos {
        self.switch.crossing_latency + self.pcie1_hop_latency
    }

    /// The READ payload above which a READ of SoC memory head-of-line
    /// blocks the NIC (Figure 8): the reorder window at the SoC's 128 B
    /// MTU, 9 MiB on Bluefield-2.
    pub fn read_collapse_threshold(&self) -> u64 {
        self.nic.reorder_window_bytes(self.soc.pcie_mtu)
    }

    /// The path-3 payload above which a host<->SoC transfer loses the
    /// cut-through overlap between its two PCIe1 crossings (Figure 9).
    ///
    /// Both legs touch the SoC (128 B TLPs) and share the forwarding
    /// buffer, halving the reorder window. A SoC requester
    /// (`soc_requester`, the S2H direction) also keeps its WQE and
    /// doorbell state in SoC memory, halving it again, which is why S2H
    /// collapses earlier than H2S (§3.3).
    pub fn path3_threshold(&self, soc_requester: bool) -> u64 {
        let base = self.read_collapse_threshold() / 2;
        if soc_requester {
            base / 2
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cx6_peak_rate_exceeds_195mpps() {
        // §2.1: "NIC cores can process more than 195 Mpps".
        let r = NicSpec::connectx6().peak_request_rate_mops();
        assert!(r > 195.0, "CX-6 peak {r} Mpps");
        assert!(r < 230.0, "CX-6 peak {r} Mpps implausibly high");
    }

    #[test]
    fn single_endpoint_share_matches_paper() {
        // §4: one endpoint alone reaches ~176 Mpps (352/2), both together
        // ~195 Mpps.
        let n = NicSpec::connectx6();
        let single = (n.pu_total - n.pu_reserved_per_endpoint) as f64
            / n.pu_request_time.as_nanos() as f64
            * 1e3;
        assert!(
            (165.0..=190.0).contains(&single),
            "single-endpoint share {single} Mpps"
        );
    }

    #[test]
    fn soc_reorder_threshold_is_9mb() {
        // Figure 8: READ to SoC collapses above ~9 MB payloads.
        let s = SmartNicSpec::bluefield2();
        assert_eq!(s.read_collapse_threshold(), 9 << 20);
        assert_eq!(s.path3_threshold(false), (9 << 20) / 2);
        assert_eq!(s.path3_threshold(true), (9 << 20) / 4);
    }

    #[test]
    fn bf3_reorder_threshold_is_18mb() {
        // §5 / Chen et al.: CX-7 doubles the reorder window, so the
        // Figure-8 collapse knee moves to 144Ki slots x 128 B = 18 MB.
        let s = SmartNicSpec::bluefield3();
        assert_eq!(s.read_collapse_threshold(), 18 << 20);
    }

    #[test]
    fn bf3_tag_pool_not_below_bf2() {
        // Regression: 72 tags would make BF-3's tag-limited large READs
        // *worse* than BF-2's (90 tags), inverting the generational
        // story. The pool scales with the doubled reorder window.
        let cx6 = NicSpec::connectx6();
        let cx7 = NicSpec::connectx7();
        assert!(
            cx7.completion_tags >= cx6.completion_tags,
            "CX-7 tags {} below CX-6's {}",
            cx7.completion_tags,
            cx6.completion_tags
        );
        assert_eq!(
            cx7.completion_tags * cx6.reorder_tlp_slots,
            cx6.completion_tags * cx7.reorder_tlp_slots,
            "tag pool should scale with the reorder window"
        );
    }

    #[test]
    fn dpa_terminates_without_pcie_and_spills_past_scratch() {
        let d = DpaSpec::bluefield3();
        // Wimpy plane: far above one host core, far below the ASIC.
        assert!(d.peak_request_rate_mops() > 10.0);
        assert!(d.peak_request_rate_mops() < NicSpec::connectx7().peak_request_rate_mops());
        assert!(d.fits_scratch(512 << 10));
        assert!(!d.fits_scratch(2 << 20));
        // Spill cost grows with the touched bytes.
        assert!(d.spill_cost(4096) > d.spill_cost(64));
        assert!(d.spill_cost(64) >= d.spill_latency);
        // Only the _dpa variant carries the plane; topology otherwise
        // identical to plain BF-3.
        assert!(SmartNicSpec::bluefield3().dpa.is_none());
        let with = SmartNicSpec::bluefield3_dpa();
        assert_eq!(with.dpa, Some(DpaSpec::bluefield3()));
        assert_eq!(with.nic, SmartNicSpec::bluefield3().nic);
    }

    #[test]
    fn host_reorder_threshold_never_hit_in_sweep() {
        // The host (512 B MTU) threshold lies beyond the paper's 16 MB
        // sweep, which is why SNIC(1) shows no collapse.
        let s = SmartNicSpec::bluefield2();
        assert!(s.nic.reorder_window_bytes(s.pcie0.mps) > 16 << 20);
    }

    #[test]
    fn host_path_tax_in_paper_band() {
        let tax = SmartNicSpec::bluefield2().host_path_tax_oneway();
        // READ pays this twice; the paper measures +0.6 us end to end
        // (switch crossings plus serialization differences).
        assert!(
            (150..=350).contains(&tax.as_nanos()),
            "tax {tax} outside band"
        );
    }

    #[test]
    fn soc_mtu_vs_host_mtu() {
        let s = SmartNicSpec::bluefield2();
        assert_eq!(s.soc.pcie_mtu, 128);
        assert_eq!(s.pcie0.mps, 512);
    }

    #[test]
    fn cx4_is_slower_and_narrower() {
        let cx4 = NicSpec::connectx4();
        let cx6 = NicSpec::connectx6();
        assert!(cx4.network_bw.as_gbps() < cx6.network_bw.as_gbps());
        assert!(cx4.peak_request_rate_mops() < cx6.peak_request_rate_mops());
    }
}
