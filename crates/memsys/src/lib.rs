//! `memsys` — memory-system models (DRAM and LLC/DDIO).
//!
//! The paper's Advice #1 ("avoid skewed memory accesses") rests on a
//! micro-architectural contrast between the two RDMA-addressable memories
//! of an off-path SmartNIC machine:
//!
//! * the **host** serves NIC DMA through Data Direct I/O (DDIO): inbound
//!   writes allocate directly into the last-level cache, so a narrow
//!   (skewed) address range costs nothing;
//! * the **SoC** (ARM Cortex-A72 on Bluefield-2) has no DDIO: every DMA
//!   goes to its single-channel DRAM, and a narrow range collapses onto a
//!   few banks, serializing accesses at DRAM-cycle granularity.
//!
//! [`DramSim`] models channels, banks, row activation and write recovery;
//! [`LlcSim`] models a sliced LLC with DDIO write-allocate. [`MemSystem`]
//! composes them behind the single [`MemSystem::dma_access`] entry point
//! used by the NIC simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dram;
pub mod llc;

use simnet::time::Nanos;

pub use dram::{DramSim, DramSpec, PagePolicy};
pub use llc::{LlcSim, LlcSpec};

/// Kind of memory access issued by a DMA engine or CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// Read from memory.
    Read,
    /// Write to memory.
    Write,
}

/// A complete memory system: optional LLC (with or without DDIO) in front
/// of DRAM.
///
/// # Examples
///
/// ```
/// use memsys::{MemSystem, MemOp};
/// use simnet::time::Nanos;
///
/// let mut host = MemSystem::host_like();
/// let done = host.dma_access(Nanos::ZERO, 0x1000, 64, MemOp::Write);
/// assert!(done > Nanos::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct MemSystem {
    llc: Option<LlcSim>,
    dram: DramSim,
    /// Whether inbound DMA may target the LLC (DDIO).
    ddio: bool,
}

impl MemSystem {
    /// Builds a memory system from parts.
    ///
    /// # Panics
    ///
    /// Panics if `ddio` is requested without an LLC.
    pub fn new(llc: Option<LlcSim>, dram: DramSim, ddio: bool) -> Self {
        assert!(
            !(ddio && llc.is_none()),
            "DDIO requires an LLC to steer DMA into"
        );
        MemSystem { llc, dram, ddio }
    }

    /// A host-like memory system: 8-channel DDR4 with DDIO-enabled LLC
    /// (the paper's SRV machines, Table 2).
    pub fn host_like() -> Self {
        MemSystem::new(
            Some(LlcSim::new(LlcSpec::xeon_like())),
            DramSim::new(DramSpec::host_ddr4()),
            true,
        )
    }

    /// A Bluefield-2 SoC-like memory system: single-channel DDR4, no DDIO
    /// (Table 1; the A72 lacks a DDIO equivalent, §3.2).
    pub fn soc_like() -> Self {
        MemSystem::new(None, DramSim::new(DramSpec::soc_ddr4()), false)
    }

    /// Enables or disables DDIO (ablation; disabling forces all DMA to
    /// DRAM as on machines with DDIO turned off).
    ///
    /// # Panics
    ///
    /// Panics when enabling DDIO on a system without an LLC.
    pub fn set_ddio(&mut self, on: bool) {
        if on {
            assert!(self.llc.is_some(), "cannot enable DDIO without an LLC");
        }
        self.ddio = on;
    }

    /// Serves one inbound DMA access of `bytes` at `addr`, arriving at
    /// `now`. Returns the completion time.
    ///
    /// With DDIO, writes always allocate into the LLC; reads hit the LLC
    /// if the line is resident and miss to DRAM otherwise. Without DDIO
    /// everything is DRAM.
    pub fn dma_access(&mut self, now: Nanos, addr: u64, bytes: u64, op: MemOp) -> Nanos {
        if self.ddio {
            let llc = self.llc.as_mut().expect("checked in constructor");
            match op {
                MemOp::Write => return llc.access(now, addr, bytes),
                MemOp::Read => {
                    if llc.probe(addr, bytes) {
                        return llc.access(now, addr, bytes);
                    }
                    // Miss: serve from DRAM; the LLC fill overlaps and is
                    // folded into the DRAM time.
                    return self.dram.access(now, addr, bytes, op);
                }
            }
        }
        self.dram.access(now, addr, bytes, op)
    }

    /// Like [`MemSystem::dma_access`], but also records the access as a
    /// [`simnet::metrics::Hop::Memory`] residency span into `spans` (a
    /// no-op when the span set is disabled). The span covers arrival to
    /// completion, so bank conflicts and queueing inside the memory
    /// system are charged to memory, not to the surrounding PCIe legs.
    pub fn dma_access_spanned(
        &mut self,
        now: Nanos,
        addr: u64,
        bytes: u64,
        op: MemOp,
        spans: &mut simnet::metrics::SpanSet,
    ) -> Nanos {
        let done = self.dma_access(now, addr, bytes, op);
        spans.record(simnet::metrics::Hop::Memory, now, done);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimRng;

    /// Measures sustained random-access throughput of 64 B ops constrained
    /// to `range` bytes, in M ops/s: all ops issued at t=0, makespan taken,
    /// so bank-level parallelism is fully exposed.
    fn throughput(mem: &mut MemSystem, range: u64, op: MemOp) -> f64 {
        let mut rng = SimRng::seed(42);
        let n = 50_000u64;
        let mut makespan = Nanos::ZERO;
        for _ in 0..n {
            let addr = rng.addr_in_range(0, range, 64);
            let done = mem.dma_access(Nanos::ZERO, addr, 64, op);
            makespan = makespan.max(done);
        }
        n as f64 / makespan.as_secs_f64() / 1e6
    }

    #[test]
    fn soc_write_skew_collapse() {
        // Paper Fig 7(b): SoC WRITE drops from ~78 M/s (48 KB+) to
        // ~22.7 M/s at a 1.5 KB range.
        let narrow = throughput(&mut MemSystem::soc_like(), 1536, MemOp::Write);
        let wide = throughput(&mut MemSystem::soc_like(), 48 << 10, MemOp::Write);
        assert!(narrow < 30.0, "narrow-range SoC writes too fast: {narrow}");
        assert!(wide > 2.5 * narrow, "no skew collapse: {wide} vs {narrow}");
    }

    #[test]
    fn soc_read_degrades_less_than_write() {
        // Paper Fig 7: READ 85 -> 50 M/s (1.7x) vs WRITE 77.9 -> 22.7
        // (3.4x). At the DRAM layer the mechanism is the write-recovery
        // penalty (tWR): at the 1.5 KB collapse point the READ floor
        // (paper 50 M/s) sits ~2.2x above the WRITE floor (22.7 M/s).
        // The differing *collapse factors* then follow at system level:
        // both wide-range rates recover far past the NIC's request
        // ceiling (~85-90 M/s), which clamps them to the same plateau —
        // a plateau much closer to READ's floor than to WRITE's.
        //
        // Assert the paper's bands, not ratios of one seed's stream: the
        // wide/narrow factor is identical for READ and WRITE inside the
        // DRAM model alone (same address stream, per-op cost cancels).
        let rd_narrow = throughput(&mut MemSystem::soc_like(), 1536, MemOp::Read);
        let wr_narrow = throughput(&mut MemSystem::soc_like(), 1536, MemOp::Write);
        assert!(
            (40.0..=60.0).contains(&rd_narrow),
            "narrow SoC READ {rd_narrow:.1} M/s outside paper band (50)"
        );
        let floor_gap = rd_narrow / wr_narrow;
        assert!(
            (1.8..=2.8).contains(&floor_gap),
            "READ/WRITE floor gap {floor_gap:.2} (paper 50/22.7 = 2.2)"
        );
        let rd_wide = throughput(&mut MemSystem::soc_like(), 48 << 10, MemOp::Read);
        let wr_wide = throughput(&mut MemSystem::soc_like(), 48 << 10, MemOp::Write);
        assert!(
            rd_wide > 90.0 && wr_wide > 90.0,
            "wide-range rates ({rd_wide:.0}/{wr_wide:.0} M/s) must clear the \
             NIC ceiling for the system-level collapse factors to differ"
        );
    }

    #[test]
    fn soc_narrow_write_rate_matches_paper_scale() {
        let narrow = throughput(&mut MemSystem::soc_like(), 1536, MemOp::Write);
        // Paper: 22.7 M/s. Accept a generous band around it.
        assert!(
            (15.0..=32.0).contains(&narrow),
            "narrow SoC write rate {narrow} M/s outside paper band"
        );
    }

    #[test]
    fn host_ddio_immune_to_skew() {
        // Paper Fig 7: host throughput "hardly affected" by range.
        let narrow = throughput(&mut MemSystem::host_like(), 1536, MemOp::Write);
        let wide = throughput(&mut MemSystem::host_like(), 1 << 30, MemOp::Write);
        let ratio = wide / narrow;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "host writes vary with range: {narrow} vs {wide}"
        );
    }

    #[test]
    fn ddio_off_exposes_dram() {
        let mut host_no = MemSystem::host_like();
        host_no.set_ddio(false);
        let narrow = throughput(&mut host_no, 1536, MemOp::Write);
        let narrow_ddio = throughput(&mut MemSystem::host_like(), 1536, MemOp::Write);
        assert!(
            narrow_ddio > narrow,
            "DDIO should help skewed writes: {narrow_ddio} vs {narrow}"
        );
    }

    #[test]
    #[should_panic(expected = "DDIO requires an LLC")]
    fn ddio_without_llc_rejected() {
        let _ = MemSystem::new(None, DramSim::new(DramSpec::soc_ddr4()), true);
    }
}
