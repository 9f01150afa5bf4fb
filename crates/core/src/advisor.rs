//! The offload advisor: the paper's four advices as a queryable API.
//!
//! This is the artifact a distributed-system designer would actually link
//! against: given a description of an offloaded workload, the advisor
//! flags the SmartNIC anomalies it will hit and proposes mitigations,
//! each tied to a section of the study:
//!
//! * **Advice #1** (§3.2) — skewed one-sided accesses against the SoC
//!   collapse on its DDIO-less single-channel DRAM;
//! * **Advice #2** (§3.2) — READs above the reorder threshold (~9 MB)
//!   head-of-line block the NIC: segment them;
//! * **Advice #3** (§3.3) — large host<->SoC transfers lose cut-through
//!   and double PCIe1 load: cap transfer sizes and budget bandwidth to
//!   `P - N` when the NIC is saturated;
//! * **Advice #4** (Fig 10) — doorbell batching is mandatory on the SoC
//!   side and mildly harmful host-side at small batches.

use nicsim::{Endpoint, PathKind, Verb};
use rdma_sim::doorbell::{PostCostModel, PosterKind};
use simnet::time::Bandwidth;
use topology::{MachineSpec, SmartNicSpec};

use crate::model::BottleneckModel;

/// Severity of a flagged anomaly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// No measurable impact expected.
    Ok,
    /// Tens of percent of throughput at risk.
    Degraded,
    /// Multiple-x collapse expected.
    Severe,
}

/// One finding produced by the advisor.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which paper advice triggered.
    pub advice: u8,
    /// Severity.
    pub severity: Severity,
    /// Human-readable explanation with the mitigation.
    pub message: String,
}

/// A workload description to analyse.
#[derive(Debug, Clone)]
pub struct WorkloadDesc {
    /// Communication path used.
    pub path: PathKind,
    /// Verb used.
    pub verb: Verb,
    /// Request payload in bytes.
    pub payload: u64,
    /// Footprint of the addresses touched (bytes).
    pub addr_range: u64,
    /// Doorbell batch size (1 = plain MMIO posting).
    pub batch: u32,
    /// Whether inter-machine traffic is expected to saturate the NIC
    /// concurrently (affects the path-3 budget).
    pub nic_saturated: bool,
}

/// The advisor, configured for one SmartNIC deployment.
#[derive(Debug, Clone)]
pub struct OffloadAdvisor {
    spec: SmartNicSpec,
    machine: MachineSpec,
    bottleneck: BottleneckModel,
}

impl Default for OffloadAdvisor {
    fn default() -> Self {
        Self::bluefield2()
    }
}

impl OffloadAdvisor {
    /// An advisor for the paper's Bluefield-2 deployment.
    pub fn bluefield2() -> Self {
        let machine = MachineSpec::srv_with_bluefield();
        let spec = *machine.nic.smartnic().expect("bluefield machine");
        OffloadAdvisor {
            bottleneck: BottleneckModel::from_spec(&spec),
            spec,
            machine,
        }
    }

    /// Advice #1: the address range below which one-sided accesses to the
    /// SoC lose bank-level parallelism (~48 KB in the paper's Figure 7).
    pub fn skew_safe_range(&self) -> u64 {
        // Ranges spanning fewer DRAM rows than roughly half the banks
        // serialize. row_bytes * banks/2 = 8 KB * 8 = 64 KB; the paper
        // observes the knee at 48 KB.
        self.spec.soc.dram.row_bytes * self.spec.soc.dram.banks_per_channel as u64 / 2
    }

    /// Advice #1 check.
    pub fn check_skew(&self, target: Endpoint, verb: Verb, addr_range: u64) -> Finding {
        if target == Endpoint::Soc && addr_range < self.skew_safe_range() {
            let sev = if verb == Verb::Write {
                Severity::Severe
            } else {
                Severity::Degraded
            };
            return Finding {
                advice: 1,
                severity: sev,
                message: format!(
                    "one-sided {} over a {} B range on the SoC collapses on its DDIO-less \
                     DRAM (Fig 7); spread accesses over >= {} B or target host memory",
                    verb.label(),
                    addr_range,
                    self.skew_safe_range()
                ),
            };
        }
        Finding {
            advice: 1,
            severity: Severity::Ok,
            message: "access range wide enough for full bank parallelism".into(),
        }
    }

    /// Advice #1, trace-based: analyses a recorded access trace against
    /// the SoC DRAM mapping and flags patterns whose hottest bank would
    /// cap throughput below 50% of the plateau.
    pub fn check_skew_trace(&self, trace: &memsys::AccessTrace) -> Finding {
        let ceiling = trace.skew_ceiling(&self.spec.soc.dram);
        if ceiling < 0.5 {
            let sev = if ceiling < 0.2 {
                Severity::Severe
            } else {
                Severity::Degraded
            };
            return Finding {
                advice: 1,
                severity: sev,
                message: format!(
                    "trace concentrates on few DRAM banks: predicted ceiling {:.0}% of the                      wide-range plateau (Fig 7); spread the {} B footprint",
                    ceiling * 100.0,
                    trace.footprint()
                ),
            };
        }
        Finding {
            advice: 1,
            severity: Severity::Ok,
            message: format!(
                "trace spreads well (ceiling {:.0}% of plateau)",
                ceiling * 100.0
            ),
        }
    }

    /// Advice #2: the READ payload above which the SoC path head-of-line
    /// blocks (9 MB on Bluefield-2).
    pub fn read_collapse_threshold(&self) -> u64 {
        self.spec.nic.reorder_tlp_slots * self.spec.soc.pcie_mtu
    }

    /// Advice #2: segments a large READ targeting the SoC into safe
    /// chunks (returned sizes sum to `payload`).
    pub fn segment_read(&self, payload: u64) -> Vec<u64> {
        let safe = self.read_collapse_threshold() / 8; // comfortable margin
        if payload <= self.read_collapse_threshold() {
            return vec![payload];
        }
        let mut out = Vec::new();
        let mut left = payload;
        while left > 0 {
            let c = left.min(safe);
            out.push(c);
            left -= c;
        }
        out
    }

    /// Advice #2 check.
    pub fn check_large_read(&self, target: Endpoint, verb: Verb, payload: u64) -> Finding {
        if target == Endpoint::Soc && verb == Verb::Read && payload > self.read_collapse_threshold()
        {
            return Finding {
                advice: 2,
                severity: Severity::Severe,
                message: format!(
                    "{payload} B READ to the SoC exceeds the {} B reorder window and will \
                     head-of-line block the NIC (Fig 8); segment into {} chunks",
                    self.read_collapse_threshold(),
                    self.segment_read(payload).len()
                ),
            };
        }
        Finding {
            advice: 2,
            severity: Severity::Ok,
            message: "READ size below the head-of-line threshold".into(),
        }
    }

    /// Advice #3: the payload above which host<->SoC transfers lose
    /// cut-through (per requester side).
    pub fn path3_cutthrough_threshold(&self, requester: Endpoint) -> u64 {
        let base = self.spec.nic.reorder_tlp_slots * self.spec.soc.pcie_mtu / 2;
        match requester {
            Endpoint::Host => base,
            Endpoint::Soc => base / 2,
        }
    }

    /// Advice #3: safe path-3 bandwidth when the NIC is saturated by
    /// inter-machine traffic (P - N; 56 Gbps nominal on the testbed).
    pub fn path3_budget(&self) -> Bandwidth {
        self.bottleneck.path3_budget()
    }

    /// Advice #3 check.
    pub fn check_path3(&self, desc: &WorkloadDesc) -> Finding {
        let requester = match desc.path {
            PathKind::Snic3S2H => Endpoint::Soc,
            PathKind::Snic3H2S => Endpoint::Host,
            _ => {
                return Finding {
                    advice: 3,
                    severity: Severity::Ok,
                    message: "not a host-SoC path".into(),
                }
            }
        };
        let threshold = self.path3_cutthrough_threshold(requester);
        if desc.payload > threshold {
            return Finding {
                advice: 3,
                severity: Severity::Severe,
                message: format!(
                    "{} B host-SoC transfer exceeds the {} B forwarding window and drops to \
                     store-and-forward (~100 Gbps, Fig 9); split the transfer",
                    desc.payload, threshold
                ),
            };
        }
        if desc.nic_saturated {
            return Finding {
                advice: 3,
                severity: Severity::Degraded,
                message: format!(
                    "host-SoC traffic shares PCIe1 with saturated inter-machine traffic; cap \
                     it at the spare budget of {:.0} Gbps (P - N, §4)",
                    self.path3_budget().as_gbps()
                ),
            };
        }
        Finding {
            advice: 3,
            severity: Severity::Ok,
            message: "host-SoC transfer within the cut-through window".into(),
        }
    }

    /// Advice #4 check: doorbell batching polarity for this poster.
    pub fn check_doorbell(&self, path: PathKind, batch: u32) -> Finding {
        let poster = PosterKind::for_path(path);
        let machine = match poster {
            PosterKind::Client => MachineSpec::cli(),
            _ => self.machine,
        };
        let m = PostCostModel::new(&machine, poster);
        let batch = batch.max(1);
        if batch == 1 {
            if poster == PosterKind::SocCore {
                return Finding {
                    advice: 4,
                    severity: Severity::Severe,
                    message: format!(
                        "posting from the SoC without doorbell batching pays {} ns of MMIO \
                         per request; batching 16+ gives {:.1}x (Fig 10b)",
                        m.mmio_issue.as_nanos(),
                        m.db_speedup(16)
                    ),
                };
            }
            return Finding {
                advice: 4,
                severity: Severity::Ok,
                message: "MMIO posting is fine on this side".into(),
            };
        }
        if !m.db_recommended(batch) {
            return Finding {
                advice: 4,
                severity: Severity::Degraded,
                message: format!(
                    "doorbell batching at batch {} on this side is {:.0}% slower than MMIO \
                     posting (NIC reads of host memory are slow, Fig 10b); post inline instead",
                    batch,
                    (1.0 - m.db_speedup(batch)) * 100.0
                ),
            };
        }
        Finding {
            advice: 4,
            severity: Severity::Ok,
            message: format!("doorbell batching helps here ({:.1}x)", m.db_speedup(batch)),
        }
    }

    /// Runs all four checks on a workload description, most severe first.
    pub fn analyse(&self, desc: &WorkloadDesc) -> Vec<Finding> {
        let target = desc.path.responder();
        let mut out = vec![
            self.check_skew(target, desc.verb, desc.addr_range),
            self.check_large_read(target, desc.verb, desc.payload),
            self.check_path3(desc),
            self.check_doorbell(desc.path, desc.batch),
        ];
        out.sort_by_key(|f| core::cmp::Reverse(f.severity));
        out
    }

    /// True when no check rises above [`Severity::Ok`].
    pub fn is_clean(&self, desc: &WorkloadDesc) -> bool {
        self.analyse(desc)
            .iter()
            .all(|f| f.severity == Severity::Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(path: PathKind, verb: Verb, payload: u64, range: u64) -> WorkloadDesc {
        WorkloadDesc {
            path,
            verb,
            payload,
            addr_range: range,
            batch: 1,
            nic_saturated: false,
        }
    }

    #[test]
    fn skew_flags_narrow_soc_writes() {
        let a = OffloadAdvisor::bluefield2();
        let f = a.check_skew(Endpoint::Soc, Verb::Write, 1536);
        assert_eq!(f.severity, Severity::Severe);
        let f = a.check_skew(Endpoint::Soc, Verb::Read, 1536);
        assert_eq!(f.severity, Severity::Degraded);
        let f = a.check_skew(Endpoint::Soc, Verb::Write, 1 << 20);
        assert_eq!(f.severity, Severity::Ok);
        let f = a.check_skew(Endpoint::Host, Verb::Write, 1536);
        assert_eq!(f.severity, Severity::Ok, "DDIO host is immune");
    }

    #[test]
    fn trace_based_skew_check() {
        use memsys::{AccessTrace, MemOp};
        let a = OffloadAdvisor::bluefield2();
        let mut hot = AccessTrace::new();
        for i in 0..64u64 {
            hot.record((i % 24) * 64, 64, MemOp::Write);
        }
        assert_eq!(a.check_skew_trace(&hot).severity, Severity::Severe);
        let mut wide = AccessTrace::new();
        for i in 0..64u64 {
            wide.record(i * 8192, 64, MemOp::Write);
        }
        assert_eq!(a.check_skew_trace(&wide).severity, Severity::Ok);
    }

    #[test]
    fn skew_knee_near_paper_48kb() {
        let r = OffloadAdvisor::bluefield2().skew_safe_range();
        assert!((32 << 10..=96 << 10).contains(&r), "knee {r}");
    }

    #[test]
    fn large_read_threshold_is_9mb() {
        let a = OffloadAdvisor::bluefield2();
        assert_eq!(a.read_collapse_threshold(), 9 << 20);
        let f = a.check_large_read(Endpoint::Soc, Verb::Read, 12 << 20);
        assert_eq!(f.severity, Severity::Severe);
        let f = a.check_large_read(Endpoint::Host, Verb::Read, 12 << 20);
        assert_eq!(f.severity, Severity::Ok);
    }

    #[test]
    fn segmentation_preserves_total() {
        let a = OffloadAdvisor::bluefield2();
        let total: u64 = 40 << 20;
        let chunks = a.segment_read(total);
        assert!(chunks.len() > 1);
        assert_eq!(chunks.iter().sum::<u64>(), total);
        assert!(chunks.iter().all(|&c| c <= a.read_collapse_threshold()));
        // Small reads pass through unchanged.
        assert_eq!(a.segment_read(4096), vec![4096]);
    }

    #[test]
    fn path3_checks() {
        let a = OffloadAdvisor::bluefield2();
        let f = a.check_path3(&desc(PathKind::Snic3S2H, Verb::Write, 8 << 20, 1 << 30));
        assert_eq!(f.severity, Severity::Severe);
        let mut d = desc(PathKind::Snic3H2S, Verb::Write, 4096, 1 << 30);
        d.nic_saturated = true;
        assert_eq!(a.check_path3(&d).severity, Severity::Degraded);
        let budget = a.path3_budget().as_gbps();
        assert!((45.0..=60.0).contains(&budget));
    }

    #[test]
    fn s2h_threshold_tighter_than_h2s() {
        let a = OffloadAdvisor::bluefield2();
        assert!(
            a.path3_cutthrough_threshold(Endpoint::Soc)
                < a.path3_cutthrough_threshold(Endpoint::Host)
        );
    }

    #[test]
    fn doorbell_polarity() {
        let a = OffloadAdvisor::bluefield2();
        // SoC posting without DB: severe.
        assert_eq!(
            a.check_doorbell(PathKind::Snic3S2H, 1).severity,
            Severity::Severe
        );
        // SoC with DB: fine.
        assert_eq!(
            a.check_doorbell(PathKind::Snic3S2H, 32).severity,
            Severity::Ok
        );
        // Host-side DB at 16: degraded.
        assert_eq!(
            a.check_doorbell(PathKind::Snic3H2S, 16).severity,
            Severity::Degraded
        );
        // Client MMIO: fine.
        assert_eq!(a.check_doorbell(PathKind::Snic1, 1).severity, Severity::Ok);
    }

    #[test]
    fn analyse_sorts_by_severity() {
        let a = OffloadAdvisor::bluefield2();
        let d = WorkloadDesc {
            path: PathKind::Snic2,
            verb: Verb::Read,
            payload: 12 << 20,
            addr_range: 1024,
            batch: 1,
            nic_saturated: false,
        };
        let fs = a.analyse(&d);
        assert_eq!(fs.len(), 4);
        assert_eq!(fs[0].severity, Severity::Severe);
        assert!(!a.is_clean(&d));
        // A benign workload is clean.
        let ok = desc(PathKind::Snic1, Verb::Write, 256, 1 << 30);
        assert!(a.is_clean(&ok));
    }
}
