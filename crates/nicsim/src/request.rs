//! Request descriptors: verbs, paths and timings.

use simnet::time::Nanos;

/// RDMA verb kinds studied by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// One-sided RDMA READ.
    Read,
    /// One-sided RDMA WRITE.
    Write,
    /// Two-sided SEND/RECV (UD, echo-server responder).
    Send,
}

impl Verb {
    /// Short label used in reports ("READ"/"WRITE"/"SEND").
    pub fn label(self) -> &'static str {
        match self {
            Verb::Read => "READ",
            Verb::Write => "WRITE",
            Verb::Send => "SEND",
        }
    }

    /// All verbs, in the paper's figure order.
    pub const ALL: [Verb; 3] = [Verb::Read, Verb::Write, Verb::Send];
}

/// Which memory of the server machine a request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Host DRAM (behind PCIe0).
    Host,
    /// SoC DRAM (attached to the internal switch).
    Soc,
}

/// The communication paths of Figure 2(c), plus the RNIC baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// Client to host memory through a plain RNIC (baseline "RNIC (1)").
    Rnic1,
    /// Client to host memory through the SmartNIC ("SNIC (1)").
    Snic1,
    /// Client to SoC memory ("SNIC (2)").
    Snic2,
    /// SoC-issued requests to host memory ("SNIC (3) S2H").
    Snic3S2H,
    /// Host-issued requests to SoC memory ("SNIC (3) H2S").
    Snic3H2S,
}

impl PathKind {
    /// The memory endpoint the responder side resolves to.
    pub fn responder(self) -> Endpoint {
        match self {
            PathKind::Rnic1 | PathKind::Snic1 | PathKind::Snic3S2H => Endpoint::Host,
            PathKind::Snic2 | PathKind::Snic3H2S => Endpoint::Soc,
        }
    }

    /// Whether the requester is a remote client machine (paths 1/2) as
    /// opposed to a processor on the server machine itself (path 3).
    pub fn is_remote(self) -> bool {
        matches!(self, PathKind::Rnic1 | PathKind::Snic1 | PathKind::Snic2)
    }

    /// Whether this path runs on the SmartNIC (false only for the RNIC
    /// baseline).
    pub fn on_smartnic(self) -> bool {
        self != PathKind::Rnic1
    }

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            PathKind::Rnic1 => "RNIC(1)",
            PathKind::Snic1 => "SNIC(1)",
            PathKind::Snic2 => "SNIC(2)",
            PathKind::Snic3S2H => "SNIC(3)S2H",
            PathKind::Snic3H2S => "SNIC(3)H2S",
        }
    }

    /// How many times one transport attempt on this path crosses the
    /// SmartNIC's PCIe1 channel (NIC cores <-> internal switch). Every
    /// DMA between the NIC and either memory traverses it once; a path-3
    /// composite traverses it twice (read leg + write leg). This drives
    /// the fault plane's per-crossing TLP-corruption verdicts — the
    /// mechanistic reason path 3 amplifies retransmission cost.
    pub fn pcie1_crossings(self) -> u64 {
        match self {
            PathKind::Rnic1 => 0,
            PathKind::Snic1 | PathKind::Snic2 => 1,
            PathKind::Snic3S2H | PathKind::Snic3H2S => 2,
        }
    }

    /// How many network-wire crossings one attempt makes (request +
    /// response frames for remote paths; path 3 never touches the wire).
    pub fn wire_crossings(self) -> u64 {
        if self.is_remote() {
            2
        } else {
            0
        }
    }

    /// All paths, in figure order.
    pub const ALL: [PathKind; 5] = [
        PathKind::Rnic1,
        PathKind::Snic1,
        PathKind::Snic2,
        PathKind::Snic3S2H,
        PathKind::Snic3H2S,
    ];
}

/// One request to execute on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestDesc {
    /// Verb kind.
    pub verb: Verb,
    /// Communication path.
    pub path: PathKind,
    /// Payload size in bytes (0 allowed: header-only request that never
    /// issues DMA, as in the paper's Figure 11 methodology).
    pub payload: u64,
    /// Target address in the responder's memory.
    pub addr: u64,
    /// Index of the issuing client machine (ignored for path 3).
    pub client: usize,
    /// When `Some(resident)`, this SEND terminates at a DPA handler
    /// whose working state is `resident` bytes: the request never
    /// crosses PCIe1 (no DMA legs) but pays the spill penalty when
    /// `resident` exceeds the DPA's scratch memory. Requires a server
    /// whose SmartNIC carries a DPA plane.
    pub dpa_resident: Option<u64>,
}

impl RequestDesc {
    /// Creates a request with default flags.
    pub fn new(verb: Verb, path: PathKind, payload: u64, addr: u64, client: usize) -> Self {
        RequestDesc {
            verb,
            path,
            payload,
            addr,
            client,
            dpa_resident: None,
        }
    }

    /// Routes this SEND to a DPA handler holding `resident` bytes of
    /// working state (see [`RequestDesc::dpa_resident`]).
    pub fn with_dpa(mut self, resident: u64) -> Self {
        self.dpa_resident = Some(resident);
        self
    }
}

/// Timing milestones of one executed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Completion {
    /// When the requester posted the request (driver-provided).
    pub posted: Nanos,
    /// When the responder-side NIC began processing it.
    pub nic_start: Nanos,
    /// When the requester observed completion.
    pub completed: Nanos,
}

impl Completion {
    /// End-to-end latency.
    pub fn latency(&self) -> Nanos {
        self.completed - self.posted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responder_endpoints() {
        assert_eq!(PathKind::Rnic1.responder(), Endpoint::Host);
        assert_eq!(PathKind::Snic1.responder(), Endpoint::Host);
        assert_eq!(PathKind::Snic2.responder(), Endpoint::Soc);
        assert_eq!(PathKind::Snic3S2H.responder(), Endpoint::Host);
        assert_eq!(PathKind::Snic3H2S.responder(), Endpoint::Soc);
    }

    #[test]
    fn remoteness() {
        assert!(PathKind::Rnic1.is_remote());
        assert!(PathKind::Snic2.is_remote());
        assert!(!PathKind::Snic3S2H.is_remote());
        assert!(!PathKind::Snic3H2S.is_remote());
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<&str> = PathKind::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), PathKind::ALL.len());
    }

    #[test]
    fn completion_latency() {
        let c = Completion {
            posted: Nanos::new(100),
            nic_start: Nanos::new(500),
            completed: Nanos::new(2100),
        };
        assert_eq!(c.latency(), Nanos::new(2000));
    }
}
