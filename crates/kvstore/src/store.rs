//! The Figure-1 KV store designs.
//!
//! * [`Design::OneSidedRnic`] / [`Design::OneSidedSnic`] — Figure 1(a):
//!   the client resolves a `get` entirely with one-sided READs: one READ
//!   per index probe, then one READ for the value. Every probe is a
//!   network round trip (*network amplification*).
//! * [`Design::SocIndex`] — Figure 1(b): the index lives in SoC memory;
//!   the client sends one request, the SoC looks up locally and fetches
//!   the value from host memory over path 3, replying in a single
//!   network round trip.
//! * [`Design::HostRpc`] — the conventional two-sided design: the host
//!   CPU handles the request (no amplification, but burns host cores).
//!
//! The rack KV service (`snic-cluster`'s `kv` module) serves every
//! design.

/// Which acceleration design serves `get`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// One-sided READs against a plain RNIC.
    OneSidedRnic,
    /// One-sided READs against the SmartNIC's host path.
    OneSidedSnic,
    /// Index offloaded to the SoC; values stay in host memory.
    SocIndex,
    /// Two-sided RPC handled by host CPU cores.
    HostRpc,
    /// Gets terminated by a BlueField-3 DPA handler on the NIC itself:
    /// no PCIe crossing, but the working state must fit the DPA's
    /// scratch memory or every get pays the spill into SoC DRAM.
    DpaHandler,
}

impl Design {
    /// The paper's Figure-1 designs, in comparison order.
    /// [`Design::DpaHandler`] is a BF-3-only what-if and deliberately
    /// not part of the Figure-1 comparison set.
    pub const ALL: [Design; 4] = [
        Design::OneSidedRnic,
        Design::OneSidedSnic,
        Design::SocIndex,
        Design::HostRpc,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Design::OneSidedRnic => "one-sided RNIC",
            Design::OneSidedSnic => "one-sided SNIC(1)",
            Design::SocIndex => "SoC-offloaded index",
            Design::HostRpc => "two-sided host RPC",
            Design::DpaHandler => "DPA handler",
        }
    }
}
