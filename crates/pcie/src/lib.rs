//! `pcie-model` — PCIe fabric models for the SmartNIC simulator.
//!
//! Models the parts of PCIe that the paper shows to matter for off-path
//! SmartNIC performance:
//!
//! * link bandwidth per generation/lane count, including encoding and
//!   per-TLP protocol overhead ([`link`]);
//! * transaction-layer-packet (TLP) segmentation under the negotiated
//!   Maximum Payload Size / "PCIe MTU" ([`tlp`]) — the paper's Table 3;
//! * the internal PCIe switch that bridges NIC cores, SoC and host
//!   ([`switch`]);
//! * hardware-style packet counters used to regenerate Figure 8(b) and
//!   Figure 9(b) ([`counters`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod credits;
pub mod link;
pub mod switch;
pub mod tlp;

pub use counters::{LinkId, PcieCounters};
pub use credits::{CreditGate, CreditPool};
pub use link::{PcieGen, PcieLinkSpec};
pub use switch::SwitchSpec;
pub use tlp::{completion_tlps, read_request_tlps, tlp_count, write_tlps, TlpBudget};
