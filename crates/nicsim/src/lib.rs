//! `nicsim` — device-level simulator for RNICs and off-path SmartNICs.
//!
//! Composes the PCIe fabric ([`pcie_model`]), memory systems
//! ([`memsys`]) and hardware configurations ([`topology`]) into an
//! executable model of the paper's testbed:
//!
//! * [`server::ServerMachine`] — the responder: NIC PU pools, DMA
//!   contexts, PCIe0/PCIe1/SoC-attach pipes, host and SoC memory, CPU
//!   core pools, hardware counters;
//! * [`client::ClientMachine`] — a requester machine;
//! * [`fabric::Fabric`] — wires them together and executes requests over
//!   the five communication paths (RNIC(1), SNIC(1), SNIC(2), SNIC(3)
//!   S2H/H2S).
//!
//! Granularity: one reservation pass per request; TLP counts and
//! segmentation are computed analytically and folded into service times
//! (DESIGN.md §4), so sweeps covering billions of simulated packets run
//! in milliseconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fabric;
pub mod request;
pub mod server;

pub use client::ClientMachine;
pub use fabric::Fabric;
pub use request::{Completion, Endpoint, PathKind, RequestDesc, Verb};
pub use server::{DmaLeg, DpaServe, DpaStats, ServerMachine};
