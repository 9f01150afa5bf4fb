//! `snic-kvstore` — the building blocks of the paper's Figure-1
//! key-value store.
//!
//! Demonstrates the motivating trade-off of off-path SmartNICs:
//!
//! * one-sided designs avoid server CPU but suffer *network
//!   amplification* (one round trip per index probe plus the value
//!   fetch, Figure 1(a));
//! * offloading the index to the SmartNIC SoC collapses a `get` to a
//!   single network round trip, with the SoC pulling the value from
//!   host memory over path 3 (Figure 1(b)) — subject to all the path-3
//!   guidelines the study derives.
//!
//! This crate holds the store's parts: a flat RDMA-readable
//! [`index::HashIndex`] with collision chains, the serving
//! [`store::Design`]s and the YCSB workload shapes in [`workload`]. The
//! rack KV service in `snic-cluster` serves them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod store;
pub mod workload;

pub use index::{Entry, HashIndex, IndexError, Lookup, BUCKET_BYTES};
pub use store::Design;
pub use workload::{KeyDist, Mix};
