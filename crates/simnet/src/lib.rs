//! `simnet` — a deterministic discrete-event simulation toolkit.
//!
//! This crate is the foundation of the off-path SmartNIC reproduction: a
//! small, fully deterministic discrete-event engine ([`engine::Engine`]),
//! integer-nanosecond time ([`time::Nanos`]), resource-reservation
//! primitives ([`resource`]) used to model hardware blocks, measurement
//! collection ([`stats`]), a metrics registry and per-request latency
//! attribution ([`metrics`]), seeded randomness ([`rng`]), and a seeded
//! property-testing harness ([`prop`]).
//!
//! The whole workspace is hermetic: this crate (and every crate above
//! it) has **zero external dependencies**, so the build needs no
//! registry and every bit of stochastic behaviour is in-tree.
//!
//! Design rules (see DESIGN.md §4):
//!
//! * no wall-clock access anywhere — time only advances through the engine;
//! * ties at the same instant are broken FIFO so runs are reproducible;
//! * hardware blocks are servers that requests *reserve* in event order,
//!   so queueing and interference emerge rather than being scripted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod prop;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use arrivals::{
    Admission, AdmissionQueue, Arrival, ArrivalGen, ArrivalProcess, DropPolicy, OpenLoopSpec,
};
pub use engine::{BaselineEngine, Engine, ScheduleError};
pub use faults::{fault_key, DegradedWindow, FaultPlane, FaultSpec};
pub use metrics::{CounterId, HistogramId, Hop, HopBreakdown, Registry, SpanSet};
pub use resource::{Dir, DuplexPipe, MultiServer, Pipe, Reservation, Server};
pub use rng::SimRng;
pub use stats::{Histogram, LatencySummary};
pub use time::{Bandwidth, Nanos, Rate};
pub use trace::{TraceCat, TraceEvent, TraceRing};
