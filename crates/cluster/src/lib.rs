//! Rack-scale cluster runtime: a conservative-lookahead *parallel*
//! discrete-event simulation of the paper's full testbed (Table 2 — 20
//! ConnectX-4 client machines and 3 SmartNIC-carrying servers on one
//! SB7890 switch).
//!
//! Each machine is a *shard* with its own `simnet` engine, run on a pool
//! of worker OS threads. Shards only interact through switch messages,
//! and the wire's one-way latency (450 ns) bounds how soon a message can
//! be seen — the classic conservative lookahead. The runtime executes
//! epochs of that length in parallel and merges cross-shard traffic at
//! epoch barriers in a fixed global order, so results are **byte
//! identical for any worker count** (see `runtime` and DESIGN.md §9).
//!
//! The entry point is [`run_cluster`] with a [`ClusterScenario`] and a
//! set of [`ClusterStream`]s, mirroring `snic-core`'s single-machine
//! `Scenario`/`StreamSpec` API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fm;
pub mod kv;
pub mod msg;
#[cfg(test)]
mod parallel_tests;
mod runtime;
pub mod scenario;
mod shard;
pub mod switch;

pub use kv::{advisor_policy, kv_home_server, KvPlacement, KvPolicy, KvStreamSpec, KvWindowObs};
pub use msg::{FmRespKind, KvOp, KvRespKind, MsgKind, NetMsg, ShardId};
pub use scenario::{
    run_cluster, ClusterResult, ClusterScenario, ClusterStream, ClusterStreamResult,
};
pub use switch::{Delivery, SwitchFabric};
